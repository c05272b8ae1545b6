// The content-addressed transcript store (src/store/): SHA-256 against the
// FIPS 180-4 vectors, leaf/inner hash preimage goldens, on-disk round-trips
// and malformed-image rejection, blob dedup counting, and the O(diff) sync
// contract — identical stores prove equality with zero tree reads, a
// single tampered trial is localized in depth+1 reads per store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "sim/digest.h"
#include "sim/transcript.h"
#include "store/store.h"
#include "verify/shard.h"

namespace fle {
namespace {

// ---- SHA-256 ----------------------------------------------------------------

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(Sha256::of_string("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::of_string("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256::of_string("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamedUpdatesMatchOneShot) {
  // One million 'a', fed in uneven chunks that straddle block boundaries.
  Sha256 hasher;
  const std::string chunk(997, 'a');
  std::size_t fed = 0;
  while (fed < 1000000) {
    const std::size_t take = std::min<std::size_t>(chunk.size(), 1000000 - fed);
    hasher.update(chunk.data(), take);
    fed += take;
  }
  EXPECT_EQ(hasher.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, HardwareBlocksMatchPortable) {
  const Sha256Blocks hardware = sha256_hardware_blocks();
  if (hardware == nullptr) {
    GTEST_SKIP() << "no SHA-extension block function on this CPU or build; only the "
                    "portable path runs";
  }
  std::vector<std::uint8_t> message(1024);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8) * 7 + 1);
  }
  for (std::size_t length = 0; length <= message.size(); ++length) {
    const std::span<const std::uint8_t> prefix(message.data(), length);
    Sha256 portable(sha256_portable_blocks);
    portable.update(prefix);
    const Digest256 expected = portable.finish();
    Sha256 one_shot(hardware);
    one_shot.update(prefix);
    ASSERT_EQ(one_shot.finish(), expected) << "length " << length;
    // The first part stays buffered; the second completes that block and
    // hands the whole blocks after it over in one call.
    for (std::size_t split = 1; split < 64 && split <= length; ++split) {
      Sha256 streamed(hardware);
      streamed.update(prefix.first(split));
      streamed.update(prefix.subspan(split));
      ASSERT_EQ(streamed.finish(), expected) << "length " << length << ", split at " << split;
    }
  }
  // The default-built hasher agrees as well.
  Sha256 portable(sha256_portable_blocks);
  portable.update(message);
  EXPECT_EQ(Sha256::of(message), portable.finish());
}

TEST(Digest256, HexRoundTripsEitherCase) {
  const Digest256 digest = Sha256::of_string("abc");
  const auto lower = Digest256::from_hex(digest.hex());
  std::string upper_hex = digest.hex();
  for (char& c : upper_hex) c = static_cast<char>(std::toupper(c));
  const auto upper = Digest256::from_hex(upper_hex);
  ASSERT_TRUE(lower.has_value());
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(*lower, digest);
  EXPECT_EQ(*upper, digest);
  EXPECT_FALSE(Digest256::from_hex("zz").has_value());
  EXPECT_FALSE(Digest256::from_hex(digest.hex().substr(1)).has_value());
}

// ---- tree shape and hash preimages ------------------------------------------

TEST(Store, DepthIsTheSmallestCoveringPower) {
  EXPECT_EQ(store_depth(1), 1);
  EXPECT_EQ(store_depth(16), 1);
  EXPECT_EQ(store_depth(17), 2);
  EXPECT_EQ(store_depth(256), 2);
  EXPECT_EQ(store_depth(257), 3);
}

/// One transcript with a recognizable event stream; distinct per `tag`.
ExecutionTranscript make_transcript(std::uint64_t tag) {
  ExecutionTranscript transcript;
  transcript.delivery(1, tag % 8, tag * 3 + 1);
  transcript.turn(2, tag % 5, tag);
  transcript.decision(tag % 4, false, tag % 7);
  return transcript;
}

std::vector<ExecutionTranscript> make_transcripts(std::size_t count, std::uint64_t salt = 0) {
  std::vector<ExecutionTranscript> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(make_transcript(salt + i));
  return out;
}

TEST(Store, LeafAndRootHashesMatchThePreimageSpec) {
  const std::vector<ExecutionTranscript> transcripts = make_transcripts(1);
  StoreWriter writer;
  writer.add_scenario("spec-line", transcripts);
  const StoreReader reader = StoreReader::from_bytes(writer.finish());
  ASSERT_EQ(reader.depth(), 1);

  // Leaf hash: SHA-256 of the encoded blob, nothing else.
  const Digest256 leaf = Sha256::of(transcripts[0].encode());
  EXPECT_EQ(leaf, transcripts[0].content_key());

  // Root (inner, level 1) hash: 'I', level byte, then 16 child slots of 32
  // bytes each — present children their hash, absent children zeros.
  // Offsets are location metadata and stay OUT of the preimage.
  std::vector<std::uint8_t> preimage(2 + 16 * 32, 0);
  preimage[0] = 'I';
  preimage[1] = 1;
  std::copy(leaf.bytes.begin(), leaf.bytes.end(), preimage.begin() + 2);
  EXPECT_EQ(reader.root_hash(), Sha256::of(preimage));
}

// ---- round trips and rejection ----------------------------------------------

TEST(Store, TwoScenarioImageIsPinned) {
  // Recorded from the transcript that kept events and encoded them on
  // demand: the root hash pins every leaf blob and the tree above them,
  // the image hash pins the layout and the meta record as well.  Trials
  // 17-19 of "alpha" and 0-2 of "beta" share blobs.
  StoreWriter writer;
  writer.add_scenario("alpha", make_transcripts(20));
  writer.add_scenario("beta", make_transcripts(5, 17));
  const std::vector<std::uint8_t> image = writer.finish();
  EXPECT_EQ(writer.unique_blobs(), 22u);
  EXPECT_EQ(image.size(), 1473u);
  EXPECT_EQ(StoreReader::from_bytes(image).root_hash().hex(),
            "03a7518d837b26644f335339a7da566f622ad7ed649b2d397de724e895482ccc");
  EXPECT_EQ(Sha256::of(image).hex(),
            "83999535c12e2e968af9959e0d754879a99641332d01f60535db31aa25d87c9d");
}

TEST(Store, RoundTripsTranscriptsScenariosAndCounters) {
  const std::vector<ExecutionTranscript> first = make_transcripts(20, 0);
  const std::vector<ExecutionTranscript> second = make_transcripts(7, 100);
  StoreWriter writer;
  writer.add_scenario("scenario-a", first);
  writer.add_scenario("scenario-b", second);
  const StoreReader reader = StoreReader::from_bytes(writer.finish());

  EXPECT_EQ(reader.trial_count(), 27u);
  EXPECT_EQ(reader.depth(), 2);
  ASSERT_EQ(reader.scenarios().size(), 2u);
  EXPECT_EQ(reader.scenarios()[0], (StoreScenario{"scenario-a", 0, 20}));
  EXPECT_EQ(reader.scenarios()[1], (StoreScenario{"scenario-b", 20, 7}));
  for (std::size_t t = 0; t < 20; ++t) {
    EXPECT_EQ(reader.read_transcript(t), first[t]) << "trial " << t;
  }
  for (std::size_t t = 0; t < 7; ++t) {
    EXPECT_EQ(reader.read_transcript(20 + t), second[t]) << "trial " << 20 + t;
  }
}

TEST(Store, FileAndMemoryBackedsAgree) {
  const std::vector<ExecutionTranscript> transcripts = make_transcripts(5);
  StoreWriter writer;
  writer.add_scenario("spec", transcripts);
  const std::string path = testing::TempDir() + "fle_store_roundtrip.flst";
  writer.write_file(path);
  const StoreReader from_file = StoreReader::open_file(path);
  const StoreReader from_memory = StoreReader::from_bytes(writer.finish());
  EXPECT_EQ(from_file.root_hash(), from_memory.root_hash());
  EXPECT_EQ(from_file.read_transcript(3), from_memory.read_transcript(3));
  std::remove(path.c_str());
}

TEST(Store, EmptyWriterThrows) {
  const StoreWriter writer;
  EXPECT_THROW((void)writer.finish(), std::logic_error);
}

TEST(Store, MalformedImagesAreRejected) {
  StoreWriter writer;
  const std::vector<ExecutionTranscript> transcripts = make_transcripts(3);
  writer.add_scenario("spec", transcripts);
  const std::vector<std::uint8_t> good = writer.finish();

  {  // wrong magic
    std::vector<std::uint8_t> bad = good;
    bad[0] = 'X';
    EXPECT_THROW((void)StoreReader::from_bytes(std::move(bad)), std::invalid_argument);
  }
  {  // unsupported version
    std::vector<std::uint8_t> bad = good;
    bad[4] = 99;
    EXPECT_THROW((void)StoreReader::from_bytes(std::move(bad)), std::invalid_argument);
  }
  {  // truncated footer
    std::vector<std::uint8_t> bad(good.begin(), good.end() - 10);
    EXPECT_THROW((void)StoreReader::from_bytes(std::move(bad)), std::invalid_argument);
  }
  {  // corrupt end magic
    std::vector<std::uint8_t> bad = good;
    bad[bad.size() - 1] ^= 0x01;
    EXPECT_THROW((void)StoreReader::from_bytes(std::move(bad)), std::invalid_argument);
  }
  {  // corrupt footer root hash: opening is lazy, the first descent throws
    std::vector<std::uint8_t> bad = good;
    bad[bad.size() - 5] ^= 0x01;  // last byte of the footer's 32-byte root hash
    const StoreReader reader = StoreReader::from_bytes(std::move(bad));
    EXPECT_THROW((void)reader.read_blob(0), std::invalid_argument);
  }
  {  // a flipped byte inside the first leaf record surfaces on first touch
    std::vector<std::uint8_t> bad = good;
    bad[7] ^= 0x01;  // header is 5 bytes; leaf 0's record starts right after
    const StoreReader reader = StoreReader::from_bytes(std::move(bad));
    EXPECT_THROW((void)reader.read_blob(0), std::invalid_argument);
  }
}

// ---- dedup ------------------------------------------------------------------

TEST(Store, IdenticalBlobsAreStoredOnce) {
  const std::vector<ExecutionTranscript> transcripts = make_transcripts(10);
  StoreWriter writer;
  writer.add_scenario("twin-a", transcripts);
  writer.add_scenario("twin-b", transcripts);  // every leaf repeats
  EXPECT_EQ(writer.trial_count(), 20u);
  EXPECT_EQ(writer.unique_blobs(), 10u);

  const StoreReader reader = StoreReader::from_bytes(writer.finish());
  EXPECT_EQ(reader.unique_blobs(), 10u);
  EXPECT_EQ(reader.logical_blob_bytes(), 2 * reader.stored_blob_bytes());
  // Both copies read back intact despite sharing records.
  EXPECT_EQ(reader.read_transcript(3), reader.read_transcript(13));
}

TEST(Store, BlobAndTranscriptPathsBuildIdenticalImages) {
  // Transcripts decoded from their blobs (as read_transcript and the keyed
  // fabric and shard paths produce them) build the image the recorded
  // transcripts build: fle_store tamper rebuilds a store that way.
  const std::vector<ExecutionTranscript> transcripts = make_transcripts(9);
  std::vector<ExecutionTranscript> decoded;
  std::vector<ExecutionTranscript> keyed;
  for (const ExecutionTranscript& t : transcripts) {
    const std::vector<std::uint8_t> blob = t.encode();
    decoded.push_back(ExecutionTranscript::decode(blob));
    keyed.push_back(ExecutionTranscript::decode(blob, Sha256::of(blob)));
  }

  StoreWriter from_transcripts;
  from_transcripts.add_scenario("spec", transcripts);
  StoreWriter from_decoded;
  from_decoded.add_scenario("spec", decoded);
  StoreWriter from_keyed;
  from_keyed.add_scenario("spec", keyed);
  const std::vector<std::uint8_t> image = from_transcripts.finish();
  EXPECT_EQ(from_decoded.finish(), image);
  EXPECT_EQ(from_keyed.finish(), image);
}

TEST(Store, TranscriptsParsedFromAShardRowBuildTheSameImage) {
  // Parsed transcripts carry the content keys their row's store_keys
  // column was checked against; the store keys its leaves by those and
  // must build exactly the image the recorded transcripts build.
  StoreWriter recorded;
  StoreWriter parsed;
  for (const char* protocol : {"basic-lead", "alead-uni"}) {
    ScenarioSpec spec;
    spec.protocol = protocol;
    spec.n = 6;
    spec.trials = 40;
    spec.seed = 11;
    spec.record_transcripts = true;
    verify::ShardRow row;
    row.spec_line = protocol;
    row.result = run_scenario(spec);
    const verify::ShardRow parsed_row = verify::parse_shard_row(verify::format_shard_row(row));
    ASSERT_EQ(parsed_row.result.per_trial_transcript.size(), spec.trials);
    recorded.add_scenario(protocol, row.result.per_trial_transcript);
    parsed.add_scenario(protocol, parsed_row.result.per_trial_transcript);
  }
  EXPECT_EQ(recorded.finish(), parsed.finish());
}

// ---- sync -------------------------------------------------------------------

TEST(StoreSync, IdenticalStoresCompareByRootAlone) {
  const std::vector<ExecutionTranscript> transcripts = make_transcripts(40);
  StoreWriter writer;
  writer.add_scenario("spec", transcripts);
  const StoreReader a = StoreReader::from_bytes(writer.finish());
  const StoreReader b = StoreReader::from_bytes(writer.finish());

  const SyncReport report = sync_stores(a, b);
  EXPECT_TRUE(report.identical);
  EXPECT_TRUE(report.divergent_trials.empty());
  // The whole comparison is one footer-hash equality: zero tree reads.
  EXPECT_EQ(report.nodes_read_a, 0u);
  EXPECT_EQ(report.nodes_read_b, 0u);
}

TEST(StoreSync, SingleTamperedTrialIsLocalizedInDepthReads) {
  std::vector<ExecutionTranscript> transcripts = make_transcripts(40);
  StoreWriter writer_a;
  writer_a.add_scenario("spec", transcripts);
  const StoreReader a = StoreReader::from_bytes(writer_a.finish());

  const std::uint64_t tampered = 23;
  transcripts[tampered] = make_transcript(9999);
  StoreWriter writer_b;
  writer_b.add_scenario("spec", transcripts);
  const StoreReader b = StoreReader::from_bytes(writer_b.finish());

  const SyncReport report = sync_stores(a, b);
  EXPECT_FALSE(report.identical);
  EXPECT_TRUE(report.meta_divergence.empty());
  EXPECT_EQ(report.divergent_trials, (std::vector<std::uint64_t>{tampered}));
  ASSERT_TRUE(report.first.has_value());
  EXPECT_EQ(report.first->trial, tampered);
  EXPECT_NE(report.first->what.find(" vs "), std::string::npos) << report.first->what;
  // O(diff): one root-to-leaf path per store — depth inner nodes plus the
  // divergent leaf — not a scan of all 40 trials.
  const std::uint64_t path = static_cast<std::uint64_t>(a.depth()) + 1;
  EXPECT_EQ(report.nodes_read_a, path);
  EXPECT_EQ(report.nodes_read_b, path);
}

TEST(StoreSync, EveryDivergenceIsReportedUpToTheCap) {
  std::vector<ExecutionTranscript> transcripts = make_transcripts(30);
  StoreWriter writer_a;
  writer_a.add_scenario("spec", transcripts);
  const StoreReader a = StoreReader::from_bytes(writer_a.finish());

  for (const std::uint64_t t : {3u, 17u, 28u}) transcripts[t] = make_transcript(5000 + t);
  StoreWriter writer_b;
  writer_b.add_scenario("spec", transcripts);
  const StoreReader b = StoreReader::from_bytes(writer_b.finish());

  const SyncReport all = sync_stores(a, b);
  EXPECT_EQ(all.divergent_trials, (std::vector<std::uint64_t>{3, 17, 28}));
  EXPECT_FALSE(all.truncated);

  const SyncReport capped = sync_stores(a, b, /*max_divergent=*/2);
  EXPECT_EQ(capped.divergent_trials.size(), 2u);
  EXPECT_TRUE(capped.truncated);
}

TEST(StoreSync, MetaDivergenceShortCircuitsWithoutDescent) {
  StoreWriter writer_a;
  writer_a.add_scenario("spec", make_transcripts(10));
  StoreWriter writer_b;
  writer_b.add_scenario("spec", make_transcripts(12));
  const StoreReader a = StoreReader::from_bytes(writer_a.finish());
  const StoreReader b = StoreReader::from_bytes(writer_b.finish());

  const SyncReport report = sync_stores(a, b);
  EXPECT_FALSE(report.identical);
  EXPECT_FALSE(report.meta_divergence.empty());
  EXPECT_EQ(report.nodes_read_a, 0u);
  EXPECT_EQ(report.nodes_read_b, 0u);
}

}  // namespace
}  // namespace fle

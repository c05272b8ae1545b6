// The unified execution-transcript subsystem (sim/transcript.h, DESIGN.md
// §7): codec round trips, record -> replay equality on all four runtime
// families at 1/4/8 workers, fresh-vs-reused engine capture, ring schedule
// re-drive (including divergence detection), turn-game action re-drive, and
// sharded-vs-monolithic capture merging.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/scenario.h"
#include "attacks/deviation.h"
#include "core/rng.h"
#include "fullinfo/baton.h"
#include "fullinfo/turn_game.h"
#include "protocols/basic_lead.h"
#include "sim/digest.h"
#include "sim/engine.h"
#include "sim/transcript.h"
#include "verify/shard.h"

namespace fle {
namespace {

/// Runs the (deviated) profile on `engine`, its strategies in a fresh arena.
Outcome run_profile(RingEngine& engine, const RingProtocol& protocol,
                    const Deviation* deviation = nullptr) {
  StrategyArena arena;
  std::vector<RingStrategy*> profile;
  compose_profile_into(protocol, deviation, engine.n(), arena, profile);
  return engine.run(profile);
}

// ---- the stream itself ------------------------------------------------------

TEST(Transcript, OrderSensitivity) {
  ExecutionTranscript a;
  ExecutionTranscript b;
  a.delivery(1, 2, 3);
  a.delivery(4, 5, 6);
  b.delivery(4, 5, 6);
  b.delivery(1, 2, 3);
  EXPECT_FALSE(a == b);
}

TEST(Transcript, ClearRestartsTheRecording) {
  ExecutionTranscript fresh;
  fresh.delivery(1, 2, 3);
  ExecutionTranscript t;
  t.delivery(4, 5, 6);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t == ExecutionTranscript());
  t.delivery(1, 2, 3);
  EXPECT_TRUE(t == fresh);
}

// ---- first_divergence ---------------------------------------------------------

/// Two deliveries, (0, 1, 7) and (1, 2, 8), then a decision.
ExecutionTranscript three_events() {
  ExecutionTranscript t;
  t.delivery(0, 1, 7);
  t.delivery(1, 2, 8);
  t.decision(2, false, 1);
  return t;
}

TEST(FirstDivergence, EqualTranscriptsGiveNone) {
  EXPECT_FALSE(first_divergence(three_events(), three_events()).has_value());
  EXPECT_FALSE(first_divergence(ExecutionTranscript(), ExecutionTranscript()).has_value());
}

TEST(FirstDivergence, ADifferingEventGivesItsIndexAndBothEvents) {
  ExecutionTranscript replay;
  replay.delivery(0, 1, 7);
  replay.delivery(1, 3, 8);
  replay.decision(2, false, 1);
  const auto divergence = first_divergence(three_events(), replay);
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->index, 1u);
  EXPECT_EQ(divergence->what,
            "event 1: delivery step=1 receiver=2 value=8 vs delivery step=1 receiver=3 value=8");
}

TEST(FirstDivergence, APrefixGivesTheShorterLengthAndBothLengths) {
  ExecutionTranscript prefix;
  prefix.delivery(0, 1, 7);
  const auto longer_recording = first_divergence(three_events(), prefix);
  ASSERT_TRUE(longer_recording.has_value());
  EXPECT_EQ(longer_recording->index, 1u);
  EXPECT_EQ(longer_recording->what, "3 vs 1 events");
  const auto longer_replay = first_divergence(prefix, three_events());
  ASSERT_TRUE(longer_replay.has_value());
  EXPECT_EQ(longer_replay->index, 1u);
  EXPECT_EQ(longer_replay->what, "1 vs 3 events");
}

TEST(Transcript, CodecRoundTripsEveryEventKind) {
  ExecutionTranscript t;
  t.delivery(0, 0, 0);
  t.delivery(1u << 20, 97, ~0ull);  // multi-byte varints
  t.turn(7, 3, 2);
  t.phase(4, 12);
  t.decision(5, true, 0);
  const ExecutionTranscript decoded = ExecutionTranscript::decode(t.encode());
  EXPECT_TRUE(t == decoded);
  ASSERT_EQ(decoded.events().size(), t.events().size());
  for (std::size_t i = 0; i < t.events().size(); ++i) {
    EXPECT_TRUE(t.events()[i] == decoded.events()[i]);
  }
}

TEST(Transcript, EncodeIsExactlySized) {
  // For each varint width w from 1 to 10 bytes, the smallest and largest
  // values of that width, in every field of one event.
  ExecutionTranscript all;
  for (int width = 1; width <= 10; ++width) {
    const std::uint64_t smallest = width == 1 ? 0 : std::uint64_t{1} << (7 * (width - 1));
    const std::uint64_t largest =
        width == 10 ? ~std::uint64_t{0} : (std::uint64_t{1} << (7 * width)) - 1;
    for (const std::uint64_t value : {smallest, largest}) {
      SCOPED_TRACE(value);
      ExecutionTranscript one;
      one.delivery(value, value, value);
      const std::vector<std::uint8_t> bytes = one.encode();
      // Magic, a one-byte count, the kind byte and three w-byte varints.
      EXPECT_EQ(bytes.size(), 4u + 1u + 1u + 3u * static_cast<std::size_t>(width));
      EXPECT_EQ(bytes.size(), bytes.capacity());
      EXPECT_EQ(ExecutionTranscript::decode(bytes).encode(), bytes);
      all.turn(value, largest, smallest);
    }
  }
  // Enough events for a two-byte count.
  for (std::uint64_t i = 0; i < 200; ++i) all.phase(i, i << 50);
  const std::vector<std::uint8_t> bytes = all.encode();
  EXPECT_EQ(bytes.size(), bytes.capacity());
  const ExecutionTranscript decoded = ExecutionTranscript::decode(bytes);
  EXPECT_TRUE(decoded == all);
  EXPECT_EQ(decoded.encode(), bytes);
}

TEST(Transcript, EmptyTranscriptRoundTrips) {
  ExecutionTranscript t;
  const ExecutionTranscript decoded = ExecutionTranscript::decode(t.encode());
  EXPECT_TRUE(t == decoded);
  EXPECT_EQ(decoded.size(), 0u);
}

TEST(Transcript, DecodeRejectsMalformedBuffers) {
  ExecutionTranscript t;
  t.delivery(1, 2, 3);
  std::vector<std::uint8_t> bytes = t.encode();
  EXPECT_THROW(ExecutionTranscript::decode(std::span<const std::uint8_t>(bytes).first(2)),
               std::invalid_argument);  // truncated magic
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(ExecutionTranscript::decode(bad_magic), std::invalid_argument);
  std::vector<std::uint8_t> truncated = bytes;
  truncated.pop_back();
  EXPECT_THROW(ExecutionTranscript::decode(truncated), std::invalid_argument);
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(ExecutionTranscript::decode(trailing), std::invalid_argument);

  // Overlong varints (a multi-byte varint whose last byte is 0) decode to
  // the same value as the minimal form but re-encode shorter, so decode
  // would not round-trip them: refused.  bytes is 'FLET', count 01, then
  // the event: kind 00, a 01, b 02, c 03.
  ASSERT_EQ(bytes, (std::vector<std::uint8_t>{'F', 'L', 'E', 'T', 1, 0, 1, 2, 3}));
  std::vector<std::uint8_t> overlong_count = bytes;
  overlong_count[4] = 0x81;
  overlong_count.insert(overlong_count.begin() + 5, 0x00);
  EXPECT_THROW(ExecutionTranscript::decode(overlong_count), std::invalid_argument);
  std::vector<std::uint8_t> overlong_field = bytes;
  overlong_field[6] = 0x81;
  overlong_field.insert(overlong_field.begin() + 7, 0x00);
  EXPECT_THROW(ExecutionTranscript::decode(overlong_field), std::invalid_argument);
  const std::vector<std::uint8_t> overlong_zero = {0x80, 0x00};
  std::size_t index = 0;
  EXPECT_THROW(leb128_get(overlong_zero, index), std::invalid_argument);
  // A lone 00 is the minimal encoding of 0.
  index = 0;
  EXPECT_EQ(leb128_get(std::vector<std::uint8_t>{0x00}, index), 0u);
}

// ---- the canonical bytes, pinned ---------------------------------------------

/// Every event kind, with varint fields of widths 1 (0, 1, 127), 2 (128,
/// 16383) and 10 (2^64 - 1, 2^63).
ExecutionTranscript pinned_transcript() {
  ExecutionTranscript t;
  t.delivery(0, 1, 127);
  t.turn(128, 16383, 2);
  t.phase(3, ~0ull);
  t.decision(4, true, 1ull << 63);
  return t;
}

std::string hex_of(std::span<const std::uint8_t> bytes) {
  std::string out;
  append_hex(out, bytes);
  return out;
}

TEST(Transcript, CanonicalBytesArePinned) {
  // Recorded from the transcript that kept events and encoded them on
  // demand.  A round trip cannot see the bytes drift; these literals can.
  const ExecutionTranscript t = pinned_transcript();
  EXPECT_EQ(hex_of(t.bytes()),
            "464c4554"                          // FLET
            "04"                                // 4 events
            "00" "00" "01" "7f"                 // delivery 0 1 127
            "01" "8001" "ff7f" "02"             // turn 128 16383 2
            "02" "03" "ffffffffffffffffff01" "00"  // phase 3 2^64-1 0
            "03" "04" "01" "80808080808080808001");  // decision 4 1 2^63
  EXPECT_EQ(t.content_key().hex(),
            "0bda98d3ec165f7fa785c44dfd2e200daa8c82cebcc311a307a4ed34646953d2");
  EXPECT_EQ(t.encode(), std::vector<std::uint8_t>(t.bytes().begin(), t.bytes().end()));

  // 300 events: the count varint took its second byte at the 128th.
  ExecutionTranscript long_run;
  for (std::uint64_t i = 0; i < 300; ++i) long_run.delivery(i, i % 7, i * i);
  ASSERT_EQ(long_run.bytes().size(), 1838u);
  EXPECT_EQ(hex_of(long_run.bytes().first(6)), "464c4554ac02");
  EXPECT_EQ(long_run.content_key().hex(),
            "acad5bb5510d729fe3eede2e6d37ee0a41c95f4bb33e647f2faa73a39d4a126f");

  // An empty transcript holds the magic and a zero count.
  EXPECT_EQ(hex_of(ExecutionTranscript().bytes()), "464c455400");
}

TEST(Transcript, HeldBytesStayCanonicalAsTheCountWidens) {
  // Around each count where the count varint widens (2^7, 2^14), the held
  // bytes decode to the same transcript and the events read back in order.
  ExecutionTranscript t;
  std::uint64_t recorded = 0;
  for (const std::uint64_t widen : {std::uint64_t{1} << 7, std::uint64_t{1} << 14}) {
    for (; recorded <= widen + 1; ++recorded) {
      t.record(static_cast<TranscriptEventKind>(recorded % 4), recorded, recorded >> 3,
               recorded * 0x9e3779b97f4a7c15ull);
      if (recorded + 2 < widen) continue;
      SCOPED_TRACE(recorded + 1);
      const ExecutionTranscript decoded = ExecutionTranscript::decode(t.bytes());
      EXPECT_TRUE(decoded == t);
      EXPECT_EQ(decoded.size(), recorded + 1);
    }
  }
  const std::vector<TranscriptEvent> events = t.events();
  ASSERT_EQ(events.size(), recorded);
  for (std::uint64_t i = 0; i < recorded; ++i) {
    EXPECT_EQ(events[i], (TranscriptEvent{static_cast<TranscriptEventKind>(i % 4), i, i >> 3,
                                          i * 0x9e3779b97f4a7c15ull}));
  }
}

// ---- FLET mutation ------------------------------------------------------------

/// Where the varints of a canonical FLET blob start and end: the count,
/// then three per event; and where each event's kind byte sits.
struct BlobLayout {
  std::vector<std::pair<std::size_t, std::size_t>> varints;  ///< [begin, end)
  std::vector<std::size_t> kinds;
};

BlobLayout layout_of(std::span<const std::uint8_t> blob) {
  BlobLayout layout;
  std::size_t i = 4;
  const auto varint = [&] {
    const std::size_t begin = i;
    (void)leb128_get(blob, i);
    layout.varints.emplace_back(begin, i);
  };
  varint();
  while (i < blob.size()) {
    layout.kinds.push_back(i++);
    for (int field = 0; field < 3; ++field) varint();
  }
  return layout;
}

/// One mutant of `blob` (`other` is a second golden blob, for splices).
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& blob,
                                 const std::vector<std::uint8_t>& other, int op,
                                 std::uint64_t& rng) {
  std::vector<std::uint8_t> out = blob;
  const BlobLayout layout = layout_of(blob);
  switch (op) {
    case 0: {  // bit flip
      out[splitmix64(rng) % out.size()] ^= static_cast<std::uint8_t>(1u << (splitmix64(rng) % 8));
      break;
    }
    case 1:  // truncation, to any shorter length
      out.resize(splitmix64(rng) % out.size());
      break;
    case 2: {  // splice: a prefix of one blob, a suffix of the other
      const std::size_t cut = splitmix64(rng) % (out.size() + 1);
      const std::size_t from = splitmix64(rng) % (other.size() + 1);
      out.resize(cut);
      out.insert(out.end(), other.begin() + static_cast<std::ptrdiff_t>(from), other.end());
      break;
    }
    case 3: {  // count + 1 or count - 1, re-encoded minimally
      std::size_t index = 4;
      const std::uint64_t count = leb128_get(blob, index);
      std::vector<std::uint8_t> head(out.begin(), out.begin() + 4);
      leb128_put(head, (splitmix64(rng) % 2 == 0 || count == 0) ? count + 1 : count - 1);
      out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(index));
      out.insert(out.begin(), head.begin(), head.end());
      break;
    }
    case 4: {  // an overlong varint: 1 to 3 redundant zero groups (past 10 bytes it overflows)
      const std::size_t end = layout.varints[splitmix64(rng) % layout.varints.size()].second;
      out[end - 1] |= 0x80;
      std::vector<std::uint8_t> zeros(1 + splitmix64(rng) % 3, 0x80);
      zeros.back() = 0x00;
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(end), zeros.begin(), zeros.end());
      break;
    }
    default: {  // an event kind byte from 4 to 255
      if (layout.kinds.empty()) {
        out.push_back(static_cast<std::uint8_t>(4 + splitmix64(rng) % 252));
        break;
      }
      out[layout.kinds[splitmix64(rng) % layout.kinds.size()]] =
          static_cast<std::uint8_t>(4 + splitmix64(rng) % 252);
      break;
    }
  }
  return out;
}

TEST(TranscriptMutation, EveryMutantIsRefusedOrReproducedExactly) {
  // Golden blobs: empty, the pinned one, one with a two-byte count, and
  // captures from the ring and the turn-game runtimes.
  std::vector<std::vector<std::uint8_t>> golden = {ExecutionTranscript().encode(),
                                                   pinned_transcript().encode()};
  ExecutionTranscript long_run;
  for (std::uint64_t i = 0; i < 200; ++i) long_run.delivery(i, i % 5, i << 40);
  golden.push_back(long_run.encode());
  for (const auto& [topology, protocol] :
       {std::pair<TopologyKind, const char*>{TopologyKind::kRing, "alead-uni"},
        std::pair<TopologyKind, const char*>{TopologyKind::kTree, "alternating-xor"}}) {
    ScenarioSpec spec;
    spec.topology = topology;
    spec.protocol = protocol;
    spec.n = 6;
    spec.trials = 3;
    spec.seed = 77;
    spec.record_transcripts = true;
    for (const ExecutionTranscript& t : run_scenario(spec).per_trial_transcript) {
      golden.push_back(t.encode());
    }
  }

  constexpr int kOps = 6;
  const char* const kOpNames[kOps] = {"bit flip", "truncation", "splice",
                                      "count +-1", "overlong varint", "kind 4-255"};
  std::size_t refused[kOps] = {};
  std::size_t accepted[kOps] = {};
  std::uint64_t rng = 0x5eed0f1e7ull;
  for (int round = 0; round < 600; ++round) {
    for (std::size_t g = 0; g < golden.size(); ++g) {
      const int op = static_cast<int>(splitmix64(rng) % kOps);
      const std::vector<std::uint8_t>& other = golden[splitmix64(rng) % golden.size()];
      const std::vector<std::uint8_t> mutant = mutate(golden[g], other, op, rng);
      SCOPED_TRACE(std::string(kOpNames[op]) + " of golden blob " + std::to_string(g) +
                   ": " + hex_of(mutant));
      const Digest256 own_key = Sha256::of(mutant);
      std::optional<ExecutionTranscript> decoded;
      try {
        decoded = ExecutionTranscript::decode(mutant);
      } catch (const std::invalid_argument&) {
        ++refused[op];
        // Keyed under its own hash, the mutant is refused all the same.
        EXPECT_THROW(ExecutionTranscript::decode(mutant, own_key), std::invalid_argument);
        continue;
      }
      ++accepted[op];
      EXPECT_EQ(decoded->encode(), mutant);
      EXPECT_EQ(ExecutionTranscript::decode(mutant, own_key).content_key(), own_key);
      // Recording the decoded events again rebuilds the same transcript:
      // the scan's count is the one record() keeps.
      ExecutionTranscript rebuilt;
      for (const TranscriptEvent& e : decoded->events()) rebuilt.record(e.kind, e.a, e.b, e.c);
      EXPECT_TRUE(rebuilt == *decoded);
      EXPECT_EQ(rebuilt.size(), decoded->size());
    }
  }
  // Truncations, count changes, overlong varints and unknown kinds never
  // make a canonical blob.
  for (const int op : {1, 3, 4, 5}) {
    EXPECT_EQ(accepted[op], 0u) << kOpNames[op];
    EXPECT_GT(refused[op], 0u) << kOpNames[op];
  }
  EXPECT_GT(refused[0] + refused[2], 0u);
  EXPECT_GT(accepted[0] + accepted[2], 0u);
}

// ---- record -> replay across the four families ------------------------------

ScenarioSpec family_spec(TopologyKind topology, const char* protocol, int n) {
  ScenarioSpec spec;
  spec.topology = topology;
  spec.protocol = protocol;
  spec.n = n;
  spec.trials = 24;
  spec.seed = 2026;
  spec.record_transcripts = true;
  return spec;
}

TEST(Transcript, KeyedDecodeCarriesItsKey) {
  ExecutionTranscript t;
  t.delivery(1, 2, 3);
  t.decision(0, false, 1);
  const std::vector<std::uint8_t> bytes = t.encode();
  const Digest256 key = Sha256::of(bytes);
  EXPECT_THROW(ExecutionTranscript::decode(bytes, Sha256::of_string("another blob")),
               std::invalid_argument);

  ExecutionTranscript keyed = ExecutionTranscript::decode(bytes, key);
  EXPECT_TRUE(keyed == t);
  EXPECT_EQ(keyed.content_key(), key);
  ExecutionTranscript copy = keyed;
  EXPECT_EQ(copy.content_key(), key);
  const ExecutionTranscript moved = std::move(copy);
  EXPECT_EQ(moved.content_key(), key);

  // record() and clear() drop the key: content_key() hashes the new
  // content again.
  keyed.delivery(4, 5, 6);
  EXPECT_NE(keyed.content_key(), key);
  EXPECT_EQ(keyed.content_key(), Sha256::of(keyed.encode()));
  ExecutionTranscript cleared = ExecutionTranscript::decode(bytes, key);
  cleared.clear();
  EXPECT_NE(cleared.content_key(), key);
  EXPECT_EQ(cleared.content_key(), Sha256::of(cleared.encode()));

  // On every runtime's captures, decode round-trips the bytes exactly, so
  // the key keyed decode carries is the recorded transcript's own.
  for (const auto& [topology, protocol] :
       {std::pair<TopologyKind, const char*>{TopologyKind::kRing, "alead-uni"},
        std::pair<TopologyKind, const char*>{TopologyKind::kGraph, "shamir-lead"},
        std::pair<TopologyKind, const char*>{TopologyKind::kSync, "sync-ring-lead"},
        std::pair<TopologyKind, const char*>{TopologyKind::kTree, "alternating-xor"}}) {
    SCOPED_TRACE(protocol);
    const ScenarioResult result = run_scenario(family_spec(topology, protocol, 6));
    ASSERT_FALSE(result.per_trial_transcript.empty());
    for (const ExecutionTranscript& recorded : result.per_trial_transcript) {
      const std::vector<std::uint8_t> b = recorded.encode();
      EXPECT_EQ(ExecutionTranscript::decode(b).encode(), b);
      EXPECT_EQ(ExecutionTranscript::decode(b, Sha256::of(b)).content_key(),
                recorded.content_key());
    }
  }
}

void expect_equal_transcripts(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.per_trial_transcript.size(), b.per_trial_transcript.size());
  for (std::size_t t = 0; t < a.per_trial_transcript.size(); ++t) {
    const auto divergence = first_divergence(a.per_trial_transcript[t], b.per_trial_transcript[t]);
    EXPECT_FALSE(divergence.has_value())
        << "trial " << t << ": " << (divergence ? divergence->what : "");
  }
}

class TranscriptFamilies
    : public ::testing::TestWithParam<std::pair<TopologyKind, const char*>> {};

TEST_P(TranscriptFamilies, CaptureIsWorkerCountInvariant) {
  const auto [topology, protocol] = GetParam();
  ScenarioSpec spec = family_spec(topology, protocol, 8);
  spec.threads = 1;
  const ScenarioResult one = run_scenario(spec);
  ASSERT_EQ(one.per_trial_transcript.size(), spec.trials);
  EXPECT_TRUE(one.transcripts_recorded);
  for (const ExecutionTranscript& t : one.per_trial_transcript) {
    EXPECT_GT(t.size(), 0u);
  }
  for (const int threads : {4, 8}) {
    ScenarioSpec rerun = spec;
    rerun.threads = threads;
    const ScenarioResult r = run_scenario(rerun);
    SCOPED_TRACE(threads);
    expect_equal_transcripts(one, r);
  }
}

TEST_P(TranscriptFamilies, ShardedCaptureMergesIntoTheMonolithicOne) {
  const auto [topology, protocol] = GetParam();
  const ScenarioSpec spec = family_spec(topology, protocol, 6);
  const ScenarioResult whole = run_scenario(spec);

  ScenarioSpec first_half = spec;
  first_half.trial_count = spec.trials / 2;
  ScenarioSpec second_half = spec;
  second_half.trial_offset = spec.trials / 2;
  ScenarioResult merged = run_scenario(first_half);
  merged.merge(run_scenario(second_half));

  ASSERT_EQ(merged.trials, whole.trials);
  expect_equal_transcripts(whole, merged);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, TranscriptFamilies,
    ::testing::Values(std::pair<TopologyKind, const char*>{TopologyKind::kRing, "alead-uni"},
                      std::pair<TopologyKind, const char*>{TopologyKind::kGraph,
                                                           "shamir-lead"},
                      std::pair<TopologyKind, const char*>{TopologyKind::kSync,
                                                           "sync-ring-lead"},
                      std::pair<TopologyKind, const char*>{TopologyKind::kFullInfo, "baton"},
                      std::pair<TopologyKind, const char*>{TopologyKind::kTree,
                                                           "alternating-xor"}));

TEST(TranscriptScenario, FreshEngineMatchesTheReusedWorkspaceCapture) {
  // run_scenario records through per-worker reused engines; a fresh engine
  // per trial must produce the identical stream (the §4 reuse contract
  // extended to transcripts).
  ScenarioSpec spec = family_spec(TopologyKind::kRing, "basic-lead", 12);
  spec.trials = 8;
  const ScenarioResult reused = run_scenario(spec);
  ASSERT_EQ(reused.per_trial_transcript.size(), 8u);

  BasicLeadProtocol protocol;
  for (std::size_t t = 0; t < spec.trials; ++t) {
    EngineOptions options;
    options.step_limit = scenario_ring_step_limit(spec, protocol);
    RingEngine fresh(spec.n, scenario_trial_seed(spec.seed, t), std::move(options));
    ExecutionTranscript transcript;
    fresh.set_transcript(&transcript);
    ASSERT_TRUE(run_profile(fresh, protocol).valid());
    const auto divergence = first_divergence(reused.per_trial_transcript[t], transcript);
    EXPECT_FALSE(divergence.has_value())
        << "trial " << t << ": " << (divergence ? divergence->what : "");
  }
}

TEST(TranscriptScenario, RecordingOffLeavesNoTranscripts) {
  ScenarioSpec spec = family_spec(TopologyKind::kRing, "basic-lead", 8);
  spec.record_transcripts = false;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_FALSE(r.transcripts_recorded);
  EXPECT_TRUE(r.per_trial_transcript.empty());
}

TEST(TranscriptScenario, ThreadedCaptureIsRejectedWithTheFieldName) {
  ScenarioSpec spec = family_spec(TopologyKind::kThreaded, "basic-lead", 4);
  try {
    run_scenario(spec);
    FAIL() << "threaded transcript capture must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("record_transcripts"), std::string::npos);
  }
}

TEST(TranscriptScenario, MergeRefusesMixedRecordingModes) {
  ScenarioSpec recorded = family_spec(TopologyKind::kRing, "basic-lead", 6);
  recorded.trial_count = recorded.trials / 2;
  ScenarioSpec bare = recorded;
  bare.record_transcripts = false;
  bare.trial_offset = recorded.trials / 2;
  bare.trial_count = 0;
  ScenarioResult merged = run_scenario(recorded);
  EXPECT_THROW(merged.merge(run_scenario(bare)), std::invalid_argument);
}

// ---- re-driving recordings --------------------------------------------------

TEST(TranscriptReplay, RingScheduleRedriveReproducesTheExecution) {
  const int n = 16;
  const std::uint64_t seed = 99;
  BasicLeadProtocol protocol;

  // Record under the random scheduler — the recording pins the schedule.
  ExecutionTranscript recorded;
  EngineOptions record_options;
  record_options.scheduler_kind = SchedulerKind::kRandom;
  RingEngine recorder(n, seed, std::move(record_options));
  recorder.set_transcript(&recorded);
  const Outcome original = run_profile(recorder, protocol);
  ASSERT_TRUE(original.valid());

  ExecutionTranscript replayed;
  EngineOptions replay_options;
  replay_options.scheduler = replay_ring_schedule(recorded);
  RingEngine redriven(n, seed, std::move(replay_options));
  redriven.set_transcript(&replayed);
  const Outcome outcome = run_profile(redriven, protocol);
  EXPECT_EQ(outcome, original);
  EXPECT_FALSE(first_divergence(recorded, replayed).has_value());
}

TEST(TranscriptReplay, RingRedriveDetectsATamperedSchedule) {
  const int n = 12;
  BasicLeadProtocol protocol;
  ExecutionTranscript recorded;
  RingEngine recorder(n, 7);
  recorder.set_transcript(&recorded);
  ASSERT_TRUE(run_profile(recorder, protocol).valid());

  // Corrupt one delivery's receiver: the re-drive must either throw (the
  // recorded receiver has nothing pending) or produce a diverging stream.
  ExecutionTranscript tampered;
  bool flipped = false;
  for (const TranscriptEvent& e : recorded.events()) {
    if (!flipped && e.kind == TranscriptEventKind::kDelivery && e.a > 4) {
      tampered.record(e.kind, e.a, (e.b + 1) % static_cast<std::uint64_t>(n), e.c);
      flipped = true;
    } else {
      tampered.record(e.kind, e.a, e.b, e.c);
    }
  }
  ASSERT_TRUE(flipped);

  ExecutionTranscript replayed;
  EngineOptions options;
  options.scheduler = replay_ring_schedule(tampered);
  RingEngine redriven(n, 7, std::move(options));
  redriven.set_transcript(&replayed);
  bool diverged = false;
  try {
    run_profile(redriven, protocol);
    diverged = first_divergence(tampered, replayed).has_value();
  } catch (const std::runtime_error&) {
    diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(TranscriptReplay, TurnGameRedriveReproducesTheOutcome) {
  const BatonGame game(8);
  Xoshiro256 rng(5);
  ExecutionTranscript recorded;
  const Value outcome = play_turn_game(game, {}, nullptr, rng, &recorded);
  EXPECT_GT(recorded.size(), 0u);
  EXPECT_EQ(replay_turn_game(game, recorded.events()), outcome);
}

TEST(TranscriptReplay, TurnGameRedriveDetectsDivergence) {
  const BatonGame game(8);
  Xoshiro256 rng(6);
  ExecutionTranscript recorded;
  play_turn_game(game, {}, nullptr, rng, &recorded);

  // A different game shape must be caught: replay against a smaller game.
  const BatonGame smaller(4);
  EXPECT_THROW(replay_turn_game(smaller, recorded.events()), std::runtime_error);

  // A recording whose outcome was tampered with must be caught too.
  ExecutionTranscript tampered;
  for (const TranscriptEvent& e : recorded.events()) {
    if (e.kind == TranscriptEventKind::kDecision) {
      tampered.record(e.kind, e.a, e.b, e.c + 1);
    } else {
      tampered.record(e.kind, e.a, e.b, e.c);
    }
  }
  EXPECT_THROW(replay_turn_game(game, tampered.events()), std::runtime_error);
}

// ---- shard-row round trip ---------------------------------------------------

TEST(TranscriptShard, RowsCarryTranscriptsThroughTheJsonlBoundary) {
  ScenarioSpec spec = family_spec(TopologyKind::kRing, "alead-uni", 6);
  spec.trials = 5;
  verify::ShardRow row;
  row.case_index = 3;
  row.spec_line = "transcript shard row";
  row.result = run_scenario(spec);
  const verify::ShardRow parsed = verify::parse_shard_row(verify::format_shard_row(row));
  ASSERT_TRUE(parsed.result.transcripts_recorded);
  ASSERT_EQ(parsed.result.per_trial_transcript.size(), 5u);
  for (std::size_t t = 0; t < 5; ++t) {
    EXPECT_TRUE(parsed.result.per_trial_transcript[t] ==
                row.result.per_trial_transcript[t]);
  }
}

}  // namespace
}  // namespace fle

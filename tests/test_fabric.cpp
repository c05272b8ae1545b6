// The sweep fabric (src/fabric/): wire-protocol frame round-trips and
// malformed-input rejection, handshake digests, deterministic fault plans,
// hardened shard-row ingestion, and the end-to-end loopback contract —
// RemoteExecutor over in-process workers is bit-identical to run_sweep,
// clean or under an injected fault schedule, refuses and re-issues a
// hostile worker's tampered transcript window, and fails loudly when the
// whole fleet dies.

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <functional>
#include <latch>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <sstream>
#include <string>
#include <string_view>
#include <sys/socket.h>
#include <thread>
#include <utility>
#include <vector>

#include "api/scenario.h"
#include "api/sweep.h"
#include "fabric/driver.h"
#include "fabric/fault.h"
#include "fabric/socket.h"
#include "fabric/wire.h"
#include "fabric/worker.h"
#include "verify/fuzzer.h"
#include "verify/shard.h"

namespace fle::fabric {
namespace {

// ---- wire protocol ----------------------------------------------------------

Frame roundtrip(const std::vector<std::uint8_t>& bytes) {
  const auto parsed = try_parse_frame(bytes);
  EXPECT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->consumed, bytes.size());
  return parsed->frame;
}

TEST(FabricWire, HelloRoundTrips) {
  Hello hello;
  hello.build = 0xdeadbeefcafef00dull;
  hello.label = "worker-7";
  const Frame frame = roundtrip(encode_frame(hello));
  ASSERT_EQ(frame.kind, MessageKind::kHello);
  EXPECT_EQ(frame.hello.version, kWireVersion);
  EXPECT_EQ(frame.hello.build, hello.build);
  EXPECT_EQ(frame.hello.label, "worker-7");
}

TEST(FabricWire, WelcomeCarriesSpecLines) {
  Welcome welcome;
  welcome.build = 7;
  welcome.spec_lines = {"topology=ring protocol=basic-lead n=4 trials=10 seed=1",
                        "topology=sync protocol=sync-ring-lead n=3 trials=5 seed=2"};
  welcome.spec_digest = sweep_digest(welcome.spec_lines);
  const Frame frame = roundtrip(encode_frame(welcome));
  ASSERT_EQ(frame.kind, MessageKind::kWelcome);
  EXPECT_EQ(frame.welcome.spec_lines, welcome.spec_lines);
  EXPECT_EQ(frame.welcome.spec_digest, welcome.spec_digest);
}

TEST(FabricWire, ShortestSpecLineIsTheWelcomeMinimum) {
  // kMinSpecLineBytes counts the five keys format_spec always writes; the
  // default spec's line carries each of them.
  const std::string line = verify::format_spec(ScenarioSpec{});
  std::size_t key_bytes = 0;
  for (const std::string_view key : {"topology=", " protocol=", " n=", " trials=", " seed="}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
    key_bytes += key.size();
  }
  EXPECT_EQ(key_bytes, kMinSpecLineBytes);
  EXPECT_GE(line.size(), kMinSpecLineBytes);
  // A welcome of lines at exactly that length parses.
  Welcome welcome;
  welcome.spec_lines.assign(3, std::string(kMinSpecLineBytes, 'x'));
  EXPECT_EQ(roundtrip(encode_frame(welcome)).welcome.spec_lines, welcome.spec_lines);
}

TEST(FabricWire, WelcomeRefusesMoreSpecLinesThanTheFrameHolds) {
  // 2^20 empty lines take a byte each, so the frame holds their bytes, but
  // not 2^20 lines of the shortest spec: the count is refused before the
  // parser reserves a string per line.
  std::vector<std::uint8_t> payload{static_cast<std::uint8_t>(MessageKind::kWelcome)};
  leb128_put(payload, kWireVersion);
  leb128_put(payload, 0);  // build
  leb128_put(payload, 0);  // spec digest
  const std::size_t lines = std::size_t{1} << 20;
  leb128_put(payload, lines);
  payload.resize(payload.size() + lines, 0);
  std::vector<std::uint8_t> framed;
  leb128_put(framed, payload.size());
  framed.insert(framed.end(), payload.begin(), payload.end());
  try {
    (void)try_parse_frame(framed);
    ADD_FAILURE() << "a welcome of 2^20 empty spec lines parsed";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("welcome.spec_lines"), std::string::npos)
        << error.what();
  }
}

TEST(FabricWire, AssignResultHeartbeatErrorRoundTrip) {
  const Frame assign = roundtrip(encode_frame(Assign{9, 2, 128, 32}));
  ASSERT_EQ(assign.kind, MessageKind::kAssign);
  EXPECT_EQ(assign.assign.window, 9u);
  EXPECT_EQ(assign.assign.scenario, 2u);
  EXPECT_EQ(assign.assign.trial_offset, 128u);
  EXPECT_EQ(assign.assign.trial_count, 32u);

  ResultMsg result;
  result.window = 9;
  result.row = "{\"case\": 0}";
  const Frame echoed = roundtrip(encode_frame(result));
  ASSERT_EQ(echoed.kind, MessageKind::kResult);
  EXPECT_EQ(echoed.result.row, result.row);
  EXPECT_TRUE(echoed.result.blobs.empty());

  EXPECT_EQ(roundtrip(encode_frame(Heartbeat{41})).heartbeat.seq, 41u);

  ErrorMsg error;
  error.message = "boom";
  EXPECT_EQ(roundtrip(encode_frame(error)).error.message, "boom");

  EXPECT_EQ(roundtrip(encode_frame(MessageKind::kDrain)).kind, MessageKind::kDrain);
  EXPECT_EQ(roundtrip(encode_frame(MessageKind::kBye)).kind, MessageKind::kBye);
}

TEST(FabricWire, PartialBuffersKeepBuffering) {
  const std::vector<std::uint8_t> full = encode_frame(Heartbeat{500});
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(),
                                           full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(try_parse_frame(prefix).has_value()) << "cut at " << cut;
  }
}

TEST(FabricWire, BackToBackFramesParseSequentially) {
  std::vector<std::uint8_t> buffer = encode_frame(Heartbeat{1});
  const std::vector<std::uint8_t> second = encode_frame(MessageKind::kDrain);
  buffer.insert(buffer.end(), second.begin(), second.end());

  const auto first = try_parse_frame(buffer);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->frame.kind, MessageKind::kHeartbeat);
  buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(first->consumed));
  const auto next = try_parse_frame(buffer);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->frame.kind, MessageKind::kDrain);
  EXPECT_EQ(next->consumed, buffer.size());
}

TEST(FabricWire, MalformedFramesThrow) {
  // Unknown message kind.
  EXPECT_THROW(try_parse_frame(std::vector<std::uint8_t>{1, 0xee}), std::invalid_argument);
  // Zero-length payload.
  EXPECT_THROW(try_parse_frame(std::vector<std::uint8_t>{0}), std::invalid_argument);
  // Length prefix far beyond the frame cap.
  EXPECT_THROW(
      try_parse_frame(std::vector<std::uint8_t>{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}),
      std::invalid_argument);
  // Trailing bytes after a complete payload (heartbeat + junk inside the frame).
  std::vector<std::uint8_t> padded = encode_frame(Heartbeat{3});
  padded[0] += 1;  // length prefix claims one more byte...
  padded.push_back(0x00);  // ...and here it is, unconsumed by the decoder
  EXPECT_THROW(try_parse_frame(padded), std::invalid_argument);
  // String field overruns the payload.
  std::vector<std::uint8_t> bad_string;
  leb128_put(bad_string, 3);
  bad_string.push_back(static_cast<std::uint8_t>(MessageKind::kError));
  leb128_put(bad_string, 200);  // claims a 200-byte message in a 3-byte payload
  bad_string.push_back('x');
  EXPECT_THROW(try_parse_frame(bad_string), std::invalid_argument);
  // Overlong varints are refused like in every other decoder: a length
  // prefix 81 00 (1 in two bytes) in front of a drain, and a heartbeat
  // whose seq is 80 00 (0 in two bytes).
  EXPECT_THROW(try_parse_frame(std::vector<std::uint8_t>{
                   0x81, 0x00, static_cast<std::uint8_t>(MessageKind::kDrain)}),
               std::invalid_argument);
  EXPECT_THROW(try_parse_frame(std::vector<std::uint8_t>{
                   3, static_cast<std::uint8_t>(MessageKind::kHeartbeat), 0x80, 0x00}),
               std::invalid_argument);
}

/// Walks a blob list to its end with next_blob.
std::vector<std::vector<std::uint8_t>> split_blobs(std::span<const std::uint8_t> list) {
  std::vector<std::vector<std::uint8_t>> blobs;
  std::size_t cursor = 0;
  while (cursor < list.size()) {
    const std::span<const std::uint8_t> blob = next_blob(list, cursor);
    blobs.emplace_back(blob.begin(), blob.end());
  }
  return blobs;
}

TEST(FabricWire, ResultBlobsRoundTrip) {
  const std::vector<std::vector<std::uint8_t>> blobs = {{1, 2, 3}, {}, {0xff}};
  ResultMsg result;
  result.window = 12;
  result.row = "{\"case\": 1}";
  for (const std::vector<std::uint8_t>& blob : blobs) append_blob(result.blobs, blob);
  const Frame shipped = roundtrip(encode_frame(result));
  ASSERT_EQ(shipped.kind, MessageKind::kResult);
  EXPECT_EQ(shipped.result.window, 12u);
  EXPECT_EQ(shipped.result.row, result.row);
  EXPECT_EQ(shipped.result.blobs, result.blobs);
  EXPECT_EQ(split_blobs(shipped.result.blobs), blobs);
}

/// A kResult frame for window 1 with row "r", followed by `tail`: the
/// blob list as raw bytes.
std::vector<std::uint8_t> result_frame(const std::vector<std::uint8_t>& tail) {
  std::vector<std::uint8_t> payload{static_cast<std::uint8_t>(MessageKind::kResult), 1, 1, 'r'};
  payload.insert(payload.end(), tail.begin(), tail.end());
  std::vector<std::uint8_t> framed;
  leb128_put(framed, payload.size());
  framed.insert(framed.end(), payload.begin(), payload.end());
  return framed;
}

TEST(FabricWire, TruncatedOrOverrunningBlobListThrows) {
  const std::vector<std::uint8_t> one = {2, 0xaa, 0xbb};
  EXPECT_EQ(roundtrip(result_frame(one)).result.blobs, one);
  std::size_t cursor = 0;
  EXPECT_EQ(next_blob(one, cursor).size(), 2u);
  EXPECT_EQ(cursor, one.size());
  // The list ends where a blob is asked for.
  EXPECT_THROW(next_blob(one, cursor), std::invalid_argument);
  // A blob whose length overruns the list.
  cursor = 0;
  EXPECT_THROW(next_blob(std::vector<std::uint8_t>{9, 0xaa, 0xbb}, cursor),
               std::invalid_argument);
  // A list cut inside a blob's length.
  cursor = 0;
  EXPECT_THROW(next_blob(std::vector<std::uint8_t>{0x80}, cursor), std::invalid_argument);
  // A frame whose row string overruns it carries no list at all.
  std::vector<std::uint8_t> framed = result_frame({});
  framed[3] = 9;  // the row claims 9 bytes and has 1
  EXPECT_THROW(try_parse_frame(framed), std::invalid_argument);
}

TEST(FabricWire, ManyEmptyBlobsParseAsOneCopyOfTheList) {
  // A frame of 2^20 zero-length blobs holds one byte per blob.  Its list
  // parses as one copy of those bytes, not one allocation per blob.
  const std::vector<std::uint8_t> tail(std::size_t{1} << 20, 0);
  const Frame frame = roundtrip(result_frame(tail));
  EXPECT_EQ(frame.result.blobs.size(), tail.size());
  EXPECT_LE(frame.result.blobs.capacity(), tail.size());
  std::size_t cursor = 0;
  EXPECT_TRUE(next_blob(frame.result.blobs, cursor).empty());
  EXPECT_EQ(cursor, 1u);
}

TEST(FabricWire, RetiredKindsParseAsUnknown) {
  // 9-11 carried the v2 leaf offer, want and dedup result.
  for (const std::uint8_t kind : {9, 10, 11}) {
    try {
      (void)try_parse_frame(std::vector<std::uint8_t>{2, kind, 0});
      ADD_FAILURE() << "kind " << int{kind} << " parsed";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("unknown message kind"), std::string::npos)
          << error.what();
    }
  }
}

TEST(FabricWire, DigestsAreStableAndOrderSensitive) {
  EXPECT_EQ(build_digest(), build_digest());
  const std::vector<std::string> ab = {"a", "b"};
  const std::vector<std::string> ba = {"b", "a"};
  EXPECT_NE(sweep_digest(ab), sweep_digest(ba));
  EXPECT_EQ(sweep_digest(ab), sweep_digest(ab));
}

// ---- fault plans ------------------------------------------------------------

TEST(FaultPlan, ParseReadsEachActionsKindOrdinalAndMillis) {
  // Out of ordinal order on purpose: parse sorts by ordinal.
  const FaultPlan plan = FaultPlan::parse("slow@4:250,corrupt@1,kill@2,hang@3:2000");
  const std::vector<FaultAction> expected = {
      {FaultKind::kCorruptFrame, 1, 0},
      {FaultKind::kKill, 2, 0},
      {FaultKind::kHang, 3, 2000},
      {FaultKind::kSlowLink, 4, 250},
  };
  EXPECT_EQ(plan.actions, expected);
  // A hang without a parameter leaves millis at 0: the worker default.
  EXPECT_EQ(FaultPlan::parse("hang@7").actions,
            (std::vector<FaultAction>{{FaultKind::kHang, 7, 0}}));
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, ActionAtMatchesOrdinal) {
  const FaultPlan plan = FaultPlan::parse("kill@2,slow@5:100");
  EXPECT_FALSE(plan.action_at(1).has_value());
  ASSERT_TRUE(plan.action_at(2).has_value());
  EXPECT_EQ(plan.action_at(2)->kind, FaultKind::kKill);
  ASSERT_TRUE(plan.action_at(5).has_value());
  EXPECT_EQ(plan.action_at(5)->millis, 100u);
}

TEST(FaultPlan, ParseRejectsMalformedPlans) {
  EXPECT_THROW(FaultPlan::parse("explode@1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill@0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill@x"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill@1:5"), std::invalid_argument);    // no parameter
  EXPECT_THROW(FaultPlan::parse("corrupt@1:5"), std::invalid_argument); // no parameter
  EXPECT_THROW(FaultPlan::parse("kill@1,hang@1"), std::invalid_argument);  // duplicate
  EXPECT_THROW(FaultPlan::parse("kill@1,,kill@2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("hang@2:abc"), std::invalid_argument);
}

TEST(FaultPlan, SampleIsDeterministic) {
  const FaultPlan a = FaultPlan::sample(99, 32, 0.5);
  const FaultPlan b = FaultPlan::sample(99, 32, 0.5);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(FaultPlan::sample(99, 32, 0.0).empty());
  const FaultPlan all = FaultPlan::sample(99, 16, 1.0);
  EXPECT_EQ(all.actions.size(), 16u);
  EXPECT_THROW(FaultPlan::sample(1, 4, 1.5), std::invalid_argument);
}

TEST(FabricSocket, WaitForHangupIgnoresDataAndEndsAtAHangUp) {
  // A hung worker waits here: heartbeats (readable bytes) must not end the
  // hang, or it would answer inside its window deadline; the driver
  // closing the connection must end it at once.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket mine(fds[0]);
  Socket peer(fds[1]);
  using Clock = std::chrono::steady_clock;
  using std::chrono::milliseconds;

  const std::uint8_t beat[3] = {1, 2, 3};
  send_bytes(peer.fd(), beat, sizeof(beat), /*blocking=*/true);
  auto start = Clock::now();
  EXPECT_FALSE(wait_for_hangup(mine.fd(), milliseconds(300)));
  EXPECT_GE(Clock::now() - start, milliseconds(290));
  // Nothing was read.
  std::uint8_t got[4] = {};
  EXPECT_EQ(::recv(mine.fd(), got, sizeof(got), MSG_DONTWAIT), 3);
  EXPECT_EQ(got[2], 3);

  send_bytes(peer.fd(), beat, sizeof(beat), /*blocking=*/true);
  const std::jthread closer([&peer] {
    std::this_thread::sleep_for(milliseconds(50));
    peer.close();
  });
  start = Clock::now();
  EXPECT_TRUE(wait_for_hangup(mine.fd(), milliseconds(10000)));
  EXPECT_LT(Clock::now() - start, milliseconds(5000));
}

// ---- hardened shard-row ingestion -------------------------------------------

std::string valid_row() {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 4;
  spec.trials = 10;
  spec.seed = 3;
  verify::ShardRow row;
  row.spec_line = "topology=ring protocol=basic-lead n=4 trials=10 seed=3";
  row.result = run_scenario(spec);
  return verify::format_shard_row(row);
}

void expect_parse_error(std::string row, const std::string& needle) {
  try {
    (void)verify::parse_shard_row(row);
    FAIL() << "expected rejection mentioning '" << needle << "' for: " << row;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "error was: " << error.what();
  }
}

TEST(ShardHardening, TruncatedRowNamesTheProblem) {
  const std::string row = valid_row();
  expect_parse_error(row.substr(0, row.size() / 2), "shard row");
  expect_parse_error(row.substr(0, row.size() - 1), "truncated");
}

TEST(ShardHardening, PassthroughRowsAreNotScenarioRows) {
  // Shard rows carry scenario results only; a hand-built display row has
  // no spec and is rejected by name.
  expect_parse_error(R"({"case":2,"passthrough":"{}"})", "missing key 'spec'");
}

TEST(ShardHardening, TrailingGarbageRejected) {
  expect_parse_error(valid_row() + " oops", "trailing");
}

TEST(ShardHardening, DuplicateKeysRejected) {
  std::string row = valid_row();
  row.insert(1, "\"case\": 0, ");
  expect_parse_error(row, "duplicate key 'case'");
}

TEST(ShardHardening, NonIntegerFieldsNameTheKey) {
  std::string negative = valid_row();
  const std::size_t seed_pos = negative.find("\"base_seed\": 3");
  ASSERT_NE(seed_pos, std::string::npos);
  negative.replace(seed_pos, 14, "\"base_seed\": -3");
  expect_parse_error(negative, "'base_seed'");

  std::string garbage = valid_row();
  const std::size_t trials_pos = garbage.find("\"trials\": 10");
  ASSERT_NE(trials_pos, std::string::npos);
  garbage.replace(trials_pos, 12, "\"trials\": 10abc");
  expect_parse_error(garbage, "'trials'");
}

TEST(ShardHardening, BadBooleanRejected) {
  std::string row = valid_row();
  const std::size_t pos = row.find("\"recorded\": false");
  ASSERT_NE(pos, std::string::npos);
  row.replace(pos, 17, "\"recorded\": maybe");
  expect_parse_error(row, "'recorded'");
}

TEST(ShardHardening, WindowOverrunningSpecTrialsRejected) {
  std::string row = valid_row();
  const std::size_t pos = row.find("\"trial_offset\": 0");
  ASSERT_NE(pos, std::string::npos);
  row.replace(pos, 17, "\"trial_offset\": 5");
  expect_parse_error(row, "overruns");
}

TEST(ShardHardening, BadTranscriptHexNamesTheTrial) {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 4;
  spec.trials = 2;
  spec.seed = 3;
  spec.record_outcomes = true;
  spec.record_transcripts = true;
  verify::ShardRow row;
  row.spec_line =
      "topology=ring protocol=basic-lead n=4 trials=2 seed=3 record=1 transcripts=1";
  row.result = run_scenario(spec);
  std::string line = verify::format_shard_row(row);

  const std::size_t pos = line.find("\"transcripts\": \"");
  ASSERT_NE(pos, std::string::npos);
  std::string corrupted = line;
  corrupted[pos + 16] = 'z';  // not a hex digit
  expect_parse_error(corrupted, "transcripts[0]");

  std::string truncated = line;
  const std::size_t comma = truncated.find(',', pos);
  ASSERT_NE(comma, std::string::npos);
  truncated.erase(comma - 1, 1);  // odd-length first blob
  expect_parse_error(truncated, "transcripts[0]");
}

verify::ShardRow recorded_row() {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 4;
  spec.trials = 2;
  spec.seed = 3;
  spec.record_outcomes = true;
  spec.record_transcripts = true;
  verify::ShardRow row;
  row.spec_line =
      "topology=ring protocol=basic-lead n=4 trials=2 seed=3 record=1 transcripts=1";
  row.result = run_scenario(spec);
  return row;
}

TEST(ShardHardening, UppercaseTranscriptHexAccepted) {
  const std::string line = verify::format_shard_row(recorded_row());
  const std::size_t start = line.find("\"transcripts\": \"") + 16;
  ASSERT_NE(start, std::string::npos + 16);
  const std::size_t end = line.find('"', start);
  ASSERT_NE(end, std::string::npos);
  std::string uppercased = line;
  for (std::size_t i = start; i < end; ++i) {
    uppercased[i] = static_cast<char>(std::toupper(uppercased[i]));
  }
  const verify::ShardRow original = verify::parse_shard_row(line);
  const verify::ShardRow upper = verify::parse_shard_row(uppercased);
  ASSERT_EQ(upper.result.per_trial_transcript.size(),
            original.result.per_trial_transcript.size());
  for (std::size_t t = 0; t < original.result.per_trial_transcript.size(); ++t) {
    EXPECT_EQ(upper.result.per_trial_transcript[t], original.result.per_trial_transcript[t]);
  }
}

TEST(ShardHardening, BadTranscriptHexReportsTheByteOffset) {
  std::string line = verify::format_shard_row(recorded_row());
  const std::size_t start = line.find("\"transcripts\": \"") + 16;
  ASSERT_NE(start, std::string::npos + 16);
  line[start + 7] = 'q';  // hex digit 7 = byte 3 of trial 0's blob
  expect_parse_error(line, "'q' at byte 3");
}

TEST(ShardHardening, StoreKeysValidateAgainstTheTranscripts) {
  const verify::ShardRow row = recorded_row();
  const std::string line = verify::format_shard_row(row);
  ASSERT_NE(line.find("\"store_keys\""), std::string::npos);
  // The emitted keys parse back and match the recorded content keys.
  (void)verify::parse_shard_row(line);
  // A corrupted key is caught by the transcript cross-check.
  std::string corrupted = line;
  const std::size_t pos = corrupted.find("\"store_keys\": \"") + 15;
  corrupted[pos] = corrupted[pos] == '0' ? '1' : '0';
  expect_parse_error(corrupted, "store_keys[0]");
}

/// The same transcript with its event-count varint written overlong: it
/// decoded to the canonical transcript before decoders refused overlong
/// varints, yet hashes to a different key.
std::vector<std::uint8_t> overlong_count(std::vector<std::uint8_t> blob) {
  EXPECT_LT(blob.at(4), 0x80);  // a one-byte count
  blob[4] |= 0x80;
  blob.insert(blob.begin() + 5, 0x00);
  return blob;
}

std::string hex_of(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : bytes) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xf];
  }
  return out;
}

/// Replaces the first occurrence of `from` in `text`.
void replace_first(std::string& text, const std::string& from, const std::string& to) {
  const std::size_t pos = text.find(from);
  ASSERT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
}

TEST(ShardHardening, NonCanonicalBlobKeyedByItsOwnHashRejected) {
  // Trial 0's blob becomes a non-canonical encoding B and its store key
  // Sha256::of(B): the key matches the bytes, but B is not a transcript's
  // encoding, so the row is refused as naming a malformed transcript.
  const verify::ShardRow row = recorded_row();
  std::string line = verify::format_shard_row(row);
  const std::vector<std::uint8_t> canonical = row.result.per_trial_transcript[0].encode();
  const std::vector<std::uint8_t> blob = overlong_count(canonical);
  replace_first(line, hex_of(canonical), hex_of(blob));
  replace_first(line, Sha256::of(canonical).hex(), Sha256::of(blob).hex());
  expect_parse_error(line, "transcripts[0]");
  expect_parse_error(line, "overlong");
}

TEST(ShardHardening, ElidedRowsCarryKeysInsteadOfBlobs) {
  const verify::ShardRow row = recorded_row();
  const std::string elided = verify::format_shard_row(row, /*elide_transcripts=*/true);
  EXPECT_EQ(elided.find("\"transcripts\":"), std::string::npos);
  ASSERT_NE(elided.find("\"transcripts_elided\": true"), std::string::npos);
  const verify::ShardRow parsed = verify::parse_shard_row(elided);
  EXPECT_TRUE(parsed.transcripts_elided);
  ASSERT_EQ(parsed.store_keys.size(), row.result.per_trial_transcript.size());
  for (std::size_t t = 0; t < parsed.store_keys.size(); ++t) {
    EXPECT_EQ(parsed.store_keys[t], row.result.per_trial_transcript[t].content_key());
  }
}

TEST(ShardHardening, EscapedStringsRoundTrip) {
  // Strings that carry a quote, a backslash or a newline are written
  // escaped and come back unescaped; the row survives a second round trip.
  verify::ShardRow row = recorded_row();
  row.spec_line = "topology=ring protocol=\"quoted\" dir=C:\\runs\\ note=two\nlines";
  row.result.protocol_name = "basic \"lead\"";
  row.result.deviation_name = "back\\slash\nand newline";
  const std::string line = verify::format_shard_row(row);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const verify::ShardRow parsed = verify::parse_shard_row(line);
  EXPECT_EQ(parsed.spec_line, row.spec_line);
  EXPECT_EQ(parsed.result.protocol_name, row.result.protocol_name);
  EXPECT_EQ(parsed.result.deviation_name, row.result.deviation_name);
  EXPECT_EQ(verify::format_shard_row(parsed), line);

  // An escape other than \", \\ and \n is refused, and so is a backslash
  // that ends the row.
  std::string unknown = line;
  replace_first(unknown, "\\\"quoted", "\\xquoted");
  expect_parse_error(unknown, "unknown escape '\\x'");
  expect_parse_error(R"({"case": 0, "spec": "tail\)", "dangling escape");
}

/// `line` with the first cell of list column `key` rewritten by `edit`.
std::string edit_first_cell(std::string line, const std::string& key,
                            const std::function<std::string(const std::string&)>& edit) {
  const std::string open = "\"" + key + "\": \"";
  const std::size_t start = line.find(open);
  EXPECT_NE(start, std::string::npos) << key;
  if (start == std::string::npos) return line;
  const std::size_t first = start + open.size();
  const std::size_t end = line.find_first_of(",\"", first);
  line.replace(first, end - first, edit(line.substr(first, end - first)));
  return line;
}

TEST(ShardHardening, ListCellsAreWholeUnsignedIntegers) {
  // A sign, a space or trailing bytes make a cell no number: neither a
  // leader id nor a count is read from a prefix or wrapped from "-1".
  const std::string recorded = verify::format_shard_row(recorded_row());
  const auto per_trial = [&](const std::function<std::string(const std::string&)>& edit) {
    expect_parse_error(edit_first_cell(recorded, "per_trial", edit), "'per_trial'");
  };
  per_trial([](const std::string&) { return "-1"; });
  per_trial([](const std::string& cell) { return cell + "abc"; });
  per_trial([](const std::string& cell) { return "+" + cell; });
  const std::string row = valid_row();
  expect_parse_error(edit_first_cell(row, "counts", [](const std::string& cell) {
                       return cell + "x";
                     }),
                     "'counts'");
  expect_parse_error(edit_first_cell(row, "counts", [](const std::string& cell) {
                       return " " + cell;
                     }),
                     "'counts'");
}

TEST(ShardHardening, NAndMaxRoundsMustFitInt) {
  // 2^32 + 4 and 2^32 are no int: they are refused, not truncated to 4 and
  // 0.
  std::string n = valid_row();
  replace_first(n, "\"n\": 4,", "\"n\": 4294967300,");
  expect_parse_error(n, "'n'");
  std::string rounds = valid_row();
  replace_first(rounds, "\"max_rounds\": 0,", "\"max_rounds\": 4294967296,");
  expect_parse_error(rounds, "'max_rounds'");
}

TEST(ShardHardening, NIsBoundedByTheCountsColumnBeforeAnythingIsSized) {
  // n cells take at least 2n - 1 bytes, so a short row claiming a huge n
  // is refused before an n-sized counter is built (at n = 2^31 - 1 that
  // counter would take 16 GiB).
  for (const char* huge : {"20000000", "2147483647"}) {
    std::string row = valid_row();
    replace_first(row, "\"n\": 4,", std::string("\"n\": ") + huge + ",");
    expect_parse_error(row, std::string("'n' = ") + huge + " needs");
  }
}

TEST(ShardHardening, RowsOfAnyTrialCountParseWithTheirCounts) {
  // The counter takes each counts cell and the fails column as one record,
  // so no trial count is too large to parse: rows of 2 x 10^8 and 2^40
  // trials keep their counts and format back to their own bytes.
  for (const std::uint64_t trials : {std::uint64_t{200'000'000}, std::uint64_t{1} << 40}) {
    const std::uint64_t leader0 = trials / 2 + 7;
    const std::uint64_t leader1 = trials - leader0 - 1;  // one FAIL
    const std::string t = std::to_string(trials);
    const std::string line =
        R"({"case": 0, "spec": "topology=ring protocol=basic-lead n=2 trials=)" + t +
        R"( seed=1", "n": 2, "trials": )" + t + R"(, "trial_offset": 0, "spec_trials": )" + t +
        R"(, "base_seed": 1, "fails": 1, "counts": ")" + std::to_string(leader0) + "," +
        std::to_string(leader1) +
        R"(", "total_messages": 0, "max_messages": 0, "total_sync_gap": 0, )"
        R"("max_sync_gap": 0, "max_rounds": 0, "wall_seconds": 0, )"
        R"("protocol_name": "basic-lead", "deviation_name": "", "recorded": false, )"
        R"("transcripts_recorded": false})";
    const verify::ShardRow row = verify::parse_shard_row(line);
    EXPECT_EQ(row.result.trials, trials);
    EXPECT_EQ(row.result.outcomes.trials(), trials);
    EXPECT_EQ(row.result.outcomes.count(0), leader0);
    EXPECT_EQ(row.result.outcomes.count(1), leader1);
    EXPECT_EQ(row.result.outcomes.fails(), 1u);
    EXPECT_EQ(verify::format_shard_row(row), line);
  }
}

TEST(ShardHardening, PerTrialMustBeTheHistogramsLeaders) {
  // Every recorded leader is below n, and the recorded outcomes add up to
  // exactly the counts and fails columns.
  const std::string line = verify::format_shard_row(recorded_row());
  expect_parse_error(edit_first_cell(line, "per_trial", [](const std::string&) { return "4"; }),
                     "'per_trial'");
  expect_parse_error(edit_first_cell(line, "per_trial",
                                     [](const std::string& cell) {
                                       return cell == "F" ? "0" : cell == "0" ? "1" : "0";
                                     }),
                     "'per_trial'");
}

TEST(ShardHardening, TranscriptColumnsAreRequired) {
  // Every row says whether it recorded transcripts, and every transcript
  // row carries its store keys: no writer leaves either out.
  std::string untagged = valid_row();
  replace_first(untagged, ", \"transcripts_recorded\": false", "");
  expect_parse_error(untagged, "missing key 'transcripts_recorded'");

  std::string keyless = verify::format_shard_row(recorded_row());
  const std::string column = ", \"store_keys\": \"";
  const std::size_t keys = keyless.find(column);
  ASSERT_NE(keys, std::string::npos);
  keyless.erase(keys, keyless.find('"', keys + column.size()) + 1 - keys);
  expect_parse_error(keyless, "missing key 'store_keys'");
}

TEST(ShardHardening, UnexpectedKeysAreRefused) {
  std::string row = valid_row();
  row.insert(row.size() - 1, ", \"extra\": 1");
  expect_parse_error(row, "unexpected key 'extra'");
  // per_trial belongs to rows that record outcomes only.
  std::string unrecorded = verify::format_shard_row(recorded_row());
  replace_first(unrecorded, "\"recorded\": true", "\"recorded\": false");
  expect_parse_error(unrecorded, "unexpected key 'per_trial'");
}

TEST(ShardHardening, MergeNamesOverlapAndGap) {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 4;
  spec.trials = 10;
  spec.seed = 3;
  const std::string spec_line = "topology=ring protocol=basic-lead n=4 trials=10 seed=3";

  const auto window_row = [&](std::size_t offset, std::size_t count) {
    ScenarioSpec window = spec;
    window.trial_offset = offset;
    window.trial_count = count;
    verify::ShardRow row;
    row.spec_line = spec_line;
    row.result = run_scenario(window);
    return row;
  };

  {  // duplicate shard file → overlap, named as such
    std::vector<verify::ShardRow> rows = {window_row(0, 5), window_row(0, 5),
                                          window_row(5, 5)};
    try {
      (void)verify::merge_shard_rows(std::move(rows));
      FAIL() << "expected overlap rejection";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("overlap"), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find("duplicate shard file"), std::string::npos)
          << error.what();
    }
  }
  {  // missing middle shard → gap, named as such
    std::vector<verify::ShardRow> rows = {window_row(0, 3), window_row(7, 3)};
    try {
      (void)verify::merge_shard_rows(std::move(rows));
      FAIL() << "expected gap rejection";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("gap [3, 7)"), std::string::npos)
          << error.what();
    }
  }
  {  // missing tail shard → the tiling check names the uncovered range
    std::vector<verify::ShardRow> rows = {window_row(0, 5)};
    EXPECT_THROW((void)verify::merge_shard_rows(std::move(rows)), std::invalid_argument);
  }
}

// ---- the loopback fabric ----------------------------------------------------

SweepSpec loopback_sweep() {
  SweepSpec sweep;
  {
    ScenarioSpec spec;
    spec.protocol = "alead-uni";
    spec.n = 8;
    spec.trials = 60;
    spec.seed = 17;
    sweep.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.protocol = "basic-lead";
    spec.n = 5;
    spec.trials = 30;
    spec.seed = 5;
    spec.record_outcomes = true;
    spec.record_transcripts = true;
    sweep.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.topology = TopologyKind::kSync;
    spec.protocol = "sync-broadcast-lead";
    spec.n = 4;
    spec.trials = 24;
    spec.seed = 23;
    sweep.add(spec);
  }
  return sweep;
}

/// Runs the sweep on a RemoteExecutor fed by in-process workers (one thread
/// per FaultPlan) and requires the canonical report to be byte-identical to
/// the in-process run_sweep.  The sweep starts once every worker thread
/// runs, and the executor is destroyed before the joins: closing its
/// listening socket is what releases a worker that connected after the
/// sweep was served, instead of leaving it in the listen backlog until its
/// read timeout.
void expect_fabric_matches_local(const std::vector<FaultPlan>& worker_plans,
                                 FabricOptions options) {
  const SweepSpec sweep = loopback_sweep();
  const std::vector<ScenarioResult> local = run_sweep(sweep);

  auto executor = std::make_unique<RemoteExecutor>(options);
  std::latch started(static_cast<std::ptrdiff_t>(worker_plans.size()));
  std::vector<std::thread> workers;
  workers.reserve(worker_plans.size());
  for (std::size_t w = 0; w < worker_plans.size(); ++w) {
    WorkerOptions worker;
    worker.port = executor->port();
    worker.label = "t";
    worker.label += std::to_string(w);
    worker.faults = worker_plans[w];
    worker.threads = 2;
    workers.push_back(std::thread([worker, &started] {
      started.count_down();
      (void)run_worker(worker);
    }));
  }
  started.wait();
  std::vector<ScenarioResult> remote;
  try {
    remote = executor->run_sweep(sweep);
  } catch (...) {
    executor.reset();
    for (std::thread& t : workers) t.join();
    throw;
  }
  executor.reset();
  for (std::thread& t : workers) t.join();

  ASSERT_EQ(remote.size(), local.size());
  // Byte-identical, transcripts included: the whole acceptance criterion in
  // one string comparison.
  EXPECT_EQ(canonical_report(sweep, remote), canonical_report(sweep, local));
}

TEST(CanonicalReport, EveryLineParsesAndMergesBackToTheReport) {
  // One row per scenario, each appended to the report in place: every line
  // parses on its own, and the merged rows report the same bytes again.
  const SweepSpec sweep = loopback_sweep();
  const std::string report = canonical_report(sweep, run_sweep(sweep));
  std::vector<verify::ShardRow> rows;
  std::istringstream lines(report);
  std::string line;
  while (std::getline(lines, line)) rows.push_back(verify::parse_shard_row(line));
  ASSERT_EQ(rows.size(), sweep.scenarios.size());
  std::vector<ScenarioResult> merged;
  for (auto& [index, merged_case] : verify::merge_shard_rows(std::move(rows))) {
    merged.push_back(std::move(merged_case.result));
  }
  EXPECT_EQ(canonical_report(sweep, merged), report);
}

TEST(FabricLoopback, CleanRunIsBitIdenticalToLocal) {
  FabricOptions options;
  options.window_trials = 16;
  expect_fabric_matches_local({FaultPlan{}, FaultPlan{}}, options);
}

TEST(FabricLoopback, SurvivesKillHangCorruptAndSlowWorkers) {
  FabricOptions options;
  options.window_trials = 8;
  options.window_deadline = std::chrono::milliseconds(400);
  options.heartbeat_interval = std::chrono::milliseconds(100);
  expect_fabric_matches_local(
      {
          FaultPlan::parse("kill@2"),
          FaultPlan::parse("hang@1:2000"),  // past the deadline: dropped + re-issued
          FaultPlan::parse("corrupt@1,slow@2:150"),
          FaultPlan{},  // one steady worker keeps the sweep finishable
      },
      options);
}

TEST(FabricLoopback, SeededFaultPlansStayBitIdentical) {
  FabricOptions options;
  options.window_trials = 8;
  options.window_deadline = std::chrono::milliseconds(400);
  for (const std::uint64_t seed : {1ull, 2ull}) {
    // Faulted workers plus one steady one; every sampled schedule must
    // produce the same bytes.
    expect_fabric_matches_local(
        {FaultPlan::sample(seed, 6, 0.4), FaultPlan::sample(seed + 100, 6, 0.4),
         FaultPlan{}},
        options);
  }
}

TEST(FabricDriver, BackoffDeadlineDoublesAndSaturates) {
  using std::chrono::milliseconds;
  EXPECT_EQ(backoff_deadline(milliseconds(100), 1), milliseconds(100));
  EXPECT_EQ(backoff_deadline(milliseconds(100), 2), milliseconds(200));
  EXPECT_EQ(backoff_deadline(milliseconds(100), 4), milliseconds(800));
  EXPECT_EQ(backoff_deadline(milliseconds(100), 9), milliseconds(800));  // capped at 8x
  // Regression: a huge --deadline-ms used to overflow `base * 8` (and the
  // subsequent now() + deadline addition in nanoseconds) into a deadline in
  // the past, so every worker instantly "missed" its window.
  const auto huge = milliseconds(std::numeric_limits<std::int64_t>::max() / 10);
  for (int attempts = 1; attempts <= 5; ++attempts) {
    const auto saturated = backoff_deadline(huge, attempts);
    EXPECT_GT(saturated.count(), 0);
    const auto before = std::chrono::steady_clock::now();
    EXPECT_GT(before + saturated, before);
  }
}

using Blobs = std::vector<std::vector<std::uint8_t>>;

/// A transcript window answered by a hostile worker: it runs the window
/// honestly, builds the honest kResult's parts (one blob per trial,
/// store_keys hashed from the blobs, the elided row's text), lets `tamper`
/// rewrite them, and sends them as one kResult.  RemoteExecutor must refuse
/// the window, drop the worker and re-issue the window to an honest one,
/// so the report still equals the in-process run and the leaf counters
/// count only the accepted window.  With `transcripts` off the window
/// records none, and its honest answer carries no blobs.
void expect_refused_and_reissued(
    const std::function<void(verify::ShardRow&, std::string& row_text, Blobs&)>& tamper,
    bool transcripts = true) {
  SweepSpec sweep;
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 5;
  spec.trials = 10;
  spec.seed = 5;
  spec.record_outcomes = true;
  spec.record_transcripts = transcripts;
  sweep.add(spec);
  const std::vector<ScenarioResult> local = run_sweep(sweep);

  FabricOptions options;
  options.window_trials = spec.trials;  // one window
  RemoteExecutor executor(options);
  std::vector<ScenarioResult> remote;
  std::string driver_error;
  std::thread driver([&] {
    try {
      remote = executor.run_sweep(sweep);
    } catch (const std::exception& error) {
      driver_error = error.what();
    }
  });

  Socket sock = connect_tcp("127.0.0.1", executor.port(), std::chrono::seconds(5));
  set_read_timeout(sock.fd(), std::chrono::seconds(10));
  std::vector<std::uint8_t> buffer;
  const auto send = [&sock](const std::vector<std::uint8_t>& bytes) {
    send_bytes(sock.fd(), bytes.data(), bytes.size(), /*blocking=*/true);
  };
  const auto next = [&]() -> std::optional<Frame> {
    for (;;) {
      std::optional<Frame> frame = read_frame(sock.fd(), buffer);
      if (!frame || frame->kind != MessageKind::kHeartbeat) return frame;
      send(encode_frame(Heartbeat{frame->heartbeat.seq}));
    }
  };
  Hello hello;
  hello.build = build_digest();
  hello.label = "hostile";
  send(encode_frame(hello));
  const std::optional<Frame> welcome = next();
  const std::optional<Frame> assign = next();
  if (welcome && welcome->kind == MessageKind::kWelcome && assign &&
      assign->kind == MessageKind::kAssign) {
    ScenarioSpec window = spec;
    window.trial_offset = static_cast<std::size_t>(assign->assign.trial_offset);
    window.trial_count = static_cast<std::size_t>(assign->assign.trial_count);
    verify::ShardRow row;
    row.case_index = static_cast<std::size_t>(assign->assign.scenario);
    row.spec_line = welcome->welcome.spec_lines.at(row.case_index);
    row.result = run_scenario(window);
    Blobs blobs;
    for (const ExecutionTranscript& t : row.result.per_trial_transcript) {
      blobs.push_back(t.encode());
      row.store_keys.push_back(Sha256::of(blobs.back()));
    }
    ResultMsg reply;
    reply.window = assign->assign.window;
    reply.row = verify::format_shard_row(row, /*elide_transcripts=*/true);
    tamper(row, reply.row, blobs);
    for (const std::vector<std::uint8_t>& blob : blobs) append_blob(reply.blobs, blob);
    send(encode_frame(reply));
    // Refused: RemoteExecutor drops the hostile worker, so its next read
    // finds the connection closed, not the drain an accepted window ends
    // with.
    std::optional<Frame> after;
    try {
      after = next();
    } catch (const std::exception&) {
      // A reset connection is a closed one.
    }
    EXPECT_FALSE(after.has_value()) << "got '" << to_string(after->kind) << "'";
  } else {
    ADD_FAILURE() << "no welcome and assignment for the hostile worker";
  }
  sock.close();

  WorkerOptions honest;
  honest.port = executor.port();
  honest.label = "honest";
  honest.read_timeout = std::chrono::seconds(5);
  std::thread worker([honest] { (void)run_worker(honest); });
  driver.join();
  worker.join();
  ASSERT_TRUE(driver_error.empty()) << driver_error;
  EXPECT_EQ(canonical_report(sweep, remote), canonical_report(sweep, local));
  const std::size_t leaves = transcripts ? spec.trials : 0;
  EXPECT_EQ(executor.dedup_stats().keys_offered, leaves);
  EXPECT_EQ(executor.dedup_stats().blobs_shipped, leaves);
}

TEST(FabricLoopback, RefusesANonCanonicalBlobThatHashesToItsStoreKey) {
  // Trial 0 ships as a non-canonical encoding B with Sha256::of(B) in its
  // store_keys slot.  The hash matches, yet B is not a transcript's
  // encoding.
  expect_refused_and_reissued([](verify::ShardRow& row, std::string& row_text, Blobs& blobs) {
    blobs[0] = overlong_count(blobs[0]);
    row.store_keys[0] = Sha256::of(blobs[0]);
    row_text = verify::format_shard_row(row, /*elide_transcripts=*/true);
  });
}

TEST(FabricLoopback, RefusesABlobInAnotherTrialsSlot) {
  // Each blob is checked against its own slot's key, not against its hash.
  expect_refused_and_reissued([](verify::ShardRow&, std::string&, Blobs& blobs) {
    ASSERT_NE(blobs[0], blobs[1]);
    std::swap(blobs[0], blobs[1]);
  });
}

TEST(FabricLoopback, RefusesABlobCountThatDiffersFromTheTrials) {
  expect_refused_and_reissued([](verify::ShardRow&, std::string&, Blobs& blobs) {
    blobs.pop_back();
  });
  expect_refused_and_reissued([](verify::ShardRow&, std::string&, Blobs& blobs) {
    blobs.push_back(blobs[0]);
  });
  // Many empty blobs: the first is no transcript, and the walk stops there.
  expect_refused_and_reissued([](verify::ShardRow&, std::string&, Blobs& blobs) {
    blobs.assign(std::size_t{1} << 16, {});
  });
}

TEST(FabricLoopback, RefusesATranscriptRowWithItsTranscriptsInline) {
  // The row carries its transcripts as hex, with blobs beside it or
  // without: an elided row with its blobs is the one accepted form.
  expect_refused_and_reissued([](verify::ShardRow& row, std::string& row_text, Blobs&) {
    row_text = verify::format_shard_row(row);
  });
  expect_refused_and_reissued([](verify::ShardRow& row, std::string& row_text, Blobs& blobs) {
    row_text = verify::format_shard_row(row);
    blobs.clear();
  });
}

TEST(FabricLoopback, RefusesARowThatDropsTheWindowsRecords) {
  // A transcript window answered by a row that records no transcripts,
  // with its blobs beside it or without them, or by a row without its
  // per-trial outcomes.
  const auto drop_transcripts = [](verify::ShardRow& row, std::string& row_text) {
    row.result.transcripts_recorded = false;
    row.result.per_trial_transcript.clear();
    row.store_keys.clear();
    row_text = verify::format_shard_row(row);
  };
  expect_refused_and_reissued([&](verify::ShardRow& row, std::string& row_text, Blobs&) {
    drop_transcripts(row, row_text);
  });
  expect_refused_and_reissued([&](verify::ShardRow& row, std::string& row_text, Blobs& blobs) {
    drop_transcripts(row, row_text);
    blobs.clear();
  });
  expect_refused_and_reissued([](verify::ShardRow& row, std::string& row_text, Blobs&) {
    row.result.outcomes_recorded = false;
    row.result.per_trial.clear();
    row_text = verify::format_shard_row(row, /*elide_transcripts=*/true);
  });
}

TEST(FabricLoopback, RefusesBlobsBesideARowWithoutTranscripts) {
  expect_refused_and_reissued(
      [](verify::ShardRow&, std::string&, Blobs& blobs) { blobs.push_back({0}); },
      /*transcripts=*/false);
}

TEST(FabricLoopback, AllWorkersDeadFailsTheSweepLoudly) {
  FabricOptions options;
  options.window_trials = 16;
  options.window_deadline = std::chrono::milliseconds(300);
  options.worker_grace = std::chrono::milliseconds(800);
  try {
    expect_fabric_matches_local({FaultPlan::parse("kill@1"), FaultPlan::parse("kill@1")},
                                options);
    FAIL() << "expected the sweep to fail with no workers left";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("all workers lost"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("outstanding"), std::string::npos)
        << error.what();
  }
}

TEST(FabricLoopback, RejectsMismatchedBuilds) {
  // The sweep can only end by the empty-fleet grace expiring.  Its timer
  // starts with the sweep, before the handshake below, so the grace must
  // still cover that handshake on a slow (sanitized) build: 2 s, not the
  // 15 s default.
  FabricOptions options;
  options.worker_grace = std::chrono::seconds(2);
  RemoteExecutor executor(options);
  std::thread driver([&executor] {
    try {
      (void)executor.run_sweep(loopback_sweep());
    } catch (const std::runtime_error&) {
      // Expected: the only worker is rejected, then the grace expires.
    }
  });
  // Speak the protocol directly with a wrong build digest.
  Socket sock = connect_tcp("127.0.0.1", executor.port(), std::chrono::seconds(5));
  set_read_timeout(sock.fd(), std::chrono::seconds(10));
  Hello hello;
  hello.build = 0x1234;  // no real build folds to this
  hello.label = "impostor";
  const auto bytes = encode_frame(hello);
  send_bytes(sock.fd(), bytes.data(), bytes.size(), /*blocking=*/true);
  std::vector<std::uint8_t> buffer;
  const auto reply = read_frame(sock.fd(), buffer);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->kind, MessageKind::kError);
  EXPECT_NE(reply->error.message.find("handshake rejected"), std::string::npos);
  driver.join();
}

}  // namespace
}  // namespace fle::fabric

// The sweep fabric (src/fabric/): wire-protocol frame round-trips and
// malformed-input rejection, handshake digests, deterministic fault plans,
// hardened shard-row ingestion, and the end-to-end loopback contract —
// RemoteExecutor over in-process workers is bit-identical to run_sweep,
// clean or under an injected fault schedule, and fails loudly when the
// whole fleet dies.

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/scenario.h"
#include "api/sweep.h"
#include "fabric/driver.h"
#include "fabric/fault.h"
#include "fabric/wire.h"
#include "fabric/worker.h"
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
}

TEST(FabricWire, DedupFramesRoundTrip) {
  LeafOffer offer;
  offer.window = 12;
  offer.keys.push_back(Sha256::of_string("a"));
  offer.keys.push_back(Sha256::of_string("b"));
  const Frame offered = roundtrip(encode_frame(offer));
  ASSERT_EQ(offered.kind, MessageKind::kLeafOffer);
  EXPECT_EQ(offered.offer.window, 12u);
  ASSERT_EQ(offered.offer.keys.size(), 2u);
  EXPECT_EQ(offered.offer.keys[0], Sha256::of_string("a"));
  EXPECT_EQ(offered.offer.keys[1], Sha256::of_string("b"));

  LeafWant want;
  want.window = 12;
  want.indices = {0, 5, 9};
  const Frame wanted = roundtrip(encode_frame(want));
  ASSERT_EQ(wanted.kind, MessageKind::kLeafWant);
  EXPECT_EQ(wanted.want.window, 12u);
  EXPECT_EQ(wanted.want.indices, (std::vector<std::uint64_t>{0, 5, 9}));

  ResultDedup dedup;
  dedup.window = 12;
  dedup.row = "{\"case\": 1}";
  dedup.blobs.emplace_back(5, std::vector<std::uint8_t>{1, 2, 3});
  const Frame shipped = roundtrip(encode_frame(dedup));
  ASSERT_EQ(shipped.kind, MessageKind::kResultDedup);
  EXPECT_EQ(shipped.result_dedup.row, dedup.row);
  ASSERT_EQ(shipped.result_dedup.blobs.size(), 1u);
  EXPECT_EQ(shipped.result_dedup.blobs[0].first, 5u);
  EXPECT_EQ(shipped.result_dedup.blobs[0].second, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(FabricWire, TruncatedLeafOfferThrows) {
  // A key count that overruns the payload must be rejected before any
  // allocation, like every other malformed frame.
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(MessageKind::kLeafOffer));
  leb128_put(payload, 1);    // window
  leb128_put(payload, 100);  // claims 100 keys, carries none
  std::vector<std::uint8_t> framed;
  leb128_put(framed, payload.size());
  framed.insert(framed.end(), payload.begin(), payload.end());
  EXPECT_THROW(try_parse_frame(framed), std::invalid_argument);
}

TEST(FabricWire, DigestsAreStableAndOrderSensitive) {
  EXPECT_EQ(build_digest(), build_digest());
  const std::vector<std::string> ab = {"a", "b"};
  const std::vector<std::string> ba = {"b", "a"};
  EXPECT_NE(sweep_digest(ab), sweep_digest(ba));
  EXPECT_EQ(sweep_digest(ab), sweep_digest(ab));
}

// ---- fault plans ------------------------------------------------------------

TEST(FaultPlan, ParseFormatRoundTrips) {
  const std::string text = "corrupt@1,kill@2,hang@3:2000,slow@4:250";
  const FaultPlan plan = FaultPlan::parse(text);
  ASSERT_EQ(plan.actions.size(), 4u);
  EXPECT_EQ(plan.format(), text);
  EXPECT_EQ(FaultPlan::parse(plan.format()), plan);
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

TEST(ShardHardening, ElidedRowsCarryKeysInsteadOfBlobs) {
  const verify::ShardRow row = recorded_row();
  const std::string elided = verify::format_shard_row(row, /*elide_transcripts=*/true);
  EXPECT_EQ(elided.find("\"transcripts\":"), std::string::npos);
  ASSERT_NE(elided.find("\"transcripts_elided\": true"), std::string::npos);
  const verify::ShardRow parsed = verify::parse_shard_row(elided);
  EXPECT_TRUE(parsed.transcripts_elided);
  ASSERT_EQ(parsed.store_keys.size(), row.result.per_trial_transcript.size());
  for (std::size_t t = 0; t < parsed.store_keys.size(); ++t) {
    EXPECT_EQ(parsed.store_keys[t], row.result.per_trial_transcript[t].content_key().hex());
  }
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
/// the in-process run_sweep.
void expect_fabric_matches_local(const std::vector<FaultPlan>& worker_plans,
                                 FabricOptions options) {
  const SweepSpec sweep = loopback_sweep();
  const std::vector<ScenarioResult> local = run_sweep(sweep);

  RemoteExecutor executor(options);
  std::vector<std::thread> workers;
  workers.reserve(worker_plans.size());
  for (std::size_t w = 0; w < worker_plans.size(); ++w) {
    WorkerOptions worker;
    worker.port = executor.port();
    worker.label = "t";
    worker.label += std::to_string(w);
    worker.faults = worker_plans[w];
    worker.threads = 2;
    workers.push_back(std::thread([worker] { (void)run_worker(worker); }));
  }
  std::vector<ScenarioResult> remote;
  try {
    remote = executor.run_sweep(sweep);
  } catch (...) {
    for (std::thread& t : workers) t.join();
    throw;
  }
  for (std::thread& t : workers) t.join();

  ASSERT_EQ(remote.size(), local.size());
  // Byte-identical, transcripts included: the whole acceptance criterion in
  // one string comparison.
  EXPECT_EQ(canonical_report(sweep, remote), canonical_report(sweep, local));
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

TEST(FabricLoopback, DedupReusesRepeatedTranscriptBlobs) {
  SweepSpec sweep;
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 5;
  spec.trials = 30;
  spec.seed = 5;
  spec.record_transcripts = true;
  sweep.add(spec);
  sweep.add(spec);  // identical twin: all of its leaves are already cached

  const std::vector<ScenarioResult> local = run_sweep(sweep);
  FabricOptions options;
  options.window_trials = 10;
  RemoteExecutor executor(options);
  WorkerOptions worker;
  worker.port = executor.port();
  worker.threads = 2;
  std::thread thread([worker] { (void)run_worker(worker); });
  std::vector<ScenarioResult> remote;
  try {
    remote = executor.run_sweep(sweep);
  } catch (...) {
    thread.join();
    throw;
  }
  thread.join();

  // Dedup is a transport optimization: the merged report stays bit-identical.
  EXPECT_EQ(canonical_report(sweep, remote), canonical_report(sweep, local));
  const DedupStats& stats = executor.dedup_stats();
  EXPECT_EQ(stats.keys_offered, 60u);
  EXPECT_EQ(stats.blobs_shipped + stats.blobs_reused, stats.keys_offered);
  // One worker drains windows in plan order, so by the time the twin
  // scenario runs, every one of its 30 blobs is served from the cache.
  EXPECT_GE(stats.blobs_reused, 30u);
  EXPECT_LE(stats.blobs_shipped, 30u);
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
  RemoteExecutor executor(FabricOptions{});
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

// ---- backend routing --------------------------------------------------------

class CountingBackend final : public SweepBackend {
 public:
  std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep) override {
    ++calls;
    std::vector<ScenarioResult> out;
    for (const ScenarioSpec& spec : sweep.scenarios) out.push_back(ScenarioResult(spec.n));
    return out;
  }
  int calls = 0;
};

TEST(SweepBackend, RunSweepRoutesThroughInstalledBackend) {
  CountingBackend backend;
  SweepBackend* previous = set_sweep_backend(&backend);
  SweepSpec sweep;
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 4;
  spec.trials = 5;
  sweep.add(spec);
  const std::vector<ScenarioResult> results = run_sweep(sweep);
  set_sweep_backend(previous);
  EXPECT_EQ(backend.calls, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcomes.domain(), 4);
  // With the backend uninstalled the in-process executor is back.
  const std::vector<ScenarioResult> direct = run_sweep(sweep);
  EXPECT_EQ(backend.calls, 1);
  EXPECT_EQ(direct[0].trials, 5u);
}

}  // namespace
}  // namespace fle::fabric

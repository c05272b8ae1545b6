// The unified execution-transcript subsystem (sim/transcript.h, DESIGN.md
// §7): codec round trips, record -> replay equality on all four runtime
// families at 1/4/8 workers, fresh-vs-reused engine capture, ring schedule
// re-drive (including divergence detection), turn-game action re-drive, and
// sharded-vs-monolithic capture merging.

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "api/registry.h"
#include "api/scenario.h"
#include "attacks/deviation.h"
#include "fullinfo/baton.h"
#include "fullinfo/turn_game.h"
#include "protocols/basic_lead.h"
#include "sim/engine.h"
#include "sim/transcript.h"
#include "verify/shard.h"

namespace fle {
namespace {

// ---- the stream itself ------------------------------------------------------

TEST(Transcript, DigestAndFullModesAgree) {
  ExecutionTranscript full(TranscriptMode::kFull);
  ExecutionTranscript digest(TranscriptMode::kDigest);
  for (std::uint64_t i = 0; i < 50; ++i) {
    full.delivery(i, i % 7, i * 3);
    digest.delivery(i, i % 7, i * 3);
  }
  full.decision(3, false, 5);
  digest.decision(3, false, 5);
  EXPECT_EQ(full.digest(), digest.digest());
  EXPECT_EQ(full.size(), digest.size());
  EXPECT_TRUE(full == digest);
  EXPECT_EQ(full.events().size(), 51u);
  EXPECT_TRUE(digest.events().empty());
}

TEST(Transcript, OrderSensitivity) {
  ExecutionTranscript a;
  ExecutionTranscript b;
  a.delivery(1, 2, 3);
  a.delivery(4, 5, 6);
  b.delivery(4, 5, 6);
  b.delivery(1, 2, 3);
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_FALSE(a == b);
}

TEST(Transcript, ClearKeepsCapacityAndRestartsTheDigest) {
  ExecutionTranscript t;
  t.delivery(1, 2, 3);
  const std::uint64_t first = t.digest();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  t.delivery(1, 2, 3);
  EXPECT_EQ(t.digest(), first);
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
  EXPECT_EQ(decoded.digest(), t.digest());
  ASSERT_EQ(decoded.events().size(), t.events().size());
  for (std::size_t i = 0; i < t.events().size(); ++i) {
    EXPECT_TRUE(t.events()[i] == decoded.events()[i]);
  }
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
  EXPECT_THROW(ExecutionTranscript(TranscriptMode::kDigest).encode(), std::logic_error);
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

void expect_equal_transcripts(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.per_trial_transcript.size(), b.per_trial_transcript.size());
  for (std::size_t t = 0; t < a.per_trial_transcript.size(); ++t) {
    const Replayer replayer(a.per_trial_transcript[t]);
    const auto divergence = replayer.diff(b.per_trial_transcript[t]);
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
    ASSERT_TRUE(fresh.run(compose_strategies(protocol, nullptr, spec.n)).valid());
    const auto divergence = Replayer(reused.per_trial_transcript[t]).diff(transcript);
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
  const Outcome original = recorder.run(compose_strategies(protocol, nullptr, n));
  ASSERT_TRUE(original.valid());

  const Replayer replayer(recorded);
  ExecutionTranscript replayed;
  EngineOptions replay_options;
  replay_options.scheduler = replayer.ring_schedule();
  RingEngine redriven(n, seed, std::move(replay_options));
  redriven.set_transcript(&replayed);
  const Outcome outcome = redriven.run(compose_strategies(protocol, nullptr, n));
  EXPECT_EQ(outcome, original);
  EXPECT_FALSE(replayer.diff(replayed).has_value());
}

TEST(TranscriptReplay, RingRedriveDetectsATamperedSchedule) {
  const int n = 12;
  BasicLeadProtocol protocol;
  ExecutionTranscript recorded;
  RingEngine recorder(n, 7);
  recorder.set_transcript(&recorded);
  ASSERT_TRUE(recorder.run(compose_strategies(protocol, nullptr, n)).valid());

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

  const Replayer replayer(tampered);
  ExecutionTranscript replayed;
  EngineOptions options;
  options.scheduler = replayer.ring_schedule();
  RingEngine redriven(n, 7, std::move(options));
  redriven.set_transcript(&replayed);
  bool diverged = false;
  try {
    redriven.run(compose_strategies(protocol, nullptr, n));
    diverged = replayer.diff(replayed).has_value();
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

// PR-2 regression suite for the zero-allocation execution model
// (DESIGN.md §4): a reused engine — reset() between trials, strategies
// rebuilt in a StrategyArena — must produce bit-identical outcomes and
// execution stats to a freshly constructed engine, for the ring, graph and
// sync runtimes, honest and adversarial; and workspace reuse inside
// run_scenario's worker pool must leave the 1/4/8-thread determinism
// contract intact.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "api/scenario.h"
#include "attacks/basic_single.h"
#include "attacks/deviation.h"
#include "attacks/graph_deviation.h"
#include "attacks/rushing.h"
#include "attacks/shamir_attacks.h"
#include "attacks/sync_attacks.h"
#include "protocols/alead_uni.h"
#include "protocols/basic_lead.h"
#include "protocols/shamir_lead.h"
#include "protocols/sync_lead.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "sim/graph_engine.h"
#include "sim/sync_engine.h"

namespace fle {
namespace {

constexpr int kTrials = 12;

// ---- ring ------------------------------------------------------------------

struct RingRun {
  Outcome outcome;
  ExecutionStats stats;
};

RingRun run_ring_fresh(const RingProtocol& protocol, const Deviation* deviation, int n,
                       std::uint64_t seed,
                       SchedulerKind kind = SchedulerKind::kRoundRobin) {
  EngineOptions options;
  options.scheduler_kind = kind;
  RingEngine engine(n, seed, std::move(options));
  StrategyArena arena;
  std::vector<RingStrategy*> profile;
  compose_profile_into(protocol, deviation, n, arena, profile);
  RingRun run;
  run.outcome = engine.run(std::span<RingStrategy* const>(profile));
  run.stats = engine.stats();
  return run;
}

void expect_ring_equal(const RingRun& fresh, const RingRun& reused, std::uint64_t seed) {
  EXPECT_EQ(fresh.outcome, reused.outcome) << "seed " << seed;
  EXPECT_EQ(fresh.stats.sent, reused.stats.sent) << "seed " << seed;
  EXPECT_EQ(fresh.stats.received, reused.stats.received) << "seed " << seed;
  EXPECT_EQ(fresh.stats.deliveries, reused.stats.deliveries) << "seed " << seed;
  EXPECT_EQ(fresh.stats.total_sent, reused.stats.total_sent) << "seed " << seed;
  EXPECT_EQ(fresh.stats.max_sync_gap, reused.stats.max_sync_gap) << "seed " << seed;
  EXPECT_EQ(fresh.stats.step_limit_hit, reused.stats.step_limit_hit) << "seed " << seed;
}

void check_ring_reuse(const RingProtocol& protocol, const Deviation* deviation, int n,
                      SchedulerKind kind = SchedulerKind::kRoundRobin) {
  EngineOptions options;
  options.scheduler_kind = kind;
  RingEngine reused(n, 1, std::move(options));
  StrategyArena arena;
  std::vector<RingStrategy*> profile;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    reused.reset(seed);
    arena.rewind();
    compose_profile_into(protocol, deviation, n, arena, profile);
    RingRun second;
    second.outcome = reused.run(std::span<RingStrategy* const>(profile));
    second.stats = reused.stats();
    expect_ring_equal(run_ring_fresh(protocol, deviation, n, seed, kind), second, seed);
  }
}

TEST(EngineReuse, RingHonestMatchesFresh) {
  BasicLeadProtocol basic;
  check_ring_reuse(basic, nullptr, 16);
  ALeadUniProtocol alead;
  check_ring_reuse(alead, nullptr, 16);
}

TEST(EngineReuse, RingAdversarialMatchesFresh) {
  BasicLeadProtocol basic;
  BasicSingleDeviation single(16, /*adversary=*/3, /*target=*/7);
  check_ring_reuse(basic, &single, 16);

  ALeadUniProtocol alead;
  RushingDeviation rushing(Coalition::equally_spaced(16, 7), /*target=*/5);
  check_ring_reuse(alead, &rushing, 16);
}

TEST(EngineReuse, RingRandomAndPrioritySchedulesMatchFresh) {
  // The random and priority fast paths reseed per reset(); reuse must agree
  // with fresh construction for them too.
  BasicLeadProtocol basic;
  check_ring_reuse(basic, nullptr, 16, SchedulerKind::kRandom);
  check_ring_reuse(basic, nullptr, 16, SchedulerKind::kPriority);
  BasicSingleDeviation single(16, /*adversary=*/3, /*target=*/7);
  check_ring_reuse(basic, &single, 16, SchedulerKind::kRandom);
}

TEST(EngineReuse, BuiltinFastPathMatchesSchedulerObjects) {
  // DESIGN.md §4: the engine's built-in schedule state restarts exactly as
  // make_scheduler(kind, n, seed) would build it.  Pin the contract by
  // running the devirtualized fast path against the virtual Scheduler
  // objects, stat for stat.
  BasicLeadProtocol protocol;
  const int n = 12;
  for (const SchedulerKind kind : {SchedulerKind::kRandom, SchedulerKind::kPriority}) {
    for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
      EngineOptions custom;
      custom.scheduler = make_scheduler(kind, n, seed);
      RingEngine reference(n, seed, std::move(custom));
      StrategyArena arena;
      std::vector<RingStrategy*> profile;
      compose_profile_into(protocol, static_cast<const Deviation*>(nullptr), n, arena,
                           profile);
      RingRun expected;
      expected.outcome = reference.run(std::span<RingStrategy* const>(profile));
      expected.stats = reference.stats();
      expect_ring_equal(expected, run_ring_fresh(protocol, nullptr, n, seed, kind), seed);
    }
  }
}

// ---- graph -----------------------------------------------------------------

struct GraphRun {
  Outcome outcome;
  GraphExecutionStats stats;
};

GraphRun run_graph_fresh(const GraphProtocol& protocol, const GraphDeviation* deviation,
                         int n, std::uint64_t seed) {
  GraphEngine engine(n, seed);
  StrategyArena arena;
  std::vector<GraphStrategy*> profile;
  compose_profile_into(protocol, deviation, n, arena, profile);
  GraphRun run;
  run.outcome = engine.run(std::span<GraphStrategy* const>(profile));
  run.stats = engine.stats();
  return run;
}

void check_graph_reuse(const GraphProtocol& protocol, const GraphDeviation* deviation,
                       int n) {
  GraphEngine reused(n, 1);
  StrategyArena arena;
  std::vector<GraphStrategy*> profile;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    reused.reset(seed);
    arena.rewind();
    compose_profile_into(protocol, deviation, n, arena, profile);
    const Outcome outcome = reused.run(std::span<GraphStrategy* const>(profile));
    const GraphRun fresh = run_graph_fresh(protocol, deviation, n, seed);
    EXPECT_EQ(fresh.outcome, outcome) << "seed " << seed;
    EXPECT_EQ(fresh.stats.sent, reused.stats().sent) << "seed " << seed;
    EXPECT_EQ(fresh.stats.received, reused.stats().received) << "seed " << seed;
    EXPECT_EQ(fresh.stats.total_sent, reused.stats().total_sent) << "seed " << seed;
    EXPECT_EQ(fresh.stats.deliveries, reused.stats().deliveries) << "seed " << seed;
  }
}

TEST(EngineReuse, GraphHonestAndAdversarialMatchFresh) {
  const int n = 8;
  ShamirLeadProtocol shamir(n);
  check_graph_reuse(shamir, nullptr, n);

  ShamirRushingDeviation rushing(Coalition::consecutive(n, n / 2 + 1), /*target=*/2, shamir);
  check_graph_reuse(shamir, &rushing, n);
}

TEST(EngineReuse, GraphRandomLinkScheduleReplaysTheScenarioTranscripts) {
  // The link schedule is seeded from the trial seed alone, so an engine
  // driven directly, fresh or reused, executes exactly the trials
  // run_scenario executes under the random link schedule.
  ScenarioSpec spec;
  spec.topology = TopologyKind::kGraph;
  spec.protocol = "shamir-lead";
  spec.scheduler = SchedulerKind::kRandom;
  spec.n = 8;
  spec.trials = kTrials;
  spec.seed = 5;
  spec.record_transcripts = true;
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.per_trial_transcript.size(), spec.trials);

  const ShamirLeadProtocol shamir(spec.n);
  const GraphDeviation* honest = nullptr;
  GraphEngineOptions options;
  options.schedule = SchedulerKind::kRandom;
  GraphEngine reused(spec.n, 1, options);
  StrategyArena arena;
  std::vector<GraphStrategy*> profile;
  for (std::size_t t = 0; t < spec.trials; ++t) {
    const std::uint64_t trial_seed = scenario_trial_seed(spec.seed, t);

    GraphEngine fresh(spec.n, trial_seed, options);
    ExecutionTranscript fresh_transcript;
    fresh.set_transcript(&fresh_transcript);
    StrategyArena fresh_arena;
    std::vector<GraphStrategy*> fresh_profile;
    compose_profile_into(shamir, honest, spec.n, fresh_arena, fresh_profile);
    (void)fresh.run(std::span<GraphStrategy* const>(fresh_profile));
    EXPECT_EQ(fresh_transcript, result.per_trial_transcript[t]) << "fresh, trial " << t;

    reused.reset(trial_seed);
    ExecutionTranscript reused_transcript;
    reused.set_transcript(&reused_transcript);
    arena.rewind();
    compose_profile_into(shamir, honest, spec.n, arena, profile);
    (void)reused.run(std::span<GraphStrategy* const>(profile));
    EXPECT_EQ(reused_transcript, result.per_trial_transcript[t]) << "reused, trial " << t;
  }
}

// ---- sync ------------------------------------------------------------------

void check_sync_reuse(const SyncProtocol& protocol, const SyncDeviation* deviation, int n) {
  SyncEngine reused(n, 1);
  StrategyArena arena;
  std::vector<SyncStrategy*> profile;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    reused.reset(seed);
    arena.rewind();
    compose_profile_into(protocol, deviation, n, arena, profile);
    const Outcome outcome = reused.run(std::span<SyncStrategy* const>(profile));

    SyncEngine fresh(n, seed);
    StrategyArena fresh_arena;
    std::vector<SyncStrategy*> fresh_profile;
    compose_profile_into(protocol, deviation, n, fresh_arena, fresh_profile);
    const Outcome expected = fresh.run(std::span<SyncStrategy* const>(fresh_profile));

    EXPECT_EQ(expected, outcome) << "seed " << seed;
    EXPECT_EQ(fresh.stats().total_sent, reused.stats().total_sent) << "seed " << seed;
    EXPECT_EQ(fresh.stats().rounds, reused.stats().rounds) << "seed " << seed;
    EXPECT_EQ(fresh.stats().round_limit_hit, reused.stats().round_limit_hit)
        << "seed " << seed;
  }
}

TEST(EngineReuse, SyncHonestAndAdversarialMatchFresh) {
  const int n = 8;
  SyncBroadcastLeadProtocol broadcast;
  check_sync_reuse(broadcast, nullptr, n);

  SyncLateBroadcastDeviation late(Coalition::consecutive(n, 1, 1));
  check_sync_reuse(broadcast, &late, n);

  SyncBlindCollusionDeviation blind(Coalition::consecutive(n, 3, 1));
  check_sync_reuse(broadcast, &blind, n);
}

// ---- scenario-level determinism across worker counts -----------------------

void expect_identical_counts(const ScenarioResult& a, const ScenarioResult& b, int domain) {
  ASSERT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.outcomes.fails(), b.outcomes.fails());
  for (Value j = 0; j < static_cast<Value>(domain); ++j) {
    EXPECT_EQ(a.outcomes.count(j), b.outcomes.count(j)) << "leader " << j;
  }
  EXPECT_DOUBLE_EQ(a.mean_messages(), b.mean_messages());
  EXPECT_EQ(a.max_messages, b.max_messages);
}

void check_threads_148(ScenarioSpec spec) {
  auto one = spec;
  one.threads = 1;
  auto four = spec;
  four.threads = 4;
  auto eight = spec;
  eight.threads = 8;
  const ScenarioResult a = run_scenario(one);
  const ScenarioResult b = run_scenario(four);
  const ScenarioResult c = run_scenario(eight);
  expect_identical_counts(a, b, spec.n);
  expect_identical_counts(a, c, spec.n);
}

TEST(EngineReuse, RingScenarioDeterministicAcrossThreadCounts) {
  ScenarioSpec honest;
  honest.topology = TopologyKind::kRing;
  honest.protocol = "alead-uni";
  honest.n = 16;
  honest.trials = 96;
  honest.seed = 5;
  check_threads_148(honest);

  ScenarioSpec attacked = honest;
  attacked.protocol = "basic-lead";
  attacked.deviation = "basic-single";
  attacked.coalition = CoalitionSpec::consecutive(1, 3);
  attacked.target = 6;
  check_threads_148(attacked);

  ScenarioSpec random_schedule = honest;
  random_schedule.scheduler = SchedulerKind::kRandom;
  check_threads_148(random_schedule);
}

TEST(EngineReuse, GraphScenarioDeterministicAcrossThreadCounts) {
  ScenarioSpec honest;
  honest.topology = TopologyKind::kGraph;
  honest.protocol = "shamir-lead";
  honest.n = 8;
  honest.trials = 48;
  honest.seed = 5;
  check_threads_148(honest);

  ScenarioSpec attacked = honest;
  attacked.deviation = "shamir-rushing";
  attacked.coalition = CoalitionSpec::consecutive(5);
  attacked.target = 2;
  check_threads_148(attacked);
}

TEST(EngineReuse, SyncScenarioDeterministicAcrossThreadCounts) {
  ScenarioSpec honest;
  honest.topology = TopologyKind::kSync;
  honest.protocol = "sync-broadcast-lead";
  honest.n = 12;
  honest.trials = 96;
  honest.seed = 5;
  check_threads_148(honest);

  ScenarioSpec attacked = honest;
  attacked.deviation = "sync-blind-collusion";
  attacked.coalition = CoalitionSpec::consecutive(4);
  check_threads_148(attacked);
}

}  // namespace
}  // namespace fle

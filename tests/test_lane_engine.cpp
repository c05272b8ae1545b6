// Batched lane engine (sim/lane_engine.h) and the specializer
// (api/specialize.h): the bit-identity gate against the scalar engine
// across kernels, schedulers and worker counts, the routing rules, and the
// engine= spec field's round trip.

#include "sim/lane_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "api/scenario.h"
#include "api/specialize.h"
#include "api/sweep.h"
#include "sim/sync_engine.h"
#include "verify/differential.h"
#include "verify/fuzzer.h"

namespace fle {
namespace {

ScenarioSpec ring_spec(const char* protocol, int n, SchedulerKind scheduler) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.n = n;
  spec.trials = 48;
  spec.seed = 414243;
  spec.scheduler = scheduler;
  return spec;
}

/// The worker counts every bit-identity grid runs at.
constexpr int kWorkers[] = {1, 4, 8};

TEST(LaneEngine, BitIdenticalToScalarAcrossKernelsAndWorkers) {
  // The acceptance grid: every lane kernel on 1/4/8 workers.
  // check_lane_differential compares per-trial outcomes, aggregates, and
  // per-trial transcripts (digests included).
  for (const char* protocol : {"basic-lead", "chang-roberts", "alead-uni"}) {
    for (const int threads : kWorkers) {
      const auto result = verify::check_lane_differential(
          ring_spec(protocol, 11, SchedulerKind::kRoundRobin), threads);
      EXPECT_TRUE(result.passed) << result.subject << ": " << result.detail;
    }
  }
}

TEST(LaneEngine, DeviatedKernelsBitIdenticalAcrossWorkers) {
  // The deviated lane kernels (PR 6): the Claim B.1 lone adversary on
  // BASIC-LEAD and the Lemma 4.1 rushing coalition on A-LEADuni, across
  // the same worker counts as the honest kernels.
  for (const int threads : kWorkers) {
    ScenarioSpec single = ring_spec("basic-lead", 11, SchedulerKind::kRoundRobin);
    single.deviation = "basic-single";
    single.target = 5;
    auto result = verify::check_lane_differential(single, threads);
    EXPECT_TRUE(result.passed) << result.subject << ": " << result.detail;

    ScenarioSpec rushing = ring_spec("alead-uni", 12, SchedulerKind::kRoundRobin);
    rushing.deviation = "rushing";
    rushing.coalition = CoalitionSpec::equally_spaced(4, 1);
    rushing.target = 7;
    result = verify::check_lane_differential(rushing, threads);
    EXPECT_TRUE(result.passed) << result.subject << ": " << result.detail;
  }
}

TEST(LaneEngine, DeviatedKernelsBitIdenticalUnderDataDependentSchedulers) {
  // Off the round-robin fast paths the deviated kernels run the general
  // burst loop; the random and priority schedulers exercise it.
  for (const SchedulerKind scheduler : {SchedulerKind::kRandom, SchedulerKind::kPriority}) {
    ScenarioSpec single = ring_spec("basic-lead", 10, scheduler);
    single.deviation = "basic-single";
    single.target = 3;
    auto result = verify::check_lane_differential(single, /*threads=*/2);
    EXPECT_TRUE(result.passed) << result.detail;

    ScenarioSpec rushing = ring_spec("alead-uni", 12, scheduler);
    rushing.deviation = "rushing";
    rushing.coalition = CoalitionSpec::equally_spaced(4, 1);
    rushing.target = 2;
    result = verify::check_lane_differential(rushing, /*threads=*/3);
    EXPECT_TRUE(result.passed) << result.detail;
  }
}

TEST(SyncLaneEngine, BitIdenticalAcrossKernelsAndWorkers) {
  // The sync-runtime lanes (PR 6): both sync kernels against the scalar
  // SyncEngine round loop — rounds, messages, and the per-round
  // phase/delivery/decision transcripts.
  for (const char* protocol : {"sync-broadcast-lead", "sync-ring-lead"}) {
    for (const int threads : kWorkers) {
      ScenarioSpec spec;
      spec.topology = TopologyKind::kSync;
      spec.protocol = protocol;
      spec.n = 11;
      spec.trials = 48;
      spec.seed = 414243;
      const auto result = verify::check_lane_differential(spec, threads);
      EXPECT_TRUE(result.passed) << result.subject << ": " << result.detail;
    }
  }
}

TEST(SyncLaneEngine, RoundLimitStarvationMatchesScalar) {
  // A starving round limit must abort the same way on both engines (the
  // sync lanes replicate the limit check before the round counter moves).
  ScenarioSpec spec;
  spec.topology = TopologyKind::kSync;
  spec.protocol = "sync-ring-lead";
  spec.n = 10;
  spec.trials = 24;
  spec.seed = 99;
  spec.step_limit = 4;  // sync-ring-lead needs n + 3 rounds
  const auto result = verify::check_lane_differential(spec, /*threads=*/1);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(SyncLaneEngine, RunWindowValidatesSpans) {
  SyncLaneEngine engine(8, SyncLaneKernelId::kSyncBroadcast, SyncLaneEngineOptions{});
  std::vector<std::uint64_t> seeds(4, 1);
  std::vector<LaneTrialResult> results(3);
  EXPECT_THROW(engine.run_window(seeds, results), std::invalid_argument);
}

TEST(LaneEngine, BitIdenticalUnderEveryScheduler) {
  for (const SchedulerKind scheduler :
       {SchedulerKind::kRoundRobin, SchedulerKind::kRandom, SchedulerKind::kPriority}) {
    const auto result = verify::check_lane_differential(
        ring_spec("chang-roberts", 9, scheduler), /*threads=*/2);
    EXPECT_TRUE(result.passed) << result.detail;
  }
}

TEST(LaneEngine, ShardedWindowsMergeLikeScalar) {
  // Lane seeds derive from the GLOBAL trial index, so a sharded window on
  // the lane engine equals the same window cut from the monolithic run.
  ScenarioSpec whole = ring_spec("basic-lead", 9, SchedulerKind::kRoundRobin);
  whole.engine = EngineKind::kLanes;
  whole.record_outcomes = true;
  ScenarioSpec shard = whole;
  shard.trial_offset = 13;
  shard.trial_count = 17;
  const ScenarioResult all = run_scenario(whole);
  const ScenarioResult cut = run_scenario(shard);
  ASSERT_EQ(cut.per_trial.size(), 17u);
  for (std::size_t t = 0; t < cut.per_trial.size(); ++t) {
    EXPECT_EQ(cut.per_trial[t], all.per_trial[13 + t]) << "trial " << t;
  }
}

TEST(LaneEngine, StepLimitStarvationMatchesScalar) {
  // A starving step limit must FAIL the same trials on both engines (the
  // retirement policy mirrors the scalar run loop's break semantics).
  ScenarioSpec spec = ring_spec("basic-lead", 10, SchedulerKind::kRoundRobin);
  spec.step_limit = 35;  // below the n*n honest requirement
  const auto result = verify::check_lane_differential(spec, /*threads=*/1);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(LaneEngine, RunWindowValidatesSpans) {
  LaneEngine engine(8, LaneKernelId::kBasicLead, LaneEngineOptions{});
  std::vector<std::uint64_t> seeds(4, 1);
  std::vector<LaneTrialResult> results(3);
  EXPECT_THROW(engine.run_window(seeds, results), std::invalid_argument);
  EXPECT_THROW(LaneEngine(1, LaneKernelId::kBasicLead, LaneEngineOptions{}),
               std::invalid_argument);
}

TEST(Specializer, KernelMapCoversTheThreeLaneProtocols) {
  EXPECT_EQ(lane_kernel_for("basic-lead"), LaneKernelId::kBasicLead);
  EXPECT_EQ(lane_kernel_for("chang-roberts"), LaneKernelId::kChangRoberts);
  EXPECT_EQ(lane_kernel_for("alead-uni"), LaneKernelId::kALeadUni);
  EXPECT_FALSE(lane_kernel_for("peterson").has_value());
  EXPECT_FALSE(lane_kernel_for("phase-async-lead").has_value());
}

TEST(Specializer, EligibilityIsStructural) {
  ScenarioSpec spec = ring_spec("basic-lead", 8, SchedulerKind::kRoundRobin);
  EXPECT_TRUE(lane_eligible(spec));
  // The lane-served deviated profiles are eligible too (PR 6).
  ScenarioSpec deviated = spec;
  deviated.deviation = "basic-single";
  EXPECT_TRUE(lane_eligible(deviated));
  ScenarioSpec rushing = spec;
  rushing.protocol = "alead-uni";
  rushing.deviation = "rushing";
  EXPECT_TRUE(lane_eligible(rushing));
  ScenarioSpec other_dev = spec;
  other_dev.deviation = "cubic";
  EXPECT_FALSE(lane_eligible(other_dev));
  EXPECT_NE(lane_ineligible_reason(other_dev).find("cubic"), std::string::npos);
  ScenarioSpec graph = spec;
  graph.topology = TopologyKind::kGraph;
  EXPECT_FALSE(lane_eligible(graph));
  ScenarioSpec no_kernel = spec;
  no_kernel.protocol = "peterson";
  EXPECT_FALSE(lane_eligible(no_kernel));
  EXPECT_NE(lane_ineligible_reason(no_kernel).find("peterson"), std::string::npos);
  // Sync specs: honest lane-kernel protocols are eligible, deviated or
  // kernel-less ones are not.
  ScenarioSpec sync;
  sync.topology = TopologyKind::kSync;
  sync.protocol = "sync-broadcast-lead";
  sync.n = 8;
  EXPECT_TRUE(lane_eligible(sync));
  sync.protocol = "sync-ring-lead";
  EXPECT_TRUE(lane_eligible(sync));
  ScenarioSpec sync_dev = sync;
  sync_dev.deviation = "sync-blind-collusion";
  EXPECT_FALSE(lane_eligible(sync_dev));
  ScenarioSpec sync_other = sync;
  sync_other.protocol = "basic-lead";
  EXPECT_FALSE(lane_eligible(sync_other));
  // Eligible specs report no reason.
  EXPECT_TRUE(lane_ineligible_reason(spec).empty());
  EXPECT_TRUE(lane_ineligible_reason(sync).empty());
}

TEST(Specializer, ForcedLanesRejectsIneligibleSpecs) {
  ScenarioSpec spec = ring_spec("peterson", 8, SchedulerKind::kRoundRobin);
  spec.engine = EngineKind::kLanes;
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
  ScenarioSpec deviated = ring_spec("alead-uni", 8, SchedulerKind::kRoundRobin);
  deviated.engine = EngineKind::kLanes;
  deviated.deviation = "cubic";  // no lane register mapping
  deviated.target = 3;
  EXPECT_THROW(run_scenario(deviated), std::invalid_argument);
  ScenarioSpec sync_dev;
  sync_dev.topology = TopologyKind::kSync;
  sync_dev.protocol = "sync-broadcast-lead";
  sync_dev.deviation = "sync-blind-collusion";
  sync_dev.coalition = CoalitionSpec::consecutive(2, 1);
  sync_dev.n = 8;
  sync_dev.engine = EngineKind::kLanes;
  EXPECT_THROW(run_scenario(sync_dev), std::invalid_argument);
}

TEST(Specializer, SweepRoutingIsInvisibleInResults) {
  // A mixed sweep (a dominant and a rare lane-eligible shape + a
  // scalar-only shape) must produce results identical to the same sweep
  // with lanes forced off.
  SweepSpec sweep;
  ScenarioSpec hot = ring_spec("basic-lead", 12, SchedulerKind::kRoundRobin);
  hot.trials = 400;
  hot.record_outcomes = true;
  ScenarioSpec rare = ring_spec("alead-uni", 256, SchedulerKind::kRandom);
  rare.trials = 2;
  rare.record_outcomes = true;
  ScenarioSpec cold = ring_spec("peterson", 6, SchedulerKind::kRoundRobin);
  cold.trials = 20;
  cold.record_outcomes = true;
  sweep.scenarios = {hot, rare, cold};
  sweep.threads = 2;
  const std::vector<ScenarioResult> routed = run_sweep(sweep);

  SweepSpec scalar_sweep = sweep;
  for (ScenarioSpec& spec : scalar_sweep.scenarios) spec.engine = EngineKind::kScalar;
  const std::vector<ScenarioResult> scalar = run_sweep(scalar_sweep);

  ASSERT_EQ(routed.size(), scalar.size());
  for (std::size_t i = 0; i < routed.size(); ++i) {
    EXPECT_EQ(routed[i].per_trial, scalar[i].per_trial) << "scenario " << i;
    EXPECT_EQ(routed[i].total_messages, scalar[i].total_messages);
    EXPECT_EQ(routed[i].max_sync_gap, scalar[i].max_sync_gap);
  }
}

TEST(Specializer, SpecFieldsRoundTripThroughFormatAndParse) {
  ScenarioSpec spec = ring_spec("alead-uni", 9, SchedulerKind::kPriority);
  spec.engine = EngineKind::kLanes;
  const ScenarioSpec parsed = verify::parse_spec(verify::format_spec(spec));
  EXPECT_EQ(parsed.engine, EngineKind::kLanes);
  EXPECT_EQ(verify::format_spec(parsed), verify::format_spec(spec));
  // Defaults stay omitted; unknown values are rejected.
  const ScenarioSpec defaults = ring_spec("basic-lead", 8, SchedulerKind::kRoundRobin);
  EXPECT_EQ(verify::format_spec(defaults).find("engine="), std::string::npos);
  EXPECT_THROW(verify::parse_spec("protocol=basic-lead n=4 engine=warp"),
               std::invalid_argument);
  // lanes= and rng= are not spec keys: both are rejected as unknown.
  for (const char* line :
       {"protocol=basic-lead n=4 lanes=8", "protocol=basic-lead n=4 rng=ctr"}) {
    try {
      verify::parse_spec(line);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("unknown spec key"), std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace fle

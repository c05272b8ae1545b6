// Batched lane engine (sim/lane_engine.h) and the specializer
// (api/specialize.h): the bit-identity gate against the scalar engine
// across kernels, schedulers and worker counts, the routing rules, the
// closed-form layer (prediction vs general path, the loud audit, the
// eligibility and audit rules), and the engine= spec field's round trip.

#include "sim/lane_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/scenario.h"
#include "api/specialize.h"
#include "api/sweep.h"
#include "attacks/deviation.h"
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
  // per-trial transcripts (digests included), and — in a second lanes run
  // without transcripts — the trials the closed forms serve.
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
  // Off round-robin no closed form applies, and the deviated kernels run
  // every trial through the burst loop on data-dependent schedules.
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

/// The lane engine options fill_lane_job builds for `spec`: the step limit
/// and the deviated layout resolved through the registry factories.
LaneEngineOptions lane_options(const ScenarioSpec& spec) {
  register_builtin_scenarios();
  const auto protocol = ProtocolRegistry::instance().at(spec.protocol).make_ring(spec, spec.seed);
  LaneEngineOptions options;
  options.scheduler_kind = spec.scheduler;
  options.step_limit = scenario_ring_step_limit(spec, *protocol);
  if (!spec.deviation.empty()) {
    const auto deviation =
        DeviationRegistry::instance().at(spec.deviation).make_ring(*protocol, spec);
    options.deviation.id = *lane_deviation_id(spec.deviation);
    options.deviation.members = deviation->coalition().members();
    options.deviation.segment_lengths = deviation->coalition().segment_lengths();
    options.deviation.target = spec.target;
  }
  return options;
}

/// The five closed-form shapes at ring size n: both token-sum kernels,
/// chang-roberts, basic-single on basic-lead, and rushing on alead-uni at
/// the smallest equally-spaced and consecutive coalitions that meet
/// Lemma 4.1's precondition (none exists at n = 2).  k starts at 2: a lone
/// member's segment is the n - 1 others, which l_j <= k - 1 excludes, but
/// Coalition::segment_lengths() reports -1 for it and the check passes.
std::vector<ScenarioSpec> closed_form_specs(int n) {
  std::vector<ScenarioSpec> specs;
  for (const char* protocol : {"basic-lead", "alead-uni", "chang-roberts"}) {
    specs.push_back(ring_spec(protocol, n, SchedulerKind::kRoundRobin));
  }
  ScenarioSpec single = ring_spec("basic-lead", n, SchedulerKind::kRoundRobin);
  single.deviation = "basic-single";
  single.coalition = CoalitionSpec::consecutive(1, n - 1);
  single.target = static_cast<Value>(n / 2);
  specs.push_back(single);
  for (const auto place : {&CoalitionSpec::equally_spaced, &CoalitionSpec::consecutive}) {
    const auto fits = [&](int k, ProcessorId first) {
      const Coalition coalition = *build_coalition(place(k, first), n);
      return coalition.rushing_precondition_holds() && !coalition.contains(0);
    };
    bool found = false;
    for (int k = 2; k < n && !found; ++k) {
      for (ProcessorId first = 1; first < n && !found; ++first) {
        if (!fits(k, first)) continue;
        ScenarioSpec rushing = ring_spec("alead-uni", n, SchedulerKind::kRoundRobin);
        rushing.deviation = "rushing";
        rushing.coalition = place(k, first);
        rushing.target = static_cast<Value>(n - 1);
        specs.push_back(rushing);
        found = true;
      }
    }
  }
  return specs;
}

TEST(ClosedForm, PredictionEqualsGeneralPathOnEveryTrial) {
  // The layer's prediction for every seed of a window equals what the lane
  // engine's general path computes for that seed, field for field.  The
  // constants of token-sum and deviated-constant come from trial 0's
  // general result, as in a lane job.
  for (const int n : {2, 3, 5, 16, 64}) {
    int rushing_rows = 0;
    for (const ScenarioSpec& spec : closed_form_specs(n)) {
      const std::string subject = verify::format_spec(spec);
      const LaneEngineOptions options = lane_options(spec);
      const ClosedFormKind kind = closed_form_kind(spec, options.step_limit);
      ASSERT_NE(kind, ClosedFormKind::kNone) << subject;
      if (spec.deviation == "rushing") ++rushing_rows;

      LaneEngine engine(n, *lane_kernel_for(spec.protocol), options);
      std::vector<std::uint64_t> seeds(spec.trials);
      for (std::size_t t = 0; t < seeds.size(); ++t) {
        seeds[t] = scenario_trial_seed(spec.seed, t);
      }
      std::vector<LaneTrialResult> general(seeds.size());
      engine.run_window(seeds, general);

      ClosedFormScratch scratch;
      for (std::size_t t = 0; t < seeds.size(); ++t) {
        const LaneTrialResult predicted = closed_form_result(kind, spec, t, general[0], scratch);
        EXPECT_EQ(predicted.outcome, general[t].outcome) << subject << " trial " << t;
        EXPECT_EQ(predicted.messages, general[t].messages) << subject << " trial " << t;
        EXPECT_EQ(predicted.max_sync_gap, general[t].max_sync_gap) << subject << " trial " << t;
        EXPECT_FALSE(general[t].step_limit_hit) << subject << " trial " << t;
        EXPECT_NO_THROW(audit_closed_form(spec, t, predicted, general[t])) << subject;
      }
    }
    EXPECT_EQ(rushing_rows, n == 2 ? 0 : 2) << "n = " << n;
  }
}

TEST(ClosedForm, AuditMismatchThrowsNamingTheTrialAndField) {
  ScenarioSpec spec = ring_spec("alead-uni", 12, SchedulerKind::kRoundRobin);
  spec.deviation = "rushing";
  spec.coalition = CoalitionSpec::equally_spaced(4, 1);
  spec.target = 7;
  LaneTrialResult predicted;
  predicted.outcome = Outcome::elected(7);
  predicted.messages = 144;
  predicted.max_sync_gap = 3;
  EXPECT_NO_THROW(audit_closed_form(spec, 9, predicted, predicted));

  struct Doctor {
    const char* field;
    std::function<void(LaneTrialResult&)> apply;
  };
  const Doctor doctors[] = {
      {"outcome", [](LaneTrialResult& r) { r.outcome = Outcome::elected(6); }},
      {"outcome", [](LaneTrialResult& r) { r.outcome = Outcome::fail(); }},
      {"messages", [](LaneTrialResult& r) { ++r.messages; }},
      {"max_sync_gap", [](LaneTrialResult& r) { ++r.max_sync_gap; }},
      {"step_limit_hit", [](LaneTrialResult& r) { r.step_limit_hit = true; }},
  };
  for (const Doctor& doctor : doctors) {
    LaneTrialResult general = predicted;
    doctor.apply(general);
    try {
      audit_closed_form(spec, 9, predicted, general);
      ADD_FAILURE() << "a doctored " << doctor.field << " passed the audit";
    } catch (const std::logic_error& error) {
      const std::string what = error.what();
      for (const std::string& needle :
           {std::string("trial 9: ") + doctor.field, std::string("protocol=alead-uni"),
            std::string("deviation=rushing"), std::string("n=12"), std::string("seed=414243")}) {
        EXPECT_NE(what.find(needle), std::string::npos) << needle << " not in: " << what;
      }
    }
  }
}

TEST(ClosedForm, EligibilityTable) {
  // n = 10: token-sum and deviated-constant need a step limit >= n^2 = 100,
  // chang-roberts >= n^2 + n = 110.
  const ScenarioSpec basic = ring_spec("basic-lead", 10, SchedulerKind::kRoundRobin);
  const ScenarioSpec chang = ring_spec("chang-roberts", 10, SchedulerKind::kRoundRobin);
  ScenarioSpec alead = ring_spec("alead-uni", 10, SchedulerKind::kRoundRobin);
  ScenarioSpec single = basic;
  single.deviation = "basic-single";
  ScenarioSpec rushing = alead;
  rushing.deviation = "rushing";
  ScenarioSpec scalar = basic;
  scalar.engine = EngineKind::kScalar;
  ScenarioSpec forced = basic;
  forced.engine = EngineKind::kLanes;
  ScenarioSpec transcribing = basic;
  transcribing.record_transcripts = true;
  ScenarioSpec random = basic;
  random.scheduler = SchedulerKind::kRandom;
  ScenarioSpec priority = alead;
  priority.scheduler = SchedulerKind::kPriority;
  ScenarioSpec single_on_chang = chang;
  single_on_chang.deviation = "basic-single";
  ScenarioSpec rushing_on_basic = basic;
  rushing_on_basic.deviation = "rushing";
  ScenarioSpec no_kernel = basic;
  no_kernel.protocol = "peterson";
  ScenarioSpec sync;
  sync.topology = TopologyKind::kSync;
  sync.protocol = "sync-broadcast-lead";
  sync.n = 10;

  struct Row {
    const char* name;
    const ScenarioSpec& spec;
    std::uint64_t step_limit;
    ClosedFormKind kind;
  };
  constexpr std::uint64_t kAmple = 1000;
  const Row rows[] = {
      {"honest basic-lead", basic, kAmple, ClosedFormKind::kTokenSum},
      {"honest alead-uni", alead, kAmple, ClosedFormKind::kTokenSum},
      {"honest chang-roberts", chang, kAmple, ClosedFormKind::kChangRoberts},
      {"basic-single on basic-lead", single, kAmple, ClosedFormKind::kDeviatedConstant},
      {"rushing on alead-uni", rushing, kAmple, ClosedFormKind::kDeviatedConstant},
      {"engine=lanes", forced, kAmple, ClosedFormKind::kTokenSum},
      {"engine=scalar", scalar, kAmple, ClosedFormKind::kNone},
      {"transcripts on", transcribing, kAmple, ClosedFormKind::kNone},
      {"random scheduler", random, kAmple, ClosedFormKind::kNone},
      {"priority scheduler", priority, kAmple, ClosedFormKind::kNone},
      {"basic-single on chang-roberts", single_on_chang, kAmple, ClosedFormKind::kNone},
      {"rushing on basic-lead", rushing_on_basic, kAmple, ClosedFormKind::kNone},
      {"no lane kernel", no_kernel, kAmple, ClosedFormKind::kNone},
      {"sync lanes", sync, kAmple, ClosedFormKind::kNone},
      {"token-sum at n^2 - 1", basic, 99, ClosedFormKind::kNone},
      {"token-sum at n^2", basic, 100, ClosedFormKind::kTokenSum},
      {"deviated-constant at n^2 - 1", rushing, 99, ClosedFormKind::kNone},
      {"deviated-constant at n^2", rushing, 100, ClosedFormKind::kDeviatedConstant},
      {"chang-roberts at n^2 + n - 1", chang, 109, ClosedFormKind::kNone},
      {"chang-roberts at n^2 + n", chang, 110, ClosedFormKind::kChangRoberts},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(closed_form_kind(row.spec, row.step_limit), row.kind) << row.name;
  }
}

TEST(ClosedForm, AuditRuleIsTheFirstFourTrialsAndOneSeedIn256) {
  for (const std::uint64_t seed : {1ull, 414243ull}) {
    for (std::size_t t = 0; t < 4; ++t) EXPECT_TRUE(closed_form_audited(seed, t)) << t;
    std::size_t audited = 0;
    for (std::size_t t = 0; t < 100000; ++t) audited += closed_form_audited(seed, t) ? 1 : 0;
    // 4 + 10^5 / 256 ~ 395 expected; the band is about +-5 sigma.
    EXPECT_GT(audited, 300u) << "seed " << seed;
    EXPECT_LT(audited, 490u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace fle

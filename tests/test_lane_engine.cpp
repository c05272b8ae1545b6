// Batched lane engine (sim/lane_engine.h) and the specializer
// (api/specialize.h): the bit-identity gate against the scalar engine
// across kernels, schedulers and worker counts, the routing rules, the
// closed-form layer (prediction vs the scalar general path on the ring and
// sync runtimes, the loud audit, the pairing table and audit rule), and
// the engine= spec field's round trip.

#include "sim/lane_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/scenario.h"
#include "api/specialize.h"
#include "api/sweep.h"
#include "attacks/deviation.h"
#include "attacks/sync_attacks.h"
#include "sim/engine.h"
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
  // The acceptance grid: every lane kernel on 1/4/8 workers, under the
  // random scheduler, which leaves no closed form and sends every trial to
  // the lanes.  check_lane_differential compares per-trial outcomes and
  // every aggregate with the scalar engine.
  for (const char* protocol : {"basic-lead", "chang-roberts", "alead-uni"}) {
    const ScenarioSpec spec = ring_spec(protocol, 11, SchedulerKind::kRandom);
    ASSERT_TRUE(route_to_lanes(spec)) << protocol;
    for (const int threads : kWorkers) {
      const auto result = verify::check_lane_differential(spec, threads);
      EXPECT_TRUE(result.passed) << result.subject << ": " << result.detail;
    }
  }
}

TEST(LaneEngine, DeviatedKernelsBitIdenticalAcrossWorkers) {
  // The deviated lane kernels: the Claim B.1 lone adversary on BASIC-LEAD
  // and the Lemma 4.1 rushing coalition on A-LEADuni, across the same
  // worker counts as the honest kernels, on the lanes under the priority
  // scheduler.  Round-robin reaches the lanes through the deviated shapes
  // the pairing table leaves out: rushing on BASIC-LEAD and the lone
  // adversary on Chang-Roberts.
  ScenarioSpec single = ring_spec("basic-lead", 11, SchedulerKind::kPriority);
  single.deviation = "basic-single";
  single.target = 5;
  ScenarioSpec rushing = ring_spec("alead-uni", 12, SchedulerKind::kPriority);
  rushing.deviation = "rushing";
  rushing.coalition = CoalitionSpec::equally_spaced(4, 1);
  rushing.target = 7;
  ScenarioSpec rushing_on_basic = ring_spec("basic-lead", 12, SchedulerKind::kRoundRobin);
  rushing_on_basic.deviation = "rushing";
  rushing_on_basic.coalition = CoalitionSpec::equally_spaced(4, 1);
  rushing_on_basic.target = 7;
  ScenarioSpec single_on_chang = ring_spec("chang-roberts", 11, SchedulerKind::kRoundRobin);
  single_on_chang.deviation = "basic-single";
  single_on_chang.target = 5;
  for (const ScenarioSpec& spec : {single, rushing, rushing_on_basic, single_on_chang}) {
    ASSERT_TRUE(route_to_lanes(spec)) << verify::format_spec(spec);
    for (const int threads : kWorkers) {
      const auto result = verify::check_lane_differential(spec, threads);
      EXPECT_TRUE(result.passed) << result.subject << ": " << result.detail;
    }
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

TEST(LaneEngine, BitIdenticalUnderEveryScheduler) {
  // Honest Chang-Roberts reaches the lanes under the data-dependent
  // schedulers and its closed form under round-robin; the lone adversary
  // on it has no pairing and runs on the lanes under all three.
  for (const SchedulerKind scheduler :
       {SchedulerKind::kRoundRobin, SchedulerKind::kRandom, SchedulerKind::kPriority}) {
    const ScenarioSpec honest = ring_spec("chang-roberts", 9, scheduler);
    EXPECT_EQ(route_to_lanes(honest), scheduler != SchedulerKind::kRoundRobin);
    ScenarioSpec single = honest;
    single.deviation = "basic-single";
    single.target = 4;
    ASSERT_TRUE(route_to_lanes(single)) << to_string(scheduler);
    for (const ScenarioSpec& spec : {honest, single}) {
      const auto result = verify::check_lane_differential(spec, /*threads=*/2);
      EXPECT_TRUE(result.passed) << result.subject << ": " << result.detail;
    }
  }
}

TEST(LaneEngine, ShardedWindowsMergeLikeScalar) {
  // Lane seeds derive from the GLOBAL trial index, so a sharded window on
  // the lane engine equals the same window cut from the monolithic run.
  // The random scheduler keeps the spec off every closed form.
  ScenarioSpec whole = ring_spec("basic-lead", 9, SchedulerKind::kRandom);
  whole.record_outcomes = true;
  ASSERT_TRUE(route_to_lanes(whole));
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
  // retirement policy mirrors the scalar run loop's break semantics).  The
  // random scheduler keeps the spec on the lanes.
  ScenarioSpec spec = ring_spec("basic-lead", 10, SchedulerKind::kRandom);
  spec.step_limit = 35;  // below the n*n honest requirement
  ASSERT_TRUE(route_to_lanes(spec));
  EXPECT_EQ(run_scenario(spec).outcomes.fails(), spec.trials);
  const auto result = verify::check_lane_differential(spec, /*threads=*/1);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(LaneEngine, RunWindowValidatesSpans) {
  LaneEngine engine(8, LaneKernelId::kBasicLead, LaneEngineOptions{});
  std::vector<std::uint64_t> seeds(4, 1);
  std::vector<TrialStats> results(3);
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
  ScenarioSpec graph = spec;
  graph.topology = TopologyKind::kGraph;
  EXPECT_FALSE(lane_eligible(graph));
  ScenarioSpec no_kernel = spec;
  no_kernel.protocol = "peterson";
  EXPECT_FALSE(lane_eligible(no_kernel));
  // Sync specs have no lane runtime, honest or not: the closed-form layer
  // serves honest ones on the scalar sync path.
  ScenarioSpec sync;
  sync.topology = TopologyKind::kSync;
  for (const char* protocol : {"sync-broadcast-lead", "sync-ring-lead"}) {
    sync.protocol = protocol;
    EXPECT_FALSE(lane_eligible(sync)) << protocol;
  }
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
  spec.engine = EngineKind::kScalar;
  const ScenarioSpec parsed = verify::parse_spec(verify::format_spec(spec));
  EXPECT_EQ(parsed.engine, EngineKind::kScalar);
  EXPECT_EQ(verify::format_spec(parsed), verify::format_spec(spec));
  // Defaults stay omitted; unknown values are rejected, lanes among them.
  const ScenarioSpec defaults = ring_spec("basic-lead", 8, SchedulerKind::kRoundRobin);
  EXPECT_EQ(verify::format_spec(defaults).find("engine="), std::string::npos);
  for (const char* line :
       {"protocol=basic-lead n=4 engine=warp", "protocol=basic-lead n=4 engine=lanes"}) {
    try {
      verify::parse_spec(line);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("unknown engine"), std::string::npos)
          << error.what();
    }
  }
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

/// The five lane closed-form shapes at ring size n: both token-sum
/// kernels, chang-roberts, basic-single on basic-lead, and rushing on
/// alead-uni at the smallest equally-spaced and consecutive coalitions that
/// meet Lemma 4.1's precondition (none exists at n = 2; a lone member never
/// does, since its one segment is the n - 1 others).
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
    for (int k = 1; k < n && !found; ++k) {
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

/// Honest round-robin phase-async-lead at ring size n: two f keys at the
/// default l (f reads one validation value below n = 100) and param_l = 1,
/// where f reads n - 1.
std::vector<ScenarioSpec> phase_output_specs(int n) {
  std::vector<ScenarioSpec> specs;
  for (const std::uint64_t key : {0ull, 0x5eedull}) {
    ScenarioSpec spec = ring_spec("phase-async-lead", n, SchedulerKind::kRoundRobin);
    spec.protocol_key = key;
    specs.push_back(spec);
  }
  ScenarioSpec wide = specs.back();
  wide.param_l = 1;
  specs.push_back(wide);
  return specs;
}

/// Honest sync-broadcast-lead and sync-ring-lead at size n, both served
/// by token-sum under their default round limits (4 and n + 3).
std::vector<ScenarioSpec> sync_specs(int n) {
  std::vector<ScenarioSpec> specs;
  for (const char* protocol : {"sync-broadcast-lead", "sync-ring-lead"}) {
    ScenarioSpec spec = ring_spec(protocol, n, SchedulerKind::kRoundRobin);
    spec.topology = TopologyKind::kSync;
    specs.push_back(spec);
  }
  return specs;
}

/// The limit the closed-form layer sees for `spec`, as its job resolves
/// it: the sync round limit, or the ring step limit.
std::uint64_t resolved_limit(const ScenarioSpec& spec) {
  register_builtin_scenarios();
  const ProtocolEntry& entry = ProtocolRegistry::instance().at(spec.protocol);
  if (spec.topology == TopologyKind::kSync) {
    return static_cast<std::uint64_t>(
        scenario_sync_round_limit(spec, *entry.make_sync(spec, spec.seed)));
  }
  return scenario_ring_step_limit(spec, *entry.make_ring(spec, spec.seed));
}

/// Every trial of `spec` on its general path, the oracle: the scalar
/// SyncEngine for a sync spec, the scalar RingEngine for a ring spec, with
/// the deviated profile composed from the registry's deviation.
std::vector<TrialStats> general_results(const ScenarioSpec& spec) {
  register_builtin_scenarios();
  std::vector<std::uint64_t> seeds(spec.trials);
  for (std::size_t t = 0; t < seeds.size(); ++t) seeds[t] = scenario_trial_seed(spec.seed, t);
  std::vector<TrialStats> results(seeds.size());
  StrategyArena arena;
  if (spec.topology == TopologyKind::kSync) {
    const auto protocol =
        ProtocolRegistry::instance().at(spec.protocol).make_sync(spec, spec.seed);
    SyncEngineOptions options;
    options.round_limit = scenario_sync_round_limit(spec, *protocol);
    SyncEngine engine(spec.n, seeds[0], options);
    std::vector<SyncStrategy*> profile;
    for (std::size_t t = 0; t < seeds.size(); ++t) {
      engine.reset(seeds[t]);
      arena.rewind();
      compose_profile_into(*protocol, static_cast<const SyncDeviation*>(nullptr), spec.n, arena,
                           profile);
      results[t].outcome = engine.run(profile);
      results[t].messages = engine.stats().total_sent;
      results[t].rounds = engine.stats().rounds;
      results[t].step_limit_hit = engine.stats().round_limit_hit;
    }
    return results;
  }
  // A per-trial protocol (chang-roberts' id permutation) is built from
  // each trial's seed, as the ring job builds it.
  const ProtocolEntry& entry = ProtocolRegistry::instance().at(spec.protocol);
  EngineOptions options;
  options.step_limit = resolved_limit(spec);
  RingEngine engine(spec.n, seeds[0], std::move(options));
  std::vector<RingStrategy*> profile;
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    const auto protocol = entry.make_ring(spec, entry.per_trial ? seeds[t] : spec.seed);
    std::shared_ptr<const Deviation> deviation;
    if (!spec.deviation.empty()) {
      deviation = DeviationRegistry::instance().at(spec.deviation).make_ring(*protocol, spec);
    }
    engine.reset(seeds[t]);
    arena.rewind();
    compose_profile_into(*protocol, deviation.get(), spec.n, arena, profile);
    results[t].outcome = engine.run(profile);
    results[t].messages = engine.stats().total_sent;
    results[t].sync_gap = engine.stats().max_sync_gap;
    results[t].step_limit_hit = engine.stats().step_limit_hit;
  }
  return results;
}

TEST(ClosedForm, PredictionEqualsGeneralPathOnEveryTrial) {
  // The layer's prediction for every seed of a window equals what the
  // oracle computes for that seed, field for field: the scalar
  // RingEngine's for the five ring lane shapes and phase-output, the
  // scalar SyncEngine's for honest sync.  Every constant comes from
  // trial 0's general result, as in a job.
  for (const int n : {2, 3, 5, 16, 64}) {
    int rushing_rows = 0;
    std::vector<ScenarioSpec> specs = closed_form_specs(n);
    for (const ScenarioSpec& phase : phase_output_specs(n)) specs.push_back(phase);
    for (const ScenarioSpec& sync : sync_specs(n)) specs.push_back(sync);
    for (const ScenarioSpec& spec : specs) {
      const std::string subject = verify::format_spec(spec);
      const ClosedFormKind kind = closed_form_kind(spec, resolved_limit(spec));
      ASSERT_NE(kind, ClosedFormKind::kNone) << subject;
      if (spec.deviation == "rushing") ++rushing_rows;
      const std::vector<TrialStats> general = general_results(spec);

      ClosedFormScratch scratch;
      for (std::size_t t = 0; t < general.size(); ++t) {
        const TrialStats predicted = closed_form_result(kind, spec, t, general[0], scratch);
        EXPECT_EQ(predicted.outcome, general[t].outcome) << subject << " trial " << t;
        EXPECT_EQ(predicted.messages, general[t].messages) << subject << " trial " << t;
        EXPECT_EQ(predicted.sync_gap, general[t].sync_gap) << subject << " trial " << t;
        EXPECT_EQ(predicted.rounds, general[t].rounds) << subject << " trial " << t;
        EXPECT_FALSE(general[t].step_limit_hit) << subject << " trial " << t;
        EXPECT_NO_THROW(audit_closed_form(spec, t, predicted, general[t])) << subject;
        if (kind == ClosedFormKind::kPhaseOutput) {
          EXPECT_TRUE(general[t].outcome.valid()) << subject << " trial " << t;
          EXPECT_EQ(general[t].messages, 2ull * n * n) << subject << " trial " << t;
        }
        if (spec.topology == TopologyKind::kSync) {
          // Both protocols send n(n - 1) messages; the broadcast ends in
          // round 3, the ring in round n + 1.
          EXPECT_TRUE(general[t].outcome.valid()) << subject << " trial " << t;
          EXPECT_EQ(general[t].messages, 1ull * n * (n - 1)) << subject << " trial " << t;
          EXPECT_EQ(general[t].rounds, spec.protocol == "sync-ring-lead" ? n + 1 : 3)
              << subject << " trial " << t;
        }
      }
    }
    EXPECT_EQ(rushing_rows, n == 2 ? 0 : 2) << "n = " << n;
  }
}

TEST(ClosedForm, DifferentialComparesScalarWithAuto) {
  // Honest round-robin phase-async-lead has no lane kernel, so the gate
  // compares engine=scalar with engine=auto, whose unaudited trials the
  // layer serves on the scalar ring path.
  const ScenarioSpec phase = ring_spec("phase-async-lead", 11, SchedulerKind::kRoundRobin);
  EXPECT_TRUE(verify::served_by_closed_form(phase));
  for (const int threads : kWorkers) {
    const auto result = verify::check_lane_differential(phase, threads);
    EXPECT_TRUE(result.passed) << result.subject << ": " << result.detail;
    EXPECT_NE(result.detail.find("scalar vs auto"), std::string::npos) << result.detail;
  }
  // A ring lane shape with a pairing is served too.  Off round-robin it
  // has no closed form and runs on the lanes, and a spec with neither lanes
  // nor a closed form has nothing to compare.
  const ScenarioSpec basic = ring_spec("basic-lead", 11, SchedulerKind::kRoundRobin);
  EXPECT_TRUE(verify::served_by_closed_form(basic));
  const auto served = verify::check_lane_differential(basic, /*threads=*/2);
  EXPECT_TRUE(served.passed) << served.subject << ": " << served.detail;
  EXPECT_NE(served.detail.find("scalar vs auto"), std::string::npos) << served.detail;
  EXPECT_FALSE(verify::served_by_closed_form(ring_spec("basic-lead", 11, SchedulerKind::kRandom)));
  const ScenarioSpec random = ring_spec("phase-async-lead", 11, SchedulerKind::kRandom);
  EXPECT_FALSE(verify::served_by_closed_form(random));
  EXPECT_THROW(verify::check_lane_differential(random, 1), std::invalid_argument);
  // Honest sync has no lane runtime either: the layer serves it on the
  // scalar sync path unless its round limit could bind.
  ScenarioSpec sync = sync_specs(11)[1];
  EXPECT_TRUE(verify::served_by_closed_form(sync));
  const auto result = verify::check_lane_differential(sync, /*threads=*/4);
  EXPECT_TRUE(result.passed) << result.subject << ": " << result.detail;
  EXPECT_NE(result.detail.find("scalar vs auto"), std::string::npos) << result.detail;
  sync.step_limit = 11;  // sync-ring-lead decides in round n
  EXPECT_FALSE(verify::served_by_closed_form(sync));
  EXPECT_THROW(verify::check_lane_differential(sync, 1), std::invalid_argument);
}

TEST(ClosedForm, AuditMismatchThrowsNamingTheTrialAndField) {
  ScenarioSpec spec = ring_spec("alead-uni", 12, SchedulerKind::kRoundRobin);
  spec.deviation = "rushing";
  spec.coalition = CoalitionSpec::equally_spaced(4, 1);
  spec.target = 7;
  TrialStats predicted;
  predicted.outcome = Outcome::elected(7);
  predicted.messages = 144;
  predicted.sync_gap = 3;
  EXPECT_NO_THROW(audit_closed_form(spec, 9, predicted, predicted));

  struct Doctor {
    const char* field;
    std::function<void(TrialStats&)> apply;
  };
  const Doctor doctors[] = {
      {"outcome", [](TrialStats& r) { r.outcome = Outcome::elected(6); }},
      {"outcome", [](TrialStats& r) { r.outcome = Outcome::fail(); }},
      {"messages", [](TrialStats& r) { ++r.messages; }},
      {"max_sync_gap", [](TrialStats& r) { ++r.sync_gap; }},
      {"rounds", [](TrialStats& r) { ++r.rounds; }},
      {"step_limit_hit", [](TrialStats& r) { r.step_limit_hit = true; }},
  };
  for (const Doctor& doctor : doctors) {
    TrialStats general = predicted;
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
  // Honest sync specs have no scheduler; the layer needs a round limit that
  // lets every processor decide and the run end: >= 3 for the broadcast,
  // >= n + 1 = 11 around the ring.
  ScenarioSpec sync;
  sync.topology = TopologyKind::kSync;
  sync.protocol = "sync-broadcast-lead";
  sync.n = 10;
  ScenarioSpec sync_ring = sync;
  sync_ring.protocol = "sync-ring-lead";
  ScenarioSpec sync_deviated = sync;
  sync_deviated.deviation = "sync-blind-collusion";
  ScenarioSpec sync_scalar = sync;
  sync_scalar.engine = EngineKind::kScalar;
  ScenarioSpec sync_transcribing = sync;
  sync_transcribing.record_transcripts = true;
  ScenarioSpec sync_random = sync;
  sync_random.scheduler = SchedulerKind::kRandom;
  // Honest phase-async-lead has no lane kernel; engine=auto still asks the
  // layer, which needs a step limit >= 2n^2 = 200.
  const ScenarioSpec phase = ring_spec("phase-async-lead", 10, SchedulerKind::kRoundRobin);
  ScenarioSpec phase_scalar = phase;
  phase_scalar.engine = EngineKind::kScalar;
  ScenarioSpec phase_random = phase;
  phase_random.scheduler = SchedulerKind::kRandom;
  ScenarioSpec phase_priority = phase;
  phase_priority.scheduler = SchedulerKind::kPriority;
  ScenarioSpec phase_transcribing = phase;
  phase_transcribing.record_transcripts = true;
  ScenarioSpec phase_threaded = phase;
  phase_threaded.topology = TopologyKind::kThreaded;
  ScenarioSpec phase_rushing = phase;
  phase_rushing.deviation = "phase-rushing";
  ScenarioSpec phase_late = phase;
  phase_late.deviation = "phase-late-validation";
  ScenarioSpec phase_sum = phase;
  phase_sum.protocol = "phase-sum-lead";

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
      {"engine=scalar", scalar, kAmple, ClosedFormKind::kNone},
      {"transcripts on", transcribing, kAmple, ClosedFormKind::kNone},
      {"random scheduler", random, kAmple, ClosedFormKind::kNone},
      {"priority scheduler", priority, kAmple, ClosedFormKind::kNone},
      {"basic-single on chang-roberts", single_on_chang, kAmple, ClosedFormKind::kNone},
      {"rushing on basic-lead", rushing_on_basic, kAmple, ClosedFormKind::kNone},
      {"no lane kernel", no_kernel, kAmple, ClosedFormKind::kNone},
      {"honest sync-broadcast-lead", sync, kAmple, ClosedFormKind::kTokenSum},
      {"honest sync-ring-lead", sync_ring, kAmple, ClosedFormKind::kTokenSum},
      {"sync-broadcast-lead at 2 rounds", sync, 2, ClosedFormKind::kNone},
      {"sync-broadcast-lead at 3 rounds", sync, 3, ClosedFormKind::kTokenSum},
      {"sync-ring-lead at n rounds", sync_ring, 10, ClosedFormKind::kNone},
      {"sync-ring-lead at n + 1 rounds", sync_ring, 11, ClosedFormKind::kTokenSum},
      {"deviated sync", sync_deviated, kAmple, ClosedFormKind::kNone},
      {"sync engine=scalar", sync_scalar, kAmple, ClosedFormKind::kNone},
      {"sync transcripts on", sync_transcribing, kAmple, ClosedFormKind::kNone},
      {"sync scheduler=random", sync_random, kAmple, ClosedFormKind::kTokenSum},
      {"token-sum at n^2 - 1", basic, 99, ClosedFormKind::kNone},
      {"token-sum at n^2", basic, 100, ClosedFormKind::kTokenSum},
      {"deviated-constant at n^2 - 1", rushing, 99, ClosedFormKind::kNone},
      {"deviated-constant at n^2", rushing, 100, ClosedFormKind::kDeviatedConstant},
      {"chang-roberts at n^2 + n - 1", chang, 109, ClosedFormKind::kNone},
      {"chang-roberts at n^2 + n", chang, 110, ClosedFormKind::kChangRoberts},
      {"honest phase-async-lead", phase, kAmple, ClosedFormKind::kPhaseOutput},
      {"phase engine=scalar", phase_scalar, kAmple, ClosedFormKind::kNone},
      {"phase random scheduler", phase_random, kAmple, ClosedFormKind::kNone},
      {"phase priority scheduler", phase_priority, kAmple, ClosedFormKind::kNone},
      {"phase transcripts on", phase_transcribing, kAmple, ClosedFormKind::kNone},
      {"phase threaded", phase_threaded, kAmple, ClosedFormKind::kNone},
      {"phase-rushing", phase_rushing, kAmple, ClosedFormKind::kNone},
      {"phase-late-validation", phase_late, kAmple, ClosedFormKind::kNone},
      {"honest phase-sum-lead", phase_sum, kAmple, ClosedFormKind::kNone},
      {"phase-output at 2n^2 - 1", phase, 199, ClosedFormKind::kNone},
      {"phase-output at 2n^2", phase, 200, ClosedFormKind::kPhaseOutput},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(closed_form_kind(row.spec, row.step_limit), row.kind) << row.name;
  }
}

TEST(Specializer, RoutingSendsEveryPairingToTheOracle) {
  // route_to_lanes reads the spec alone: a lane shape with a closed-form
  // pairing runs on the scalar ring engine, which serves it and audits it
  // against the oracle, so no spec with a closed form reaches the lanes.
  // The data-dependent schedulers void every pairing, and those specs keep
  // the lanes.  The lanes record nothing, so a transcribing spec runs on
  // the scalar engine whatever its scheduler.
  const std::vector<ScenarioSpec> pairings = closed_form_specs(16);
  ASSERT_EQ(pairings.size(), 6u);  // five shapes, rushing at two placements
  for (const ScenarioSpec& spec : pairings) {
    const std::string subject = verify::format_spec(spec);
    ASSERT_TRUE(lane_eligible(spec)) << subject;
    EXPECT_NE(closed_form_kind(spec, resolved_limit(spec)), ClosedFormKind::kNone) << subject;
    EXPECT_FALSE(route_to_lanes(spec)) << subject;
    ScenarioSpec transcribing = spec;
    transcribing.record_transcripts = true;
    EXPECT_FALSE(route_to_lanes(transcribing)) << subject;
    for (const SchedulerKind scheduler : {SchedulerKind::kRandom, SchedulerKind::kPriority}) {
      ScenarioSpec scheduled = spec;
      scheduled.scheduler = scheduler;
      EXPECT_TRUE(route_to_lanes(scheduled)) << subject << " " << to_string(scheduler);
      scheduled.record_transcripts = true;
      EXPECT_FALSE(route_to_lanes(scheduled)) << subject << " " << to_string(scheduler);
    }
    // A starving limit leaves the pairing with no closed form, and the
    // spec runs fully simulated on the scalar ring engine.
    ScenarioSpec starving = spec;
    starving.step_limit = 35;
    EXPECT_EQ(closed_form_kind(starving, resolved_limit(starving)), ClosedFormKind::kNone)
        << subject;
    EXPECT_FALSE(route_to_lanes(starving)) << subject;
    ScenarioSpec scalar = spec;
    scalar.engine = EngineKind::kScalar;
    EXPECT_FALSE(route_to_lanes(scalar)) << subject;
  }
  // Rushing on basic-lead has a lane kernel and no pairing.
  ScenarioSpec rushing_on_basic = ring_spec("basic-lead", 16, SchedulerKind::kRoundRobin);
  rushing_on_basic.deviation = "rushing";
  rushing_on_basic.coalition = CoalitionSpec::equally_spaced(4, 1);
  EXPECT_TRUE(route_to_lanes(rushing_on_basic));
  rushing_on_basic.record_transcripts = true;
  EXPECT_FALSE(route_to_lanes(rushing_on_basic));
  // Shapes without a lane kernel never reach the lanes.
  EXPECT_FALSE(route_to_lanes(ring_spec("phase-async-lead", 16, SchedulerKind::kRandom)));
  EXPECT_FALSE(route_to_lanes(ring_spec("peterson", 16, SchedulerKind::kRandom)));
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

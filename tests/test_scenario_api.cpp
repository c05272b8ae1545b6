// The unified Scenario API: registry round-trips, clear unknown-name
// errors, engine dispatch across every topology, and the parallel trial
// executor's determinism contract (identical outcome counts at 1/4/8
// worker threads).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "api/parallel.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "protocols/basic_lead.h"

namespace fle {
namespace {

ScenarioSpec ring_spec(const std::string& protocol, int n, std::size_t trials) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;
  spec.protocol = protocol;
  spec.n = n;
  spec.trials = trials;
  spec.seed = 11;
  return spec;
}

TEST(ScenarioRegistry, EveryRegisteredProtocolResolvesByName) {
  register_builtin_scenarios();
  const auto names = ProtocolRegistry::instance().names();
  EXPECT_GE(names.size(), 13u);
  for (const auto& name : names) {
    const ProtocolEntry& entry = ProtocolRegistry::instance().at(name);
    EXPECT_EQ(entry.name, name);
    EXPECT_FALSE(entry.summary.empty()) << name;
    // Every entry supports at least one runtime family.
    EXPECT_TRUE(entry.make_ring || entry.make_graph || entry.make_sync || entry.make_game)
        << name;
  }
}

TEST(ScenarioRegistry, EveryRegisteredDeviationResolvesByName) {
  register_builtin_scenarios();
  const auto names = DeviationRegistry::instance().names();
  EXPECT_GE(names.size(), 15u);
  for (const auto& name : names) {
    const DeviationEntry& entry = DeviationRegistry::instance().at(name);
    EXPECT_EQ(entry.name, name);
    EXPECT_TRUE(entry.make_ring || entry.make_graph || entry.make_sync || entry.make_turn)
        << name;
  }
}

TEST(ScenarioRegistry, UnknownNamesGiveClearErrors) {
  try {
    run_scenario(ring_spec("no-such-protocol", 8, 1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no-such-protocol"), std::string::npos);
    EXPECT_NE(message.find("basic-lead"), std::string::npos);  // lists candidates
  }

  auto spec = ring_spec("basic-lead", 8, 1);
  spec.deviation = "no-such-attack";
  try {
    run_scenario(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("no-such-attack"), std::string::npos);
  }
}

TEST(ScenarioRegistry, TopologyMismatchIsRejected) {
  auto spec = ring_spec("shamir-lead", 8, 1);  // graph-only protocol on a ring
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);

  auto sync_spec = ring_spec("basic-lead", 8, 1);
  sync_spec.topology = TopologyKind::kSync;
  EXPECT_THROW(run_scenario(sync_spec), std::invalid_argument);
}

TEST(ScenarioRegistry, DeviationProtocolMismatchIsRejected) {
  auto spec = ring_spec("basic-lead", 16, 1);
  spec.deviation = "phase-rushing";  // needs phase-async-lead
  spec.coalition = CoalitionSpec::equally_spaced(4);
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
}

TEST(ScenarioRegistry, DuplicateRegistrationIsRejected) {
  register_builtin_scenarios();
  ProtocolEntry entry;
  entry.name = "basic-lead";
  entry.make_ring = [](const ScenarioSpec&, std::uint64_t) {
    return std::make_unique<BasicLeadProtocol>();
  };
  EXPECT_THROW(ProtocolRegistry::instance().add(entry), std::invalid_argument);
}

TEST(ScenarioRegistry, BuiltinCollisionThrowsAtAddAndLeavesRegistryUsable) {
  // Builtin names are reserved even before any lookup has forced lazy
  // registration: add() registers the builtins first, throws on the
  // collision, and every builtin stays resolvable afterwards.
  ProtocolEntry entry;
  entry.name = "peterson";
  entry.make_ring = [](const ScenarioSpec&, std::uint64_t) {
    return std::make_unique<BasicLeadProtocol>();
  };
  EXPECT_THROW(ProtocolRegistry::instance().add(entry), std::invalid_argument);
  EXPECT_TRUE(ProtocolRegistry::instance().contains("basic-lead"));
  EXPECT_TRUE(ProtocolRegistry::instance().contains("peterson"));
  const auto result = run_scenario(ring_spec("alead-uni", 8, 10));
  EXPECT_EQ(result.trials, 10u);
}

TEST(ScenarioRegistry, UserRegisteredProtocolRuns) {
  register_builtin_scenarios();
  if (!ProtocolRegistry::instance().contains("test-custom-lead")) {
    ProtocolEntry entry;
    entry.name = "test-custom-lead";
    entry.summary = "registered by test_scenario_api";
    entry.make_ring = [](const ScenarioSpec&, std::uint64_t) {
      return std::make_unique<BasicLeadProtocol>();
    };
    ProtocolRegistry::instance().add(entry);
  }
  const auto result = run_scenario(ring_spec("test-custom-lead", 8, 20));
  EXPECT_EQ(result.outcomes.fails(), 0u);
  EXPECT_EQ(result.trials, 20u);
}

TEST(RunScenario, HonestRingElectionsSucceed) {
  const auto result = run_scenario(ring_spec("phase-async-lead", 12, 50));
  EXPECT_EQ(result.outcomes.fails(), 0u);
  EXPECT_EQ(result.protocol_name, "PhaseAsyncLead");
  EXPECT_DOUBLE_EQ(result.mean_messages, 2.0 * 12 * 12);
}

TEST(RunScenario, RingDeviationForcesTarget) {
  auto spec = ring_spec("basic-lead", 8, 25);
  spec.deviation = "basic-single";
  spec.coalition = CoalitionSpec::consecutive(1, 3);
  spec.target = 6;
  const auto result = run_scenario(spec);
  EXPECT_EQ(result.outcomes.count(6), 25u);
  EXPECT_EQ(result.deviation_name, "basic-single (Claim B.1)");
}

TEST(RunScenario, GraphTopologyRunsShamir) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kGraph;
  spec.protocol = "shamir-lead";
  spec.n = 8;
  spec.trials = 10;
  const auto result = run_scenario(spec);
  EXPECT_EQ(result.outcomes.fails(), 0u);
  EXPECT_GT(result.mean_messages, 0.0);
}

TEST(RunScenario, SyncTopologyDetectsLateBroadcast) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kSync;
  spec.protocol = "sync-broadcast-lead";
  spec.deviation = "sync-late-broadcast";
  spec.n = 8;
  spec.trials = 10;
  const auto result = run_scenario(spec);
  EXPECT_EQ(result.outcomes.fails(), 10u);  // silence is detected, all FAIL
  EXPECT_GT(result.max_rounds, 0);
}

TEST(RunScenario, ThreadedTopologyMatchesDeterministicEngine) {
  auto det = ring_spec("alead-uni", 8, 6);
  det.record_outcomes = true;
  auto thr = det;
  thr.topology = TopologyKind::kThreaded;
  const auto a = run_scenario(det);
  const auto b = run_scenario(thr);
  ASSERT_EQ(a.per_trial.size(), b.per_trial.size());
  for (std::size_t t = 0; t < a.per_trial.size(); ++t) {
    EXPECT_EQ(a.per_trial[t], b.per_trial[t]) << "trial " << t;
  }
}

TEST(RunScenario, FullInfoTopologyPlaysBaton) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kFullInfo;
  spec.protocol = "baton";
  spec.deviation = "baton-greedy";
  spec.coalition = CoalitionSpec::custom({1, 2, 3, 4});
  spec.target = 7;
  spec.n = 8;
  spec.trials = 200;
  spec.seed = 3;
  const auto result = run_scenario(spec);
  EXPECT_EQ(result.outcomes.fails(), 0u);
  // The greedy coalition beats the honest 1/(n-1) rate for the target.
  EXPECT_GT(result.outcomes.leader_rate(7), 1.0 / 7);
}

TEST(RunScenario, TreeTopologyLastMoverForcesTheCoin) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kTree;
  spec.protocol = "alternating-xor";
  spec.deviation = "xor-last-mover";
  spec.rounds = 4;
  spec.target = 1;
  spec.n = 2;
  spec.trials = 64;
  const auto result = run_scenario(spec);
  EXPECT_EQ(result.outcomes.count(1), 64u);  // wait-then-choose always wins
}

TEST(RunScenario, PerTrialProtocolsRandomizeAcrossTrials) {
  const auto result = run_scenario(ring_spec("chang-roberts", 16, 40));
  EXPECT_EQ(result.outcomes.fails(), 0u);
  int distinct = 0;
  for (Value j = 0; j < 16; ++j) distinct += result.outcomes.count(j) > 0 ? 1 : 0;
  EXPECT_GE(distinct, 2);
}

TEST(ParallelExecutor, TrialSeedsAreStableAndDistinct) {
  EXPECT_EQ(scenario_trial_seed(42, 0), scenario_trial_seed(42, 0));
  EXPECT_NE(scenario_trial_seed(42, 0), scenario_trial_seed(42, 1));
  EXPECT_NE(scenario_trial_seed(42, 0), scenario_trial_seed(43, 0));
}

TEST(ParallelExecutor, TrialSeedStreamIsPinned) {
  // The determinism contract (DESIGN.md §3) makes every recorded result a
  // function of this stream: pin the first 8 seeds of base seed 1 so the
  // mapping cannot silently change.  If this test fails, either revert the
  // change to scenario_trial_seed or accept that every golden value,
  // recorded benchmark and repro line in the repo's history is invalidated.
  const std::uint64_t golden[8] = {
      0xbeeb8da1658eec67ull, 0xf893a2eefb32555eull, 0x71c18690ee42c90bull,
      0x71bb54d8d101b5b9ull, 0xc34d0bff90150280ull, 0xe099ec6cd7363ca5ull,
      0x85e7bb0f12278575ull, 0x491718de357e3da8ull,
  };
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(scenario_trial_seed(1, t), golden[t]) << "trial " << t;
  }
}

TEST(ParallelExecutor, TrialSeedsHaveNoCollisionsOverAMillionTrials) {
  // Trials must get distinct RNG streams: a collision would correlate two
  // trials' executions.  splitmix64's finalizer is a bijection of the
  // golden-gamma walk, so exact collisions are impossible in [0, 2^64)
  // windows this small — assert it over 1M indices for two base seeds.
  for (const std::uint64_t base : {1ull, 0xdecafbadull}) {
    std::vector<std::uint64_t> seeds;
    seeds.reserve(1'000'000);
    for (std::size_t t = 0; t < 1'000'000; ++t) {
      seeds.push_back(scenario_trial_seed(base, t));
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
        << "collision under base seed " << base;
  }
}

TEST(RunScenario, ZeroProcessorsIsRejectedNamingN) {
  for (const int n : {0, 1, -3}) {
    auto spec = ring_spec("basic-lead", n, 1);
    try {
      run_scenario(spec);
      FAIL() << "expected std::invalid_argument for n = " << n;
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("ScenarioSpec.n"), std::string::npos) << message;
      EXPECT_NE(message.find(std::to_string(n)), std::string::npos) << message;
    }
  }
}

TEST(RunScenario, OversizedCoalitionIsRejectedNamingK) {
  auto spec = ring_spec("basic-lead", 8, 1);
  spec.deviation = "rushing";
  spec.coalition = CoalitionSpec::equally_spaced(9);  // k > n
  try {
    run_scenario(spec);
    FAIL() << "expected std::invalid_argument for k > n";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("coalition.k"), std::string::npos) << message;
    EXPECT_NE(message.find("k = 9"), std::string::npos) << message;
  }
  // k = n (no honest processor left) and k = 0 are equally invalid.
  spec.coalition = CoalitionSpec::consecutive(8);
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
  spec.coalition = CoalitionSpec::consecutive(0);
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
}

TEST(RunScenario, CustomCoalitionMemberOutOfRangeIsRejectedNamingMembers) {
  auto spec = ring_spec("basic-lead", 8, 1);
  spec.deviation = "basic-single";
  spec.coalition = CoalitionSpec::custom({8});  // valid ids are 0..7
  try {
    run_scenario(spec);
    FAIL() << "expected std::invalid_argument for member out of range";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("coalition.members[0]"), std::string::npos) << message;
    EXPECT_NE(message.find("= 8"), std::string::npos) << message;
  }
  spec.coalition = CoalitionSpec::custom({3, -1});
  try {
    run_scenario(spec);
    FAIL() << "expected std::invalid_argument for negative member";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("coalition.members[1]"), std::string::npos);
  }
}

TEST(RunScenario, SpecValidationFiresBeforeFactories) {
  // Even with an unknown deviation key, the plain-field validation runs
  // first, so the user is pointed at the bad field rather than a registry
  // miss caused by it.
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.deviation = "no-such-attack";
  spec.n = 0;
  spec.trials = 1;
  try {
    run_scenario(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("ScenarioSpec.n"), std::string::npos);
  }
}

TEST(RunScenario, BasicLeadMessageStatsMatchTheProtocol) {
  // Basic-LEAD sends exactly n messages per processor: n^2 per trial.
  auto spec = ring_spec("basic-lead", 10, 20);
  spec.engine = EngineKind::kScalar;
  const auto r = run_scenario(spec);
  EXPECT_DOUBLE_EQ(r.mean_messages, 100.0);
  EXPECT_EQ(r.max_messages, 100u);
}

TEST(RunScenario, DifferentSeedsGiveDifferentSamples) {
  auto a_spec = ring_spec("basic-lead", 8, 50);
  a_spec.engine = EngineKind::kScalar;
  a_spec.seed = 5;
  auto b_spec = a_spec;
  b_spec.seed = 6;
  const auto a = run_scenario(a_spec);
  const auto b = run_scenario(b_spec);
  bool identical = true;
  for (Value j = 0; j < 8; ++j) {
    if (a.outcomes.count(j) != b.outcomes.count(j)) identical = false;
  }
  EXPECT_FALSE(identical);
}

TEST(RunScenario, EverySchedulerElectsWithoutFail) {
  for (const auto kind :
       {SchedulerKind::kRoundRobin, SchedulerKind::kRandom, SchedulerKind::kPriority}) {
    auto spec = ring_spec("basic-lead", 8, 10);
    spec.engine = EngineKind::kScalar;
    spec.scheduler = kind;
    EXPECT_EQ(run_scenario(spec).outcomes.fails(), 0u) << to_string(kind);
  }
}

TEST(ParallelExecutor, WorkerExceptionsPropagate) {
  std::vector<TrialStats> out(16);
  Executor::Batch batch;
  batch.trials = out.size();
  batch.body = [](std::size_t trial, std::uint64_t, void*) -> TrialStats {
    if (trial == 7) throw std::runtime_error("boom");
    return {};
  };
  batch.out = &out;
  EXPECT_THROW(Executor::shared().run(std::span<Executor::Batch>(&batch, 1), 4),
               std::runtime_error);
}

TEST(ParallelExecutor, WorkspaceFactoryNeedsAFamily) {
  std::vector<TrialStats> out(4);
  Executor::Batch batch;
  batch.trials = out.size();
  batch.make_workspace = [] { return std::make_shared<int>(0); };
  batch.body = [](std::size_t, std::uint64_t, void*) { return TrialStats{}; };
  batch.out = &out;
  EXPECT_THROW(Executor::shared().run(std::span<Executor::Batch>(&batch, 1), 2),
               std::invalid_argument);
}

/// The acceptance-criterion determinism test: identical outcome counters
/// for worker counts 1, 4 and 8 on the same spec.
TEST(ParallelExecutor, OutcomeCountsIdenticalAcross148Threads) {
  ScenarioSpec base = ring_spec("phase-async-lead", 16, 120);
  base.deviation = "phase-rushing";
  base.coalition = CoalitionSpec::equally_spaced(7);
  base.target = 5;
  base.search_cap = 64 * 16;

  auto one = base;
  one.threads = 1;
  auto four = base;
  four.threads = 4;
  auto eight = base;
  eight.threads = 8;

  const auto a = run_scenario(one);
  const auto b = run_scenario(four);
  const auto c = run_scenario(eight);
  ASSERT_EQ(a.trials, b.trials);
  ASSERT_EQ(a.trials, c.trials);
  EXPECT_EQ(a.outcomes.fails(), b.outcomes.fails());
  EXPECT_EQ(a.outcomes.fails(), c.outcomes.fails());
  for (Value j = 0; j < 16; ++j) {
    EXPECT_EQ(a.outcomes.count(j), b.outcomes.count(j)) << "leader " << j;
    EXPECT_EQ(a.outcomes.count(j), c.outcomes.count(j)) << "leader " << j;
  }
  EXPECT_DOUBLE_EQ(a.mean_messages, b.mean_messages);
  EXPECT_DOUBLE_EQ(a.mean_messages, c.mean_messages);
  EXPECT_DOUBLE_EQ(a.mean_sync_gap, c.mean_sync_gap);
  EXPECT_EQ(a.max_sync_gap, c.max_sync_gap);
}

TEST(ParallelExecutor, HonestSweepDeterministicAcrossThreadCounts) {
  auto one = ring_spec("alead-uni", 24, 300);
  one.threads = 1;
  auto eight = one;
  eight.threads = 8;
  const auto a = run_scenario(one);
  const auto b = run_scenario(eight);
  for (Value j = 0; j < 24; ++j) EXPECT_EQ(a.outcomes.count(j), b.outcomes.count(j));
}

}  // namespace
}  // namespace fle

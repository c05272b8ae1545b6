// ScenarioSpec fuzzer (src/verify/fuzzer.h): deterministic generation,
// repro-line round-trips, invariant checking, and shrinking.

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>

#include "verify/fuzzer.h"

namespace fle::verify {
namespace {

TEST(FuzzGenerate, SameSeedSameSpecs) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(format_spec(generate_spec(a)), format_spec(generate_spec(b)));
  }
}

TEST(FuzzGenerate, SpecsStayInsideTheConfiguredBounds) {
  // The campaign's fixed sizes: n in [2, 64] (past 24 only on the ring,
  // past 12 never on the threaded runtime), 1 to 6 trials.
  Xoshiro256 rng(3);
  for (int i = 0; i < 200; ++i) {
    const ScenarioSpec spec = generate_spec(rng);
    EXPECT_GE(spec.n, 2);
    EXPECT_LE(spec.n, spec.topology == TopologyKind::kRing       ? 64
                      : spec.topology == TopologyKind::kThreaded ? 12
                                                                 : 24);
    EXPECT_GE(spec.trials, 1u);
    EXPECT_LE(spec.trials, 6u);
    EXPECT_FALSE(spec.protocol.empty());
  }
}

TEST(FuzzGenerate, RingFamilySamplesPastTheGeneralCeiling) {
  // A quarter of kRing specs sample n from (24, 64]; every other family
  // stays inside 24.
  Xoshiro256 rng(7);
  int ring_past_24 = 0;
  for (int i = 0; i < 400; ++i) {
    const ScenarioSpec spec = generate_spec(rng);
    EXPECT_LE(spec.n, 64);
    if (spec.topology == TopologyKind::kRing && spec.n > 24) ++ring_past_24;
    if (spec.topology != TopologyKind::kRing) {
      EXPECT_LE(spec.n, 24);
    }
  }
  EXPECT_GT(ring_past_24, 10);
}

TEST(FuzzGenerate, UserRegisteredEntriesAreOnTheSurface) {
  Xoshiro256 rng(11);
  int user_specs = 0;
  for (int i = 0; i < 600; ++i) {
    const ScenarioSpec spec = generate_spec(rng);
    if (spec.protocol.rfind("user-", 0) == 0 || spec.deviation.rfind("user-", 0) == 0) {
      ++user_specs;
    }
  }
  EXPECT_GT(user_specs, 5);
}

TEST(FuzzInvariants, ThreadedTranscriptCaptureIsACleanRejection) {
  const ScenarioSpec spec = parse_spec(
      "topology=threaded protocol=basic-lead n=4 trials=2 seed=3 transcripts=1");
  bool rejected = false;
  EXPECT_EQ(run_spec_invariants(spec, &rejected), std::nullopt);
  EXPECT_TRUE(rejected);
}

TEST(FuzzRepro, FormatParseRoundTrips) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 100; ++i) {
    const ScenarioSpec spec = generate_spec(rng);
    const std::string line = format_spec(spec);
    EXPECT_EQ(format_spec(parse_spec(line)), line) << line;
  }
}

TEST(FuzzRepro, ParseRejectsMalformedLines) {
  EXPECT_THROW(parse_spec("topology=ring protocol"), std::invalid_argument);
  EXPECT_THROW(parse_spec("topology=ring protocol=x bogus_key=1"), std::invalid_argument);
  EXPECT_THROW(parse_spec("topology=nowhere protocol=x n=4 trials=1 seed=1"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("topology=ring n=4 trials=1 seed=1"), std::invalid_argument);
  // Numbers parse over the whole token and flags are exactly 0 or 1: each
  // malformed value is rejected naming its key, never truncated, wrapped
  // or coerced.
  const struct {
    const char* line;
    const char* key;
  } malformed[] = {
      {"protocol=basic-lead n=8x trials=2", "'n'"},
      {"protocol=basic-lead n=8 trials=-1", "'trials'"},
      {"protocol=basic-lead n=99999999999 trials=2", "'n'"},
      {"protocol=basic-lead n=8 trials=2 record=false", "'record'"},
      {"protocol=basic-lead n=8 trials=2 transcripts=2", "'transcripts'"},
      {"protocol=basic-lead n=8 seed=-1", "'seed'"},
      {"protocol=basic-lead n=8 placement=bernoulli density=0.5x", "'density'"},
      {"protocol=basic-lead n=8 placement=custom members=1,,3", "'members'"},
      // Graphs are fully connected; there is no link-restriction key.
      {"topology=graph protocol=shamir-lead n=6 adjacency=star", "'adjacency'"},
  };
  for (const auto& c : malformed) {
    try {
      parse_spec(c.line);
      ADD_FAILURE() << "accepted: " << c.line;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(c.key), std::string::npos)
          << c.line << " -> " << error.what();
    }
  }
}

TEST(FuzzRepro, WindowAndKnobFieldsRoundTrip) {
  const std::string line =
      "topology=ring protocol=phase-async-lead n=16 trials=12 seed=3 "
      "trial_offset=4 trial_count=5 protocol_key=99 param_l=7";
  const ScenarioSpec spec = parse_spec(line);
  EXPECT_EQ(spec.trial_offset, 4u);
  EXPECT_EQ(spec.trial_count, 5u);
  EXPECT_EQ(spec.protocol_key, 99u);
  EXPECT_EQ(spec.param_l, 7);
  EXPECT_EQ(format_spec(parse_spec(format_spec(spec))), format_spec(spec));
}

TEST(FuzzInvariants, WindowedSpecRunsItsWindow) {
  const ScenarioSpec spec = parse_spec(
      "topology=ring protocol=alead-uni n=8 trials=10 seed=11 trial_offset=3 trial_count=4");
  EXPECT_EQ(run_spec_invariants(spec), std::nullopt);
}

TEST(FuzzInvariants, BadWindowIsACleanRejection) {
  const ScenarioSpec spec = parse_spec(
      "topology=ring protocol=alead-uni n=8 trials=4 seed=11 trial_offset=9");
  bool rejected = false;
  EXPECT_EQ(run_spec_invariants(spec, &rejected), std::nullopt);
  EXPECT_TRUE(rejected);
}

TEST(FuzzInvariants, OutOfRangeParamLIsACleanRejection) {
  const ScenarioSpec spec = parse_spec(
      "topology=ring protocol=phase-async-lead n=8 trials=2 seed=1 param_l=9");
  bool rejected = false;
  EXPECT_EQ(run_spec_invariants(spec, &rejected), std::nullopt);
  EXPECT_TRUE(rejected);
}

TEST(FuzzInvariants, HoldOnAKnownGoodSpec) {
  const ScenarioSpec spec =
      parse_spec("topology=ring protocol=alead-uni n=8 trials=6 seed=11");
  EXPECT_EQ(run_spec_invariants(spec), std::nullopt);
}

TEST(FuzzInvariants, CleanRejectionIsNotAFailure) {
  // Graph-only protocol on a ring: run_scenario must throw
  // std::invalid_argument, which the fuzzer records as a rejection.
  const ScenarioSpec spec =
      parse_spec("topology=ring protocol=shamir-lead n=8 trials=2 seed=1");
  bool rejected = false;
  EXPECT_EQ(run_spec_invariants(spec, &rejected), std::nullopt);
  EXPECT_TRUE(rejected);
}

TEST(FuzzShrink, MinimizesAgainstASyntheticOracle) {
  // Synthetic failure: anything with n >= 6 "fails".  The shrinker must
  // walk n down to exactly 6 and strip every irrelevant feature.
  const FuzzOracle oracle = [](const ScenarioSpec& spec) -> std::optional<std::string> {
    if (spec.n >= 6) return "synthetic: n >= 6";
    return std::nullopt;
  };
  ScenarioSpec big;
  big.topology = TopologyKind::kThreaded;
  big.protocol = "alead-uni";
  big.deviation = "rushing";
  big.coalition = CoalitionSpec::equally_spaced(4);
  big.scheduler = SchedulerKind::kRandom;
  big.n = 20;
  big.trials = 12;
  big.seed = 5;
  big.target = 13;
  big.record_outcomes = true;
  big.step_limit = 999;

  const ScenarioSpec shrunk = shrink_spec(big, oracle);
  EXPECT_EQ(shrunk.n, 6);
  EXPECT_TRUE(shrunk.deviation.empty());
  EXPECT_EQ(shrunk.coalition.placement, CoalitionSpec::Placement::kDefault);
  EXPECT_EQ(shrunk.scheduler, SchedulerKind::kRoundRobin);
  EXPECT_EQ(shrunk.topology, TopologyKind::kRing);
  EXPECT_EQ(shrunk.trials, 2u);
  EXPECT_EQ(shrunk.step_limit, 0u);
  EXPECT_EQ(shrunk.target, 0u);
  EXPECT_FALSE(shrunk.record_outcomes);
  EXPECT_TRUE(oracle(shrunk).has_value()) << "shrinking must preserve the failure";
}

TEST(FuzzShrink, KeepsTheDeviationWhenItCausesTheFailure) {
  const FuzzOracle oracle = [](const ScenarioSpec& spec) -> std::optional<std::string> {
    if (!spec.deviation.empty()) return "synthetic: deviation present";
    return std::nullopt;
  };
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.deviation = "basic-single";
  spec.n = 16;
  spec.trials = 8;
  const ScenarioSpec shrunk = shrink_spec(spec, oracle);
  EXPECT_EQ(shrunk.deviation, "basic-single");
  EXPECT_EQ(shrunk.n, 2);
  EXPECT_EQ(shrunk.trials, 2u);
}

TEST(FuzzCampaign, SmallBudgetRunsClean) {
  FuzzOptions options;
  options.seed = 2026;
  options.specs = 40;
  const FuzzReport report = run_fuzz_campaign(options);
  EXPECT_EQ(report.executed, 40u);
  for (const FuzzFailure& failure : report.failures) {
    ADD_FAILURE() << failure.repro << " — " << failure.reason;
  }
  const CheckReport check = report.as_report();
  EXPECT_TRUE(check.all_passed());
  EXPECT_EQ(check.results.size(), 1u);
}

}  // namespace
}  // namespace fle::verify

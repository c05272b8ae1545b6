// PhaseSumLead (Appendix E.4): the sum-output strawman works honestly but
// falls to a constant-size (k = 4) coalition via the validation-value covert
// channel — the paper's motivation for the random function f.

#include <gtest/gtest.h>

#include "analysis/stats.h"
#include "api/scenario.h"
#include "attacks/phase_sum_attack.h"
#include "protocols/phase_sum_lead.h"
#include "sim/engine.h"

namespace fle {
namespace {

/// A PhaseSumLead ring spec pinned to the scalar RingEngine.
ScenarioSpec phase_sum_spec(int n, std::size_t trials) {
  ScenarioSpec spec;
  spec.protocol = "phase-sum-lead";
  spec.n = n;
  spec.trials = trials;
  spec.engine = EngineKind::kScalar;
  return spec;
}

/// Appendix E.4's k = 4 covert-channel coalition (its canonical placement).
ScenarioSpec attacked_spec(int n, Value target, std::size_t trials) {
  ScenarioSpec spec = phase_sum_spec(n, trials);
  spec.deviation = "phase-sum";
  spec.target = target;
  return spec;
}

TEST(PhaseSumLead, HonestElectsValidLeaderSmallRings) {
  for (int n = 2; n <= 20; ++n) {
    EXPECT_EQ(run_scenario(phase_sum_spec(n, 10)).outcomes.fails(), 0u) << "n=" << n;
  }
}

TEST(PhaseSumLead, HonestOutcomeEqualsSumOfSecrets) {
  const int n = 9;
  ScenarioSpec spec = phase_sum_spec(n, 3);
  spec.record_outcomes = true;
  const ScenarioResult result = run_scenario(spec);
  for (std::size_t t = 0; t < spec.trials; ++t) {
    Value expected = 0;
    for (ProcessorId p = 0; p < n; ++p) {
      RandomTape tape(scenario_trial_seed(spec.seed, t), p);
      expected = (expected + tape.uniform(static_cast<Value>(n))) % n;
    }
    ASSERT_TRUE(result.per_trial[t].valid());
    EXPECT_EQ(result.per_trial[t].leader(), expected) << "trial " << t;
  }
}

TEST(PhaseSumLead, HonestElectionIsUniform) {
  const int n = 8;
  const auto result = run_scenario(phase_sum_spec(n, 4000));
  EXPECT_EQ(result.outcomes.fails(), 0u);
  EXPECT_LT(result.outcomes.chi_square_uniform(), chi_square_critical_999(n - 1));
}

class PhaseSumAttackTest : public ::testing::TestWithParam<int> {};

TEST_P(PhaseSumAttackTest, FourAdversariesControlAnyN) {
  const int n = GetParam();
  ASSERT_EQ(PhaseSumDeviation::placement(n).k(), 4);
  for (Value w : {Value{0}, static_cast<Value>(n / 2), static_cast<Value>(n - 1)}) {
    ScenarioSpec spec = attacked_spec(n, w, 6);
    spec.seed = 13 * n + w;
    const auto result = run_scenario(spec);
    EXPECT_EQ(result.outcomes.count(w), result.outcomes.trials())
        << "n=" << n << " w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PhaseSumAttackTest,
                         ::testing::Values(24, 32, 50, 100, 128, 256));

TEST(PhaseSumAttack, ConstantCoalitionIndependentOfN) {
  // The point of E.4: k = 4 regardless of n (contrast with the sqrt(n)
  // requirement against PhaseAsyncLead's random f).
  for (int n : {40, 400}) {
    const auto result = run_scenario(attacked_spec(n, 1, 4));
    EXPECT_EQ(result.outcomes.count(1), result.outcomes.trials()) << "n=" << n;
  }
}

TEST(PhaseSumAttack, RequiresExactlyFourMembers) {
  const int n = 64;
  PhaseSumLeadProtocol protocol(n);
  EXPECT_THROW(PhaseSumDeviation(Coalition::equally_spaced(n, 5), 0, protocol),
               std::invalid_argument);
}

TEST(PhaseSumAttack, RejectsTinyRings) {
  EXPECT_THROW(PhaseSumDeviation::placement(12), std::invalid_argument);
}

}  // namespace
}  // namespace fle

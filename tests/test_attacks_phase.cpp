// Attacks on PhaseAsyncLead: the rushing/steering attack of the remark after
// Theorem 6.1, and the resilience regime of Theorem 6.1 itself.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "api/scenario.h"
#include "attacks/coalition.h"
#include "attacks/phase_late_validation.h"
#include "attacks/phase_rushing.h"
#include "protocols/phase_async_lead.h"
#include "scenario_pin.h"

namespace fle {
namespace {

int sqrt_plus3_k(int n) {
  return static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))) + 3;
}

/// An attacked PhaseAsyncLead spec (f keyed by `f_key`) pinned to the scalar
/// RingEngine, the engine the phase attacks run on.
ScenarioSpec attacked_spec(int n, std::uint64_t f_key, const char* deviation, Value target,
                           std::size_t trials) {
  ScenarioSpec spec;
  spec.protocol = "phase-async-lead";
  spec.protocol_key = f_key;
  spec.deviation = deviation;
  spec.target = target;
  spec.n = n;
  spec.trials = trials;
  spec.engine = EngineKind::kScalar;
  return spec;
}

/// The rushing/steering attack with an equally spaced coalition of k.
ScenarioSpec rushing_spec(int n, std::uint64_t f_key, int k, Value target, std::size_t trials) {
  ScenarioSpec spec = attacked_spec(n, f_key, "phase-rushing", target, trials);
  spec.coalition = CoalitionSpec::equally_spaced(k);
  return spec;
}

TEST(PhaseRushing, SteeringPossibleExactlyAboveSqrtN) {
  // Free slots = k - l_j; equal spacing gives l_j ~ n/k - 1, so steering
  // needs k(k+1) >~ n: the sqrt(n) crossover of Section 6.
  const int n = 400;
  PhaseAsyncLeadProtocol protocol(n, 1);
  {
    const int k = sqrt_plus3_k(n);  // 23
    PhaseRushingDeviation dev(Coalition::equally_spaced(n, k), 0, protocol);
    EXPECT_TRUE(dev.steering_possible());
  }
  {
    const int k = 10;  // sqrt(n)/2: resilient regime
    PhaseRushingDeviation dev(Coalition::equally_spaced(n, k), 0, protocol);
    EXPECT_FALSE(dev.steering_possible());
  }
}

class PhaseRushingAttack : public ::testing::TestWithParam<int> {};

TEST_P(PhaseRushingAttack, ControlsOutcomeAtSqrtNPlus3) {
  const int n = GetParam();
  const int k = sqrt_plus3_k(n);
  PhaseAsyncLeadProtocol protocol(n, 0x5a5aull + n);
  const auto coalition = Coalition::equally_spaced(n, k);
  PhaseRushingDeviation deviation(coalition, static_cast<Value>(n / 3), protocol,
                                  /*search_cap=*/64ull * n);
  ASSERT_TRUE(deviation.steering_possible()) << coalition.render();
  ScenarioSpec spec = rushing_spec(n, 0x5a5aull + n, k, static_cast<Value>(n / 3), 12);
  spec.search_cap = 64ull * n;
  spec.seed = 1009 * n;
  const auto result = run_scenario(spec);
  // Each adversary independently needs a preimage hit; with >= 2 free slots
  // and a generous cap the attack succeeds in virtually every trial.
  EXPECT_GE(result.outcomes.count(static_cast<Value>(n / 3)), result.outcomes.trials() - 1)
      << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sizes, PhaseRushingAttack, ::testing::Values(64, 100, 196, 256));

TEST(PhaseRushingAttack, EveryTargetReachable) {
  const int n = 100;
  const int k = sqrt_plus3_k(n);
  for (Value w : {Value{0}, Value{13}, Value{99}}) {
    ScenarioSpec spec = rushing_spec(n, 7, k, w, 6);
    spec.search_cap = 64ull * n;
    spec.seed = w + 5;
    const auto result = run_scenario(spec);
    EXPECT_GE(result.outcomes.count(w), result.outcomes.trials() - 1) << "w=" << w;
  }
}

TEST(PhaseRushingAttack, ResilientRegimeGivesNoControl) {
  // Theorem 6.1's regime (k <= sqrt(n)/10 would be 2 at n=400; use a
  // slightly larger-but-still-subcritical coalition): the same deviation
  // cannot steer and the executions FAIL or elect essentially uniformly —
  // the coalition gains nothing (solution preference makes FAIL worthless).
  const int n = 256;
  const int k = 8;  // l_j = 31 >> k: zero free slots
  PhaseAsyncLeadProtocol protocol(n, 3);
  const Value w = 77;
  PhaseRushingDeviation deviation(Coalition::equally_spaced(n, k), w, protocol);
  ASSERT_FALSE(deviation.steering_possible());
  const auto result = run_scenario(rushing_spec(n, 3, k, w, 30));
  // Target hit rate must be near 1/n, not near 1 (w.h.p. the mismatched
  // segment outputs simply FAIL).
  EXPECT_LE(result.outcomes.count(w), 3u);
  EXPECT_GE(result.outcomes.fails(), result.outcomes.trials() / 2);
}

TEST(PhaseRushingAttack, CrossoverSweepMatchesSqrtN) {
  // Sweep k: success should jump from ~0 to ~1 as k crosses sqrt(n)-ish.
  const int n = 144;
  const Value w = 5;
  double low_k_rate = 0.0;
  double high_k_rate = 0.0;
  {
    const auto r = run_scenario(rushing_spec(n, 21, 6, w, 10));
    low_k_rate = static_cast<double>(r.outcomes.count(w)) / r.outcomes.trials();
  }
  {
    ScenarioSpec spec = rushing_spec(n, 21, sqrt_plus3_k(n), w, 10);
    spec.search_cap = 64ull * n;
    const auto r = run_scenario(spec);
    high_k_rate = static_cast<double>(r.outcomes.count(w)) / r.outcomes.trials();
  }
  EXPECT_LT(low_k_rate, 0.2);
  EXPECT_GT(high_k_rate, 0.8);
}

TEST(PhaseAttackPins, ScenarioOutcomesArePinned) {
  // Recorded before the attacks moved to RandomFunction::first_preimage:
  // a search that picks a different preimage, or misses a hit, moves them.
  // The two scalar-paper perfbench shapes leave a member one free slot, so
  // the search's clip at n assignments applies.
  ScenarioSpec perf36 = rushing_spec(36, 0xd00dull + 36, 6, 24, 24);
  perf36.search_cap = 96ull * 36;
  perf36.seed = 11;
  const ScenarioPin p36 = run_pinned(perf36);
  EXPECT_EQ(p36.outcomes, "F F F F F F F F F F F F F F F F F F F 24 24 F F F");
  EXPECT_EQ(p36.transcripts, 0x5da1e6c4a3038508ull);

  ScenarioSpec perf49 = rushing_spec(49, 0xc805ull, 7, 32, 12);
  perf49.search_cap = 64ull * 49;
  perf49.seed = 12;
  const ScenarioPin p49 = run_pinned(perf49);
  EXPECT_EQ(p49.outcomes, "F F F 32 32 F F F F F F F");
  EXPECT_EQ(p49.transcripts, 0x680aeb81f1e793e1ull);

  // e07's n=100 row (k = 13, cap 96n).
  ScenarioSpec e07 = rushing_spec(100, 0xd00dull + 100, 13, 66, 25);
  e07.search_cap = 96ull * 100;
  e07.seed = 300;
  const ScenarioPin p100 = run_pinned(e07);
  EXPECT_EQ(p100.outcomes,
            "66 66 66 66 66 66 66 66 66 66 66 66 66 66 66 66 66 66 66 66 66 66 66 66 66");
  EXPECT_EQ(p100.transcripts, 0x62fa597fda024dedull);

  // x3's late-validation row at l = 8 (n = 196).
  ScenarioSpec x3 = attacked_spec(196, 0xab1eull + 8, "phase-late-validation", 77, 12);
  x3.param_l = 8;
  x3.seed = 17;
  const ScenarioPin late = run_pinned(x3);
  EXPECT_EQ(late.outcomes, "77 77 77 77 77 77 77 77 77 77 77 77");
  EXPECT_EQ(late.transcripts, 0x894361cf65e40d86ull);
}

TEST(PhaseRushing, RejectsOriginMember) {
  const int n = 64;
  PhaseAsyncLeadProtocol protocol(n, 1);
  EXPECT_THROW(
      PhaseRushingDeviation(Coalition::equally_spaced(n, 11, /*first=*/0), 0, protocol),
      std::invalid_argument);
}

TEST(PhaseRushing, CubicStyleCoalitionDoesNotBeatPhaseAsyncLead) {
  // The coalition scale that breaks A-LEADuni (k ~ 2 n^(1/3)) is far below
  // PhaseAsyncLead's sqrt(n) threshold: steering is impossible there.
  const int n = 729;  // 2*9=18 adversaries < sqrt(729)=27
  const int k = Coalition::cubic_min_k(n);
  ASSERT_LT(k, 27);
  PhaseAsyncLeadProtocol protocol(n, 2);
  PhaseRushingDeviation deviation(Coalition::equally_spaced(n, k), 1, protocol);
  EXPECT_FALSE(deviation.steering_possible());
}


TEST(PhaseLateValidation, SmallLFallsToConstantCoalition) {
  // Design ablation: with l = 4, a coalition of exactly l = 4 consecutive
  // processors steers f through the round-(n-l) validation value.
  const int n = 128;
  PhaseParams params = PhaseParams::defaults(n);
  params.l = 4;
  PhaseAsyncLeadProtocol protocol(params, 0x1a7eull);
  const Value w = 100;
  PhaseLateValidationDeviation deviation(protocol, w);
  EXPECT_EQ(deviation.coalition().k(), 4);
  ScenarioSpec spec = attacked_spec(n, 0x1a7eull, "phase-late-validation", w, 12);
  spec.param_l = 4;
  spec.seed = 5;
  const auto r = run_scenario(spec);
  EXPECT_EQ(r.outcomes.count(w), r.outcomes.trials());
  EXPECT_EQ(r.outcomes.fails(), 0u);  // fully honest-looking: never detected
}

TEST(PhaseLateValidation, EveryTargetReachable) {
  const int n = 64;
  for (const Value w : {Value{0}, Value{31}, Value{63}}) {
    ScenarioSpec spec = attacked_spec(n, 0x99ull, "phase-late-validation", w, 6);
    spec.param_l = 6;
    spec.seed = w + 1;
    const auto r = run_scenario(spec);
    EXPECT_EQ(r.outcomes.count(w), r.outcomes.trials()) << "w=" << w;
  }
}

TEST(PhaseLateValidation, DefaultLMakesTheAttackExpensive) {
  // With the paper's l = ceil(10 sqrt(n)) the same channel needs k = l
  // ~ 10 sqrt(n) members — strictly worse than the rushing attack, which is
  // exactly why the paper picks l there.
  const int n = 400;
  PhaseAsyncLeadProtocol protocol(n, 0x1ull);
  EXPECT_EQ(PhaseLateValidationDeviation::required_k(protocol), 200);
  PhaseLateValidationDeviation deviation(protocol, 7);
  EXPECT_EQ(deviation.coalition().k(), 200);
}

TEST(PhaseLateValidation, ConsecutivePlacementStillWins) {
  // Unlike the rushing attacks (which need spread-out coalitions), this
  // channel uses a *consecutive* coalition — placement structure matters
  // per-attack, not universally (contrast Claim D.1).
  const int n = 100;
  PhaseParams params = PhaseParams::defaults(n);
  params.l = 5;
  PhaseAsyncLeadProtocol protocol(params, 0x7ull);
  PhaseLateValidationDeviation deviation(protocol, 9);
  const auto& members = deviation.coalition().members();
  for (std::size_t i = 1; i < members.size(); ++i) {
    EXPECT_EQ(members[i], members[i - 1] + 1);  // consecutive block
  }
  ScenarioSpec spec = attacked_spec(n, 0x7ull, "phase-late-validation", 9, 8);
  spec.param_l = 5;
  const auto r = run_scenario(spec);
  EXPECT_EQ(r.outcomes.count(9), r.outcomes.trials());
}

}  // namespace
}  // namespace fle

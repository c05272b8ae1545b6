// Attacks on A-LEADuni: Lemma 4.1 rushing, Theorem 4.3 cubic, Theorem C.1
// random-location, and the resilience-side boundaries.

#include <gtest/gtest.h>

#include <cmath>

#include "api/scenario.h"
#include "attacks/coalition.h"
#include "attacks/random_location.h"
#include "attacks/rushing.h"

namespace fle {
namespace {

/// An attacked A-LEADuni spec pinned to the scalar RingEngine, the oracle
/// these claims are checked on (the lane kernels are held to it by the
/// identity gates).
ScenarioSpec attacked_spec(int n, const char* deviation, CoalitionSpec coalition, Value target,
                           std::size_t trials) {
  ScenarioSpec spec;
  spec.protocol = "alead-uni";
  spec.deviation = deviation;
  spec.coalition = std::move(coalition);
  spec.target = target;
  spec.n = n;
  spec.trials = trials;
  spec.engine = EngineKind::kScalar;
  return spec;
}

struct RushCase {
  int n;
  int k;
};

class RushingAttack : public ::testing::TestWithParam<RushCase> {};

TEST_P(RushingAttack, ControlsOutcomeAtSqrtN) {
  const auto [n, k] = GetParam();
  const auto coalition = Coalition::equally_spaced(n, k);
  ASSERT_TRUE(coalition.rushing_precondition_holds()) << coalition.render();
  for (Value w : {Value{0}, Value{1}, static_cast<Value>(n / 2), static_cast<Value>(n - 1)}) {
    ScenarioSpec spec = attacked_spec(n, "rushing", CoalitionSpec::equally_spaced(k), w, 6);
    spec.seed = 17 * n + w;
    const auto result = run_scenario(spec);
    EXPECT_EQ(result.outcomes.count(w), result.outcomes.trials())
        << "n=" << n << " k=" << k << " w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RushingAttack,
                         ::testing::Values(RushCase{16, 4}, RushCase{25, 5}, RushCase{36, 6},
                                           RushCase{100, 10}, RushCase{121, 11},
                                           RushCase{150, 13}));

TEST(RushingAttack, PreconditionBoundaryMatchesTheorem42) {
  // k = ceil(sqrt(n)) satisfies l_j <= k-1 for equal spacing; k-1 does not
  // (Theorem 4.2's boundary up to rounding).
  for (int n : {36, 100, 144, 400}) {
    int k = 1;
    while (k * k < n) ++k;  // k = ceil(sqrt(n))
    EXPECT_TRUE(Coalition::equally_spaced(n, k).rushing_precondition_holds()) << n;
    EXPECT_FALSE(Coalition::equally_spaced(n, k - 2).rushing_precondition_holds()) << n;
  }
}

TEST(RushingAttack, RejectsInvalidPlacements) {
  const int n = 36;
  // Consecutive coalition: one giant segment; Lemma 4.1 does not apply.
  EXPECT_THROW(RushingDeviation(Coalition::consecutive(n, 6, 2), 0), std::invalid_argument);
  // Coalition containing the origin is not supported by the attack.
  EXPECT_THROW(RushingDeviation(Coalition::equally_spaced(n, 6, /*first=*/0), 0),
               std::invalid_argument);
}

TEST(RushingAttack, SyncGapShowsRushingSignature) {
  // The rushing coalition runs ahead of the honest buffer cadence; the gap
  // grows beyond A-LEADuni's honest bound of 1.
  const int n = 100;
  const int k = 10;
  const auto result =
      run_scenario(attacked_spec(n, "rushing", CoalitionSpec::equally_spaced(k), 3, 3));
  EXPECT_GT(result.max_sync_gap, 1u);
}

class CubicAttack : public ::testing::TestWithParam<int> {};

TEST_P(CubicAttack, ControlsOutcomeAtTwoCubeRoot) {
  const int n = GetParam();
  const int k = Coalition::cubic_min_k(n);
  ASSERT_EQ(Coalition::cubic_staircase(n, k).k(), k);
  for (Value w : {Value{0}, static_cast<Value>(n - 1)}) {
    ScenarioSpec spec = attacked_spec(n, "cubic", CoalitionSpec::cubic_staircase(k), w, 5);
    spec.seed = 31 * n + w;
    const auto result = run_scenario(spec);
    EXPECT_EQ(result.outcomes.count(w), result.outcomes.trials()) << "n=" << n << " w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CubicAttack, ::testing::Values(20, 50, 100, 250, 500, 1000));

TEST(CubicAttack, MinKGrowsLikeCubeRoot) {
  // (k-1)k(k+1)/2 >= n-k  =>  k ~ (2n)^(1/3); the paper states k >= 2 n^(1/3)
  // suffices (with slack).
  for (int n : {100, 1000, 8000, 64000}) {
    const int k = Coalition::cubic_min_k(n);
    const double bound = 2.0 * std::pow(static_cast<double>(n), 1.0 / 3.0);
    EXPECT_LE(k, static_cast<int>(bound) + 2) << n;
    EXPECT_GE(k, static_cast<int>(0.5 * bound) - 2) << n;
  }
}

TEST(CubicAttack, TerminatesForAllStaircaseSizes) {
  // Lemma 4.4: the zero-burst chain keeps every adversary fed.  Termination
  // == outcome is valid (not FAIL), since FAIL would indicate starvation.
  for (int n = 20; n <= 200; n += 17) {
    const int k = Coalition::cubic_min_k(n);
    const auto result =
        run_scenario(attacked_spec(n, "cubic", CoalitionSpec::cubic_staircase(k), 1, 2));
    EXPECT_EQ(result.outcomes.count(1), result.outcomes.trials()) << "n=" << n;
  }
}

TEST(CubicAttack, LargerKAlsoWorks) {
  // Using more adversaries than the minimum keeps the staircase valid.
  const int n = 200;
  const int k = Coalition::cubic_min_k(n) + 3;
  const auto result =
      run_scenario(attacked_spec(n, "cubic", CoalitionSpec::cubic_staircase(k), 7, 3));
  EXPECT_EQ(result.outcomes.count(7), result.outcomes.trials());
}

TEST(RandomLocationAttack, SucceedsWithRecommendedDensity) {
  // Theorem C.1: with p = sqrt(8 ln n / n), the attack succeeds with high
  // probability over placements and secrets.
  const int n = 150;
  const int c_prefix = 4;
  const double p = RandomLocationDeviation::recommended_density(n);
  int successes = 0;
  int attempts = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    if (Coalition::bernoulli(n, p, seed).k() < c_prefix + 2) continue;  // degenerate draw
    ScenarioSpec spec =
        attacked_spec(n, "random-location", CoalitionSpec::bernoulli(p, seed), 9, 1);
    spec.prefix = c_prefix;
    spec.seed = seed * 7919;
    const auto result = run_scenario(spec);
    ++attempts;
    if (result.outcomes.count(9) == 1) ++successes;
  }
  ASSERT_GT(attempts, 20);
  // The theorem's failure terms are tiny at these parameters; allow slack
  // for unlucky placements (some segment longer than k-C-1).
  EXPECT_GE(static_cast<double>(successes) / attempts, 0.85)
      << successes << "/" << attempts;
}

TEST(RandomLocationAttack, AdversariesEstimateKCorrectlyViaCircularity) {
  // White-box check through outcomes: with an equally-spaced coalition
  // (disjoint from the origin), detection yields k' = k and the attack is
  // exact every time.
  const int n = 80;
  const int k = 12;
  ScenarioSpec spec =
      attacked_spec(n, "random-location", CoalitionSpec::equally_spaced(k), 5, 10);
  spec.prefix = 4;
  const auto result = run_scenario(spec);
  EXPECT_EQ(result.outcomes.count(5), result.outcomes.trials());
}

TEST(RandomLocationAttack, HonestOriginMemberPlaysHonestly) {
  // Placements that include processor 0 must not break the execution: the
  // origin plays honestly per the theorem.  Density must be high enough
  // that the *effective* coalition still covers every segment
  // (l_j <= k_eff - C - 1).
  const int n = 60;
  std::vector<ProcessorId> members;
  for (int p = 0; p < n; p += 4) members.push_back(p);  // includes the origin
  ScenarioSpec spec =
      attacked_spec(n, "random-location", CoalitionSpec::custom(std::move(members)), 2, 5);
  spec.prefix = 4;
  const auto result = run_scenario(spec);
  // Effective coalition: 14 spaced adversaries (origin honest); the segment
  // that swallowed the origin has l = 7 <= k_eff - C - 1 = 9.
  EXPECT_EQ(result.outcomes.count(2), result.outcomes.trials());
}

TEST(ALeadResilienceSide, SmallCoalitionAttacksFailOrStayUnbiased) {
  // Theorem 5.1's regime: k <= n^(1/4)/4 is far below every attack's
  // requirement; instantiating the attacks there must not give the coalition
  // control (preconditions fail or executions FAIL).
  const int n = 256;  // n^(1/4)/4 = 1 => only trivial coalitions qualify
  EXPECT_FALSE(Coalition::equally_spaced(n, 4).rushing_precondition_holds());
  EXPECT_THROW(Coalition::cubic_staircase(n, 4), std::invalid_argument);
}

}  // namespace
}  // namespace fle

// Cross-module integration: the full protocol x attack matrix, the
// coin-toss reductions running over real elections, and end-to-end
// resilience comparisons between A-LEADuni and PhaseAsyncLead.

#include <gtest/gtest.h>

#include <cmath>

#include "api/scenario.h"
#include "attacks/coalition.h"
#include "attacks/phase_rushing.h"
#include "core/reductions.h"
#include "protocols/phase_async_lead.h"
#include "sim/engine.h"

namespace fle {
namespace {

/// A ring spec pinned to the scalar RingEngine, the oracle these claims are
/// checked on (the lane kernels are held to it by the identity gates).
ScenarioSpec scalar_spec(const char* protocol, int n, std::size_t trials) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.n = n;
  spec.trials = trials;
  spec.engine = EngineKind::kScalar;
  return spec;
}

ScenarioSpec attacked_spec(const char* protocol, int n, std::size_t trials,
                           const char* deviation, CoalitionSpec coalition, Value target) {
  ScenarioSpec spec = scalar_spec(protocol, n, trials);
  spec.deviation = deviation;
  spec.coalition = std::move(coalition);
  spec.target = target;
  return spec;
}

TEST(Integration, CubicCoalitionBreaksALeadButNotPhase) {
  // The paper's central comparison: the same coalition budget that controls
  // A-LEADuni (k ~ 2 n^(1/3)) gains nothing against PhaseAsyncLead.
  const int n = 343;  // 7^3
  const int k = Coalition::cubic_min_k(n);
  ASSERT_LE(k, 2 * 7 + 2);
  const Value w = 42;

  const auto broken = run_scenario(
      attacked_spec("alead-uni", n, 5, "cubic", CoalitionSpec::cubic_staircase(k), w));
  EXPECT_EQ(broken.outcomes.count(w), broken.outcomes.trials());

  PhaseAsyncLeadProtocol phase(n, 0xabcdefull);
  PhaseRushingDeviation rushing(Coalition::equally_spaced(n, k), w, phase);
  EXPECT_FALSE(rushing.steering_possible());
  ScenarioSpec resisted_spec = attacked_spec("phase-async-lead", n, 20, "phase-rushing",
                                             CoalitionSpec::equally_spaced(k), w);
  resisted_spec.protocol_key = 0xabcdefull;
  const auto resisted = run_scenario(resisted_spec);
  EXPECT_LE(resisted.outcomes.count(w), 2u);
}

TEST(Integration, SqrtCoalitionBreaksBoth) {
  // At k ~ sqrt(n)+3 both protocols fall (Theorem 4.2; remark after 6.1).
  const int n = 121;
  const int k = 11 + 3;
  const Value w = 7;

  const auto a = run_scenario(
      attacked_spec("alead-uni", n, 5, "rushing", CoalitionSpec::equally_spaced(k), w));
  EXPECT_EQ(a.outcomes.count(w), a.outcomes.trials());

  PhaseAsyncLeadProtocol phase(n, 0x55ull);
  PhaseRushingDeviation steer(Coalition::equally_spaced(n, k), w, phase, 64ull * n);
  ASSERT_TRUE(steer.steering_possible());
  ScenarioSpec steer_spec = attacked_spec("phase-async-lead", n, 8, "phase-rushing",
                                          CoalitionSpec::equally_spaced(k), w);
  steer_spec.protocol_key = 0x55ull;
  steer_spec.search_cap = 64ull * n;
  const auto p = run_scenario(steer_spec);
  EXPECT_GE(p.outcomes.count(w), p.outcomes.trials() - 1);
}

TEST(Integration, CoinTossFromPhaseAsyncLead) {
  // Section 8 reduction over real elections: parity of the elected leader.
  const int n = 16;
  PhaseAsyncLeadProtocol protocol(n, 0x5eedull);
  int ones = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    const Outcome o = run_honest(protocol, n, static_cast<std::uint64_t>(t) * 31 + 1);
    ASSERT_TRUE(o.valid());
    ones += coin_from_leader(o) == CoinResult::kOne ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.04);
}

TEST(Integration, LeaderFromPhaseCoins) {
  // log2(8) = 3 independent elections -> coin bits -> a leader in [0,8).
  const int n = 8;
  PhaseAsyncLeadProtocol protocol(n, 0xc01ull);
  OutcomeCounter counter(n);
  for (int t = 0; t < 600; ++t) {
    std::vector<CoinResult> coins;
    for (int b = 0; b < tosses_needed(n); ++b) {
      const Outcome o =
          run_honest(protocol, n, static_cast<std::uint64_t>(t) * 97 + b * 13 + 5);
      coins.push_back(coin_from_leader(o));
    }
    counter.record(leader_from_coins(coins, n));
  }
  EXPECT_EQ(counter.fails(), 0u);
  EXPECT_LT(counter.max_bias(), 0.1);
}

TEST(Integration, BiasedElectionYieldsBiasedCoinWithinBound) {
  // Attack the election, then check the reduced coin's bias against
  // Theorem 8.1's bound: Pr[coin = w mod 2] = 1 for a fully-controlled
  // election, within 1/2 + n*eps/2 with eps = 1 - 1/n.
  const int n = 36;
  const auto result = run_scenario(
      attacked_spec("alead-uni", n, 20, "rushing", CoalitionSpec::equally_spaced(6), 3));
  int one_coins = 0;
  for (Value j = 0; j < static_cast<Value>(n); ++j) {
    if (j % 2 == 1) one_coins += static_cast<int>(result.outcomes.count(j));
  }
  const double coin_rate = static_cast<double>(one_coins) / result.outcomes.trials();
  EXPECT_DOUBLE_EQ(coin_rate, 1.0);  // 3 is odd: coin forced to 1
  EXPECT_LE(coin_rate, coin_bias_bound_from_election(1.0 - 1.0 / n, n));
}

TEST(Integration, HonestBiasNearZeroEverywhere) {
  // eps-hat = max_j Pr-hat[j] - 1/n stays within sampling noise for every
  // protocol (the "fair" in fair leader election).
  const int n = 10;
  const std::size_t trials = 3000;
  const double tolerance = 4.0 * std::sqrt(1.0 / (static_cast<double>(trials) * n));

  EXPECT_LT(run_scenario(scalar_spec("alead-uni", n, trials)).outcomes.max_bias(),
            tolerance + 0.02);

  ScenarioSpec phase = scalar_spec("phase-async-lead", n, trials);
  phase.protocol_key = 0x1dull;
  EXPECT_LT(run_scenario(phase).outcomes.max_bias(), tolerance + 0.02);
}

}  // namespace
}  // namespace fle

// Basic-LEAD (Appendix B): honest correctness, uniformity, message counts,
// and Claim B.1's single-adversary takeover.

#include <gtest/gtest.h>

#include "analysis/stats.h"
#include "api/scenario.h"
#include "protocols/basic_lead.h"
#include "sim/engine.h"

namespace fle {
namespace {

/// A Basic-LEAD ring spec pinned to the scalar RingEngine, the oracle these
/// claims are checked on (the lane kernels are held to it by the identity
/// gates).
ScenarioSpec basic_lead_spec(int n, std::size_t trials) {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = n;
  spec.trials = trials;
  spec.engine = EngineKind::kScalar;
  return spec;
}

/// Claim B.1's lone adversary at `adversary`, forcing `target`.
ScenarioSpec attacked_spec(int n, ProcessorId adversary, Value target, std::size_t trials) {
  ScenarioSpec spec = basic_lead_spec(n, trials);
  spec.deviation = "basic-single";
  spec.coalition = CoalitionSpec::custom({adversary});
  spec.target = target;
  return spec;
}

TEST(BasicLead, HonestElectsValidLeaderSmallRings) {
  BasicLeadProtocol protocol;
  for (int n = 2; n <= 24; ++n) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const Outcome o = run_honest(protocol, n, seed * 977 + 13);
      ASSERT_TRUE(o.valid()) << "n=" << n << " seed=" << seed;
      ASSERT_LT(o.leader(), static_cast<Value>(n));
    }
  }
}

TEST(BasicLead, HonestMessageCountIsNSquared) {
  BasicLeadProtocol protocol;
  for (int n : {2, 3, 5, 8, 16, 33}) {
    EngineOptions options;
    RingEngine engine(n, 42, std::move(options));
    std::vector<std::unique_ptr<RingStrategy>> s;
    for (ProcessorId p = 0; p < n; ++p) s.push_back(protocol.make_strategy(p, n));
    const Outcome o = engine.run(std::move(s));
    ASSERT_TRUE(o.valid());
    EXPECT_EQ(engine.stats().total_sent,
              static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n));
    for (ProcessorId p = 0; p < n; ++p) {
      EXPECT_EQ(engine.stats().sent[static_cast<std::size_t>(p)],
                static_cast<std::uint64_t>(n));
      EXPECT_EQ(engine.stats().received[static_cast<std::size_t>(p)],
                static_cast<std::uint64_t>(n));
    }
  }
}

TEST(BasicLead, HonestElectionIsUniform) {
  const int n = 8;
  ScenarioSpec spec = basic_lead_spec(n, 4000);
  spec.seed = 7;
  const auto result = run_scenario(spec);
  EXPECT_EQ(result.outcomes.fails(), 0u);
  EXPECT_LT(result.outcomes.chi_square_uniform(), chi_square_critical_999(n - 1));
}

TEST(BasicLead, HonestSyncGapIsModest) {
  const auto result = run_scenario(basic_lead_spec(32, 5));
  // Basic-LEAD has no synchronization mechanism: the gap can drift with the
  // schedule (unlike A-LEADuni's buffered lock-step, which stays at 1), but
  // honest 1:1 responses keep it well below a full round.
  EXPECT_LE(result.max_sync_gap, 16u);
  EXPECT_GT(result.max_sync_gap, 0u);
}

class BasicSingleAdversary : public ::testing::TestWithParam<int> {};

TEST_P(BasicSingleAdversary, ForcesEveryTarget) {
  const int n = GetParam();
  for (Value w = 0; w < static_cast<Value>(n); ++w) {
    ScenarioSpec spec = attacked_spec(n, /*adversary=*/n / 2, w, 8);
    spec.seed = 1000 + w;
    const auto result = run_scenario(spec);
    EXPECT_EQ(result.outcomes.count(w), result.outcomes.trials())
        << "n=" << n << " w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Rings, BasicSingleAdversary, ::testing::Values(4, 7, 16, 33));

TEST(BasicSingleAdversaryEdge, AdversaryNextToOriginWorks) {
  const int n = 12;
  for (ProcessorId adv : {1, n - 1}) {
    const auto result = run_scenario(attacked_spec(n, adv, 5, 10));
    EXPECT_EQ(result.outcomes.count(5), result.outcomes.trials()) << "adv=" << adv;
  }
}

TEST(BasicSingleAdversaryEdge, OriginAdversaryAlsoControls) {
  // Claim B.1 holds for any single adversary; processor 0 included (it still
  // receives all other values before having to commit, because it can stay
  // silent at wake-up while the others fire).
  const int n = 9;
  const auto result = run_scenario(attacked_spec(n, 0, 3, 10));
  EXPECT_EQ(result.outcomes.count(3), result.outcomes.trials());
}

TEST(BasicLead, UtilityGainMatchesLemma24) {
  // The adversary's indicator utility jumps from 1/n (honest) to 1 (attack):
  // the protocol is not eps-1-resilient for eps < 1 - 1/n.
  const int n = 10;
  const auto honest = run_scenario(basic_lead_spec(n, 3000));
  const RationalUtility u = RationalUtility::indicator(n, 4);
  const double honest_u = expected_utility(u, honest.outcomes.distribution());
  EXPECT_NEAR(honest_u, 1.0 / n, 0.03);

  const auto attacked = run_scenario(attacked_spec(n, 2, 4, 50));
  const double attacked_u = expected_utility(u, attacked.outcomes.distribution());
  EXPECT_DOUBLE_EQ(attacked_u, 1.0);
}

}  // namespace
}  // namespace fle

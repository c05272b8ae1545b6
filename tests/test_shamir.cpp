// GF(2^61-1) field arithmetic, Shamir secret sharing, the fully-connected
// Shamir-LEAD protocol, and the two attacks that pin its n/2 boundary.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/scenario.h"
#include "attacks/shamir_attacks.h"
#include "core/field.h"
#include "core/shamir.h"
#include "protocols/shamir_lead.h"

namespace fle {
namespace {

TEST(Field, BasicAlgebra) {
  const Fp a(5), b(7);
  EXPECT_EQ((a + b).value(), 12u);
  EXPECT_EQ((b - a).value(), 2u);
  EXPECT_EQ((a - b).value(), Fp::kP - 2);
  EXPECT_EQ((a * b).value(), 35u);
  EXPECT_EQ(Fp(Fp::kP).value(), 0u);  // reduction at construction
}

TEST(Field, MulReductionNearModulus) {
  const Fp big(Fp::kP - 1);
  EXPECT_EQ((big * big).value(), 1u);  // (-1)^2 = 1
  const Fp x(0x1234'5678'9abcull);
  EXPECT_EQ((x * Fp(1)).value(), x.value());
}

TEST(Field, InverseAndPow) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 200; ++i) {
    const Fp x = Fp::random(rng);
    if (x.value() == 0) continue;
    EXPECT_EQ((x * x.inverse()).value(), 1u);
  }
  EXPECT_EQ(Fp(3).pow(4).value(), 81u);
  EXPECT_EQ(Fp(2).pow(0).value(), 1u);
}

TEST(Shamir, ReconstructFromAnyTShares) {
  Xoshiro256 rng(7);
  const Fp secret(424242);
  const int t = 4, n = 9;
  const auto shares = shamir_share(secret, t, n, rng);
  ASSERT_EQ(shares.size(), 9u);
  // every contiguous window of t shares reconstructs
  for (int start = 0; start + t <= n; ++start) {
    std::vector<Share> subset(shares.begin() + start, shares.begin() + start + t);
    EXPECT_EQ(shamir_reconstruct(subset).value(), secret.value()) << start;
  }
}

TEST(Shamir, FewerThanTSharesAreIndependent) {
  // Statistical privacy: with t-1 shares fixed, the secret is undetermined —
  // two different secrets can produce the same t-1 shares.  We verify the
  // weaker, testable consequence: reconstructing from t-1 points (padded
  // with a guessed point) can land anywhere.
  Xoshiro256 rng(9);
  const int t = 3, n = 5;
  const auto sh0 = shamir_share(Fp(0), t, n, rng);
  const auto sh1 = shamir_share(Fp(1), t, n, rng);
  // Distributions of individual shares should overlap: single shares of
  // different secrets are both uniform; sanity-check value ranges only.
  EXPECT_LT(sh0[0].y.value(), Fp::kP);
  EXPECT_LT(sh1[0].y.value(), Fp::kP);
}

TEST(Shamir, ConsistencyDetectsTampering) {
  Xoshiro256 rng(11);
  const int t = 4, n = 10;
  auto shares = shamir_share(Fp(99), t, n, rng);
  EXPECT_TRUE(shamir_consistent(shares, t));
  EXPECT_TRUE(shamir_reconstruct_checked(shares, t).has_value());
  shares[7].y = shares[7].y + Fp(1);
  EXPECT_FALSE(shamir_consistent(shares, t));
  EXPECT_FALSE(shamir_reconstruct_checked(shares, t).has_value());
}

TEST(Shamir, ConsistencyDetectsTamperingInBasis) {
  // Corrupting one of the first t points must also be caught (the basis
  // polynomial then disagrees with the honest tail).
  Xoshiro256 rng(13);
  const int t = 3, n = 8;
  auto shares = shamir_share(Fp(5), t, n, rng);
  shares[1].y = shares[1].y + Fp(123);
  EXPECT_FALSE(shamir_consistent(shares, t));
}

TEST(Shamir, PencilShiftIsUndetectableWhenHonestBelowT)  {
  // The forging attack's algebra: with h < t honest points, adding c*Z
  // (Z vanishing on them) keeps all points consistent but shifts P(0).
  Xoshiro256 rng(17);
  const int t = 4, n = 6, honest = 3;  // honest < t
  auto shares = shamir_share(Fp(10), t, n, rng);
  auto z_at = [&](Fp x) {
    Fp z(1);
    for (int h = 0; h < honest; ++h) z = z * (x - shares[static_cast<std::size_t>(h)].x);
    return z;
  };
  const Fp c(777);
  for (int j = honest; j < n; ++j) {
    shares[static_cast<std::size_t>(j)].y =
        shares[static_cast<std::size_t>(j)].y + c * z_at(shares[static_cast<std::size_t>(j)].x);
  }
  EXPECT_TRUE(shamir_consistent(shares, t));  // undetectable
  EXPECT_EQ(shamir_reconstruct(std::span<const Share>(shares).first(4)).value(),
            (Fp(10) + c * z_at(Fp(0))).value());  // shifted
}

TEST(Shamir, RepeatedEvaluationPointIsRejected) {
  // Lagrange divides by x_i - x_j, and the Fermat "inverse" of zero is
  // zero: without the check a repeated x drops its terms and returns a
  // wrong secret with no error.
  Xoshiro256 rng(19);
  const auto shares = shamir_share(Fp(42), 3, 5, rng);
  std::vector<Share> repeated = {shares[0], shares[1], shares[1]};
  EXPECT_THROW((void)shamir_reconstruct(repeated), std::invalid_argument);
  repeated[2].y = shares[2].y;  // same x, different y
  EXPECT_THROW((void)interpolate_at(repeated, Fp(7)), std::invalid_argument);
  std::vector<Share> with_tail = {shares[0], shares[0], shares[1], shares[2]};
  EXPECT_THROW((void)shamir_reconstruct_checked(with_tail, 2), std::invalid_argument);
  // Distinct x in any order is fine.
  const std::vector<Share> shuffled = {shares[4], shares[0], shares[2]};
  EXPECT_EQ(shamir_reconstruct(shuffled), Fp(42));
}

// --- the Lagrange weight table ----------------------------------------------

std::vector<Fp> ys_of(const std::vector<Share>& shares) {
  std::vector<Fp> ys;
  for (const Share& s : shares) ys.push_back(s.y);
  return ys;
}

/// The table must agree with the generic oracle on these shares, whether
/// the oracle returns a secret or nullopt.
void expect_matches_oracle(const ShamirWeights& weights, const std::vector<Share>& shares,
                           const std::string& what) {
  const std::optional<Fp> oracle = shamir_reconstruct_checked(shares, weights.t());
  const std::optional<Fp> table = weights.reconstruct_checked(ys_of(shares));
  ASSERT_EQ(table.has_value(), oracle.has_value()) << what;
  if (oracle) {
    EXPECT_EQ(table->value(), oracle->value()) << what;
  }
}

TEST(ShamirWeights, MatchesOracleOnEverySchemeUpToN24) {
  Xoshiro256 rng(23);
  for (int n = 2; n <= 24; ++n) {
    for (int t = 1; t <= n; ++t) {
      const ShamirWeights weights(n, t);
      const std::string scheme = "n=" + std::to_string(n) + " t=" + std::to_string(t);
      const Fp secret = Fp::random(rng);
      const auto shares = shamir_share(secret, t, n, rng);

      // Honest sharing: both paths recover the secret.
      expect_matches_oracle(weights, shares, scheme + " honest");
      EXPECT_EQ(weights.reconstruct_checked(ys_of(shares)), secret) << scheme;
      EXPECT_EQ(weights.reconstruct(ys_of(shares)),
                shamir_reconstruct(std::span<const Share>(shares).first(
                    static_cast<std::size_t>(t))))
          << scheme;

      // Each single tampered point, in the basis (j < t) and in the tail.
      for (int j = 0; j < n; ++j) {
        auto tampered = shares;
        tampered[static_cast<std::size_t>(j)].y =
            tampered[static_cast<std::size_t>(j)].y + Fp(1 + rng.below(1000));
        expect_matches_oracle(weights, tampered, scheme + " tampered j=" + std::to_string(j));
      }

      // The pencil shift P + c*Z with t-1 honest points at random positions:
      // Z vanishes on them, so the shift stays consistent but moves P(0).
      std::vector<std::size_t> order(static_cast<std::size_t>(n));
      for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
      for (std::size_t j = order.size() - 1; j > 0; --j) {
        std::swap(order[j], order[rng.below(j + 1)]);
      }
      std::vector<char> honest(order.size(), 0);
      for (int h = 0; h < t - 1; ++h) honest[order[static_cast<std::size_t>(h)]] = 1;
      const auto z_at = [&](Fp x) {
        Fp z(1);
        for (std::size_t h = 0; h < shares.size(); ++h) {
          if (honest[h]) z = z * (x - shares[h].x);
        }
        return z;
      };
      const Fp c = Fp(1) + Fp::random(rng);
      auto shifted = shares;
      for (Share& s : shifted) s.y = s.y + c * z_at(s.x);
      expect_matches_oracle(weights, shifted, scheme + " pencil");
      EXPECT_EQ(weights.reconstruct_checked(ys_of(shifted)), secret + c * z_at(Fp(0)))
          << scheme;
    }
  }
}

TEST(ShamirWeights, RejectsBadSchemesAndPointCounts) {
  EXPECT_THROW(ShamirWeights(1, 1), std::invalid_argument);
  EXPECT_THROW(ShamirWeights(8, 0), std::invalid_argument);
  EXPECT_THROW(ShamirWeights(8, 9), std::invalid_argument);
  const ShamirWeights weights(5, 3);
  const std::vector<Fp> four(4, Fp(1));
  EXPECT_THROW((void)weights.reconstruct_checked(four), std::invalid_argument);
  EXPECT_THROW((void)weights.reconstruct(std::span<const Fp>(four).first(2)),
               std::invalid_argument);
}

// --- protocol ---------------------------------------------------------------

/// Runs the (deviated) profile on `engine`, its strategies in a fresh arena.
Outcome run_profile(GraphEngine& engine, const GraphProtocol& protocol,
                    const GraphDeviation* deviation = nullptr) {
  StrategyArena arena;
  std::vector<GraphStrategy*> profile;
  compose_profile_into(protocol, deviation, engine.n(), arena, profile);
  return engine.run(profile);
}

/// An honest Shamir-LEAD spec on the fully-connected graph engine.
ScenarioSpec shamir_spec(int n, std::size_t trials) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kGraph;
  spec.protocol = "shamir-lead";
  spec.n = n;
  spec.trials = trials;
  return spec;
}

TEST(ShamirLead, ThresholdIsValidatedAtConstruction) {
  try {
    ShamirLeadProtocol protocol(ShamirParams{8, 9});
    FAIL() << "t = 9 > n = 8 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("threshold t"), std::string::npos) << e.what();
  }
  EXPECT_THROW(ShamirLeadProtocol{ShamirParams(8, 0)}, std::invalid_argument);
  EXPECT_THROW(ShamirLeadProtocol{1}, std::invalid_argument);
  const ShamirLeadProtocol all_shares(ShamirParams{8, 8});
  EXPECT_EQ(all_shares.params().weights->t(), 8);
  GraphEngine engine(8, 5);
  EXPECT_TRUE(run_profile(engine, all_shares).valid());
  // A strategy needs the protocol-built table.
  EXPECT_THROW(ShamirLeadStrategy(0, ShamirParams{8, 5}), std::invalid_argument);
}

TEST(ShamirLead, HonestElectsValidLeader) {
  for (int n : {3, 4, 5, 8, 13, 20}) {
    EXPECT_EQ(run_scenario(shamir_spec(n, 10)).outcomes.fails(), 0u) << "n=" << n;
  }
}

TEST(ShamirLead, HonestUniform) {
  const int n = 6;
  const int trials = 1200;
  const ScenarioResult result = run_scenario(shamir_spec(n, trials));
  ASSERT_EQ(result.outcomes.fails(), 0u);
  for (Value j = 0; j < static_cast<Value>(n); ++j) {
    EXPECT_NEAR(static_cast<double>(result.outcomes.count(j)), trials / n,
                5 * std::sqrt(trials / 6.0));
  }
}

TEST(ShamirLead, ScheduleIndependentOutcome) {
  ScenarioSpec round_robin = shamir_spec(7, 10);
  round_robin.record_outcomes = true;
  ScenarioSpec random = round_robin;
  random.scheduler = SchedulerKind::kRandom;
  EXPECT_EQ(run_scenario(round_robin).per_trial, run_scenario(random).per_trial);
}

TEST(ShamirLead, MessageComplexityIsThreeNSquared) {
  const int n = 8;
  ShamirLeadProtocol protocol(n);
  GraphEngine engine(n, 3);
  ASSERT_TRUE(run_profile(engine, protocol).valid());
  EXPECT_EQ(engine.stats().total_sent, 3ull * n * (n - 1));
}

TEST(ShamirLead, LyingRevealerCausesAbort) {
  // An adversary that corrupts one reveal entry must be detected: honest
  // points pin the polynomial.
  const int n = 7;
  ShamirLeadProtocol protocol(n);
  class LyingStrategy final : public ShamirLeadStrategy {
   public:
    using ShamirLeadStrategy::ShamirLeadStrategy;

   protected:
    void send_reveal(GraphContext& ctx) override {
      std::vector<Fp> values;
      for (const auto& h : held_) values.push_back(*h);
      values[2] = values[2] + Fp(1);  // lie about processor 2's share
      broadcast_reveal(ctx, std::move(values));
    }
    void finalize(GraphContext& ctx) override {
      if (dead_) return;
      dead_ = true;
      ctx.terminate(0);  // the liar claims an outcome
    }
  };
  GraphEngine engine(n, 5);
  StrategyArena arena;
  std::vector<GraphStrategy*> s;
  for (ProcessorId p = 0; p < n; ++p) {
    if (p == 4) {
      s.push_back(arena.emplace<LyingStrategy>(p, protocol.params()));
    } else {
      s.push_back(protocol.emplace_strategy(arena, p, n));
    }
  }
  EXPECT_TRUE(engine.run(s).failed());
}

// --- attacks ----------------------------------------------------------------

class ShamirAttackBoundary : public ::testing::TestWithParam<int> {};

TEST_P(ShamirAttackBoundary, RushingControlsAboveT) {
  const int n = GetParam();
  ShamirLeadProtocol protocol(n);
  const int t = protocol.params().t;  // floor(n/2)+1
  const Value w = static_cast<Value>(n - 1);
  ShamirRushingDeviation deviation(Coalition::consecutive(n, t, 1), w, protocol);
  ASSERT_TRUE(deviation.reconstruction_possible());
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    GraphEngine engine(n, seed);
    const Outcome o = run_profile(engine, protocol, &deviation);
    ASSERT_TRUE(o.valid()) << seed;
    EXPECT_EQ(o.leader(), w) << seed;
  }
}

TEST_P(ShamirAttackBoundary, RushingHarmlessBelowT) {
  const int n = GetParam();
  ShamirLeadProtocol protocol(n);
  const int k = protocol.params().t - 2;  // below reconstruction threshold
  if (k < 1) GTEST_SKIP();
  const Value w = 0;
  ShamirRushingDeviation deviation(Coalition::consecutive(n, k, 1), w, protocol);
  ASSERT_FALSE(deviation.reconstruction_possible());
  int hits = 0;
  const int trials = 30;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    GraphEngine engine(n, seed * 13 + 5);
    const Outcome o = run_profile(engine, protocol, &deviation);
    ASSERT_TRUE(o.valid()) << seed;  // attack stays undetected, just useless
    hits += (o.leader() == w) ? 1 : 0;
  }
  EXPECT_LE(hits, trials / 3);  // ~ trials/n expected
}

TEST_P(ShamirAttackBoundary, ForgingControlsAtCeilHalf) {
  const int n = GetParam();
  ShamirLeadProtocol protocol(n);
  const int k = (n + 1) / 2;  // ceil(n/2): one below the rushing threshold
  const Value w = static_cast<Value>(n / 2);
  ShamirForgeDeviation deviation(Coalition::consecutive(n, k, 0), w, protocol);
  ASSERT_TRUE(deviation.forging_possible());
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    GraphEngine engine(n, seed + 17);
    const Outcome o = run_profile(engine, protocol, &deviation);
    ASSERT_TRUE(o.valid()) << seed;
    EXPECT_EQ(o.leader(), w) << seed;
  }
}

TEST_P(ShamirAttackBoundary, ForgingDetectedBelowCeilHalf) {
  const int n = GetParam();
  ShamirLeadProtocol protocol(n);
  const int k = (n + 1) / 2 - 1;  // paper's resilient regime: k <= n/2 - 1
  if (k < 1) GTEST_SKIP();
  const Value w = 0;
  ShamirForgeDeviation deviation(Coalition::consecutive(n, k, 0), w, protocol);
  ASSERT_FALSE(deviation.forging_possible());
  // Below the threshold the pencil shift has degree n-k > t-1, so any
  // actual forgery (c != 0) is detected and the execution FAILs.  The only
  // valid outcomes are the lucky ~1/n of trials where the honest sum already
  // equals the target (c = 0, nothing forged): exactly "no gain".
  std::size_t fails = 0;
  std::size_t target_hits = 0;
  const std::size_t trials = 24;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    GraphEngine engine(n, seed * 97 + 31);
    const Outcome o = run_profile(engine, protocol, &deviation);
    if (o.failed()) {
      ++fails;
    } else {
      EXPECT_EQ(o.leader(), w) << seed;  // valid <=> untouched honest target
      ++target_hits;
    }
  }
  EXPECT_GE(fails, trials / 2) << "forgeries must be detected";
  EXPECT_LE(target_hits, trials / 2) << "hit rate must stay near 1/n";
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShamirAttackBoundary, ::testing::Values(4, 5, 6, 9, 12));

TEST(ShamirAttacks, BoundaryMatchesPaper) {
  // Resilient for k <= ceil(n/2)-1, broken at k = ceil(n/2): the paper's
  // "optimal resilience k = n/2 - 1".
  for (int n : {6, 10, 14}) {
    ShamirLeadProtocol protocol(n);
    ShamirForgeDeviation at_half(Coalition::consecutive(n, (n + 1) / 2, 0), 0, protocol);
    EXPECT_TRUE(at_half.forging_possible());
    ShamirForgeDeviation below(Coalition::consecutive(n, (n + 1) / 2 - 1, 0), 0, protocol);
    EXPECT_FALSE(below.forging_possible());
  }
}

}  // namespace
}  // namespace fle

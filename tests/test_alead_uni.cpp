// A-LEADuni (Section 3 / Appendix A): honest correctness, uniformity,
// validation aborts, and the consecutive-coalition observations.

#include <gtest/gtest.h>

#include "analysis/stats.h"
#include "api/scenario.h"
#include "attacks/coalition.h"
#include "protocols/alead_uni.h"
#include "sim/engine.h"

namespace fle {
namespace {

/// An honest A-LEADuni ring spec pinned to the scalar RingEngine, the
/// oracle (the lane kernels are held to it by the identity gates).
ScenarioSpec alead_spec(int n, std::size_t trials) {
  ScenarioSpec spec;
  spec.protocol = "alead-uni";
  spec.n = n;
  spec.trials = trials;
  spec.engine = EngineKind::kScalar;
  return spec;
}

TEST(ALeadUni, HonestElectsValidLeaderSmallRings) {
  for (int n = 2; n <= 24; ++n) {
    EXPECT_EQ(run_scenario(alead_spec(n, 20)).outcomes.fails(), 0u) << "n=" << n;
  }
}

TEST(ALeadUni, HonestMessageCountIsNSquared) {
  for (int n : {2, 3, 4, 9, 17, 40}) {
    const ScenarioResult result = run_scenario(alead_spec(n, 3));
    ASSERT_EQ(result.outcomes.fails(), 0u) << "n=" << n;
    EXPECT_EQ(result.total_messages, 3ull * static_cast<std::uint64_t>(n) * n) << "n=" << n;
    EXPECT_EQ(result.max_messages, static_cast<std::uint64_t>(n) * n) << "n=" << n;
  }
}

TEST(ALeadUni, HonestElectionIsUniform) {
  const int n = 6;
  ScenarioSpec spec = alead_spec(n, 6000);
  spec.seed = 11;
  const auto result = run_scenario(spec);
  EXPECT_EQ(result.outcomes.fails(), 0u);
  EXPECT_LT(result.outcomes.chi_square_uniform(), chi_square_critical_999(n - 1));
}

TEST(ALeadUni, HonestExecutionIsOneSynchronized) {
  // Without adversaries A-LEADuni simulates lock-step rounds: the sync gap
  // stays at most 1 (the origin leads each round by one send).
  for (int n : {4, 16, 64}) {
    const ScenarioResult result = run_scenario(alead_spec(n, 3));
    ASSERT_EQ(result.outcomes.fails(), 0u) << "n=" << n;
    EXPECT_LE(result.max_sync_gap, 1u) << "n=" << n;
  }
}

TEST(ALeadUni, AllOutputsAgreeWithSumOfSecrets) {
  // White-box: run and check that the elected leader equals the sum of all
  // drawn secrets mod n, reproducing the protocol's defining equation.
  const int n = 7;
  ScenarioSpec spec = alead_spec(n, 3);
  spec.record_outcomes = true;
  const ScenarioResult result = run_scenario(spec);
  for (std::size_t t = 0; t < spec.trials; ++t) {
    // Recompute the secrets the strategies will draw from their tapes.
    Value expected = 0;
    for (ProcessorId p = 0; p < n; ++p) {
      RandomTape tape(scenario_trial_seed(spec.seed, t), p);
      expected = (expected + tape.uniform(static_cast<Value>(n))) % n;
    }
    ASSERT_TRUE(result.per_trial[t].valid());
    EXPECT_EQ(result.per_trial[t].leader(), expected) << "trial " << t;
  }
}

// A deviating processor that swaps one value must trigger an abort
// somewhere: its own secret cannot come back to everyone consistently.
class SwapFirstForwardStrategy final : public RingStrategy {
 public:
  void on_init(RingContext& ctx) override {
    d_ = ctx.tape().uniform(static_cast<Value>(ctx.ring_size()));
    buffer_ = d_;
  }
  void on_receive(RingContext& ctx, Value v) override {
    const auto n = static_cast<Value>(ctx.ring_size());
    v %= n;
    // Deviation: replace the first forwarded value with garbage, then play
    // honestly.
    if (count_ == 0) {
      ctx.send((buffer_ + 1) % n);
    } else {
      ctx.send(buffer_);
    }
    buffer_ = v;
    ++count_;
    sum_ = (sum_ + v) % n;
    if (count_ == ctx.ring_size()) {
      if (v == d_) {
        ctx.terminate(sum_);
      } else {
        ctx.abort();
      }
    }
  }

 private:
  Value d_ = 0, buffer_ = 0, sum_ = 0;
  int count_ = 0;
};

TEST(ALeadUni, CorruptedForwardFails) {
  const int n = 9;
  ALeadUniProtocol protocol;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    RingEngine engine(n, seed);
    StrategyArena arena;
    std::vector<RingStrategy*> s;
    for (ProcessorId p = 0; p < n; ++p) {
      if (p == 4) {
        s.push_back(arena.emplace<SwapFirstForwardStrategy>());
      } else {
        s.push_back(protocol.emplace_strategy(arena, p, n));
      }
    }
    EXPECT_TRUE(engine.run(s).failed()) << "seed=" << seed;
  }
}

TEST(ALeadUni, ConsecutiveCoalitionHasLongSegment) {
  // Claim D.1's setting: a consecutive coalition leaves one long honest
  // segment (l = n-k > k-1), so Lemma 4.1's precondition fails and the
  // rushing machinery cannot be instantiated.
  const int n = 30;
  const auto c = Coalition::consecutive(n, 5, 3);
  const auto lengths = c.segment_lengths();
  int nonzero = 0;
  for (const int l : lengths) {
    if (l > 0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 1);
  EXPECT_EQ(c.max_segment_length(), n - 5);
  EXPECT_FALSE(c.rushing_precondition_holds());
}

}  // namespace
}  // namespace fle

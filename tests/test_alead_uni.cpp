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

TEST(ALeadUni, HonestElectsValidLeaderSmallRings) {
  ALeadUniProtocol protocol;
  for (int n = 2; n <= 24; ++n) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const Outcome o = run_honest(protocol, n, seed * 1009 + 5);
      ASSERT_TRUE(o.valid()) << "n=" << n << " seed=" << seed;
      ASSERT_LT(o.leader(), static_cast<Value>(n));
    }
  }
}

TEST(ALeadUni, HonestMessageCountIsNSquared) {
  ALeadUniProtocol protocol;
  for (int n : {2, 3, 4, 9, 17, 40}) {
    RingEngine engine(n, 123);
    std::vector<std::unique_ptr<RingStrategy>> s;
    for (ProcessorId p = 0; p < n; ++p) s.push_back(protocol.make_strategy(p, n));
    const Outcome o = engine.run(std::move(s));
    ASSERT_TRUE(o.valid()) << "n=" << n;
    EXPECT_EQ(engine.stats().total_sent,
              static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n));
  }
}

TEST(ALeadUni, HonestElectionIsUniform) {
  const int n = 6;
  ScenarioSpec spec;
  spec.protocol = "alead-uni";
  spec.n = n;
  spec.trials = 6000;
  spec.seed = 11;
  spec.engine = EngineKind::kScalar;  // the oracle; lanes are held to it
  const auto result = run_scenario(spec);
  EXPECT_EQ(result.outcomes.fails(), 0u);
  EXPECT_LT(result.outcomes.chi_square_uniform(), chi_square_critical_999(n - 1));
}

TEST(ALeadUni, HonestExecutionIsOneSynchronized) {
  // Without adversaries A-LEADuni simulates lock-step rounds: the sync gap
  // stays at most 1 (the origin leads each round by one send).
  ALeadUniProtocol protocol;
  for (int n : {4, 16, 64}) {
    RingEngine engine(n, 321);
    std::vector<std::unique_ptr<RingStrategy>> s;
    for (ProcessorId p = 0; p < n; ++p) s.push_back(protocol.make_strategy(p, n));
    ASSERT_TRUE(engine.run(std::move(s)).valid());
    EXPECT_LE(engine.stats().max_sync_gap, 1u) << "n=" << n;
  }
}

TEST(ALeadUni, AllOutputsAgreeWithSumOfSecrets) {
  // White-box: run and check that the elected leader equals the sum of all
  // drawn secrets mod n, reproducing the protocol's defining equation.
  const int n = 7;
  ALeadUniProtocol protocol;
  for (std::uint64_t seed : {1ull, 99ull, 777ull}) {
    // Recompute the secrets the strategies will draw from their tapes.
    Value expected = 0;
    for (ProcessorId p = 0; p < n; ++p) {
      RandomTape tape(seed, p);
      expected = (expected + tape.uniform(static_cast<Value>(n))) % n;
    }
    const Outcome o = run_honest(protocol, n, seed);
    ASSERT_TRUE(o.valid());
    EXPECT_EQ(o.leader(), expected) << "seed=" << seed;
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
    std::vector<std::unique_ptr<RingStrategy>> s;
    for (ProcessorId p = 0; p < n; ++p) {
      if (p == 4) {
        s.push_back(std::make_unique<SwapFirstForwardStrategy>());
      } else {
        s.push_back(protocol.make_strategy(p, n));
      }
    }
    EXPECT_TRUE(engine.run(std::move(s)).failed()) << "seed=" << seed;
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

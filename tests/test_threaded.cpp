// Threaded runtime: real threads + blocking queues must reproduce the
// deterministic engine's outcomes on the ring (paper §2: all oblivious
// schedules agree), detect quiescence, and survive attacks.

#include <gtest/gtest.h>

#include "api/scenario.h"
#include "attacks/basic_single.h"
#include "attacks/coalition.h"
#include "attacks/cubic.h"
#include "attacks/deviation.h"
#include "protocols/alead_uni.h"
#include "protocols/basic_lead.h"
#include "sim/threaded_runtime.h"

namespace fle {
namespace {

TEST(Threaded, MatchesDeterministicEngine) {
  // Each row runs as a ring/threaded spec pair compared trial for trial.
  // The indexing wrapper emplaces its inner strategy mid-run, from its
  // processor's thread; the n = 128 row is the large-ring stress.
  struct Row {
    const char* protocol;
    int n;
    std::size_t trials;
    std::uint64_t key = 0x5eed;
  };
  for (const Row& row : {Row{"basic-lead", 8, 10}, Row{"alead-uni", 10, 10},
                         Row{"phase-async-lead", 9, 8, 0x71ull},
                         Row{"phase-async-lead", 128, 1, 0x99ull},
                         Row{"indexing+alead-uni", 10, 10}}) {
    ScenarioSpec ring;
    ring.protocol = row.protocol;
    ring.protocol_key = row.key;
    ring.n = row.n;
    ring.trials = row.trials;
    ring.engine = EngineKind::kScalar;
    ring.record_outcomes = true;
    ScenarioSpec threaded = ring;
    threaded.topology = TopologyKind::kThreaded;
    const ScenarioResult expected = run_scenario(ring);
    EXPECT_EQ(expected.outcomes.fails(), 0u) << row.protocol << " n=" << row.n;
    EXPECT_EQ(run_scenario(threaded).per_trial, expected.per_trial)
        << row.protocol << " n=" << row.n;
  }
}

TEST(Threaded, MessageCountsMatch) {
  const int n = 12;
  ALeadUniProtocol protocol;
  ThreadedRuntime runtime(n, 7);
  StrategyArena arena;
  std::vector<RingStrategy*> s;
  for (ProcessorId p = 0; p < n; ++p) s.push_back(protocol.emplace_strategy(arena, p, n));
  ASSERT_TRUE(runtime.run(s).valid());
  EXPECT_EQ(runtime.stats().total_sent, static_cast<std::uint64_t>(n) * n);
}

TEST(Threaded, QuiescenceDetectedOnSilentRing) {
  class Silent final : public RingStrategy {
    void on_receive(RingContext&, Value) override {}
  };
  ThreadedRuntime runtime(4, 1);
  Silent a, b, c, d;
  RingStrategy* s[] = {&a, &b, &c, &d};
  const Outcome o = runtime.run(s);
  EXPECT_TRUE(o.failed());
  EXPECT_TRUE(runtime.stats().quiesced);
  EXPECT_FALSE(runtime.stats().wall_timeout_hit);
}

TEST(Threaded, QuiescenceDetectedMidProtocol) {
  // One processor swallows everything: the ring stalls and must be stopped.
  const int n = 6;
  ALeadUniProtocol protocol;
  class BlackHole final : public RingStrategy {
    void on_receive(RingContext&, Value) override {}
  };
  ThreadedRuntime runtime(n, 3);
  StrategyArena arena;
  std::vector<RingStrategy*> s;
  for (ProcessorId p = 0; p < n; ++p) {
    if (p == 2) {
      s.push_back(arena.emplace<BlackHole>());
    } else {
      s.push_back(protocol.emplace_strategy(arena, p, n));
    }
  }
  const Outcome o = runtime.run(s);
  EXPECT_TRUE(o.failed());
  EXPECT_TRUE(runtime.stats().quiesced);
}

TEST(Threaded, SendLimitStopsRunaways) {
  class PingPong final : public RingStrategy {
   public:
    void on_init(RingContext& ctx) override { ctx.send(0); }
    void on_receive(RingContext& ctx, Value v) override { ctx.send(v + 1); }
  };
  ThreadedRuntimeOptions options;
  options.send_limit = 200;
  ThreadedRuntime runtime(2, 1, options);
  PingPong a, b;
  RingStrategy* s[] = {&a, &b};
  const Outcome o = runtime.run(s);
  EXPECT_TRUE(o.failed());
  EXPECT_TRUE(runtime.stats().send_limit_hit);
  // Accepted sends only: the over-limit attempts are dropped, not counted.
  EXPECT_EQ(runtime.stats().total_sent, 200u);
}

TEST(Threaded, AttacksWorkOnRealThreads) {
  {
    const int n = 9;
    BasicLeadProtocol protocol;
    BasicSingleDeviation deviation(n, 4, 2);
    ThreadedRuntime runtime(n, 11);
    StrategyArena arena;
    std::vector<RingStrategy*> s;
    compose_profile_into(protocol, &deviation, n, arena, s);
    const Outcome o = runtime.run(s);
    ASSERT_TRUE(o.valid());
    EXPECT_EQ(o.leader(), 2u);
  }
  {
    const int n = 60;
    ALeadUniProtocol protocol;
    const int k = Coalition::cubic_min_k(n);
    CubicDeviation deviation(Coalition::cubic_staircase(n, k), 7);
    ThreadedRuntime runtime(n, 12);
    StrategyArena arena;
    std::vector<RingStrategy*> s;
    compose_profile_into(protocol, &deviation, n, arena, s);
    const Outcome o = runtime.run(s);
    ASSERT_TRUE(o.valid());
    EXPECT_EQ(o.leader(), 7u);
  }
}

}  // namespace
}  // namespace fle

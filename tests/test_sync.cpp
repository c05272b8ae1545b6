// Synchronous scenarios (Section 1.1): lockstep engine semantics and the
// k = n-1 resilience of the synchronous broadcast/ring elections.

#include <gtest/gtest.h>

#include <cmath>

#include "api/scenario.h"
#include "protocols/sync_lead.h"
#include "sim/sync_engine.h"

namespace fle {
namespace {

TEST(SyncEngine, RoundsDeliverSimultaneously) {
  // Sender emits in round 1; receiver must see it in round 2, not round 1.
  class Probe final : public SyncStrategy {
   public:
    explicit Probe(std::vector<int>* log) : log_(log) {}
    void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
      if (ctx.id() == 0 && ctx.round() == 1) ctx.send(1, {42});
      if (ctx.id() == 1 && !inbox.empty()) {
        log_->push_back(ctx.round());
        ctx.terminate(0);
      }
      if (ctx.id() == 0 && ctx.round() == 2) ctx.terminate(0);
    }

   private:
    std::vector<int>* log_;
  };
  std::vector<int> log;
  SyncEngine engine(2, 1);
  Probe a(&log), b(&log);
  SyncStrategy* s[] = {&a, &b};
  ASSERT_TRUE(engine.run(s).valid());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 2);
}

TEST(SyncEngine, RoundLimitStopsSpinners) {
  class Spinner final : public SyncStrategy {
   public:
    void on_round(SyncContext& ctx, const SyncInbox&) override {
      ctx.send(ring_succ(ctx.id(), ctx.network_size()), {0});
    }
  };
  SyncEngineOptions options;
  options.round_limit = 10;
  SyncEngine engine(3, 1, options);
  Spinner a, b, c;
  SyncStrategy* s[] = {&a, &b, &c};
  EXPECT_TRUE(engine.run(s).failed());
  EXPECT_TRUE(engine.stats().round_limit_hit);
}

/// An honest synchronous spec pinned to the scalar SyncEngine (the oracle).
ScenarioSpec sync_spec(const char* protocol, int n, std::size_t trials) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kSync;
  spec.protocol = protocol;
  spec.n = n;
  spec.trials = trials;
  spec.engine = EngineKind::kScalar;
  return spec;
}

TEST(SyncBroadcastLead, HonestElectsValidLeader) {
  for (int n : {2, 3, 8, 20}) {
    const auto result = run_scenario(sync_spec("sync-broadcast-lead", n, 15));
    EXPECT_EQ(result.outcomes.fails(), 0u) << "n=" << n;
  }
}

TEST(SyncBroadcastLead, OutcomeIsSumOfSecrets) {
  const int n = 7;
  ScenarioSpec spec = sync_spec("sync-broadcast-lead", n, 2);
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

TEST(SyncRingLead, HonestElectsValidLeader) {
  for (int n : {2, 3, 9, 16}) {
    const auto result = run_scenario(sync_spec("sync-ring-lead", n, 15));
    EXPECT_EQ(result.outcomes.fails(), 0u) << "n=" << n;
  }
}

TEST(SyncRingLead, MatchesBroadcastOutcome) {
  // Same secrets (same tapes), same sum: the two synchronous protocols
  // agree trial for trial.
  ScenarioSpec bc = sync_spec("sync-broadcast-lead", 9, 20);
  bc.record_outcomes = true;
  ScenarioSpec ring = bc;
  ring.protocol = "sync-ring-lead";
  EXPECT_EQ(run_scenario(bc).per_trial, run_scenario(ring).per_trial);
}

// --- deviations --------------------------------------------------------------

/// Broadcasts one round late — the rushing move that wins in asynchrony.
class LateBroadcaster final : public SyncStrategy {
 public:
  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    const auto n = static_cast<Value>(ctx.network_size());
    if (ctx.round() == 1) return;  // wait: see everyone's secrets first
    if (ctx.round() == 2) {
      Value others = 0;
      for (const auto& [from, m] : inbox) others = (others + m[0]) % n;
      ctx.broadcast({(0 + n - others) % n});  // aim for leader 0
      return;
    }
    ctx.terminate(0);
  }
};

TEST(SyncBroadcastLead, LateBroadcasterIsDetected) {
  // In the synchronous model the round-2 validation sees a missing round-1
  // value: the would-be rushing attack cannot exist.
  const int n = 8;
  SyncBroadcastLeadProtocol protocol;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SyncEngine engine(n, seed);
    StrategyArena arena;
    std::vector<SyncStrategy*> s;
    for (ProcessorId p = 0; p < n; ++p) {
      if (p == 3) {
        s.push_back(arena.emplace<LateBroadcaster>());
      } else {
        s.push_back(protocol.emplace_strategy(arena, p, n));
      }
    }
    EXPECT_TRUE(engine.run(s).failed()) << seed;
  }
}

/// Sends legal but adversarially fixed values in round 1 (the strongest
/// undetectable deviation under synchrony).
class BlindFixedValue final : public SyncStrategy {
 public:
  explicit BlindFixedValue(Value v) : v_(v) {}
  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    const auto n = static_cast<Value>(ctx.network_size());
    if (ctx.round() == 1) {
      ctx.broadcast({v_ % n});
      return;
    }
    if (static_cast<int>(inbox.size()) != ctx.network_size() - 1) return ctx.abort();
    Value sum = v_ % n;
    for (const auto& [from, m] : inbox) sum = (sum + m[0]) % n;
    ctx.terminate(sum);
  }

 private:
  Value v_;
};

TEST(SyncBroadcastLead, NMinusOneColludersGainNothing) {
  // The paper's k = n-1 resilience: all but one processor collude on fixed
  // values; the single honest uniform secret keeps the outcome uniform.
  const int n = 6;
  SyncBroadcastLeadProtocol protocol;
  std::vector<int> counts(static_cast<std::size_t>(n), 0);
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    SyncEngine engine(n, static_cast<std::uint64_t>(t) * 17 + 3);
    StrategyArena arena;
    std::vector<SyncStrategy*> s;
    for (ProcessorId p = 0; p < n; ++p) {
      if (p == 2) {
        s.push_back(protocol.emplace_strategy(arena, p, n));  // the lone honest one
      } else {
        s.push_back(arena.emplace<BlindFixedValue>(static_cast<Value>(p)));
      }
    }
    const Outcome o = engine.run(s);
    ASSERT_TRUE(o.valid());
    ++counts[static_cast<std::size_t>(o.leader())];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, trials / n, 5 * std::sqrt(trials / static_cast<double>(n)));
  }
}

TEST(SyncRingLead, SilentProcessorDetected) {
  const int n = 7;
  SyncRingLeadProtocol protocol;
  class Silent final : public SyncStrategy {
   public:
    void on_round(SyncContext& ctx, const SyncInbox&) override {
      if (ctx.round() > ctx.network_size()) ctx.terminate(0);
    }
  };
  SyncEngine engine(n, 9);
  StrategyArena arena;
  std::vector<SyncStrategy*> s;
  for (ProcessorId p = 0; p < n; ++p) {
    if (p == 4) {
      s.push_back(arena.emplace<Silent>());
    } else {
      s.push_back(protocol.emplace_strategy(arena, p, n));
    }
  }
  EXPECT_TRUE(engine.run(s).failed());
}

TEST(SyncRingLead, DoubleSenderDetected) {
  const int n = 6;
  SyncRingLeadProtocol protocol;
  class DoubleSender final : public SyncStrategy {
   public:
    void on_round(SyncContext& ctx, const SyncInbox&) override {
      const ProcessorId succ = ring_succ(ctx.id(), ctx.network_size());
      if (ctx.round() == 1) {
        ctx.send(succ, {1});
        ctx.send(succ, {2});  // off-schedule extra message
        return;
      }
      if (ctx.round() >= ctx.network_size()) ctx.terminate(0);
    }
  };
  SyncEngine engine(n, 4);
  StrategyArena arena;
  std::vector<SyncStrategy*> s;
  for (ProcessorId p = 0; p < n; ++p) {
    if (p == 1) {
      s.push_back(arena.emplace<DoubleSender>());
    } else {
      s.push_back(protocol.emplace_strategy(arena, p, n));
    }
  }
  EXPECT_TRUE(engine.run(s).failed());
}

}  // namespace
}  // namespace fle

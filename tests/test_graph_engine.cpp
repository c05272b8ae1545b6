// General-topology asynchronous engine: link FIFO order, invalid
// destinations, quiescence, scheduler variants.

#include <gtest/gtest.h>

#include <stdexcept>

#include "api/scenario.h"
#include "sim/graph_engine.h"

namespace fle {
namespace {

/// Sends `count` numbered messages to a fixed destination at wake-up.
class GraphBurst final : public GraphStrategy {
 public:
  GraphBurst(ProcessorId to, int count) : to_(to), count_(count) {}
  void on_init(GraphContext& ctx) override {
    for (int i = 0; i < count_; ++i) ctx.send(to_, {static_cast<Value>(i)});
  }
  void on_receive(GraphContext& ctx, ProcessorId, const GraphMessage&) override {
    ctx.terminate(0);
  }

 private:
  ProcessorId to_;
  int count_;
};

/// Records (from, first value) pairs; terminates after `expect` receives.
class GraphRecorder final : public GraphStrategy {
 public:
  GraphRecorder(std::vector<std::pair<ProcessorId, Value>>* sink, int expect)
      : sink_(sink), expect_(expect) {}
  void on_receive(GraphContext& ctx, ProcessorId from, const GraphMessage& m) override {
    sink_->push_back({from, m.empty() ? ~0ull : m[0]});
    if (static_cast<int>(sink_->size()) >= expect_) {
      for (ProcessorId p = 0; p < ctx.network_size(); ++p) {
        if (p != ctx.id()) ctx.send(p, {0});
      }
      ctx.terminate(0);
    }
  }

 private:
  std::vector<std::pair<ProcessorId, Value>>* sink_;
  int expect_;
};

TEST(GraphEngine, PerLinkFifoOrder) {
  std::vector<std::pair<ProcessorId, Value>> received;
  GraphEngine engine(3, 1);
  GraphBurst a(2, 4), b(2, 4);
  GraphRecorder recorder(&received, 8);
  GraphStrategy* s[] = {&a, &b, &recorder};
  const Outcome o = engine.run(s);
  EXPECT_TRUE(o.valid());
  // Per-sender subsequences must be 0,1,2,3 in order.
  for (ProcessorId sender : {0, 1}) {
    Value expect = 0;
    for (const auto& [from, v] : received) {
      if (from != sender) continue;
      EXPECT_EQ(v, expect);
      ++expect;
    }
    EXPECT_EQ(expect, 4u);
  }
}

TEST(GraphEngine, SelfSendRejected) {
  GraphEngine engine(2, 1);
  class SelfSend final : public GraphStrategy {
   public:
    void on_init(GraphContext& ctx) override { ctx.send(ctx.id(), {1}); }
    void on_receive(GraphContext&, ProcessorId, const GraphMessage&) override {}
  };
  SelfSend a, b;
  GraphStrategy* s[] = {&a, &b};
  EXPECT_THROW(engine.run(s), std::invalid_argument);
}

TEST(GraphEngine, QuiescenceWithoutTerminationFails) {
  class Silent final : public GraphStrategy {
   public:
    void on_receive(GraphContext&, ProcessorId, const GraphMessage&) override {}
  };
  GraphEngine engine(3, 1);
  Silent a, b, c;
  GraphStrategy* s[] = {&a, &b, &c};
  const Outcome o = engine.run(s);
  EXPECT_TRUE(o.failed());
  EXPECT_EQ(engine.stats().deliveries, 0u);
}

TEST(GraphEngine, StepLimitStopsPingPong) {
  class PingPong final : public GraphStrategy {
   public:
    void on_init(GraphContext& ctx) override {
      if (ctx.id() == 0) ctx.send(1, {0});
    }
    void on_receive(GraphContext& ctx, ProcessorId from, const GraphMessage& m) override {
      ctx.send(from, m);
    }
  };
  GraphEngineOptions options;
  options.step_limit = 64;
  GraphEngine engine(2, 1, std::move(options));
  PingPong a, b;
  GraphStrategy* s[] = {&a, &b};
  EXPECT_TRUE(engine.run(s).failed());
  EXPECT_TRUE(engine.stats().step_limit_hit);
}

TEST(GraphEngine, PrioritySchedulerIsRefused) {
  // The priority scheduler is ring-only.  The engine refuses it, and so
  // does the scenario layer for a spec whose trial window is empty, which
  // builds no engine.
  GraphEngineOptions options;
  options.schedule = SchedulerKind::kPriority;
  EXPECT_THROW(GraphEngine(4, 1, options), std::invalid_argument);
  ScenarioSpec spec;
  spec.topology = TopologyKind::kGraph;
  spec.protocol = "shamir-lead";
  spec.scheduler = SchedulerKind::kPriority;
  spec.n = 6;
  spec.trials = 4;
  spec.trial_offset = 4;
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
}

TEST(GraphEngine, MessagesToTerminatedVanish) {
  class StopImmediately final : public GraphStrategy {
   public:
    void on_init(GraphContext& ctx) override { ctx.terminate(0); }
    void on_receive(GraphContext&, ProcessorId, const GraphMessage&) override {}
  };
  class Sender final : public GraphStrategy {
   public:
    void on_init(GraphContext& ctx) override {
      ctx.send(1, {7});
      ctx.terminate(0);
    }
    void on_receive(GraphContext&, ProcessorId, const GraphMessage&) override {}
  };
  GraphEngine engine(2, 1);
  Sender sender;
  StopImmediately stopper;
  GraphStrategy* s[] = {&sender, &stopper};
  const Outcome o = engine.run(s);
  EXPECT_TRUE(o.valid());
  EXPECT_EQ(engine.stats().received[1], 0u);
}

TEST(GraphEngine, CountsSentAndReceived) {
  std::vector<std::pair<ProcessorId, Value>> received;
  GraphEngine engine(2, 1);
  GraphBurst burst(1, 5);
  GraphRecorder recorder(&received, 5);
  GraphStrategy* s[] = {&burst, &recorder};
  ASSERT_TRUE(engine.run(s).valid());
  EXPECT_EQ(engine.stats().sent[0], 5u);
  EXPECT_EQ(engine.stats().received[1], 5u);
}

}  // namespace
}  // namespace fle

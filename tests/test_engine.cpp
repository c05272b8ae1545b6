// Deterministic engine semantics: FIFO delivery, quiescence, step bounds,
// outcome aggregation, instrumentation.

#include <gtest/gtest.h>

#include "sim/engine.h"

namespace fle {
namespace {

/// Sends `burst` values at wake-up, then terminates on the first receive.
class BurstThenStop final : public RingStrategy {
 public:
  explicit BurstThenStop(int burst, Value output = 0) : burst_(burst), output_(output) {}
  void on_init(RingContext& ctx) override {
    for (int i = 0; i < burst_; ++i) ctx.send(static_cast<Value>(i));
  }
  void on_receive(RingContext& ctx, Value) override { ctx.terminate(output_); }

 private:
  int burst_;
  Value output_;
};

/// Forwards everything forever (never terminates).
class Forwarder final : public RingStrategy {
 public:
  void on_receive(RingContext& ctx, Value v) override { ctx.send(v); }
};

/// Records received values; terminates after `count` receives.
class Recorder final : public RingStrategy {
 public:
  Recorder(std::vector<Value>* sink, int count, Value output)
      : sink_(sink), count_(count), output_(output) {}
  void on_receive(RingContext& ctx, Value v) override {
    sink_->push_back(v);
    if (static_cast<int>(sink_->size()) >= count_) ctx.terminate(output_);
  }

 private:
  std::vector<Value>* sink_;
  int count_;
  Value output_;
};

TEST(Engine, FifoOrderOnLink) {
  std::vector<Value> received;
  RingEngine engine(2, 1);
  BurstThenStop sender(5, 0);  // p0 sends 0..4 to p1
  Recorder recorder(&received, 5, 0);
  RingStrategy* s[] = {&sender, &recorder};
  const Outcome o = engine.run(s);
  ASSERT_EQ(received, (std::vector<Value>{0, 1, 2, 3, 4}));
  // p1 terminated with 0; p0 terminated on the message p1 sent? p1 sent
  // nothing, so p0 never terminates => FAIL.
  EXPECT_TRUE(o.failed());
}

TEST(Engine, OutcomeValidWhenAllAgree) {
  class Agree final : public RingStrategy {
   public:
    void on_init(RingContext& ctx) override { ctx.send(0); }
    void on_receive(RingContext& ctx, Value) override { ctx.terminate(2); }
  };
  RingEngine engine(3, 1);
  Agree a, b, c;
  RingStrategy* s[] = {&a, &b, &c};
  EXPECT_EQ(engine.run(s), Outcome::elected(2));
}

TEST(Engine, OutcomeFailsOnDisagreement) {
  class OutputOwnId final : public RingStrategy {
   public:
    void on_init(RingContext& ctx) override { ctx.send(0); }
    void on_receive(RingContext& ctx, Value) override {
      ctx.terminate(static_cast<Value>(ctx.id()));
    }
  };
  RingEngine engine(3, 1);
  OutputOwnId a, b, c;
  RingStrategy* s[] = {&a, &b, &c};
  EXPECT_TRUE(engine.run(s).failed());
}

TEST(Engine, OutcomeFailsOnAbort) {
  class Aborter final : public RingStrategy {
   public:
    void on_init(RingContext& ctx) override { ctx.send(0); }
    void on_receive(RingContext& ctx, Value) override { ctx.abort(); }
  };
  RingEngine engine(2, 1);
  Aborter a, b;
  RingStrategy* s[] = {&a, &b};
  EXPECT_TRUE(engine.run(s).failed());
}

TEST(Engine, OutcomeFailsOnOutOfRangeOutput) {
  class BigOutput final : public RingStrategy {
   public:
    void on_init(RingContext& ctx) override { ctx.send(0); }
    void on_receive(RingContext& ctx, Value) override {
      ctx.terminate(static_cast<Value>(ctx.ring_size()) + 5);
    }
  };
  RingEngine engine(2, 1);
  BigOutput a, b;
  RingStrategy* s[] = {&a, &b};
  EXPECT_TRUE(engine.run(s).failed());
}

TEST(Engine, QuiescenceWithoutTerminationFails) {
  RingEngine engine(2, 1);
  Forwarder a, b;  // nobody ever sends first
  RingStrategy* s[] = {&a, &b};
  const Outcome o = engine.run(s);
  EXPECT_TRUE(o.failed());
  EXPECT_EQ(engine.stats().deliveries, 0u);
  EXPECT_FALSE(engine.stats().step_limit_hit);
}

TEST(Engine, StepLimitStopsInfiniteForwarding) {
  EngineOptions options;
  options.step_limit = 500;
  RingEngine engine(2, 1, std::move(options));
  BurstThenStop starter(1);  // seeds one message...
  Forwarder forwarder;       // ...that circulates forever
  RingStrategy* s[] = {&starter, &forwarder};
  // p0 terminates on first receive; p1 keeps forwarding to p0 whose inbox
  // drains into a terminated processor; execution quiesces... unless p0's
  // termination happens late.  Either way the engine must stop.
  const Outcome o = engine.run(s);
  EXPECT_TRUE(o.failed());
}

TEST(Engine, StepLimitHitFlagOnRunaway) {
  class PingPong final : public RingStrategy {
   public:
    void on_init(RingContext& ctx) override { ctx.send(0); }
    void on_receive(RingContext& ctx, Value v) override { ctx.send(v + 1); }
  };
  EngineOptions options;
  options.step_limit = 100;
  RingEngine engine(2, 1, std::move(options));
  PingPong a, b;
  RingStrategy* s[] = {&a, &b};
  const Outcome o = engine.run(s);
  EXPECT_TRUE(o.failed());
  EXPECT_TRUE(engine.stats().step_limit_hit);
  EXPECT_EQ(engine.stats().deliveries, 100u);
}

TEST(Engine, MessagesToTerminatedProcessorsVanish) {
  // p1 acks once then terminates; p0's remaining burst messages to the
  // terminated p1 must vanish without disturbing the outcome.
  class AckOnceThenStop final : public RingStrategy {
   public:
    void on_receive(RingContext& ctx, Value) override {
      ctx.send(0);
      ctx.terminate(1);
    }
  };
  RingEngine engine(2, 1);
  BurstThenStop sender(3, 1);  // p0: sends 3, stops on recv
  AckOnceThenStop acker;       // p1: ack, stop after 1
  RingStrategy* s[] = {&sender, &acker};
  const Outcome o = engine.run(s);
  EXPECT_TRUE(o.valid());  // both terminated with output 1
  EXPECT_EQ(o.leader(), 1u);
  EXPECT_EQ(engine.stats().received[1], 1u);  // 2 burst messages vanished
}

TEST(Engine, SendAfterTerminateThrows) {
  class Bad final : public RingStrategy {
   public:
    void on_init(RingContext& ctx) override {
      ctx.terminate(0);
      ctx.send(1);  // illegal
    }
    void on_receive(RingContext&, Value) override {}
  };
  RingEngine engine(2, 1);
  Bad bad;
  Forwarder forwarder;
  RingStrategy* s[] = {&bad, &forwarder};
  EXPECT_THROW(engine.run(s), std::logic_error);
}

TEST(Engine, DoubleTerminateThrows) {
  class Bad final : public RingStrategy {
   public:
    void on_init(RingContext& ctx) override {
      ctx.terminate(0);
      ctx.terminate(0);
    }
    void on_receive(RingContext&, Value) override {}
  };
  RingEngine engine(2, 1);
  Bad bad;
  Forwarder forwarder;
  RingStrategy* s[] = {&bad, &forwarder};
  EXPECT_THROW(engine.run(s), std::logic_error);
}

TEST(Engine, RejectsTooSmallRings) {
  EXPECT_THROW(RingEngine(1, 0), std::invalid_argument);
}

TEST(Engine, RejectsWrongStrategyCount) {
  RingEngine engine(3, 1);
  Forwarder forwarder;
  RingStrategy* s[] = {&forwarder};
  EXPECT_THROW(engine.run(s), std::invalid_argument);
}

TEST(Engine, ObserverSeesEveryDelivery) {
  std::uint64_t observed = 0;
  EngineOptions options;
  options.observer = [&](std::uint64_t step, ProcessorId, Value,
                         std::span<const std::uint64_t>) {
    observed = step;
  };
  RingEngine engine(2, 1, std::move(options));
  std::vector<Value> received;
  BurstThenStop sender(4, 0);
  Recorder recorder(&received, 4, 0);
  RingStrategy* s[] = {&sender, &recorder};
  (void)engine.run(s);
  EXPECT_EQ(observed, engine.stats().deliveries);
  EXPECT_GE(observed, 4u);
}

TEST(Engine, SyncGapTracksSpread) {
  // p0 bursts 10 messages while p1 answers nothing: gap 10.
  RingEngine engine(2, 1);
  std::vector<Value> received;
  BurstThenStop sender(10, 0);
  Recorder recorder(&received, 10, 0);
  RingStrategy* s[] = {&sender, &recorder};
  (void)engine.run(s);
  EXPECT_EQ(engine.stats().max_sync_gap, 10u);
}

}  // namespace
}  // namespace fle

// Deterministic engine semantics: FIFO delivery, quiescence, step bounds,
// outcome aggregation, instrumentation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/scenario.h"
#include "attacks/coalition.h"
#include "attacks/random_location.h"
#include "scenario_pin.h"
#include "sim/engine.h"
#include "verify/fuzzer.h"

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

struct EnginePinRow {
  ScenarioSpec spec;
  ScenarioPin expected;
};

ScenarioSpec scalar_spec(const std::string& line) {
  ScenarioSpec spec = verify::parse_spec(line);
  spec.engine = EngineKind::kScalar;
  return spec;
}

std::vector<EnginePinRow> engine_pin_rows() {
  std::vector<EnginePinRow> rows;
  const auto add = [&rows](ScenarioSpec spec, ScenarioPin expected) {
    rows.push_back({std::move(spec), std::move(expected)});
  };

  // Honest kernels under each built-in scheduler.
  add(scalar_spec("protocol=alead-uni n=16 trials=12 seed=3"),
      {"2 10 4 15 10 6 0 2 0 8 7 4", 3072, 256, 12, 1, 0x308554e7cb5f9f39ull});
  add(scalar_spec("protocol=alead-uni scheduler=random n=16 trials=12 seed=4"),
      {"10 9 14 8 4 5 4 6 10 7 6 5", 3072, 256, 12, 1, 0x9ff4e279d91309e2ull});
  add(scalar_spec("protocol=alead-uni scheduler=priority n=16 trials=12 seed=5"),
      {"11 12 14 8 4 6 5 2 15 7 6 14", 3072, 256, 12, 1, 0x1c8a0fecdb13eaf2ull});
  add(scalar_spec("protocol=basic-lead n=16 trials=12 seed=6"),
      {"7 9 13 10 3 11 7 3 4 2 12 5", 3072, 256, 12, 1, 0x6eec57e3a2306e77ull});
  add(scalar_spec("protocol=basic-lead scheduler=random n=16 trials=12 seed=7"),
      {"1 3 7 4 11 15 8 15 0 5 1 1", 3072, 256, 70, 7, 0x2675a86068efb7adull});
  add(scalar_spec("protocol=basic-lead scheduler=priority n=16 trials=12 seed=8"),
      {"3 2 11 4 7 3 1 1 13 12 12 3", 3072, 256, 180, 15, 0x8f1eb4d29b92afcbull});
  add(scalar_spec("protocol=chang-roberts n=16 trials=12 seed=9"),
      {"8 1 2 9 15 15 7 5 10 0 14 0", 846, 89, 55, 6, 0x3fbaf4f24dca67dcull});
  add(scalar_spec("protocol=chang-roberts scheduler=random n=16 trials=12 seed=10"),
      {"7 14 9 7 14 5 5 13 6 7 10 9", 869, 91, 57, 7, 0x53976c2c6e320bbull});
  add(scalar_spec("protocol=chang-roberts scheduler=priority n=16 trials=12 seed=11"),
      {"12 0 8 15 2 6 13 13 3 2 3 9", 876, 83, 57, 7, 0x4b6ad0b0dca2b69full});
  // Peterson and the indexing wrapper, which emplaces its inner strategy
  // mid-run.
  add(scalar_spec("protocol=peterson scheduler=random n=16 trials=12 seed=12"),
      {"7 13 6 2 4 7 12 5 14 3 7 14", 1408, 128, 30, 3, 0x1b697d6d4fa6db23ull});
  add(scalar_spec("protocol=indexing+alead-uni scheduler=random n=16 trials=12 seed=13"),
      {"2 5 15 5 13 7 2 7 5 10 7 8", 3264, 272, 24, 2, 0x4903a43920531920ull});
  // PhaseAsyncLead, the two-message-per-round protocol.
  add(scalar_spec("protocol=phase-async-lead n=27 trials=8 seed=14"),
      {"1 20 21 0 2 0 2 24", 11664, 1458, 16, 2, 0x578b9ccdfe2a492aull});
  add(scalar_spec("protocol=phase-async-lead scheduler=random n=27 trials=8 seed=15"),
      {"26 1 3 12 8 19 21 4", 11664, 1458, 16, 2, 0x47afba3b4ae41f49ull});
  {
    // e04's cubic staircase shape (Theorem 4.3).
    const int n = 64;
    ScenarioSpec spec = scalar_spec("protocol=alead-uni deviation=cubic n=64 trials=6 seed=64");
    spec.coalition = CoalitionSpec::cubic_staircase(Coalition::cubic_min_k(n));
    spec.target = static_cast<Value>(n / 2);
    add(std::move(spec), {"32 32 32 32 32 32", 24576, 4096, 120, 20, 0x8eacddf882340aa9ull});
  }
  {
    // e03's random-location shape (Theorem C.1) at C = 4.
    const int n = 100;
    ScenarioSpec spec =
        scalar_spec("protocol=alead-uni deviation=random-location n=100 trials=6 seed=100");
    spec.coalition =
        CoalitionSpec::bernoulli(RandomLocationDeviation::recommended_density(n), 4);
    spec.target = 3;
    spec.prefix = 4;
    add(std::move(spec), {"3 3 3 3 3 3", 60000, 10000, 318, 53, 0x589d8461eece07b0ull});
  }
  add(scalar_spec("protocol=alead-uni deviation=rushing placement=equally-spaced k=4 first=1 "
                  "target=5 scheduler=random n=16 trials=12 seed=16"),
      {"5 5 5 5 5 5 5 5 5 5 5 5", 3072, 256, 60, 5, 0x42296c10574c2917ull});
  add(scalar_spec("protocol=basic-lead deviation=basic-single placement=custom members=5 "
                  "target=7 scheduler=priority n=16 trials=12 seed=17"),
      {"7 7 7 7 7 7 7 7 7 7 7 7", 3072, 256, 180, 15, 0x2af6e3b563a97070ull});
  // e08's phase-sum shape (Appendix E.4).
  add(scalar_spec("protocol=phase-sum-lead deviation=phase-sum target=29 n=32 trials=6 "
                  "seed=160"),
      {"29 29 29 29 29 29", 12288, 2048, 18, 3, 0xf6ed28a724c54a3eull});
  add(scalar_spec("protocol=alead-uni deviation=tamper-duplicate placement=custom members=3 "
                  "scheduler=random n=16 trials=12 seed=18 tamper_send=2"),
      {"F F F F F F F F F F F F", 3084, 257, 24, 2, 0xfdc8f5acc87eda62ull});
  // A step limit below one honest run: every trial starves.
  add(scalar_spec("protocol=basic-lead n=10 trials=12 seed=19 step_limit=35"),
      {"F F F F F F F F F F F F", 540, 45, 12, 1, 0xf1ca38daf45e35full});
  return rows;
}

TEST(EnginePins, ScalarRingRunsArePinned) {
  // Recorded on the engine before its delivery loop was specialised per
  // (scheduler, hooks): a change to pick order, tape draws, the sync-gap
  // histogram or the event stream moves these.  Each row also runs without
  // transcripts, the hook-free loop, which must agree on everything else.
  for (const EnginePinRow& row : engine_pin_rows()) {
    SCOPED_TRACE(verify::format_spec(row.spec));
    const ScenarioPin plain = run_pinned(row.spec, /*transcribe=*/false);
    const ScenarioPin hooked = run_pinned(row.spec);
    EXPECT_EQ(plain.outcomes, hooked.outcomes);
    EXPECT_EQ(plain.total_messages, hooked.total_messages);
    EXPECT_EQ(plain.max_messages, hooked.max_messages);
    EXPECT_EQ(plain.total_sync_gap, hooked.total_sync_gap);
    EXPECT_EQ(plain.max_sync_gap, hooked.max_sync_gap);

    const ScenarioPin& want = row.expected;
    EXPECT_EQ(hooked.outcomes, want.outcomes);
    EXPECT_EQ(hooked.total_messages, want.total_messages);
    EXPECT_EQ(hooked.max_messages, want.max_messages);
    EXPECT_EQ(hooked.total_sync_gap, want.total_sync_gap);
    EXPECT_EQ(hooked.max_sync_gap, want.max_sync_gap);
    EXPECT_EQ(hooked.transcripts, want.transcripts) << "row: " << pin_literal(hooked);
  }
}

}  // namespace
}  // namespace fle

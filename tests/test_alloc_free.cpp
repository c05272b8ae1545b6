// Acceptance check for the zero-allocation execution model (DESIGN.md §4):
// once a reusable workspace is warm, a steady-state trial on the ring path
// — engine reset, arena rewind, strategy emplacement, full execution — and
// a trial served by the closed-form layer perform zero heap allocations.  Verified with a counting global
// operator new installed for this test binary only.

#include <gtest/gtest.h>

#include "core/counting_new.inc"

#include <memory>
#include <span>
#include <vector>

#include "api/specialize.h"
#include "attacks/basic_single.h"
#include "attacks/deviation.h"
#include "attacks/tamper.h"
#include "protocols/alead_uni.h"
#include "protocols/basic_lead.h"
#include "protocols/indexing.h"
#include "protocols/shamir_lead.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "sim/graph_engine.h"
#include "sim/lane_engine.h"
#include "sim/sync_engine.h"

namespace fle {
namespace {

std::uint64_t allocations() {
  return counting_new::allocations.load(std::memory_order_relaxed);
}

TEST(ZeroAllocation, ReusedRingTrialWithArenaIsAllocationFree) {
  // Scalar-state strategies, and the two wrappers that build their inner
  // strategy in the same arena (indexing does so mid-run).  The tamper
  // target lies past the adversary's last send, so that trial still elects.
  const BasicLeadProtocol basic;
  const ALeadUniProtocol alead;
  const IndexingProtocol indexing(std::make_shared<ALeadUniProtocol>());
  const TamperDeviation tamper(16, /*adversary=*/5, alead, TamperKind::kFlipValue,
                               /*target_send=*/1000);
  struct Case {
    const char* name;
    const RingProtocol* protocol;
    const Deviation* deviation;
    int n;
  };
  for (const Case& c : {Case{"basic-lead", &basic, nullptr, 64},
                        Case{"alead-uni", &alead, nullptr, 32},
                        Case{"indexing+alead-uni", &indexing, nullptr, 16},
                        Case{"tamper-flip past the end", &alead, &tamper, 16}}) {
    RingEngine engine(c.n, 1);
    StrategyArena arena;
    std::vector<RingStrategy*> profile;
    const auto trial = [&](std::uint64_t seed) {
      engine.reset(seed);
      arena.rewind();
      compose_profile_into(*c.protocol, c.deviation, c.n, arena, profile);
      return engine.run(profile);
    };

    // Warm-up: first trials size the arena chunks, queues and stat vectors.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) ASSERT_TRUE(trial(seed).valid()) << c.name;

    const std::uint64_t before = allocations();
    const Outcome outcome = trial(1234);
    const std::uint64_t after = allocations();
    EXPECT_TRUE(outcome.valid()) << c.name;
    EXPECT_EQ(after - before, 0u) << c.name << ": steady-state ring trial allocated";
  }
}

TEST(ZeroAllocation, AdversarialRingTrialSubstrateIsAllocationFree) {
  // The adversary's strategy buffers the honest stream in a private vector,
  // so a deviated trial is not literally allocation-free — but the
  // substrate (engine, inboxes, contexts, scheduler, arena, composition)
  // contributes nothing: the per-trial allocation count is exactly the
  // adversary's deterministic scratch growth, identical every trial, and
  // an honest trial on the same reused engine is back to zero.
  const int n = 32;
  BasicLeadProtocol protocol;
  BasicSingleDeviation deviation(n, /*adversary=*/3, /*target=*/7);
  RingEngine engine(n, 1);
  StrategyArena arena;
  std::vector<RingStrategy*> profile;

  const auto trial = [&](std::uint64_t seed, const Deviation* dev) {
    engine.reset(seed);
    arena.rewind();
    compose_profile_into(protocol, dev, n, arena, profile);
    return engine.run(std::span<RingStrategy* const>(profile));
  };

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(trial(seed, &deviation).valid());
  }

  const std::uint64_t before_a = allocations();
  ASSERT_TRUE(trial(99, &deviation).valid());
  const std::uint64_t scratch_a = allocations() - before_a;

  const std::uint64_t before_b = allocations();
  ASSERT_TRUE(trial(100, &deviation).valid());
  const std::uint64_t scratch_b = allocations() - before_b;

  EXPECT_EQ(scratch_a, scratch_b) << "substrate leaked allocations between trials";
  // buffered_ grows 1 -> n-1 by doubling: a handful of vector growths.
  EXPECT_LE(scratch_a, 8u);

  ASSERT_TRUE(trial(101, nullptr).valid());  // honest warm-up on same engine
  const std::uint64_t before_honest = allocations();
  ASSERT_TRUE(trial(102, nullptr).valid());
  EXPECT_EQ(allocations() - before_honest, 0u);
}

// Minimal scalar-state graph protocol: a token (empty message, so the
// payload vector never allocates) walks the ring embedded in the complete
// graph; every processor terminates with 0 on first receipt.  Exercises the
// engine substrate — link queues, contexts, scheduler, stats — with a
// strategy whose own footprint is provably allocation-free.
class GraphTokenStrategy final : public GraphStrategy {
 public:
  GraphTokenStrategy(ProcessorId id, int n) : id_(id), n_(n) {}

  void on_init(GraphContext& ctx) override {
    if (id_ == 0) ctx.send(ring_succ(id_, n_), GraphMessage{});
  }
  void on_receive(GraphContext& ctx, ProcessorId /*from*/, const GraphMessage&) override {
    if (done_) return;
    done_ = true;
    if (id_ != 0) ctx.send(ring_succ(id_, n_), GraphMessage{});
    ctx.terminate(0);
  }

 private:
  ProcessorId id_;
  int n_;
  bool done_ = false;
};

class GraphTokenProtocol final : public GraphProtocol {
 public:
  GraphStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id,
                                  int n) const override {
    return arena.emplace<GraphTokenStrategy>(id, n);
  }
  const char* name() const override { return "graph-token"; }
};

TEST(ZeroAllocation, ReusedGraphTrialSubstrateIsAllocationFree) {
  const int n = 16;
  GraphTokenProtocol protocol;
  GraphEngine engine(n, 1);
  StrategyArena arena;
  std::vector<GraphStrategy*> profile;

  const auto trial = [&](std::uint64_t seed) {
    engine.reset(seed, /*schedule_seed=*/seed);
    arena.rewind();
    profile.clear();
    for (ProcessorId p = 0; p < n; ++p) {
      profile.push_back(protocol.emplace_strategy(arena, p, n));
    }
    return engine.run(std::span<GraphStrategy* const>(profile));
  };

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Outcome o = trial(seed);
    ASSERT_TRUE(o.valid());
    ASSERT_EQ(o.leader(), 0u);
  }

  const std::uint64_t before = allocations();
  const Outcome outcome = trial(1234);
  const std::uint64_t after = allocations();
  EXPECT_TRUE(outcome.valid());
  EXPECT_EQ(after - before, 0u) << "steady-state graph trial allocated";
}

TEST(ZeroAllocation, ShamirLeadTrialAllocatesOnlyPayloadsAndSetup) {
  // Shamir-LEAD sends real payloads, and a GraphMessage is a std::vector,
  // so each send still allocates once.  Everything else is bounded by a
  // few buffers per processor: the reveal matrix is one flat vector read
  // in place by the shared weight table, so reconstruction allocates
  // nothing.  Budget: one allocation per message plus 10 per processor.
  for (const int n : {8, 16}) {
    const ShamirLeadProtocol protocol(n);
    GraphEngine engine(n, 1);
    StrategyArena arena;
    std::vector<GraphStrategy*> profile;

    const auto trial = [&](std::uint64_t seed) {
      engine.reset(seed, /*schedule_seed=*/seed);
      arena.rewind();
      profile.clear();
      for (ProcessorId p = 0; p < n; ++p) {
        profile.push_back(protocol.emplace_strategy(arena, p, n));
      }
      return engine.run(std::span<GraphStrategy* const>(profile));
    };

    for (std::uint64_t seed = 1; seed <= 3; ++seed) ASSERT_TRUE(trial(seed).valid());

    const std::uint64_t before = allocations();
    const Outcome outcome = trial(1234);
    const std::uint64_t made = allocations() - before;
    EXPECT_TRUE(outcome.valid());
    const std::uint64_t budget = engine.stats().total_sent + 10ull * static_cast<std::uint64_t>(n);
    EXPECT_LE(made, budget) << "n=" << n << ": " << engine.stats().total_sent
                            << " messages sent";
  }
}

// Sync counterpart: round 1 everyone broadcasts an empty message, round 2
// everyone has heard from everyone and terminates with 0.
class SyncEchoStrategy final : public SyncStrategy {
 public:
  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    if (ctx.round() == 1) {
      ctx.broadcast(GraphMessage{});
      return;
    }
    if (static_cast<int>(inbox.size()) == ctx.network_size() - 1) ctx.terminate(0);
  }
};

class SyncEchoProtocol final : public SyncProtocol {
 public:
  SyncStrategy* emplace_strategy(StrategyArena& arena, ProcessorId, int) const override {
    return arena.emplace<SyncEchoStrategy>();
  }
  const char* name() const override { return "sync-echo"; }
};

TEST(ZeroAllocation, ReusedSyncTrialSubstrateIsAllocationFree) {
  const int n = 16;
  SyncEchoProtocol protocol;
  SyncEngine engine(n, 1);
  StrategyArena arena;
  std::vector<SyncStrategy*> profile;

  const auto trial = [&](std::uint64_t seed) {
    engine.reset(seed);
    arena.rewind();
    profile.clear();
    for (ProcessorId p = 0; p < n; ++p) {
      profile.push_back(protocol.emplace_strategy(arena, p, n));
    }
    return engine.run(std::span<SyncStrategy* const>(profile));
  };

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Outcome o = trial(seed);
    ASSERT_TRUE(o.valid());
    ASSERT_EQ(o.leader(), 0u);
  }

  const std::uint64_t before = allocations();
  const Outcome outcome = trial(1234);
  const std::uint64_t after = allocations();
  EXPECT_TRUE(outcome.valid());
  EXPECT_EQ(after - before, 0u) << "steady-state sync trial allocated";
}

TEST(ZeroAllocation, LaneEngineWindowIsAllocationFree) {
  // The batched lane path (DESIGN.md §10) shares the zero-allocation
  // contract: every trial runs the burst loop over the ring-buffer inbox
  // column, and once the first window establishes the column's high-water
  // capacity, a whole window — trial starts, retirements and all —
  // allocates nothing.
  const int n = 32;
  for (const LaneKernelId kernel :
       {LaneKernelId::kBasicLead, LaneKernelId::kChangRoberts, LaneKernelId::kALeadUni}) {
    LaneEngine engine(n, kernel);
    std::vector<std::uint64_t> seeds(24);
    std::vector<LaneTrialResult> results(24);
    for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 1000 + i;
    engine.run_window(seeds, results);  // warm-up sizes column + vectors

    const std::uint64_t before = allocations();
    engine.run_window(seeds, results);
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "steady-state lane window allocated (" << to_string(kernel) << ")";
    for (const LaneTrialResult& r : results) EXPECT_TRUE(r.outcome.valid());
  }
}

TEST(ZeroAllocation, ClosedFormServingIsAllocationFree) {
  // Serving a trial from the closed-form layer (api/specialize.h) touches
  // only the worker's warm scratch: the token-sum draws live on the stack,
  // and chang-roberts reuses its id permutation and send-count vectors.
  for (const char* protocol : {"basic-lead", "chang-roberts"}) {
    ScenarioSpec spec;
    spec.protocol = protocol;
    spec.n = 32;
    spec.seed = 5150;
    const ClosedFormKind kind = closed_form_kind(spec, /*step_limit=*/4096);
    ASSERT_NE(kind, ClosedFormKind::kNone) << protocol;
    LaneTrialResult trial0;
    trial0.messages = 1024;
    ClosedFormScratch scratch;
    ASSERT_TRUE(closed_form_result(kind, spec, 0, trial0, scratch).outcome.valid());  // warm-up

    std::uint64_t leaders = 0;
    const std::uint64_t before = allocations();
    for (std::size_t trial = 1; trial <= 64; ++trial) {
      leaders += closed_form_result(kind, spec, trial, trial0, scratch).outcome.leader();
    }
    EXPECT_EQ(allocations() - before, 0u) << "warm closed-form serving allocated (" << protocol
                                          << ")";
    EXPECT_GT(leaders, 0u) << protocol;
  }
}

TEST(ZeroAllocation, DeviatedLaneWindowIsAllocationFree) {
  // The deviated kernels' member bursts (replay buffers in the aux column,
  // padding sends) reuse the same flat storage.
  const int n = 12;
  LaneEngineOptions options;
  options.deviation.id = LaneDeviationId::kRushing;
  options.deviation.members = {1, 4, 7, 10};
  options.deviation.segment_lengths = {2, 2, 2, 2};
  options.deviation.target = 5;
  LaneEngine engine(n, LaneKernelId::kALeadUni, options);
  std::vector<std::uint64_t> seeds(16);
  std::vector<LaneTrialResult> results(16);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 3000 + i;
  engine.run_window(seeds, results);  // warm-up

  const std::uint64_t before = allocations();
  engine.run_window(seeds, results);
  EXPECT_EQ(allocations() - before, 0u) << "steady-state deviated lane window allocated";
  for (const LaneTrialResult& r : results) {
    EXPECT_TRUE(r.outcome.valid());
    EXPECT_EQ(r.outcome.leader(), 5u);  // rushing forces the target
  }
}

TEST(ZeroAllocation, SyncLaneWindowIsAllocationFree) {
  // The sync lanes keep every per-processor register and both round boxes
  // in flat columns sized at construction.
  const int n = 16;
  for (const SyncLaneKernelId kernel :
       {SyncLaneKernelId::kSyncBroadcast, SyncLaneKernelId::kSyncRing}) {
    SyncLaneEngine engine(n, kernel);
    std::vector<std::uint64_t> seeds(24);
    std::vector<LaneTrialResult> results(24);
    for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 4000 + i;
    engine.run_window(seeds, results);  // warm-up

    const std::uint64_t before = allocations();
    engine.run_window(seeds, results);
    EXPECT_EQ(allocations() - before, 0u)
        << "steady-state sync lane window allocated (" << to_string(kernel) << ")";
    for (const LaneTrialResult& r : results) EXPECT_TRUE(r.outcome.valid());
  }
}

}  // namespace
}  // namespace fle

#pragma once
// Deterministic asynchronous executor for general-topology networks.
//
// The ring engine (sim/engine.h) exploits the ring's single-incoming-link
// structure; general networks (the paper's fully-connected related-work
// baselines, Section 1.1, and the tree topologies of Section 7) need
// per-link FIFO queues and a scheduler that picks among *links* — still
// oblivious: it never sees message contents.  Messages are value vectors
// (the paper allows unlimited-size messages).
//
// Like the ring engine, one instance is reusable across trials: the link
// queues are flat ring buffers (sim/inbox.h) and reset(trial_seed) clears
// state in place instead of reallocating (DESIGN.md §4).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/types.h"
#include "sim/arena.h"
#include "sim/inbox.h"
#include "sim/scheduler.h"
#include "sim/transcript.h"

namespace fle {

using GraphMessage = std::vector<Value>;

class GraphContext {
 public:
  virtual ~GraphContext() = default;
  /// Send along the link to `to` (the network is fully connected).  FIFO
  /// per link.
  virtual void send(ProcessorId to, GraphMessage message) = 0;
  virtual void terminate(Value output) = 0;
  virtual void abort() = 0;
  [[nodiscard]] virtual ProcessorId id() const = 0;
  [[nodiscard]] virtual int network_size() const = 0;
  virtual RandomTape& tape() = 0;
};

class GraphStrategy {
 public:
  virtual ~GraphStrategy() = default;
  virtual void on_init(GraphContext& /*ctx*/) {}
  virtual void on_receive(GraphContext& ctx, ProcessorId from, const GraphMessage& m) = 0;
};

class GraphProtocol {
 public:
  virtual ~GraphProtocol() = default;
  /// Arena factory; see RingProtocol::emplace_strategy.
  [[nodiscard]] virtual GraphStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                        int n) const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual std::uint64_t honest_message_bound(int n) const {
    return 8ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
  }
};

struct GraphEngineOptions {
  std::uint64_t step_limit = 0;  ///< 0 = 16n^2 + 4096
  /// Round-robin or random over the ready links; the constructor refuses
  /// kPriority, a ring-only scheduler.
  SchedulerKind schedule = SchedulerKind::kRoundRobin;
};

struct GraphExecutionStats {
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> received;
  std::uint64_t total_sent = 0;
  std::uint64_t deliveries = 0;
  bool step_limit_hit = false;
};

class GraphEngine {
 public:
  GraphEngine(int n, std::uint64_t trial_seed, GraphEngineOptions options = {});
  ~GraphEngine();

  GraphEngine(const GraphEngine&) = delete;
  GraphEngine& operator=(const GraphEngine&) = delete;

  /// Rearms for a fresh execution: clears links/outputs/stats in place and
  /// reseeds the tapes and the link schedule, both from `trial_seed`.
  void reset(std::uint64_t trial_seed);

  /// Non-owning profile run; see RingEngine::run.
  Outcome run(std::span<GraphStrategy* const> strategies);

  [[nodiscard]] const GraphExecutionStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::optional<LocalOutput>>& outputs() const {
    return outputs_;
  }
  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] std::uint64_t step_limit() const { return step_limit_; }
  /// The link-schedule family; workspace caches check it before reusing an
  /// engine across scenarios (api/scenario.cpp).
  [[nodiscard]] SchedulerKind schedule_kind() const { return options_.schedule; }

  /// Optional execution transcript (see RingEngine::set_transcript).
  /// Deliveries record (step, link id = from*n + to, payload fold); the
  /// payload itself is a value vector, so the stream carries its
  /// transcript_fold fingerprint.
  void set_transcript(ExecutionTranscript* transcript) { transcript_ = transcript; }
  [[nodiscard]] ExecutionTranscript* transcript() const { return transcript_; }

 private:
  class Context;
  friend class Context;

  [[nodiscard]] int link_index(ProcessorId from, ProcessorId to) const {
    return from * n_ + to;
  }
  void enqueue(ProcessorId from, ProcessorId to, GraphMessage m);
  void deliver(int link);
  void mark_ready(int link);
  void unmark_ready(int link);

  int n_;
  std::uint64_t trial_seed_;
  GraphEngineOptions options_;
  std::uint64_t step_limit_;
  Xoshiro256 schedule_rng_;
  std::uint64_t rr_cursor_ = 0;
  bool armed_ = false;
  ExecutionTranscript* transcript_ = nullptr;

  std::span<GraphStrategy* const> strategies_;
  std::vector<Context> contexts_;
  std::vector<FlatQueue<GraphMessage>> links_;  ///< indexed by link_index
  std::vector<std::optional<LocalOutput>> outputs_;
  std::vector<bool> terminated_;

  std::vector<int> ready_;
  std::vector<int> ready_pos_;

  GraphExecutionStats stats_;
};

}  // namespace fle

#pragma once
// Synchronous lockstep executor (paper Section 1.1: the synchronous
// fully-connected and synchronous ring scenarios, where Abraham et al.'s
// protocols achieve optimal k = n-1 resilience).
//
// Time advances in global rounds: every message sent in round r is
// delivered at the start of round r+1, simultaneously.  Synchrony is the
// resilience mechanism — a processor cannot wait for information before
// committing (its round-r messages are chosen before any round-r delivery),
// and silence is detectable (a missing message in a round is a deviation).

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/types.h"
#include "sim/arena.h"
#include "sim/graph_engine.h"  // GraphMessage
#include "sim/transcript.h"

namespace fle {

/// One delivered message: (sender, payload).
using SyncInbox = std::vector<std::pair<ProcessorId, GraphMessage>>;

class SyncContext {
 public:
  virtual ~SyncContext() = default;
  /// Queue a message for delivery at the start of the next round.
  virtual void send(ProcessorId to, GraphMessage message) = 0;
  /// Convenience: send to everyone else.
  virtual void broadcast(GraphMessage message) = 0;
  virtual void terminate(Value output) = 0;
  virtual void abort() = 0;
  [[nodiscard]] virtual ProcessorId id() const = 0;
  [[nodiscard]] virtual int network_size() const = 0;
  /// Current round, starting at 1.
  [[nodiscard]] virtual int round() const = 0;
  virtual RandomTape& tape() = 0;
};

class SyncStrategy {
 public:
  virtual ~SyncStrategy() = default;
  /// Called once per round with everything delivered this round (messages
  /// sent in the previous round), sorted by sender.
  virtual void on_round(SyncContext& ctx, const SyncInbox& inbox) = 0;
};

class SyncProtocol {
 public:
  virtual ~SyncProtocol() = default;
  /// Arena factory; see RingProtocol::emplace_strategy.
  [[nodiscard]] virtual SyncStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                       int n) const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual int round_bound(int n) const { return 4 * n + 8; }
};

struct SyncEngineOptions {
  int round_limit = 0;  ///< 0 = 4n + 8
};

struct SyncExecutionStats {
  std::uint64_t total_sent = 0;
  int rounds = 0;
  bool round_limit_hit = false;
};

class SyncEngine {
 public:
  SyncEngine(int n, std::uint64_t trial_seed, SyncEngineOptions options = {});
  ~SyncEngine();

  SyncEngine(const SyncEngine&) = delete;
  SyncEngine& operator=(const SyncEngine&) = delete;

  /// Rearms for a fresh execution (DESIGN.md §4): clears the double-buffered
  /// round inboxes in place and reseeds the tapes.
  void reset(std::uint64_t trial_seed);

  /// Non-owning profile run; see RingEngine::run.
  Outcome run(std::span<SyncStrategy* const> strategies);

  [[nodiscard]] const SyncExecutionStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::optional<LocalOutput>>& outputs() const {
    return outputs_;
  }
  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int round_limit() const { return options_.round_limit; }

  /// Optional execution transcript (see RingEngine::set_transcript).  Each
  /// round opens with a kPhase marker (round, deliveries this round), then
  /// one kDelivery per delivered message (round, receiver, fold of
  /// sender + payload) in the sorted-by-sender order strategies observe.
  void set_transcript(ExecutionTranscript* transcript) { transcript_ = transcript; }
  [[nodiscard]] ExecutionTranscript* transcript() const { return transcript_; }

 private:
  class Context;
  friend class Context;

  int n_;
  std::uint64_t trial_seed_;
  SyncEngineOptions options_;
  bool armed_ = false;
  ExecutionTranscript* transcript_ = nullptr;

  std::vector<Context> contexts_;
  std::vector<std::optional<LocalOutput>> outputs_;
  std::vector<bool> terminated_;
  std::vector<SyncInbox> next_inbox_;   ///< messages for the next round
  std::vector<SyncInbox> round_inbox_;  ///< double buffer: this round's deliveries
  int quiet_rounds_ = 0;
  SyncExecutionStats stats_;
};

}  // namespace fle

#pragma once
// Deterministic asynchronous executor for unidirectional-ring protocols.
//
// Models the paper's asynchronous LOCAL variant (§2): one FIFO link per
// processor pair (i -> i+1 mod n), messages delivered uncorrupted in FIFO
// order under an oblivious schedule, processors acting only on wake-up or
// receipt.  An execution ends at quiescence (no deliverable messages) or at
// a step bound; the outcome is aggregated per the paper's definition
// (non-termination, aborts and disagreement all map to FAIL).
//
// Execution memory model (DESIGN.md §4): one engine instance is meant to be
// reused for every trial a worker executes.  reset(trial_seed) rearms the
// engine for a new execution by clearing — not reallocating — its state:
// inboxes are flat ring buffers (sim/inbox.h), contexts live by value in a
// contiguous vector, and stats vectors are assign()-ed in place.  Combined
// with a StrategyArena for the strategy objects, a steady-state trial on the
// ring path performs zero heap allocations.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/types.h"
#include "sim/arena.h"
#include "sim/inbox.h"
#include "sim/scheduler.h"
#include "sim/strategy.h"
#include "sim/transcript.h"

namespace fle {

/// Counters and instrumentation collected during one execution.
struct ExecutionStats {
  std::vector<std::uint64_t> sent;      ///< messages sent by each processor
  std::vector<std::uint64_t> received;  ///< messages delivered to each processor
  std::uint64_t deliveries = 0;         ///< total delivered messages
  std::uint64_t total_sent = 0;         ///< total sent messages
  bool step_limit_hit = false;

  /// Maximum over time of (max_i sent_i - min_i sent_i), sampled after every
  /// send while no processor has terminated yet.  This is the
  /// synchronization gap of Lemmas D.3/D.5 and §6 ("m-synchronized" means
  /// this stays O(m)).
  std::uint64_t max_sync_gap = 0;
};

/// Per-delivery observer: (step index, receiving processor, message value,
/// per-processor sent counts so far).  Used by the trace module.  An engine
/// built with one runs the hooked delivery loop (see set_transcript).
using DeliveryObserver =
    std::function<void(std::uint64_t, ProcessorId, Value, std::span<const std::uint64_t>)>;

struct EngineOptions {
  /// Hard bound on deliveries; 0 = derive from ring size (8n^2 + 1024).
  std::uint64_t step_limit = 0;
  /// Built-in schedule family, served without a virtual call.  Random and
  /// priority schedules are reseeded from the trial seed on every reset().
  SchedulerKind scheduler_kind = SchedulerKind::kRoundRobin;
  /// Custom scheduler; overrides scheduler_kind when set.  Its internal
  /// state is NOT reseeded by reset() — reuse across trials only with
  /// stateless or intentionally persistent schedulers.
  std::unique_ptr<Scheduler> scheduler;
  DeliveryObserver observer;
};

/// Runs one execution of a strategy vector on an n-ring.
class RingEngine {
 public:
  RingEngine(int n, std::uint64_t trial_seed, EngineOptions options = {});
  ~RingEngine();

  RingEngine(const RingEngine&) = delete;
  RingEngine& operator=(const RingEngine&) = delete;

  /// Rearms the engine for a fresh execution under `trial_seed`: clears
  /// inboxes/outputs/stats in place (no reallocation in steady state),
  /// reseeds every processor's random tape, and restarts the built-in
  /// scheduler.  Called by the constructor; call it again between run()s to
  /// reuse the instance.
  void reset(std::uint64_t trial_seed);

  /// Executes to completion over a non-owning strategy profile (entry i is
  /// processor i's strategy; the caller — typically a StrategyArena — keeps
  /// the objects alive for the duration of the call).  Running twice
  /// without an intervening reset() replays the constructor seed.
  Outcome run(std::span<RingStrategy* const> strategies);

  [[nodiscard]] const ExecutionStats& stats() const { return stats_; }
  /// Local outputs (nullopt = never terminated); valid after run().
  [[nodiscard]] const std::vector<std::optional<LocalOutput>>& outputs() const {
    return outputs_;
  }
  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] std::uint64_t step_limit() const { return step_limit_; }
  [[nodiscard]] SchedulerKind scheduler_kind() const { return scheduler_kind_; }

  /// Attaches (or, with nullptr, detaches) an execution transcript: every
  /// delivery and every terminate/abort decision is recorded into it.  The
  /// pointer survives reset() — callers that reuse one engine across trials
  /// re-point (and clear()) the transcript per trial.  run() picks its
  /// delivery loop once: with neither a transcript nor an observer attached
  /// the loop it runs has no hook in it at all, and the recording-off ring
  /// path stays allocation-free (DESIGN.md §4/§7).
  void set_transcript(ExecutionTranscript* transcript) { transcript_ = transcript; }
  [[nodiscard]] ExecutionTranscript* transcript() const { return transcript_; }

 private:
  class Context;
  friend class Context;

  /// How the delivery loop picks: a built-in schedule family, or the
  /// custom Scheduler's virtual pick.
  enum class PickRule { kRoundRobin, kRandom, kPriority, kCustom };

  /// The delivery loop, one instantiation per (pick rule, hooks): run()
  /// resolves both once, so a delivery tests neither the scheduler kind
  /// nor the transcript and observer.  kHooks = false has no hook at all.
  template <PickRule kRule, bool kHooks>
  void deliver_all();
  template <PickRule kRule>
  void deliver(bool hooks);

  // always_inline: Context::send compiles to the whole enqueue, and the
  // delivery loop to its pick and ready-set updates.  finish() and the
  // priority scan stay out of line: force-inlining rare helpers into the
  // loop cost ~25% on the lane engine (DESIGN.md §10).
  [[gnu::always_inline]] inline void enqueue(ProcessorId from, Value v);
  [[gnu::always_inline]] inline void mark_ready(ProcessorId p);
  [[gnu::always_inline]] inline void unmark_ready(ProcessorId p);
  template <PickRule kRule>
  [[gnu::always_inline]] inline ProcessorId pick_next();
  [[nodiscard]] ProcessorId pick_priority() const;

  int n_;
  std::uint64_t trial_seed_;
  std::uint64_t step_limit_;
  SchedulerKind scheduler_kind_;
  std::unique_ptr<Scheduler> scheduler_;  ///< custom override; usually null
  DeliveryObserver observer_;
  ExecutionTranscript* transcript_ = nullptr;  ///< optional event recording

  // Built-in scheduler state, reseeded by reset(); serving the round-robin
  // default from here removes the virtual pick() from the delivery loop.
  std::uint64_t rr_cursor_ = 0;
  Xoshiro256 sched_rng_;
  std::vector<int> priority_;

  std::span<RingStrategy* const> strategies_;  ///< active profile
  std::vector<Context> contexts_;              ///< by value, reused
  std::vector<FlatQueue<Value>> inbox_;  ///< inbox_[p]: FIFO from pred(p)
  std::vector<std::optional<LocalOutput>> outputs_;
  std::vector<std::uint8_t> terminated_;  ///< a byte per processor, not a bit
  bool armed_ = false;  ///< reset() called since the last run()

  // Ready-set bookkeeping: processors with pending deliveries, in the
  // first ready_count_ slots of an n-slot buffer that never reallocates.
  std::vector<ProcessorId> ready_;
  std::size_t ready_count_ = 0;
  std::vector<int> ready_pos_;  ///< position in ready_, or -1

  // Sync-gap tracking (frozen once any processor terminates).
  // sent_freq_[c] counts processors whose sent count is exactly c; the
  // min/max levels move in O(1) per send (engine.cpp, enqueue).
  std::vector<std::uint64_t> sent_freq_;
  std::uint64_t min_sent_ = 0;
  std::uint64_t max_sent_ = 0;
  bool gap_frozen_ = false;

  ExecutionStats stats_;
};

}  // namespace fle

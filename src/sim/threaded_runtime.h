#pragma once
// Real-thread asynchronous runtime: one std::jthread per processor, blocking
// FIFO channels between ring neighbours.
//
// This is the "manual async plumbing" counterpart of the deterministic
// engine: the OS scheduler provides a genuinely asynchronous (and still
// oblivious — it cannot read message contents) schedule.  On a
// unidirectional ring the paper's §2 argument says all oblivious schedules
// induce the same local computations, so outcomes must match the
// deterministic engine trial-for-trial given the same seed; tests verify
// exactly that.
//
// Quiescence (the paper's "some processor never terminates" FAIL case) is
// detected by a monitor: when every live processor thread is blocked on an
// empty channel and no message is in flight, the execution can never make
// progress again and is stopped.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/types.h"
#include "sim/strategy.h"

namespace fle {

struct ThreadedRuntimeOptions {
  /// Hard bound on total sends; 0 = 8n^2 + 1024.
  std::uint64_t send_limit = 0;
  /// Safety wall-clock bound in milliseconds (0 = 60000).
  std::uint64_t wall_timeout_ms = 0;
};

struct ThreadedRuntimeStats {
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> received;
  /// Accepted sends (the sum of `sent`): a send past the limit is dropped
  /// and not counted, however many threads attempt one before they stop.
  std::uint64_t total_sent = 0;
  bool send_limit_hit = false;
  bool wall_timeout_hit = false;
  bool quiesced = false;  ///< stopped because no progress was possible
};

class ThreadedRuntime {
 public:
  ThreadedRuntime(int n, std::uint64_t trial_seed, ThreadedRuntimeOptions options = {});
  ~ThreadedRuntime();

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  /// Runs the non-owning profile (entry i is processor i's strategy) to
  /// completion (all terminated, quiescence, send limit, or wall timeout)
  /// and aggregates the outcome.  Each strategy's events run on its own
  /// processor's OS thread.  A strategy that builds objects mid-run (the
  /// indexing wrapper emplaces its inner strategy when its position
  /// arrives) does so from that thread, and StrategyArena is not
  /// synchronised: give each processor its own arena.
  Outcome run(std::span<RingStrategy* const> strategies);

  [[nodiscard]] const ThreadedRuntimeStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::optional<LocalOutput>>& outputs() const {
    return outputs_;
  }

  struct Impl;  // public so the per-thread context (an implementation detail
                // in the .cpp) can reach the shared channel state

 private:
  std::unique_ptr<Impl> impl_;

  int n_;
  std::uint64_t trial_seed_;
  ThreadedRuntimeOptions options_;
  ThreadedRuntimeStats stats_;
  std::vector<std::optional<LocalOutput>> outputs_;
};

}  // namespace fle

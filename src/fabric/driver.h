#pragma once
// The fabric driver: run_sweep over a fleet of fle_worker processes.
//
// RemoteExecutor::run_sweep is the fabric's entry point beside the
// in-process run_sweep (api/sweep.h): it decomposes every scenario's trial
// range into windows, dispatches them to connected workers over the wire
// protocol (wire.h), and folds the returned shard rows back into
// per-scenario ScenarioResults with ScenarioResult::merge.  Because
// per-trial seeds depend only on the global trial index and every
// aggregate is an exact integer, the merged vector is bit-identical to the
// in-process run_sweep — under every worker count, window size, and fault
// schedule (tests/test_fabric.cpp asserts this against seeded FaultPlans).
//
// A transcript window's kResult carries a transcripts-elided row and every
// blob in trial order; that is the only form the driver accepts for it.
// The driver decodes blob t against the row's store_keys[t] (one hash per
// transcript), so a blob in another trial's slot, a blob count that
// differs from the trials, a transcript row with its transcripts inline, a
// row without transcripts that arrives with blobs, or a non-canonical blob
// that hashes to its key refuses the window, which is re-issued like any
// protocol error.
//
// Fault tolerance (DESIGN.md §8):
//  * every dispatched window carries a deadline; a worker that misses it
//    is dropped and the window re-issued to another worker, with the
//    deadline doubling per attempt (capped) as backoff;
//  * a worker that disconnects, or sends a malformed frame or a row that
//    does not answer its assignment (blobs included), is dropped the same
//    way;
//  * merges are at-most-once: a window's first accepted row wins, the
//    dropped worker's socket is closed so a late duplicate cannot arrive,
//    and ScenarioResult::merge's contiguity checks would reject one that
//    somehow did;
//  * a window re-issued more than max_attempts times fails the sweep with
//    the last per-attempt error;
//  * when the last worker is lost and windows are outstanding, the driver
//    waits worker_grace for new connections, then fails the sweep with a
//    clear diagnostic and nonzero exit (fle_sweep).

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/sweep.h"
#include "fabric/socket.h"

namespace fle::fabric {

struct FabricOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see RemoteExecutor::port()
  /// Expected fleet size; only sizes automatic windows (more planned
  /// workers, smaller windows).  The driver serves however many connect.
  std::size_t planned_workers = 4;
  /// Trials per dispatched window; 0 = automatic via executor_auto_chunk
  /// (api/parallel.h), the same policy the in-process executor uses.
  std::size_t window_trials = 0;
  /// A window is re-issued after this long without a result; doubles per
  /// attempt (capped at 8x) as backoff for genuinely slow scenarios.
  std::chrono::milliseconds window_deadline{10000};
  /// Attempts (initial + re-issues) before a window fails the sweep.
  int max_attempts = 5;
  /// Idle-peer liveness ping period.
  std::chrono::milliseconds heartbeat_interval{1000};
  /// How long the driver tolerates an empty fleet (startup or total loss)
  /// with windows outstanding, and how long an idle peer may stay silent.
  std::chrono::milliseconds worker_grace{15000};
};

/// Transcript-leaf counters of accepted windows: the store keys their rows
/// named and the blobs that crossed the wire.  Every transcript ships, so
/// the two always read equal.
struct DedupStats {
  std::uint64_t keys_offered = 0;
  std::uint64_t blobs_shipped = 0;
};

/// Executes sweeps on remote workers.  Binds its listening socket in the
/// constructor (so port() is known before any worker launches) and serves
/// one run_sweep at a time.
class RemoteExecutor {
 public:
  explicit RemoteExecutor(FabricOptions options = {});

  /// The bound listening port (== options.port unless that was 0).
  [[nodiscard]] std::uint16_t port() const { return listen_.port; }

  /// Dispatches the sweep to whatever workers connect and returns the
  /// merged per-scenario results, bit-identical to in-process run_sweep.
  /// Throws std::runtime_error when a window exhausts max_attempts or the
  /// fleet stays empty past worker_grace with work outstanding, and
  /// std::invalid_argument for specs that cannot travel the wire.
  std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep);

  /// Cumulative leaf counters (across every sweep this executor ran).
  [[nodiscard]] const DedupStats& dedup_stats() const { return dedup_stats_; }

 private:
  FabricOptions options_;
  ListenResult listen_;
  DedupStats dedup_stats_;
};

/// The re-issue deadline for a window on its attempts-th try: base doubled
/// per attempt, capped at 8x — and saturated, because the multiply runs on
/// user-supplied --deadline-ms and `base * 8` on a huge value would
/// overflow std::chrono arithmetic into a deadline in the past (every
/// worker would instantly "miss" it).  The result stays small enough that
/// adding it to steady_clock::now() cannot overflow either.
[[nodiscard]] std::chrono::milliseconds backoff_deadline(std::chrono::milliseconds base,
                                                         int attempts);

/// The canonical JSONL rendering both fle_sweep modes (--local and
/// fabric) write: one shard row per scenario with wall-clock fields
/// zeroed, so "fabric result == monolithic result" is a byte comparison
/// of two files (the CI loopback job does exactly that with cmp).
std::string canonical_report(const SweepSpec& sweep, std::span<const ScenarioResult> results);

}  // namespace fle::fabric

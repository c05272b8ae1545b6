#pragma once
// The trial executor: one persistent worker pool serving every scenario in
// the process.
//
// PR 1 spawned a fresh std::thread pool per run_scenario call; PR 4 replaces
// that with a single long-lived Executor.  A submission is a set of Batches
// (one per scenario); every batch's trials are decomposed into chunk jobs
// served from ONE shared queue, so a worker that drains a small scenario
// immediately steals chunks from whichever scenario still has work — the
// cross-scenario balancing run_sweep (api/sweep.h) is built on.
//
// Determinism contract (unchanged from PR 1, DESIGN.md §3): trial t's seed
// depends only on (base seed, t) where t is the trial's GLOBAL index —
// batches carry a trial_offset so a sharded scenario (ScenarioSpec
// trial_offset/trial_count) seeds exactly like the corresponding window of
// the monolithic run.  Each trial writes into its own slot of the batch's
// output vector and the caller reduces slots in trial order, so outcome
// counts and message stats are bit-identical for every worker count and
// every chunk size.
//
// Workspace caching (DESIGN.md §4/§6): a batch with a workspace factory
// names a WorkspaceKey — (engine family, ring size).  Every executor thread
// keeps a persistent cache of workspaces keyed that way, so two scenarios
// with the same shape reuse one engine + strategy arena per worker even
// across run_scenario / run_sweep calls.  A batch without a factory runs
// its body with a null workspace.  Because trials are independent and
// seeds are per-trial, which worker (and hence which workspace) runs a
// trial cannot affect its result.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/types.h"

namespace fle {

/// Per-trial measurements every runtime can produce (unused fields stay 0).
struct TrialStats {
  Outcome outcome;                ///< default-constructed = FAIL
  std::uint64_t messages = 0;     ///< total sends
  std::uint64_t sync_gap = 0;     ///< ring engine synchronization gap
  int rounds = 0;                 ///< sync engine rounds
};

/// Builds one per-worker workspace (may return null for stateless bodies).
using WorkspaceFactory = std::function<std::shared_ptr<void>()>;

/// Cache key for per-thread workspace reuse across scenarios.  `family`
/// identifies the workspace type (the scenario layer uses 1 = ring,
/// 2 = graph, 3 = sync, 4 = ring lanes, 5 = sync lanes, and 16 + the
/// GraphAdjacency index for restricted graphs); it must be nonzero on a
/// batch that has a workspace factory.  Scenarios sharing a key MUST use
/// workspace objects of the same dynamic type, sized only by `n`.
struct WorkspaceKey {
  int family = 0;
  int n = 0;
};

/// The persistent trial executor.  One process-wide instance (shared())
/// serves every run_scenario and run_sweep call; worker threads are spawned
/// lazily up to the largest parallelism any submission asked for.
class Executor {
 public:
  /// Trial body: global trial index, its seed, this worker's workspace
  /// (null when the batch has no workspace factory).
  using TrialBody =
      std::function<TrialStats(std::size_t trial, std::uint64_t trial_seed, void* workspace)>;

  /// Whole-chunk body: executes local trials [begin, end) of the batch in
  /// one call and writes their `out` slots itself.  This is the seam the
  /// batched lane engine plugs into — the executor hands it whole trial
  /// windows instead of calling `body` per trial, so a worker's window runs
  /// as one lane-engine batch.  Seeds stay the per-trial contract: the body
  /// derives them via scenario_trial_seed(base_seed, trial_offset + t).
  using ChunkBody = std::function<void(std::size_t begin, std::size_t end, void* workspace)>;

  /// One scenario's trial range, ready to execute.
  struct Batch {
    std::size_t trials = 0;        ///< how many trials to run
    std::size_t trial_offset = 0;  ///< global index of the first trial
    std::uint64_t base_seed = 0;   ///< seeds: scenario_trial_seed(base_seed, global)
    WorkspaceKey workspace;        ///< cache key; nonzero family with a factory
    WorkspaceFactory make_workspace;  ///< unset = stateless body (null workspace)
    TrialBody body;
    ChunkBody chunk_body;  ///< when set, replaces `body` for whole jobs
    std::vector<TrialStats>* out = nullptr;  ///< pre-sized to `trials`; slot = local index
  };

  Executor();
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide executor every scenario runs on.
  static Executor& shared();

  /// Runs every batch to completion on up to `threads` workers (0 = one per
  /// hardware core; the calling thread always participates).  Batches are
  /// split into jobs of `chunk` trials (0 = automatic) served from one
  /// shared queue.  The first exception thrown by a trial body or workspace
  /// factory is rethrown here after the queue drains.  Throws
  /// std::invalid_argument for a batch whose `out` is not pre-sized or that
  /// has a workspace factory under family 0.  Submissions from
  /// other threads are serialized; a body that re-enters run() executes its
  /// batches inline on the calling thread (no deadlock, no extra
  /// parallelism).
  void run(std::span<Batch> batches, int threads, std::size_t chunk = 0);

 private:
  struct Job {
    Batch* batch = nullptr;
    std::size_t begin = 0;  ///< local trial indices [begin, end)
    std::size_t end = 0;
  };
  struct Submission;

  void worker_main();
  static void execute_jobs(Submission& submission);
  void ensure_pool(std::size_t workers);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Seed of trial `trial` under base seed `base_seed` (a splitmix64 stream:
/// every trial gets an independently mixed 64-bit seed).
std::uint64_t scenario_trial_seed(std::uint64_t base_seed, std::size_t trial);

/// The executor's automatic chunking policy: enough jobs for every worker
/// to get several, capped so tiny batches still split and huge ones don't
/// flood the queue.  Shared with the fabric driver (src/fabric/driver.h),
/// whose network trial windows are the same unit of work — one policy, two
/// transports.
std::size_t executor_auto_chunk(std::size_t trials, std::size_t workers);

}  // namespace fle

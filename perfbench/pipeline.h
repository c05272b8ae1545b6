#pragma once
// The evidence-fabric pipeline: one sweep through an in-process fabric
// fleet, then the report, shard round trip, store build and store sync a
// user runs to keep and compare the evidence.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/sweep.h"
#include "common.h"
#include "fabric/driver.h"
#include "store/store.h"

namespace perfbench {

/// The fabric worker threads every pipeline run stands up.
inline constexpr int kFabricWorkers = 1;

/// A bound fabric driver, ready for workers to connect.
std::unique_ptr<fle::fabric::RemoteExecutor> bind_fabric();

/// Stands up kFabricWorkers run_worker threads (threads=1 each) against
/// `executor`, runs the sweep on it, and joins them.  Consumes the
/// executor: a fabric driver serves one sweep's fleet.
std::vector<fle::ScenarioResult> run_on_fabric(
    std::unique_ptr<fle::fabric::RemoteExecutor> executor, const fle::SweepSpec& sweep,
    fle::fabric::DedupStats* dedup = nullptr);

struct PipelineRun {
  std::vector<fle::ScenarioResult> results;  ///< from the fabric
  std::string report;                        ///< canonical_report of results
  std::vector<fle::ScenarioResult> merged;   ///< report rows parsed and merged back
  std::size_t rows = 0;
  std::vector<std::uint8_t> store;           ///< store image of the merged captures
  std::uint64_t store_trials = 0;
  std::uint64_t store_unique_blobs = 0;
  std::uint64_t tampered_trial = 0;          ///< the one trial the second store alters
  fle::SyncReport identical;                 ///< store vs a copy of itself
  fle::SyncReport one_diff;                  ///< store vs the one-trial-altered store
  fle::fabric::DedupStats dedup;
};

/// Runs the whole pipeline on a freshly bound executor (which it consumes).
/// With a tracer, every stage is a span.
PipelineRun run_pipeline(std::unique_ptr<fle::fabric::RemoteExecutor> executor,
                         const ParsedWorkload& workload, std::uint64_t seed, Tracer* tracer);

/// The pipeline's own correctness checks, beyond the result digests: the
/// shard round trip reproduces the report exactly, the store synced
/// against itself reads no node, and the altered copy is pinpointed at the
/// altered trial.  Returns one line per failed check.
std::vector<std::string> check_pipeline(const ParsedWorkload& workload, const PipelineRun& run);

}  // namespace perfbench

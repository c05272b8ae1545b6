#pragma once
// The sweep layer: many scenarios, one executor submission.
//
// Every driver in this repo — benches, examples, the conformance suite —
// is a sweep of ScenarioSpecs.  run_scenario executes one spec's trials on
// the shared executor; run_sweep submits EVERY scenario's trial chunks to
// that executor at once, so workers that finish a small scenario (an n=8
// uniformity check, a fuzz spec) immediately steal chunks from whichever
// scenario still has work.  Wall time becomes max-of-chains instead of
// sum-of-scenarios, and per-worker engine workspaces are reused across
// scenarios with the same (topology family, n) shape.
//
// Determinism: each scenario's result is reduced from its own trial slots
// in trial order, and per-trial seeds depend only on (scenario base seed,
// global trial index) — so run_sweep(specs)[i] is bit-identical to
// run_scenario(specs[i]) for every worker count, and for the chunk size the
// executor derives from it (asserted by tests/test_sweep.cpp over the
// e01–e15 bench specs).
//
// The in-process executor is run_sweep's only substrate.  The fabric's
// RemoteExecutor (src/fabric/driver.h) is a separate entry point with the
// same contract: fle_sweep and perfbench call it directly.

#include <cstddef>
#include <vector>

#include "api/scenario.h"

namespace fle {

/// An ordered list of scenarios executed as one batch.  Per-spec `threads`
/// fields are ignored — the sweep's worker count governs the whole batch.
struct SweepSpec {
  std::vector<ScenarioSpec> scenarios;
  int threads = 0;  ///< executor workers for the batch (0 = hardware)

  SweepSpec& add(ScenarioSpec spec) {
    scenarios.push_back(std::move(spec));
    return *this;
  }
};

/// Runs every scenario of the sweep on one shared executor submission and
/// returns the per-scenario results, in sweep order.  Each result is
/// bit-identical to a standalone run_scenario of the same spec.  Throws
/// std::invalid_argument (naming the spec index) if any spec fails
/// validation; nothing executes in that case.  (run_sweep lives in
/// scenario.cpp next to the per-topology job builders it shares with
/// run_scenario.)
std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep);

}  // namespace fle

#pragma once
// Seeded ScenarioSpec generation, invariant fuzzing and shrinking (pillar 3
// of the conformance subsystem).
//
// generate_spec samples a random (topology, protocol, deviation, coalition
// placement, n, scheduler, protocol_key, param_l, trial window, …)
// combination from the live registries — most combinations are valid, some
// are deliberately inconsistent (out-of-range param_l, windows past the
// trial count); the invariant under test is that run_scenario either
// rejects a spec cleanly (std::invalid_argument) or executes it and keeps
// the Scenario API's contracts:
//   * result.trials == the spec's trial window size, and every trial lands
//     in the outcome counter (fails + sum of leader counts == trials);
//   * per_trial is filled iff record_outcomes, with one entry per trial;
//   * the determinism contract: a rerun with a different worker count
//     produces bit-identical outcome counts and message stats;
//   * no other exception type and no crash.
//
// Any violation is shrunk — deviation dropped, trials and n minimized,
// scheduler and placement canonicalized — to a one-line repro string that
// `fle_verify --repro '<line>'` replays (format_spec / parse_spec).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "core/rng.h"
#include "verify/verify.h"

namespace fle::verify {

struct FuzzOptions {
  std::uint64_t seed = 1;   ///< campaign seed: same seed, same specs
  std::size_t specs = 200;  ///< how many specs to generate and run
};

/// One minimized failure.
struct FuzzFailure {
  ScenarioSpec spec;    ///< the shrunk spec
  std::string reason;   ///< which invariant broke, with what values
  std::string repro;    ///< format_spec(spec): one-line repro
};

struct FuzzReport {
  std::size_t executed = 0;  ///< specs that ran (including clean rejections)
  std::size_t rejected = 0;  ///< specs run_scenario rejected with invalid_argument
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool all_passed() const { return failures.empty(); }
  [[nodiscard]] CheckReport as_report() const;
};

/// Registers the fuzz campaign's two non-builtin registry entries
/// (idempotent): 'user-basic-lead' (a user-keyed ring protocol) and
/// 'user-honest-shadow' (a deviation whose "adversaries" play the honest
/// strategy — the negative control for the deviation plumbing).
/// fle_verify --repro calls this too, so repro lines naming user entries
/// replay.
void register_fuzz_user_entries();

/// Samples one spec from the registries, the fuzz user entries among them
/// (the user-registration surface is fuzzed like any builtin).  Sizes are
/// kept small: n in [2, 24] (a quarter of ring specs take n in [25, 64]),
/// at most 6 trials.  Deterministic in the rng state.
ScenarioSpec generate_spec(Xoshiro256& rng);

/// Runs the invariants against one spec, the determinism contract included
/// (a spec of two or more trials is rerun at another worker count).
/// nullopt = spec passed (or was cleanly rejected); otherwise the violated
/// invariant.  Sets `rejected` when the spec was rejected with
/// std::invalid_argument.
std::optional<std::string> run_spec_invariants(const ScenarioSpec& spec,
                                               bool* rejected = nullptr);

/// An oracle maps a spec to nullopt (passes) or a failure reason.
using FuzzOracle = std::function<std::optional<std::string>(const ScenarioSpec&)>;

/// Greedily minimizes a failing spec: drops the deviation, shrinks trials
/// and n, canonicalizes coalition/scheduler/threads — accepting every step
/// on which `oracle` still reports a failure.  Bounded oracle budget.
ScenarioSpec shrink_spec(ScenarioSpec spec, const FuzzOracle& oracle);

/// Runs the whole campaign: generate, check, shrink failures.  Every 8th
/// executed spec also gets a uniformity smoke (distribution regressions,
/// not just crashes): its honest profile is re-run at 200 trials and
/// chi-square-gated against uniform over the protocol's known support.
FuzzReport run_fuzz_campaign(const FuzzOptions& options);

/// Canonical one-line rendering of a spec: space-separated key=value pairs
/// (defaults omitted).  parse_spec inverts it; unknown keys throw.
std::string format_spec(const ScenarioSpec& spec);
ScenarioSpec parse_spec(const std::string& line);

}  // namespace fle::verify

#pragma once
// The curated conformance suite the fle_verify CLI (and the ctest `verify`
// label) runs: every registered protocol gets uniformity + termination
// checks on its honest profile, the paper's resilience claims get
// Wilson-bounded gain checks, the proven attacks get lower-bound
// (attack-floor) checks, the Lemma D.3/D.5 synchronization-gap envelopes
// are gated, and every ring protocol gets differential ring-vs-threaded and
// scheduler-invariance checks.  fle_verify runs the statistical and
// differential sections below and then a seeded fuzz campaign
// (verify/fuzzer.h), timing each section on its own.
// DESIGN.md §5/§6 map each check to the paper theorem it operationalizes.
//
// The statistical section is data first: build_statistical_plan() lists
// every scenario execution the section needs, run_statistical_checks()
// submits them all as ONE sweep (api/sweep.h) so small checks share
// workers with big ones, and the gates are applied to the results.

#include <cstdint>

#include "api/scenario.h"
#include "verify/verify.h"

namespace fle::verify {

struct SuiteOptions {
  std::size_t trials = 10000;        ///< statistical checks (uniformity/resilience)
  std::size_t exact_trials = 64;     ///< exact differential checks (per-trial)
  std::size_t fuzz_specs = 200;      ///< fuzz campaign size
  std::uint64_t seed = 1;
  int threads = 0;                   ///< workers for the statistical runs
};

/// Scales every budget down (~400 trials, 16 fuzz specs) so the suite
/// finishes in seconds — the tier-2 ctest entry and quick local runs.
SuiteOptions quick_suite_options();

CheckReport run_statistical_checks(const SuiteOptions& options);
CheckReport run_differential_checks(const SuiteOptions& options);

}  // namespace fle::verify

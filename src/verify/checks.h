#pragma once
// Statistical fairness checkers (pillar 1 of the conformance subsystem).
//
// Each checker runs one or two ScenarioSpecs through run_scenario and turns
// a paper theorem into a pass/fail verdict with an explicit statistical
// bound (DESIGN.md §5):
//
//  * check_uniformity — honest executions elect a uniformly random leader
//    (Theorems 3.1/5.1/6.1 all assert exact uniformity for honest runs).
//    Chi-square of the empirical outcome histogram against uniform over the
//    protocol's support, gated on chi_square_critical_999 (significance
//    0.001, so a correct implementation flakes ~1 in 1000 runs per check —
//    seeds are fixed, so in practice never).
//
//  * check_resilience — a bounded coalition gains at most eps target
//    probability over the honest baseline (Definition 2.3's
//    eps-k-resilience, instantiated with the indicator utility of
//    Lemma 2.4).  The gain is bounded with Wilson intervals at two-sided
//    significance 0.001 (z = 3.2905, matching the chi-square gates): the
//    check passes when lower(deviated) - upper(honest) <= eps; the
//    Hoeffding radius at alpha = 0.001 is reported for calibration.
//
//  * check_termination_and_messages — honest executions terminate (fail
//    rate within an envelope, normally exactly 0) and stay within the
//    protocol's message-complexity envelope (max over trials <= bound).
//
//  * check_attack_floor — the converse of check_resilience: where the paper
//    PROVES an attack reaches a gain (Lemma 4.1 / Theorem 4.2 rushing,
//    Theorem 4.3 cubic, Appendix E.4 phase-sum, Claim B.1 — all with
//    Pr[leader = target] = 1 under their preconditions), the
//    implementation must reach it too.  A floor of 1 is gated exactly
//    (every trial must elect the target); fractional floors are gated by
//    the Wilson upper bound (fail only when the attack is confidently
//    below the floor at significance 0.001).
//
//  * check_sync_gap — Lemmas D.3/D.5 envelopes on the synchronization gap:
//    honest A-LEADuni stays lock-step, the cubic attack desynchronizes by
//    at most ~2k², and phase-validated protocols pin everyone to O(k) even
//    under deviation.  Gates ScenarioResult::max_sync_gap (ring engine).

#include <cstdint>
#include <optional>
#include <string>

#include "api/scenario.h"
#include "verify/verify.h"

namespace fle::verify {

/// Uniform support [lo, hi): which outcomes an honest run distributes over.
/// Most protocols use [0, n); the baton game uses [1, n) (the starter never
/// receives the baton) and coin games use [0, 2).
struct UniformSupport {
  Value lo = 0;
  Value hi = 0;  ///< 0 = default to spec.n
};

struct UniformityOptions {
  UniformSupport support;
  double max_fail_rate = 0.0;  ///< honest executions normally never FAIL
};

/// Runs `spec` (which must describe an honest profile: empty deviation) and
/// chi-square-tests the outcome histogram against uniform over the support.
CheckResult check_uniformity(const ScenarioSpec& spec, const UniformityOptions& options = {});
/// Same verdict on an already-run result (the suite runs each honest spec
/// once and feeds the result to several checkers).
CheckResult check_uniformity(const ScenarioSpec& spec, const ScenarioResult& result,
                             const UniformityOptions& options = {});

struct ResilienceOptions {
  /// Allowed true gain (the eps of eps-k-resilience).  The statistical
  /// slack of the two Wilson intervals is added on top automatically.
  double epsilon = 0.0;
  /// Honest baseline spec override; by default the deviated spec with the
  /// deviation and coalition cleared.
  std::optional<ScenarioSpec> baseline;
};

/// Runs the deviated spec and its honest baseline and bounds the coalition's
/// utility gain for `spec.target` (indicator utility, Lemma 2.4).
CheckResult check_resilience(const ScenarioSpec& spec, const ResilienceOptions& options = {});
/// Same verdict on already-run deviated/baseline results (the suite runs
/// both executions inside one sweep).
CheckResult check_resilience(const ScenarioSpec& spec, const ScenarioResult& deviated,
                             const ScenarioResult& baseline,
                             const ResilienceOptions& options = {});

struct TerminationOptions {
  double max_fail_rate = 0.0;
  /// Message-complexity envelope: max total sends over all trials.
  /// 0 = skip the message check (turn games produce no message stats).
  std::uint64_t max_messages = 0;
};

/// Runs `spec` and checks the fail-rate and message-complexity envelopes.
CheckResult check_termination_and_messages(const ScenarioSpec& spec,
                                           const TerminationOptions& options);
/// Same verdict on an already-run result.
CheckResult check_termination_and_messages(const ScenarioSpec& spec,
                                           const ScenarioResult& result,
                                           const TerminationOptions& options);

struct AttackFloorOptions {
  /// The theorem's guaranteed Pr[leader = target].  1.0 (the common case:
  /// Lemma 4.1, Theorem 4.3, Appendix E.4, Claim B.1 are all exact) is
  /// gated exactly; floors below 1 are gated with a Wilson upper bound at
  /// two-sided significance 0.001.
  double min_target_rate = 1.0;
};

/// Runs the deviated spec and asserts the attack reaches its proven gain
/// for `spec.target`.  Throws std::invalid_argument on an honest spec.
CheckResult check_attack_floor(const ScenarioSpec& spec, const AttackFloorOptions& options = {});
/// Same verdict on an already-run result.
CheckResult check_attack_floor(const ScenarioSpec& spec, const ScenarioResult& result,
                               const AttackFloorOptions& options = {});

struct SyncGapOptions {
  /// Envelope on max_sync_gap over all trials (Lemmas D.3/D.5).  Must be
  /// non-zero; 0 trips validation rather than silently passing everything.
  std::uint64_t max_gap = 0;
};

/// Runs `spec` on the ring and gates the synchronization gap.
CheckResult check_sync_gap(const ScenarioSpec& spec, const SyncGapOptions& options);
/// Same verdict on an already-run result.
CheckResult check_sync_gap(const ScenarioSpec& spec, const ScenarioResult& result,
                           const SyncGapOptions& options);

/// Formats a spec as the canonical "topology/protocol[+deviation] n=…"
/// subject line used by every checker.
std::string check_subject(const ScenarioSpec& spec);

}  // namespace fle::verify

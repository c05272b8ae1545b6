#pragma once
// Differential runtime checking (pillar 2 of the conformance subsystem).
//
// Four runtimes claim to realize the same game; these checks make them
// prove it against each other:
//
//  * check_differential_exact — the same spec on two topologies whose
//    runtimes are reductions of each other (kRing vs kThreaded: one OS
//    thread per processor is just another oblivious schedule, paper §2)
//    must produce *identical per-trial outcomes*.
//
//  * check_scheduler_invariance — on the unidirectional ring all oblivious
//    schedules yield the same local computations (paper §2), so the same
//    spec under round-robin / random / priority scheduling must produce
//    identical per-trial outcomes.
//
//  * check_trace_determinism — exact per-trial trace equivalence for the
//    deterministic scheduler: a reused engine (reset(trial_seed), the
//    DESIGN.md §4 fast path) must replay a freshly constructed engine's
//    execution bit for bit (the two ExecutionTranscripts of every delivery
//    and decision hold equal bytes).
//
//  * check_transcript_replay — the record/replay differential every
//    runtime gets (DESIGN.md §7), including the turn-game runtimes that
//    have no second implementation to diff against: per-trial transcripts
//    from two independent runs must agree event for event; ring recordings
//    are additionally RE-DRIVEN through replay_ring_schedule (the
//    recorded schedule becomes the scheduler) and turn-game recordings are
//    re-driven through replay_turn_game (the recorded actions become the
//    moves); the binary codec must round-trip the streams exactly.
//
//  * check_differential_distribution — where only a statistical reduction
//    exists (e.g. a ring protocol vs its synchronous counterpart, both of
//    which the paper proves elect uniformly), the two outcome histograms
//    must be statistically indistinguishable: a two-sample chi-square
//    homogeneity test gated on chi_square_critical_999.

#include "api/scenario.h"
#include "verify/verify.h"

namespace fle::verify {

/// Runs `spec` on topologies `a` and `b` (same seed, same everything else)
/// and asserts identical per-trial outcomes.
CheckResult check_differential_exact(ScenarioSpec spec, TopologyKind a, TopologyKind b);

/// Runs the ring spec under all three built-in schedulers and asserts
/// identical per-trial outcomes (oblivious-schedule invariance, paper §2).
CheckResult check_scheduler_invariance(ScenarioSpec spec);

/// For the first `traced_trials` trials of the ring spec: fresh engine vs
/// reused engine (reset between trials) must produce identical
/// transcripts and outcomes.  Requires a kRing spec with a built-in scheduler.
CheckResult check_trace_determinism(const ScenarioSpec& spec, std::size_t traced_trials = 8);

/// Two-sample chi-square homogeneity test over the outcome histograms of
/// two specs (FAIL is a histogram cell).  Significance 0.001.
CheckResult check_differential_distribution(const ScenarioSpec& a, const ScenarioSpec& b);

/// True when engine=auto serves some of `spec`'s trials from a closed
/// form (api/specialize.h) once transcripts are off: a ring or sync spec
/// whose shape has a pairing and whose resolved limit reaches the pairing's
/// minimum (the five ring lane shapes and honest phase-async-lead under
/// round-robin; honest sync-broadcast-lead with a round limit >= 3, honest
/// sync-ring-lead with one >= n + 1).
bool served_by_closed_form(const ScenarioSpec& spec);

/// The fast-path gate (DESIGN.md §10), on `threads` workers: compares
/// engine=scalar, the oracle, with engine=auto, both without transcripts.
/// Auto takes the closed form where the spec is served_by_closed_form and
/// the lanes where it is lane-eligible without one; the two results must
/// be bit-identical on per-trial outcomes and every aggregate (message and
/// sync-gap totals and maxima, max rounds).  Transcripts are not compared:
/// every transcript comes from the scalar engines.  Throws
/// std::invalid_argument for a spec that is neither lane-eligible nor
/// served_by_closed_form.
CheckResult check_lane_differential(ScenarioSpec spec, int threads);

/// Same-seed transcript-replay differential for any deterministic topology
/// (ring, graph, sync, tree, fullinfo; threaded is rejected by the
/// Scenario API).  Records every trial's transcript, re-runs the spec at a
/// different worker count and asserts event-for-event equality; re-drives
/// up to `redriven_trials` recordings through the runtime-specific replay
/// machinery (ring schedule re-drive / turn-game action re-drive) and
/// round-trips them through the binary codec.
CheckResult check_transcript_replay(ScenarioSpec spec, std::size_t redriven_trials = 8);

}  // namespace fle::verify

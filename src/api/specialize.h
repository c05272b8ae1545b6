#pragma once
// Engine specialization and the closed-form layer (DESIGN.md §10).
//
// The sweep planner decides, per scenario, whether trials run on the
// batched ring lane engine (sim/lane_engine.h) or the general scalar
// runtimes.  The decision reads the spec alone, and eligibility is
// structural: a ring spec whose protocol has a devirtualized lane kernel
// (basic-lead, chang-roberts, alead-uni) running either the honest profile
// or one of the lane-served deviated profiles (basic-single, rushing — the
// two dominant resilience-sweep attacks, which map onto the lane register
// file as a member overlay).  Every other topology, sync included, has no
// lane runtime.
//
// engine=auto runs every eligible spec on lanes, engine=scalar pins the
// scalar reference engines, and engine=lanes forces lanes (rejecting an
// ineligible spec).
//
// Closed forms.  Shapes whose trial results the paper states outright are
// served without simulation: token-sum (honest basic-lead, alead-uni: the
// mod-n sum of the secrets, §3; and honest sync-broadcast-lead,
// sync-ring-lead, whose processors commit the same secrets in round 1,
// §1.1), deviated-constant (basic-single on basic-lead, rushing on
// alead-uni: the target, Claim B.1 / Lemma 4.1), honest chang-roberts (the
// max id's owner) and phase-output (honest phase-async-lead: f(d, v) over
// every processor's tape draws, §6).  The ring forms ride the round-robin
// schedule; the ring lane shapes route to lanes, while phase-async-lead
// and the sync protocols have no lane kernel, so engine=auto serves them
// on the scalar ring and sync paths, which ask the layer too.  The layer
// is a function of the spec and the global trial index alone; an audited
// trial runs the general path and must agree field for field or the run
// throws, and an engine=scalar spec never asks it.
//
// The decision is invisible in results: the lane engine is gated
// bit-identical to the scalar ring runtime (ScenarioResults and transcript
// digests), so specialization is purely a throughput choice.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "sim/lane_engine.h"

namespace fle {

/// The ring lane kernel for a registry protocol key, if one exists.
std::optional<LaneKernelId> lane_kernel_for(const std::string& protocol);

/// The lane register-file mapping for a registry deviation key, if one
/// exists (empty key = honest = LaneDeviationId::kNone).
std::optional<LaneDeviationId> lane_deviation_id(const std::string& deviation);

/// True when `spec` can execute on the lane engine bit-identically (see the
/// header comment for the structural rules).
bool lane_eligible(const ScenarioSpec& spec);

/// Why `spec` is not lane-eligible, as one human-readable sentence (used
/// verbatim by route_to_lanes' engine=lanes rejection and by fle_sweep's
/// per-line pre-validation).  Empty string when the spec IS eligible.
std::string lane_ineligible_reason(const ScenarioSpec& spec);

/// The routing decision for `spec`: true when its trials run on the lane
/// engine.  Throws std::invalid_argument naming ScenarioSpec.engine (with
/// the lane_ineligible_reason) when engine=lanes is forced on an
/// ineligible spec.
bool route_to_lanes(const ScenarioSpec& spec);

/// Which closed form serves a spec's trials (kNone: every trial runs the
/// general path).
enum class ClosedFormKind { kNone, kTokenSum, kDeviatedConstant, kChangRoberts, kPhaseOutput };

/// The closed form for `spec`, whose trials run under the resolved limit
/// `step_limit`: the delivery bound (scenario_ring_step_limit) of a ring
/// spec, the round limit (scenario_sync_round_limit) of a sync spec.  Not
/// kNone only for a spec whose engine is not scalar, that does not record
/// transcripts, with a pairing from the header comment, and a limit that
/// cannot bind.  A ring spec must also run under the round-robin
/// scheduler; its limit must be >= n^2 for token-sum and
/// deviated-constant (every processor sends exactly n messages),
/// >= n^2 + n for chang-roberts, >= 2n^2 for phase-output (every processor
/// sends exactly 2n).  A sync spec must be honest, with a round limit
/// >= 3 for sync-broadcast-lead (every processor decides in round 2) and
/// >= n + 1 for sync-ring-lead (in round n); the run ends in the round
/// after.
ClosedFormKind closed_form_kind(const ScenarioSpec& spec, std::uint64_t step_limit);

/// True when global trial `trial` of a scenario with base seed `base_seed`
/// is audited: trials 0-3, and every trial whose seed falls in a 1/256
/// bucket.
bool closed_form_audited(std::uint64_t base_seed, std::size_t trial);

/// Per-worker scratch of the closed forms: chang-roberts' id permutation
/// and per-processor send counts, phase-output's data and validation
/// draws.  Once warm, serving a trial allocates nothing.
struct ClosedFormScratch {
  std::vector<Value> ids;
  std::vector<std::uint64_t> sends;
  std::vector<Value> data;
  std::vector<Value> validation;
};

/// The closed-form result of global trial `trial` of `spec` (kind not
/// kNone).  Token-sum, deviated-constant and phase-output report the
/// messages, max sync gap and rounds of `trial0`, global trial 0's
/// general-path result; the other fields of `trial0` are not read.
LaneTrialResult closed_form_result(ClosedFormKind kind, const ScenarioSpec& spec,
                                   std::size_t trial, const LaneTrialResult& trial0,
                                   ClosedFormScratch& scratch);

/// The audit comparator: returns when `general` (the trial's general-path
/// result) equals `predicted` on outcome, messages, max sync gap, rounds
/// and step-limit hit; otherwise throws std::logic_error naming the spec's
/// protocol, deviation, n and base seed, the global trial and the first
/// differing field.
void audit_closed_form(const ScenarioSpec& spec, std::size_t trial,
                       const LaneTrialResult& predicted, const LaneTrialResult& general);

}  // namespace fle

#pragma once
// Engine specialization and the closed-form layer (DESIGN.md §10).
//
// The sweep planner decides, per scenario, whether trials run on the
// batched lane engines (sim/lane_engine.h, sim/sync_engine.h) or the
// general scalar runtimes.  The decision reads the spec alone, and
// eligibility is structural:
//
//  * a ring spec whose protocol has a devirtualized lane kernel
//    (basic-lead, chang-roberts, alead-uni) running either the honest
//    profile or one of the lane-served deviated profiles (basic-single,
//    rushing — the two dominant resilience-sweep attacks, which map onto
//    the lane register file as a member overlay), or
//  * a sync spec whose protocol has a sync lane kernel
//    (sync-broadcast-lead, sync-ring-lead) with an honest profile.
//
// engine=auto runs every eligible spec on lanes, engine=scalar pins the
// scalar reference engines, and engine=lanes forces lanes (rejecting an
// ineligible spec).
//
// Closed forms.  Lane-routed round-robin shapes whose trial results the
// paper states outright — token-sum (honest basic-lead, alead-uni: the
// mod-n sum of the secrets, §3), deviated-constant (basic-single on
// basic-lead, rushing on alead-uni: the target, Claim B.1 / Lemma 4.1) and
// honest chang-roberts (the max id's owner) — are served without
// simulation.  The layer is a function of the spec and the global trial
// index alone; an audited trial runs the general lane path and must agree
// field for field or the run throws, and engine=scalar never asks it.
//
// The decision is invisible in results: the lane engines are gated
// bit-identical to the scalar runtimes (ScenarioResults and transcript
// digests), so specialization is purely a throughput choice.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "sim/lane_engine.h"
#include "sim/sync_engine.h"

namespace fle {

/// The ring lane kernel for a registry protocol key, if one exists.
std::optional<LaneKernelId> lane_kernel_for(const std::string& protocol);

/// The sync lane kernel for a registry protocol key, if one exists.
std::optional<SyncLaneKernelId> sync_lane_kernel_for(const std::string& protocol);

/// The lane register-file mapping for a registry deviation key, if one
/// exists (empty key = honest = LaneDeviationId::kNone).
std::optional<LaneDeviationId> lane_deviation_id(const std::string& deviation);

/// True when `spec` can execute on a lane engine bit-identically (see the
/// header comment for the structural rules).
bool lane_eligible(const ScenarioSpec& spec);

/// Why `spec` is not lane-eligible, as one human-readable sentence (used
/// verbatim by route_to_lanes' engine=lanes rejection and by fle_sweep's
/// per-line pre-validation).  Empty string when the spec IS eligible.
std::string lane_ineligible_reason(const ScenarioSpec& spec);

/// The routing decision for `spec`: true when its trials run on a lane
/// engine.  Throws std::invalid_argument naming ScenarioSpec.engine (with
/// the lane_ineligible_reason) when engine=lanes is forced on an
/// ineligible spec.
bool route_to_lanes(const ScenarioSpec& spec);

/// Which closed form serves a spec's trials (kNone: every trial runs the
/// general path).
enum class ClosedFormKind { kNone, kTokenSum, kDeviatedConstant, kChangRoberts };

/// The closed form for `spec`, whose trials run under the resolved
/// delivery bound `step_limit` (scenario_ring_step_limit).  Not kNone only
/// for a lane-routed ring spec under the round-robin scheduler that does
/// not record transcripts, with a pairing from the header comment, and a
/// step limit that cannot bind: >= n^2 for token-sum and deviated-constant
/// (every processor sends exactly n messages), >= n^2 + n for
/// chang-roberts.
ClosedFormKind closed_form_kind(const ScenarioSpec& spec, std::uint64_t step_limit);

/// True when global trial `trial` of a scenario with base seed `base_seed`
/// is audited: trials 0-3, and every trial whose seed falls in a 1/256
/// bucket.
bool closed_form_audited(std::uint64_t base_seed, std::size_t trial);

/// Per-worker scratch of the chang-roberts closed form: the trial's id
/// permutation and per-processor send counts.  Once warm, serving a trial
/// allocates nothing.
struct ClosedFormScratch {
  std::vector<Value> ids;
  std::vector<std::uint64_t> sends;
};

/// The closed-form result of global trial `trial` of `spec` (kind not
/// kNone).  Token-sum and deviated-constant report the messages and max
/// sync gap of `trial0`, global trial 0's general-path result; the other
/// fields of `trial0` are not read.
LaneTrialResult closed_form_result(ClosedFormKind kind, const ScenarioSpec& spec,
                                   std::size_t trial, const LaneTrialResult& trial0,
                                   ClosedFormScratch& scratch);

/// The audit comparator: returns when `general` (the trial's general-path
/// result) equals `predicted` on outcome, messages, max sync gap and
/// step-limit hit; otherwise throws std::logic_error naming the spec's
/// protocol, deviation, n and base seed, the global trial and the first
/// differing field.
void audit_closed_form(const ScenarioSpec& spec, std::size_t trial,
                       const LaneTrialResult& predicted, const LaneTrialResult& general);

}  // namespace fle

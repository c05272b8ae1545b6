#pragma once
// Engine specialization and the closed-form layer (DESIGN.md §10).
//
// The sweep planner decides, per scenario, which runtime executes its
// trials, from the spec alone.  Three runtimes take part:
//
//  * the scalar engines (sim/engine.h, sim/sync_engine.h): the oracle.
//    engine=scalar pins them and turns every fast path off.
//  * the closed-form layer: beside the scalar ring and sync engines, it
//    serves the trials of a shape whose results the paper states outright
//    without simulating them, and runs every audited trial on the oracle.
//  * the batched ring lane engine (sim/lane_engine.h): devirtualized
//    kernels for basic-lead, chang-roberts and alead-uni, honest or under
//    the two lane-served deviations (basic-single, rushing), for ring specs
//    that have no closed form and record no transcripts.
//
// The pairings.  One table maps (topology, protocol, deviation) to a closed
// form and the smallest limit a*n^2 + b*n + c under which it holds:
// token-sum (honest basic-lead and alead-uni: the mod-n sum of the
// secrets, §3; honest sync-broadcast-lead and sync-ring-lead, whose
// processors commit the same secrets in round 1, §1.1), deviated-constant
// (basic-single on basic-lead, rushing on alead-uni: the target, Claim B.1
// and Lemma 4.1), honest chang-roberts (the max id's owner) and
// phase-output (honest phase-async-lead: f(d, v) over every processor's
// tape draws, §6).  A ring pairing rides the round-robin schedule.  No
// pairing applies to a transcribing spec or under engine=scalar.
//
// The routing rule.  engine=auto sends a spec to the lanes when it is
// lane-eligible, records no transcripts and has no pairing under any
// limit; every other spec runs on its scalar engine, which asks the layer
// with the resolved limit.  A pairing whose limit can bind (a starving
// spec) therefore runs fully simulated on the scalar ring engine, and
// every transcript comes from a scalar engine, the oracle.  The layer is a
// function of the spec and the global trial index alone; an audited trial
// runs the scalar general path and must agree field for field or the run
// throws.
//
// The decision is invisible in results: the lane engine is gated
// bit-identical to the scalar ring runtime (per-trial outcomes and every
// aggregate), and every closed form to its scalar general path, so
// specialization is purely a throughput choice.

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

/// True when `spec` can execute on the lane engine bit-identically: a ring
/// spec whose protocol has a lane kernel, honest or under a deviation with
/// a lane register mapping.
bool lane_eligible(const ScenarioSpec& spec);

/// The routing decision for `spec`: true when its trials run on the lane
/// engine (engine=auto, lane-eligible, no transcripts, and no closed-form
/// pairing).
bool route_to_lanes(const ScenarioSpec& spec);

/// Which closed form serves a spec's trials (kNone: every trial runs the
/// general path).
enum class ClosedFormKind { kNone, kTokenSum, kDeviatedConstant, kChangRoberts, kPhaseOutput };

/// The closed form for `spec`, whose trials run under the resolved limit
/// `step_limit`: the delivery bound (scenario_ring_step_limit) of a ring
/// spec, the round limit (scenario_sync_round_limit) of a sync spec.  Not
/// kNone only for a spec whose engine is not scalar, that does not record
/// transcripts, whose shape has a row in the pairing table (a ring row
/// also needs the round-robin scheduler), and whose limit reaches the
/// row's minimum, so it cannot bind: n^2 for token-sum and
/// deviated-constant on the ring (every processor sends exactly n
/// messages), n^2 + n for chang-roberts, 2n^2 for phase-output (every
/// processor sends exactly 2n), 3 rounds for sync-broadcast-lead (every
/// processor decides in round 2) and n + 1 for sync-ring-lead (in round
/// n); the run ends in the round after.
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
/// messages, sync gap and rounds of `trial0`, global trial 0's
/// general-path result; the other fields of `trial0` are not read.
TrialStats closed_form_result(ClosedFormKind kind, const ScenarioSpec& spec, std::size_t trial,
                              const TrialStats& trial0, ClosedFormScratch& scratch);

/// The audit comparator: returns when `general` (the trial's general-path
/// result) equals `predicted` on outcome, messages, max sync gap, rounds
/// and step-limit hit; otherwise throws std::logic_error naming the spec's
/// protocol, deviation, n and base seed, the global trial and the first
/// differing field.
void audit_closed_form(const ScenarioSpec& spec, std::size_t trial, const TrialStats& predicted,
                       const TrialStats& general);

}  // namespace fle

#pragma once
// Engine specialization (DESIGN.md §10).
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
// The decision is invisible in results: the lane engines are gated
// bit-identical to the scalar runtimes (ScenarioResults and transcript
// digests), so specialization is purely a throughput choice.

#include <optional>
#include <string>

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

}  // namespace fle

#include "api/specialize.h"

#include <stdexcept>

namespace fle {

std::optional<LaneKernelId> lane_kernel_for(const std::string& protocol) {
  if (protocol == "basic-lead") return LaneKernelId::kBasicLead;
  if (protocol == "chang-roberts") return LaneKernelId::kChangRoberts;
  if (protocol == "alead-uni") return LaneKernelId::kALeadUni;
  return std::nullopt;
}

std::optional<SyncLaneKernelId> sync_lane_kernel_for(const std::string& protocol) {
  if (protocol == "sync-broadcast-lead") return SyncLaneKernelId::kSyncBroadcast;
  if (protocol == "sync-ring-lead") return SyncLaneKernelId::kSyncRing;
  return std::nullopt;
}

std::optional<LaneDeviationId> lane_deviation_id(const std::string& deviation) {
  if (deviation.empty()) return LaneDeviationId::kNone;
  if (deviation == "basic-single") return LaneDeviationId::kBasicSingle;
  if (deviation == "rushing") return LaneDeviationId::kRushing;
  return std::nullopt;
}

bool lane_eligible(const ScenarioSpec& spec) {
  switch (spec.topology) {
    case TopologyKind::kRing:
      return lane_kernel_for(spec.protocol).has_value() &&
             lane_deviation_id(spec.deviation).has_value();
    case TopologyKind::kSync:
      return spec.deviation.empty() && sync_lane_kernel_for(spec.protocol).has_value();
    default:
      return false;
  }
}

std::string lane_ineligible_reason(const ScenarioSpec& spec) {
  switch (spec.topology) {
    case TopologyKind::kRing:
      if (!lane_kernel_for(spec.protocol).has_value()) {
        return "protocol '" + spec.protocol +
               "' has no ring lane kernel (lane kernels: basic-lead, chang-roberts, alead-uni)";
      }
      if (!lane_deviation_id(spec.deviation).has_value()) {
        return "deviation '" + spec.deviation +
               "' has no lane register mapping (lane-served ring profiles: honest, basic-single, "
               "rushing)";
      }
      return "";
    case TopologyKind::kSync:
      if (!sync_lane_kernel_for(spec.protocol).has_value()) {
        return "protocol '" + spec.protocol +
               "' has no sync lane kernel (sync lane kernels: sync-broadcast-lead, sync-ring-lead)";
      }
      if (!spec.deviation.empty()) {
        return "deviation '" + spec.deviation +
               "' is not lane-served on the sync runtime (honest sync profiles only)";
      }
      return "";
    default:
      return std::string("topology '") + to_string(spec.topology) +
             "' has no lane runtime (lanes serve ring and sync specs)";
  }
}

bool route_to_lanes(const ScenarioSpec& spec) {
  switch (spec.engine) {
    case EngineKind::kScalar:
      return false;
    case EngineKind::kLanes:
      if (!lane_eligible(spec)) {
        throw std::invalid_argument("ScenarioSpec.engine = lanes: " + lane_ineligible_reason(spec));
      }
      return true;
    case EngineKind::kAuto:
      return lane_eligible(spec);
  }
  return false;
}

}  // namespace fle

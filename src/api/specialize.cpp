#include "api/specialize.h"

#include <algorithm>
#include <stdexcept>

#include "api/registry.h"
#include "core/rng.h"
#include "protocols/phase_async_lead.h"

namespace fle {

std::optional<LaneKernelId> lane_kernel_for(const std::string& protocol) {
  if (protocol == "basic-lead") return LaneKernelId::kBasicLead;
  if (protocol == "chang-roberts") return LaneKernelId::kChangRoberts;
  if (protocol == "alead-uni") return LaneKernelId::kALeadUni;
  return std::nullopt;
}

std::optional<LaneDeviationId> lane_deviation_id(const std::string& deviation) {
  if (deviation.empty()) return LaneDeviationId::kNone;
  if (deviation == "basic-single") return LaneDeviationId::kBasicSingle;
  if (deviation == "rushing") return LaneDeviationId::kRushing;
  return std::nullopt;
}

bool lane_eligible(const ScenarioSpec& spec) { return lane_ineligible_reason(spec).empty(); }

std::string lane_ineligible_reason(const ScenarioSpec& spec) {
  if (spec.topology != TopologyKind::kRing) {
    return std::string("topology '") + to_string(spec.topology) +
           "' has no lane runtime (lanes serve ring specs)";
  }
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

ClosedFormKind closed_form_kind(const ScenarioSpec& spec, std::uint64_t step_limit) {
  // A transcribing trial needs the real event stream.  engine=scalar pins
  // the oracle, which never consults the layer.
  if (spec.record_transcripts || spec.engine == EngineKind::kScalar) {
    return ClosedFormKind::kNone;
  }
  const std::uint64_t n = static_cast<std::uint64_t>(spec.n);
  if (spec.topology == TopologyKind::kSync) {
    // The sync runtime has no scheduler.  An honest processor commits its
    // round-1 draw and outputs the mod-n sum, deciding in round 2
    // (broadcast) or round n (ring); the run ends in the round after.
    if (!spec.deviation.empty()) return ClosedFormKind::kNone;
    if (spec.protocol == "sync-broadcast-lead") {
      return step_limit >= 3 ? ClosedFormKind::kTokenSum : ClosedFormKind::kNone;
    }
    if (spec.protocol == "sync-ring-lead") {
      return step_limit >= n + 1 ? ClosedFormKind::kTokenSum : ClosedFormKind::kNone;
    }
    return ClosedFormKind::kNone;
  }
  // Every ring closed form rides the trial-independent round-robin
  // schedule.
  if (spec.topology != TopologyKind::kRing || spec.scheduler != SchedulerKind::kRoundRobin) {
    return ClosedFormKind::kNone;
  }
  if (spec.protocol == "phase-async-lead") {
    // Every processor sends n data and n validation messages.  Under a
    // deviation the validation branch is data-dependent.
    return spec.deviation.empty() && step_limit >= 2 * n * n ? ClosedFormKind::kPhaseOutput
                                                             : ClosedFormKind::kNone;
  }
  const std::optional<LaneKernelId> kernel = lane_kernel_for(spec.protocol);
  const std::optional<LaneDeviationId> deviation = lane_deviation_id(spec.deviation);
  if (!kernel || !deviation) return ClosedFormKind::kNone;
  ClosedFormKind kind = ClosedFormKind::kNone;
  switch (*deviation) {
    case LaneDeviationId::kNone:
      if (*kernel == LaneKernelId::kChangRoberts) {
        // A trial's deliveries depend on its ids, up to n^2 + n in total.
        return step_limit >= n * n + n ? ClosedFormKind::kChangRoberts : ClosedFormKind::kNone;
      }
      kind = ClosedFormKind::kTokenSum;
      break;
    // The designed pairings, whose theorems force the target (Claim B.1,
    // Lemma 4.1).  On any other kernel the honest validation branch is
    // data-dependent.
    case LaneDeviationId::kBasicSingle:
      if (*kernel != LaneKernelId::kBasicLead) return ClosedFormKind::kNone;
      kind = ClosedFormKind::kDeviatedConstant;
      break;
    case LaneDeviationId::kRushing:
      if (*kernel != LaneKernelId::kALeadUni) return ClosedFormKind::kNone;
      kind = ClosedFormKind::kDeviatedConstant;
      break;
  }
  // Every processor sends exactly n messages: at most n^2 deliveries.
  return step_limit >= n * n ? kind : ClosedFormKind::kNone;
}

bool closed_form_audited(std::uint64_t base_seed, std::size_t trial) {
  return trial < 4 || scenario_trial_seed(base_seed, trial) % 256 == 0;
}

namespace {

/// Honest chang-roberts under round-robin is a pure function of the trial's
/// id permutation: the owner of the maximum id wins; every other candidate
/// is forwarded by the run of cyclic successors holding smaller ids
/// (stopping unsent at the first larger one); the announce circulates once.
/// A processor sends 2 (wake-up + announce) plus the tokens it forwards,
/// and the sync-gap histogram's trace collapses to max(sends) - min(sends).
LaneTrialResult chang_roberts_result(int n, std::uint64_t seed, ClosedFormScratch& scratch) {
  const std::size_t cells = static_cast<std::size_t>(n);
  scratch.ids.resize(cells);
  shuffled_ids(scratch.ids, seed);
  scratch.sends.assign(cells, 2);
  std::uint64_t forwards = 0;
  for (int q = 0; q < n; ++q) {
    const Value candidate = scratch.ids[static_cast<std::size_t>(q)];
    for (int d = 1; d < n; ++d) {
      const std::size_t r = static_cast<std::size_t>((q + d) % n);
      if (scratch.ids[r] > candidate) break;
      ++scratch.sends[r];
      ++forwards;
    }
  }
  const auto winner = std::max_element(scratch.ids.begin(), scratch.ids.end());
  const auto [min_it, max_it] = std::minmax_element(scratch.sends.begin(), scratch.sends.end());
  LaneTrialResult result;
  result.outcome = Outcome::elected(static_cast<Value>(winner - scratch.ids.begin()));
  result.messages = 2 * static_cast<std::uint64_t>(n) + forwards;
  result.max_sync_gap = *max_it - *min_it;
  return result;
}

/// Honest PhaseAsyncLead is f(d[0..n-1], v[0..n-l-1]) (§6, App. E), built
/// from the registry's parameters: processor i's tape draws d_i on wake-up
/// and v_i in its validator round, and nothing else.
Value phase_output(const ScenarioSpec& spec, std::uint64_t seed, ClosedFormScratch& scratch) {
  const PhaseAsyncLeadProtocol protocol(phase_params(spec), spec.protocol_key);
  const RandomFunction& f = protocol.f();
  const std::size_t keep = static_cast<std::size_t>(f.validation_inputs());
  scratch.data.resize(static_cast<std::size_t>(spec.n));
  scratch.validation.resize(keep);
  for (ProcessorId p = 0; p < spec.n; ++p) {
    const std::size_t i = static_cast<std::size_t>(p);
    RandomTape tape(seed, p);
    scratch.data[i] = tape.uniform(static_cast<Value>(spec.n));
    if (i < keep) scratch.validation[i] = tape.uniform(f.m());
  }
  return f.evaluate(scratch.data, scratch.validation);
}

}  // namespace

LaneTrialResult closed_form_result(ClosedFormKind kind, const ScenarioSpec& spec,
                                   std::size_t trial, const LaneTrialResult& trial0,
                                   ClosedFormScratch& scratch) {
  const std::uint64_t seed = scenario_trial_seed(spec.seed, trial);
  LaneTrialResult result;
  result.messages = trial0.messages;
  result.max_sync_gap = trial0.max_sync_gap;
  result.rounds = trial0.rounds;
  switch (kind) {
    case ClosedFormKind::kTokenSum: {
      // Every processor contributes exactly its first draw (basic-lead's
      // and alead-uni's wake-up d, the sync protocols' round-1 d), drawn
      // as the strategies draw it.
      const Value n = static_cast<Value>(spec.n);
      Value sum = 0;
      for (ProcessorId p = 0; p < spec.n; ++p) {
        sum += RandomTape(seed, p).uniform(n);
        if (sum >= n) sum -= n;
      }
      result.outcome = Outcome::elected(sum);
      return result;
    }
    case ClosedFormKind::kDeviatedConstant:
      result.outcome = Outcome::elected(spec.target);
      return result;
    case ClosedFormKind::kChangRoberts:
      return chang_roberts_result(spec.n, seed, scratch);
    case ClosedFormKind::kPhaseOutput:
      result.outcome = Outcome::elected(phase_output(spec, seed, scratch));
      return result;
    case ClosedFormKind::kNone:
      break;
  }
  throw std::logic_error("closed_form_result: the spec has no closed form");
}

void audit_closed_form(const ScenarioSpec& spec, std::size_t trial,
                       const LaneTrialResult& predicted, const LaneTrialResult& general) {
  const char* field = !(predicted.outcome == general.outcome)          ? "outcome"
                      : predicted.messages != general.messages         ? "messages"
                      : predicted.max_sync_gap != general.max_sync_gap ? "max_sync_gap"
                      : predicted.rounds != general.rounds             ? "rounds"
                      : predicted.step_limit_hit != general.step_limit_hit ? "step_limit_hit"
                                                                           : nullptr;
  if (field == nullptr) return;
  const auto describe = [](const LaneTrialResult& r) {
    return (r.outcome.valid() ? "elected " + std::to_string(r.outcome.leader()) : "FAIL") +
           ", messages " + std::to_string(r.messages) + ", max_sync_gap " +
           std::to_string(r.max_sync_gap) + ", rounds " + std::to_string(r.rounds) +
           (r.step_limit_hit ? ", step_limit_hit" : "");
  };
  throw std::logic_error("closed-form audit failed: protocol=" + spec.protocol + " deviation=" +
                         (spec.deviation.empty() ? "honest" : spec.deviation) +
                         " n=" + std::to_string(spec.n) + " seed=" + std::to_string(spec.seed) +
                         " trial " + std::to_string(trial) + ": " + field +
                         " differs (closed form: " + describe(predicted) +
                         "; general path: " + describe(general) + ")");
}

}  // namespace fle

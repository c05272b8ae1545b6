#include "api/specialize.h"

#include <algorithm>
#include <limits>
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

bool lane_eligible(const ScenarioSpec& spec) {
  return spec.topology == TopologyKind::kRing && lane_kernel_for(spec.protocol).has_value() &&
         lane_deviation_id(spec.deviation).has_value();
}

bool route_to_lanes(const ScenarioSpec& spec) {
  // A pairing sends the spec to the scalar engine whatever its limit: its
  // job then asks the layer with the resolved one.  The lanes record no
  // transcripts, so a transcribing spec runs on the oracle.
  return spec.engine == EngineKind::kAuto && !spec.record_transcripts && lane_eligible(spec) &&
         closed_form_kind(spec, std::numeric_limits<std::uint64_t>::max()) ==
             ClosedFormKind::kNone;
}

namespace {

/// One row of the pairing table: a shape whose trial results the paper
/// states outright, its closed form, and the smallest limit a*n^2 + b*n + c
/// (ring deliveries, sync rounds) under which the form holds.
struct Pairing {
  TopologyKind topology;
  const char* protocol;
  const char* deviation;  ///< "" = honest
  ClosedFormKind kind;
  std::uint64_t a, b, c;
};

constexpr Pairing kPairings[] = {
    // §3: the mod-n sum of the wake-up draws; every processor sends n.
    {TopologyKind::kRing, "basic-lead", "", ClosedFormKind::kTokenSum, 1, 0, 0},
    {TopologyKind::kRing, "alead-uni", "", ClosedFormKind::kTokenSum, 1, 0, 0},
    // The max id's owner; a trial's deliveries depend on its ids.
    {TopologyKind::kRing, "chang-roberts", "", ClosedFormKind::kChangRoberts, 1, 1, 0},
    // The designed pairings, whose theorems force the target (Claim B.1,
    // Lemma 4.1).  On any other protocol the honest validation branch is
    // data-dependent.
    {TopologyKind::kRing, "basic-lead", "basic-single", ClosedFormKind::kDeviatedConstant, 1, 0,
     0},
    {TopologyKind::kRing, "alead-uni", "rushing", ClosedFormKind::kDeviatedConstant, 1, 0, 0},
    // §6: f(d, v); every processor sends n data and n validation messages.
    // Under a deviation the validation branch is data-dependent.
    {TopologyKind::kRing, "phase-async-lead", "", ClosedFormKind::kPhaseOutput, 2, 0, 0},
    // §1.1: the round-1 commitments' mod-n sum, decided in round 2
    // (broadcast) or round n (ring); the run ends in the round after.
    {TopologyKind::kSync, "sync-broadcast-lead", "", ClosedFormKind::kTokenSum, 0, 0, 3},
    {TopologyKind::kSync, "sync-ring-lead", "", ClosedFormKind::kTokenSum, 0, 1, 1},
};

}  // namespace

ClosedFormKind closed_form_kind(const ScenarioSpec& spec, std::uint64_t step_limit) {
  // A transcribing trial needs the real event stream.  engine=scalar pins
  // the oracle, which never consults the layer.  Every ring closed form
  // rides the trial-independent round-robin schedule; the sync runtime has
  // no scheduler.
  if (spec.record_transcripts || spec.engine == EngineKind::kScalar ||
      (spec.topology == TopologyKind::kRing && spec.scheduler != SchedulerKind::kRoundRobin)) {
    return ClosedFormKind::kNone;
  }
  const std::uint64_t n = static_cast<std::uint64_t>(spec.n);
  for (const Pairing& row : kPairings) {
    if (row.topology != spec.topology || spec.protocol != row.protocol ||
        spec.deviation != row.deviation) {
      continue;
    }
    return step_limit >= (row.a * n + row.b) * n + row.c ? row.kind : ClosedFormKind::kNone;
  }
  return ClosedFormKind::kNone;
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
TrialStats chang_roberts_result(int n, std::uint64_t seed, ClosedFormScratch& scratch) {
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
  TrialStats result;
  result.outcome = Outcome::elected(static_cast<Value>(winner - scratch.ids.begin()));
  result.messages = 2 * static_cast<std::uint64_t>(n) + forwards;
  result.sync_gap = *max_it - *min_it;
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

TrialStats closed_form_result(ClosedFormKind kind, const ScenarioSpec& spec, std::size_t trial,
                              const TrialStats& trial0, ClosedFormScratch& scratch) {
  const std::uint64_t seed = scenario_trial_seed(spec.seed, trial);
  TrialStats result;
  result.messages = trial0.messages;
  result.sync_gap = trial0.sync_gap;
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

void audit_closed_form(const ScenarioSpec& spec, std::size_t trial, const TrialStats& predicted,
                       const TrialStats& general) {
  const char* field = !(predicted.outcome == general.outcome)              ? "outcome"
                      : predicted.messages != general.messages             ? "messages"
                      : predicted.sync_gap != general.sync_gap             ? "max_sync_gap"
                      : predicted.rounds != general.rounds                 ? "rounds"
                      : predicted.step_limit_hit != general.step_limit_hit ? "step_limit_hit"
                                                                           : nullptr;
  if (field == nullptr) return;
  const auto describe = [](const TrialStats& r) {
    return (r.outcome.valid() ? "elected " + std::to_string(r.outcome.leader()) : "FAIL") +
           ", messages " + std::to_string(r.messages) + ", max_sync_gap " +
           std::to_string(r.sync_gap) + ", rounds " + std::to_string(r.rounds) +
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

#include "verify/fuzzer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <typeinfo>

#include "api/registry.h"
#include "api/specialize.h"
#include "core/parse_number.h"
#include "protocols/basic_lead.h"
#include "verify/checks.h"
#include "verify/differential.h"

namespace fle::verify {

namespace {

const char* placement_name(CoalitionSpec::Placement placement) {
  switch (placement) {
    case CoalitionSpec::Placement::kDefault:
      return "default";
    case CoalitionSpec::Placement::kConsecutive:
      return "consecutive";
    case CoalitionSpec::Placement::kEquallySpaced:
      return "equally-spaced";
    case CoalitionSpec::Placement::kBernoulli:
      return "bernoulli";
    case CoalitionSpec::Placement::kCubicStaircase:
      return "cubic-staircase";
    case CoalitionSpec::Placement::kCustom:
      return "custom";
  }
  return "unknown";
}

CoalitionSpec::Placement parse_placement(const std::string& name) {
  if (name == "default") return CoalitionSpec::Placement::kDefault;
  if (name == "consecutive") return CoalitionSpec::Placement::kConsecutive;
  if (name == "equally-spaced") return CoalitionSpec::Placement::kEquallySpaced;
  if (name == "bernoulli") return CoalitionSpec::Placement::kBernoulli;
  if (name == "cubic-staircase") return CoalitionSpec::Placement::kCubicStaircase;
  if (name == "custom") return CoalitionSpec::Placement::kCustom;
  throw std::invalid_argument("unknown coalition placement '" + name + "'");
}

/// Parses the integer value `value` of spec key `key` into `field` over the
/// whole token (core/parse_number.h); anything else throws naming the key
/// and the value.
template <typename Int>
void parse_int_field(Int& field, const std::string& key, const std::string& value) {
  const std::optional<Int> parsed = try_parse_int<Int>(value);
  if (!parsed) {
    throw std::invalid_argument("spec key '" + key + "': '" + value + "' is not an integer in [" +
                                std::to_string(std::numeric_limits<Int>::min()) + ", " +
                                std::to_string(std::numeric_limits<Int>::max()) + "]");
  }
  field = *parsed;
}

/// The record=/transcripts= flags: exactly 0 or 1.
bool parse_flag(const std::string& key, const std::string& value) {
  if (value == "0") return false;
  if (value == "1") return true;
  throw std::invalid_argument("spec key '" + key + "': '" + value + "' is not 0 or 1");
}

SchedulerKind parse_scheduler(const std::string& name) {
  if (name == "round-robin") return SchedulerKind::kRoundRobin;
  if (name == "random") return SchedulerKind::kRandom;
  if (name == "priority") return SchedulerKind::kPriority;
  throw std::invalid_argument("unknown scheduler '" + name + "'");
}

/// Registered protocol names that support a topology family.
std::vector<std::string> protocols_for(TopologyKind topology) {
  register_builtin_scenarios();
  std::vector<std::string> out;
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    const ProtocolEntry& entry = ProtocolRegistry::instance().at(name);
    const bool supported = [&] {
      switch (topology) {
        case TopologyKind::kRing:
        case TopologyKind::kThreaded:
          return static_cast<bool>(entry.make_ring);
        case TopologyKind::kGraph:
          return static_cast<bool>(entry.make_graph);
        case TopologyKind::kSync:
          return static_cast<bool>(entry.make_sync);
        case TopologyKind::kTree:
        case TopologyKind::kFullInfo:
          return static_cast<bool>(entry.make_game);
      }
      return false;
    }();
    if (supported) out.push_back(name);
  }
  return out;
}

template <typename T>
const T& pick(Xoshiro256& rng, const std::vector<T>& from) {
  return from[static_cast<std::size_t>(rng.below(from.size()))];
}

/// Campaign sizes, kept tiny (coverage over depth): n from [2, kMaxN]; a
/// quarter of ring specs take n from (kMaxN, kMaxRingN] instead — the cheap
/// engine is the one place the campaign can afford sizes past the
/// cross-runtime budget; 1 to kMaxTrialsPerSpec trials.
constexpr int kMaxN = 24;
constexpr int kMaxRingN = 64;
constexpr std::uint64_t kMaxTrialsPerSpec = 6;

/// A user-registered deviation whose coalition members play the protocol's
/// own honest strategy: the negative control for the deviation plumbing
/// (composition, coalition placement, registry dispatch) with provably
/// unchanged semantics.
class FuzzHonestShadowDeviation final : public Deviation {
 public:
  FuzzHonestShadowDeviation(Coalition coalition, const RingProtocol& protocol)
      : coalition_(std::move(coalition)), protocol_(&protocol) {}

  const Coalition& coalition() const override { return coalition_; }
  RingStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id,
                                  int n) const override {
    return protocol_->emplace_strategy(arena, id, n);
  }
  const char* name() const override { return "user-honest-shadow"; }

 private:
  Coalition coalition_;
  const RingProtocol* protocol_;  ///< alive for the deviation's lifetime
};

}  // namespace

void register_fuzz_user_entries() {
  static std::once_flag once;
  std::call_once(once, [] {
    {
      ProtocolEntry entry;
      entry.name = "user-basic-lead";
      entry.summary = "fuzz surface: Basic-LEAD registered through the public add()";
      entry.make_ring = [](const ScenarioSpec&, std::uint64_t) {
        return std::make_unique<BasicLeadProtocol>();
      };
      ProtocolRegistry::instance().add(std::move(entry));
    }
    {
      DeviationEntry entry;
      entry.name = "user-honest-shadow";
      entry.summary = "fuzz surface: coalition members play the honest strategy";
      entry.make_ring = [](const RingProtocol& protocol, const ScenarioSpec& spec) {
        auto coalition = build_coalition(spec.coalition, spec.n);
        if (!coalition) coalition = Coalition::consecutive(spec.n, 1, 1);
        return std::make_unique<FuzzHonestShadowDeviation>(*std::move(coalition), protocol);
      };
      DeviationRegistry::instance().add(std::move(entry));
    }
  });
}

ScenarioSpec generate_spec(Xoshiro256& rng) {
  register_builtin_scenarios();
  register_fuzz_user_entries();
  static const std::vector<TopologyKind> kTopologies = {
      TopologyKind::kRing,  TopologyKind::kRing,     TopologyKind::kThreaded,
      TopologyKind::kGraph, TopologyKind::kSync,     TopologyKind::kTree,
      TopologyKind::kFullInfo};

  ScenarioSpec spec;
  spec.topology = pick(rng, kTopologies);
  const std::vector<std::string> protocols = protocols_for(spec.topology);
  spec.protocol = pick(rng, protocols);

  const int max_n = spec.topology == TopologyKind::kThreaded
                        ? 12  // one OS thread per processor
                        : kMaxN;
  spec.n = 2 + static_cast<int>(rng.below(static_cast<std::uint64_t>(max_n - 1)));
  // The ring family alone also samples past kMaxN (the deterministic ring
  // engine is cheap enough for big instances at tiny trial counts): a
  // quarter of ring specs take n from (kMaxN, kMaxRingN].
  if (spec.topology == TopologyKind::kRing && rng.below(4) == 0) {
    spec.n = kMaxN + 1 + static_cast<int>(rng.below(kMaxRingN - kMaxN));
  }
  spec.trials = 1 + rng.below(kMaxTrialsPerSpec);
  spec.seed = rng.next();
  spec.target = rng.below(static_cast<std::uint64_t>(spec.n));
  spec.rounds = 2 + static_cast<int>(rng.below(4));
  spec.threads = 1;
  spec.record_outcomes = rng.below(4) == 0;
  // Transcript capture composes with everything else; a quarter of specs
  // record and have the capture invariants checked (threaded + transcripts
  // is the clean-rejection path).
  spec.record_transcripts = rng.below(4) == 0;
  // Bound the phase attacks' preimage search so a fuzzed spec can't stall.
  spec.search_cap = 64ull * static_cast<std::uint64_t>(spec.n);
  if (rng.below(8) == 0) spec.step_limit = 1 + rng.below(64);  // starves some runs: FAILs
  // Protocol knobs: keyed-PRF family member and the PhaseAsyncLead l
  // override, sampled past its valid range [1, n) so the rejection path is
  // part of the surface.
  if (rng.below(4) == 0) spec.protocol_key = rng.next();
  if (rng.below(4) == 0) {
    spec.param_l = static_cast<int>(rng.below(static_cast<std::uint64_t>(spec.n) + 2));
  }
  // Sharding windows: valid sub-windows must run (and merge bit-identically
  // — tests/test_sweep.cpp), windows past `trials` must be cleanly
  // rejected naming trial_offset/trial_count.
  if (rng.below(4) == 0) {
    spec.trial_offset = rng.below(spec.trials + 2);
    if (rng.below(2) == 0) spec.trial_count = rng.below(spec.trials + 2);
  }

  if (spec.topology == TopologyKind::kRing || spec.topology == TopologyKind::kThreaded) {
    static const std::vector<SchedulerKind> kSchedulers = {
        SchedulerKind::kRoundRobin, SchedulerKind::kRandom, SchedulerKind::kPriority};
    spec.scheduler = pick(rng, kSchedulers);
  } else if (rng.below(2) == 0) {
    spec.scheduler = SchedulerKind::kRandom;
  }

  // Engine routing: engine= is sampled over both kinds.
  if (rng.below(3) == 0) {
    static const std::vector<EngineKind> kEngines = {EngineKind::kAuto, EngineKind::kScalar};
    spec.engine = pick(rng, kEngines);
  }

  // Half the specs carry a deviation — sampled over *all* registered
  // deviations, so protocol/deviation mismatches (which must be cleanly
  // rejected) are part of the surface under test.
  if (rng.below(2) == 0) {
    spec.deviation = pick(rng, DeviationRegistry::instance().names());
    const int k = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(spec.n)));
    switch (rng.below(6)) {
      case 0:
        break;  // kDefault: the deviation's canonical placement
      case 1:
        spec.coalition = CoalitionSpec::consecutive(
            k, static_cast<ProcessorId>(rng.below(static_cast<std::uint64_t>(spec.n))));
        break;
      case 2:
        spec.coalition = CoalitionSpec::equally_spaced(k, 1);
        break;
      case 3:
        spec.coalition = CoalitionSpec::bernoulli(
            0.1 + 0.1 * static_cast<double>(rng.below(5)), rng.next());
        break;
      case 4:
        spec.coalition = CoalitionSpec::cubic_staircase(k);
        break;
      default: {
        // Custom member lists, occasionally out of range: the negative
        // validation path is part of the fuzzed surface.
        std::vector<ProcessorId> members;
        const std::size_t count = 1 + rng.below(4);
        for (std::size_t i = 0; i < count; ++i) {
          members.push_back(
              static_cast<ProcessorId>(rng.below(static_cast<std::uint64_t>(spec.n) + 1)));
        }
        spec.coalition = CoalitionSpec::custom(std::move(members));
        break;
      }
    }
  }
  return spec;
}

std::optional<std::string> run_spec_invariants(const ScenarioSpec& spec, bool* rejected) {
  if (rejected) *rejected = false;
  std::optional<ScenarioResult> first;
  try {
    first.emplace(run_scenario(spec));
  } catch (const std::invalid_argument&) {
    if (rejected) *rejected = true;  // clean rejection: the API's contract
    return std::nullopt;
  } catch (const std::exception& error) {
    return std::string("unexpected exception (") + typeid(error).name() + "): " +
           error.what();
  } catch (...) {
    return "unexpected non-std exception";
  }

  const ScenarioResult& r = *first;
  // run_scenario accepted the spec, so the window resolves (a bad window
  // throws the same invalid_argument run_scenario does).
  const std::size_t window = scenario_trial_window(spec).count;
  if (r.trials != window) {
    return "result.trials = " + std::to_string(r.trials) + " != trial window = " +
           std::to_string(window);
  }
  if (r.outcomes.trials() != window) {
    return "outcome counter saw " + std::to_string(r.outcomes.trials()) + " of " +
           std::to_string(window) + " trials";
  }
  const auto dist = r.outcomes.distribution();
  std::size_t counted = r.outcomes.fails();
  for (int j = 0; j < dist.n(); ++j) counted += r.outcomes.count(static_cast<Value>(j));
  if (counted != window) {
    return "histogram mass " + std::to_string(counted) + " != trials " +
           std::to_string(window) + " (outcome leaked past the counter)";
  }
  const std::size_t expected_recorded = spec.record_outcomes ? window : 0;
  if (r.per_trial.size() != expected_recorded) {
    return "per_trial holds " + std::to_string(r.per_trial.size()) + " outcomes, expected " +
           std::to_string(expected_recorded);
  }
  const std::size_t expected_transcripts = spec.record_transcripts ? window : 0;
  if (r.per_trial_transcript.size() != expected_transcripts) {
    return "per_trial_transcript holds " + std::to_string(r.per_trial_transcript.size()) +
           " transcripts, expected " + std::to_string(expected_transcripts);
  }
  if (r.transcripts_recorded != spec.record_transcripts) {
    return "transcripts_recorded flag disagrees with the spec";
  }
  if (spec.record_outcomes) {
    std::size_t fails = 0;
    for (const Outcome& o : r.per_trial) fails += o.failed() ? 1 : 0;
    if (fails != r.outcomes.fails()) {
      return "per_trial records " + std::to_string(fails) + " FAILs, counter has " +
             std::to_string(r.outcomes.fails());
    }
  }

  // Lane differential: every accepted lane-eligible spec — honest or
  // deviated (basic-single, rushing) ring — must produce the same
  // executions on the batched lane engine as on the scalar runtime, and
  // every spec with a closed form (the ring lane shapes and honest
  // phase-async-lead under round-robin, honest sync) the same results
  // under engine=auto as under engine=scalar (check_lane_differential).
  try {
    if (lane_eligible(spec) || served_by_closed_form(spec)) {
      const CheckResult lanes = check_lane_differential(spec, spec.threads);
      if (!lanes.passed) return "lane differential: " + lanes.detail;
    }
  } catch (const std::exception& error) {
    return std::string("lane differential threw: ") + error.what();
  }

  if (window >= 2) {
    ScenarioSpec rerun = spec;
    rerun.threads = spec.threads == 3 ? 2 : 3;
    std::optional<ScenarioResult> second;
    try {
      second.emplace(run_scenario(rerun));
    } catch (const std::exception& error) {
      return std::string("accepted at threads=") + std::to_string(spec.threads) +
             " but threw at threads=" + std::to_string(rerun.threads) + ": " + error.what();
    }
    if (second->outcomes.fails() != r.outcomes.fails()) {
      return "fails differ across worker counts: " + std::to_string(r.outcomes.fails()) +
             " vs " + std::to_string(second->outcomes.fails());
    }
    for (int j = 0; j < dist.n(); ++j) {
      const auto v = static_cast<Value>(j);
      if (second->outcomes.count(v) != r.outcomes.count(v)) {
        return "outcome counts differ across worker counts at leader " + std::to_string(j);
      }
    }
    if (second->total_messages != r.total_messages ||
        second->max_messages != r.max_messages ||
        second->max_sync_gap != r.max_sync_gap ||
        second->total_sync_gap != r.total_sync_gap || second->max_rounds != r.max_rounds) {
      return "message/gap/round stats differ across worker counts";
    }
    if (spec.record_transcripts) {
      if (second->per_trial_transcript.size() != r.per_trial_transcript.size()) {
        return "transcript counts differ across worker counts";
      }
      for (std::size_t t = 0; t < r.per_trial_transcript.size(); ++t) {
        if (!(second->per_trial_transcript[t] == r.per_trial_transcript[t])) {
          return "transcripts differ across worker counts at trial " + std::to_string(t);
        }
      }
    }
  }
  return std::nullopt;
}

ScenarioSpec shrink_spec(ScenarioSpec spec, const FuzzOracle& oracle) {
  // Candidate transformations, most aggressive first.  Each either returns
  // a strictly simpler spec or nullopt when it no longer applies.
  using Transform = std::function<std::optional<ScenarioSpec>(const ScenarioSpec&)>;
  const std::vector<Transform> transforms = {
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.deviation.empty()) return std::nullopt;
        ScenarioSpec c = s;
        c.deviation.clear();
        c.coalition = CoalitionSpec{};
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.trials <= 2) return std::nullopt;
        ScenarioSpec c = s;
        c.trials = std::max<std::size_t>(2, s.trials / 2);
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.n <= 2) return std::nullopt;
        ScenarioSpec c = s;
        c.n = std::max(2, s.n / 2);
        c.target = std::min<Value>(c.target, static_cast<Value>(c.n) - 1);
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.n <= 2) return std::nullopt;
        ScenarioSpec c = s;
        c.n = s.n - 1;
        c.target = std::min<Value>(c.target, static_cast<Value>(c.n) - 1);
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.topology != TopologyKind::kThreaded) return std::nullopt;
        ScenarioSpec c = s;
        c.topology = TopologyKind::kRing;
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.scheduler == SchedulerKind::kRoundRobin) return std::nullopt;
        ScenarioSpec c = s;
        c.scheduler = SchedulerKind::kRoundRobin;
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.coalition.placement == CoalitionSpec::Placement::kDefault) return std::nullopt;
        ScenarioSpec c = s;
        c.coalition = CoalitionSpec{};
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (!s.record_outcomes) return std::nullopt;
        ScenarioSpec c = s;
        c.record_outcomes = false;
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (!s.record_transcripts) return std::nullopt;
        ScenarioSpec c = s;
        c.record_transcripts = false;
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.step_limit == 0) return std::nullopt;
        ScenarioSpec c = s;
        c.step_limit = 0;
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.trial_offset == 0 && s.trial_count == 0) return std::nullopt;
        ScenarioSpec c = s;
        c.trial_offset = 0;
        c.trial_count = 0;
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.param_l == 0) return std::nullopt;
        ScenarioSpec c = s;
        c.param_l = 0;
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.engine == EngineKind::kAuto) return std::nullopt;
        ScenarioSpec c = s;
        c.engine = EngineKind::kAuto;
        return c;
      },
      [](const ScenarioSpec& s) -> std::optional<ScenarioSpec> {
        if (s.target == 0) return std::nullopt;
        ScenarioSpec c = s;
        c.target = 0;
        return c;
      },
  };

  int budget = 200;
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;
    for (const Transform& transform : transforms) {
      if (budget <= 0) break;
      const std::optional<ScenarioSpec> candidate = transform(spec);
      if (!candidate) continue;
      --budget;
      if (oracle(*candidate).has_value()) {
        spec = *candidate;
        improved = true;
      }
    }
  }
  return spec;
}

namespace {

/// The honest outcome support of each builtin (mirrors the suite's honest
/// cases): baton is uniform over non-starters, coin games over {0, 1},
/// everything else over [0, n).  Unknown (user-registered) protocols get
/// the full-range default.
UniformSupport smoke_support(const std::string& protocol, int n) {
  if (protocol == "baton") return {1, static_cast<Value>(n)};
  if (protocol == "majority-coin" || protocol == "alternating-xor" ||
      protocol == "xor-leaf-edge") {
    return {0, 2};
  }
  return {0, static_cast<Value>(n)};
}

/// Every kSmokeEvery-th executed spec of a campaign gets the uniformity
/// smoke, at kSmokeTrials trials.
constexpr std::size_t kSmokeEvery = 8;
constexpr std::size_t kSmokeTrials = 200;

/// Distribution regression smoke: re-run the spec's honest profile at a
/// cheap trial budget and chi-square it against uniform over the
/// protocol's support.  nullopt = clean (or not smokable).
std::optional<FuzzFailure> run_uniformity_smoke(ScenarioSpec spec) {
  spec.deviation.clear();
  spec.coalition = CoalitionSpec{};
  spec.record_outcomes = false;
  spec.record_transcripts = false;  // capture adds nothing to a histogram smoke
  spec.step_limit = 0;  // a starved step limit FAILs honestly, by design
  spec.trial_offset = 0;
  spec.trial_count = 0;
  spec.trials = kSmokeTrials;
  spec.threads = 1;
  // The threaded runtime is differentially pinned to the ring; smoke the
  // cheap engine.
  if (spec.topology == TopologyKind::kThreaded) spec.topology = TopologyKind::kRing;
  // Majority tie-breaks to 0 on even n (a documented bias, not a bug).
  if (spec.protocol == "majority-coin") spec.n |= 1;

  const UniformSupport support = smoke_support(spec.protocol, spec.n);
  const Value hi = support.hi != 0 ? support.hi : static_cast<Value>(spec.n);
  if (hi <= support.lo + 1) return std::nullopt;  // degenerate support (n = 2 baton)

  UniformityOptions uniformity;
  uniformity.support = support;
  CheckResult verdict = [&] {
    try {
      return check_uniformity(spec, uniformity);
    } catch (const std::invalid_argument&) {
      // The honest projection of a fuzzed spec may be rejected (e.g. an
      // out-of-range param_l): nothing to smoke.
      return CheckResult::pass("uniformity", "", "");
    }
  }();
  if (verdict.passed) return std::nullopt;
  return FuzzFailure{spec, "uniformity smoke: " + verdict.detail, format_spec(spec)};
}

}  // namespace

FuzzReport run_fuzz_campaign(const FuzzOptions& options) {
  FuzzReport report;
  Xoshiro256 rng(mix64(options.seed ^ 0xf0225eedull));
  const FuzzOracle oracle = [](const ScenarioSpec& spec) { return run_spec_invariants(spec); };
  for (std::size_t i = 0; i < options.specs; ++i) {
    const ScenarioSpec spec = generate_spec(rng);
    bool rejected = false;
    const std::optional<std::string> failure = run_spec_invariants(spec, &rejected);
    ++report.executed;
    if (rejected) ++report.rejected;
    if (!failure) {
      // Run-level invariants held: every kSmokeEvery-th executed spec also
      // gets the distribution smoke (crashes are not the only regression
      // class; a skewed histogram with intact accounting passes everything
      // above).  Distribution failures are reported unshrunk — shrinking
      // trades away the statistical power that exposed them.
      if (!rejected && i % kSmokeEvery == 0) {
        if (auto smoke = run_uniformity_smoke(spec)) {
          report.failures.push_back(*std::move(smoke));
        }
      }
      continue;
    }

    const ScenarioSpec shrunk = shrink_spec(spec, oracle);
    const std::optional<std::string> reason = run_spec_invariants(shrunk);
    report.failures.push_back(FuzzFailure{
        shrunk, reason.value_or(*failure), format_spec(shrunk)});
  }
  return report;
}

CheckReport FuzzReport::as_report() const {
  CheckReport out;
  if (failures.empty()) {
    out.add(CheckResult::pass(
        "fuzz", std::to_string(executed) + " generated specs",
        std::to_string(rejected) + " cleanly rejected, 0 invariant violations"));
    return out;
  }
  for (const FuzzFailure& failure : failures) {
    out.add(CheckResult::fail("fuzz", failure.repro, failure.reason));
  }
  return out;
}

std::string format_spec(const ScenarioSpec& spec) {
  // Fields at their ScenarioSpec default are omitted; comparing against a
  // default-constructed spec (not literal constants) keeps the omission
  // rule — and therefore every stored repro line — valid if a default in
  // api/scenario.h ever changes (parse_spec starts from the same default).
  static const ScenarioSpec defaults;
  std::ostringstream out;
  out << "topology=" << to_string(spec.topology);
  out << " protocol=" << spec.protocol;
  if (!spec.deviation.empty()) out << " deviation=" << spec.deviation;
  if (spec.coalition.placement != CoalitionSpec::Placement::kDefault) {
    out << " placement=" << placement_name(spec.coalition.placement);
    if (spec.coalition.placement == CoalitionSpec::Placement::kCustom) {
      out << " members=";
      for (std::size_t i = 0; i < spec.coalition.members.size(); ++i) {
        if (i != 0) out << ',';
        out << spec.coalition.members[i];
      }
    } else if (spec.coalition.placement == CoalitionSpec::Placement::kBernoulli) {
      out << " density=" << spec.coalition.density
          << " placement_seed=" << spec.coalition.placement_seed;
    } else {
      out << " k=" << spec.coalition.k << " first=" << spec.coalition.first;
    }
  }
  if (spec.target != defaults.target) out << " target=" << spec.target;
  if (spec.scheduler != defaults.scheduler) {
    out << " scheduler=" << to_string(spec.scheduler);
  }
  out << " n=" << spec.n << " trials=" << spec.trials << " seed=" << spec.seed;
  if (spec.trial_offset != defaults.trial_offset) out << " trial_offset=" << spec.trial_offset;
  if (spec.trial_count != defaults.trial_count) out << " trial_count=" << spec.trial_count;
  if (spec.step_limit != defaults.step_limit) out << " step_limit=" << spec.step_limit;
  if (spec.threads != defaults.threads) out << " threads=" << spec.threads;
  if (spec.record_outcomes != defaults.record_outcomes) {
    out << " record=" << (spec.record_outcomes ? 1 : 0);
  }
  if (spec.record_transcripts != defaults.record_transcripts) {
    out << " transcripts=" << (spec.record_transcripts ? 1 : 0);
  }
  if (spec.engine != defaults.engine) out << " engine=" << to_string(spec.engine);
  if (spec.protocol_key != defaults.protocol_key) {
    out << " protocol_key=" << spec.protocol_key;
  }
  if (spec.param_l != defaults.param_l) out << " param_l=" << spec.param_l;
  if (spec.search_cap != defaults.search_cap) out << " search_cap=" << spec.search_cap;
  if (spec.prefix != defaults.prefix) out << " prefix=" << spec.prefix;
  if (spec.rounds != defaults.rounds) out << " rounds=" << spec.rounds;
  if (spec.tamper_send != defaults.tamper_send) out << " tamper_send=" << spec.tamper_send;
  return out.str();
}

ScenarioSpec parse_spec(const std::string& line) {
  ScenarioSpec spec;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("spec token '" + token + "' is not key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "topology") {
      const auto kind = parse_topology(value);
      if (!kind) throw std::invalid_argument("unknown topology '" + value + "'");
      spec.topology = *kind;
    } else if (key == "protocol") {
      spec.protocol = value;
    } else if (key == "deviation") {
      spec.deviation = value;
    } else if (key == "placement") {
      spec.coalition.placement = parse_placement(value);
    } else if (key == "members") {
      spec.coalition.members.clear();
      std::istringstream members(value);
      std::string id;
      while (std::getline(members, id, ',')) {
        parse_int_field(spec.coalition.members.emplace_back(), key, id);
      }
    } else if (key == "density") {
      const std::optional<double> density = try_parse_double(value);
      if (!density) {
        throw std::invalid_argument("spec key 'density': '" + value + "' is not a number");
      }
      spec.coalition.density = *density;
    } else if (key == "placement_seed") {
      parse_int_field(spec.coalition.placement_seed, key, value);
    } else if (key == "k") {
      parse_int_field(spec.coalition.k, key, value);
    } else if (key == "first") {
      parse_int_field(spec.coalition.first, key, value);
    } else if (key == "target") {
      parse_int_field(spec.target, key, value);
    } else if (key == "scheduler") {
      spec.scheduler = parse_scheduler(value);
    } else if (key == "n") {
      parse_int_field(spec.n, key, value);
    } else if (key == "trials") {
      parse_int_field(spec.trials, key, value);
    } else if (key == "seed") {
      parse_int_field(spec.seed, key, value);
    } else if (key == "trial_offset") {
      parse_int_field(spec.trial_offset, key, value);
    } else if (key == "trial_count") {
      parse_int_field(spec.trial_count, key, value);
    } else if (key == "step_limit") {
      parse_int_field(spec.step_limit, key, value);
    } else if (key == "threads") {
      parse_int_field(spec.threads, key, value);
    } else if (key == "record") {
      spec.record_outcomes = parse_flag(key, value);
    } else if (key == "transcripts") {
      spec.record_transcripts = parse_flag(key, value);
    } else if (key == "engine") {
      const auto engine = parse_engine(value);
      if (!engine) throw std::invalid_argument("unknown engine '" + value + "'");
      spec.engine = *engine;
    } else if (key == "protocol_key") {
      parse_int_field(spec.protocol_key, key, value);
    } else if (key == "param_l") {
      parse_int_field(spec.param_l, key, value);
    } else if (key == "search_cap") {
      parse_int_field(spec.search_cap, key, value);
    } else if (key == "prefix") {
      parse_int_field(spec.prefix, key, value);
    } else if (key == "rounds") {
      parse_int_field(spec.rounds, key, value);
    } else if (key == "tamper_send") {
      parse_int_field(spec.tamper_send, key, value);
    } else {
      throw std::invalid_argument("unknown spec key '" + key + "'");
    }
  }
  if (spec.protocol.empty()) {
    throw std::invalid_argument("spec line names no protocol");
  }
  return spec;
}

}  // namespace fle::verify

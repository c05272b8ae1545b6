#include "verify/suite.h"

#include <algorithm>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/sweep.h"
#include "attacks/coalition.h"
#include "verify/checks.h"
#include "verify/differential.h"
#include "verify/fuzzer.h"
#include "verify/shard.h"

namespace fle::verify {

namespace {

/// Honest-profile description of one registered protocol: where it runs,
/// at what size, and what outcome support honest uniformity covers.
struct HonestCase {
  const char* protocol;
  TopologyKind topology;
  int n;
  UniformSupport support;  ///< {0, 0} = uniform over [0, n)
  int rounds = 3;          ///< turn-game depth where it applies
};

/// Every registered built-in, honest profile (acceptance criterion: the
/// uniformity and termination checks cover the full registry).
const std::vector<HonestCase>& honest_cases() {
  static const std::vector<HonestCase> kCases = {
      {"basic-lead", TopologyKind::kRing, 16, {}},
      {"alead-uni", TopologyKind::kRing, 16, {}},
      {"phase-async-lead", TopologyKind::kRing, 16, {}},
      {"phase-sum-lead", TopologyKind::kRing, 16, {}},
      {"indexing+alead-uni", TopologyKind::kRing, 16, {}},
      {"chang-roberts", TopologyKind::kRing, 16, {}},
      {"peterson", TopologyKind::kRing, 16, {}},
      {"shamir-lead", TopologyKind::kGraph, 8, {}},
      {"sync-broadcast-lead", TopologyKind::kSync, 8, {}},
      {"sync-ring-lead", TopologyKind::kSync, 8, {}},
      // The baton starter never receives the baton: uniform over [1, n).
      {"baton", TopologyKind::kFullInfo, 8, {1, 8}},
      // Coin games: uniform over {0, 1}.  Majority needs odd n (ties break
      // to 0 on even n, a deliberate bias the paper's related work notes).
      {"majority-coin", TopologyKind::kFullInfo, 9, {0, 2}},
      {"alternating-xor", TopologyKind::kTree, 2, {0, 2}, 4},
      {"xor-leaf-edge", TopologyKind::kTree, 2, {0, 2}},
  };
  return kCases;
}

ScenarioSpec honest_spec(const HonestCase& c, const SuiteOptions& options) {
  ScenarioSpec spec;
  spec.topology = c.topology;
  spec.protocol = c.protocol;
  spec.n = c.n;
  spec.rounds = c.rounds;
  spec.trials = options.trials;
  spec.seed = options.seed;
  return spec;
}

/// Message-complexity envelope for the honest spec: the registered ring or
/// graph protocol's own honest_message_bound; 0 (skip) for runtimes whose
/// protocols carry no message bound (sync rounds, turn games).
std::uint64_t message_envelope(const ScenarioSpec& spec) {
  register_builtin_scenarios();
  const ProtocolEntry& entry = ProtocolRegistry::instance().at(spec.protocol);
  switch (spec.topology) {
    case TopologyKind::kRing:
    case TopologyKind::kThreaded:
      return entry.make_ring ? entry.make_ring(spec, spec.seed)->honest_message_bound(spec.n)
                             : 0;
    case TopologyKind::kGraph:
      return entry.make_graph
                 ? entry.make_graph(spec, spec.seed)->honest_message_bound(spec.n)
                 : 0;
    default:
      return 0;
  }
}

/// The paper's bounded-gain claims, as deviated specs whose coalition must
/// not beat the honest baseline (DESIGN.md §5 maps each to its theorem).
struct ResilienceCase {
  const char* what;  ///< theorem pointer, for the subject line
  ScenarioSpec spec;
  double epsilon;
};

std::vector<ResilienceCase> resilience_cases(const SuiteOptions& options) {
  std::vector<ResilienceCase> cases;
  {
    // Theorem 6.1: PhaseAsyncLead resists k = O(sqrt(n)) coalitions — the
    // strongest known attack (free-slot steering) has no free slots below
    // the threshold and decoheres into FAIL, which solution preference
    // makes worthless.
    ScenarioSpec spec;
    spec.protocol = "phase-async-lead";
    spec.deviation = "phase-rushing";
    spec.n = 100;
    spec.coalition = CoalitionSpec::equally_spaced(5);
    spec.target = 25;
    spec.search_cap = 64 * 100;
    cases.push_back({"Theorem 6.1 (k = sqrt(n)/2)", spec, 0.02});
  }
  {
    // Section 1.1 / E15: blind collusion against the synchronous broadcast
    // protocol gains nothing even at k = n-1.
    ScenarioSpec spec;
    spec.topology = TopologyKind::kSync;
    spec.protocol = "sync-broadcast-lead";
    spec.deviation = "sync-blind-collusion";
    spec.n = 8;
    spec.coalition = CoalitionSpec::consecutive(7);
    spec.target = 2;
    cases.push_back({"Section 1.1 (k = n-1, sync)", spec, 0.02});
  }
  {
    // Theorem 6.1's validation mechanism: single-processor tampering is
    // detected and the execution FAILs, so the tamperer gains nothing.
    ScenarioSpec spec;
    spec.protocol = "phase-async-lead";
    spec.deviation = "tamper-flip";
    spec.n = 16;
    spec.coalition = CoalitionSpec::consecutive(1, 3);
    spec.target = 5;
    cases.push_back({"validation detects tampering", spec, 0.01});
  }
  {
    // Theorem 5.1's buffering: suppressing a send stalls the pipeline into
    // a detected non-termination, never a steered election.
    ScenarioSpec spec;
    spec.protocol = "alead-uni";
    spec.deviation = "tamper-drop";
    spec.n = 16;
    spec.coalition = CoalitionSpec::consecutive(1, 3);
    spec.target = 5;
    cases.push_back({"Theorem 5.1 (dropped send stalls)", spec, 0.01});
  }
  for (auto& c : cases) {
    c.spec.trials = options.trials;
    c.spec.seed = options.seed;
  }
  return cases;
}

/// The attack side of the theorems (ROADMAP "attack-effectiveness lower
/// bounds"): under each attack's preconditions the paper PROVES
/// Pr[leader = target] = 1; the implementation must reach that floor.
/// These attacks are deterministic given the preconditions, so a moderate
/// trial budget suffices even at full suite budget.
struct AttackFloorCase {
  const char* what;
  ScenarioSpec spec;
};

std::vector<AttackFloorCase> attack_floor_cases(const SuiteOptions& options) {
  const std::size_t trials = std::min<std::size_t>(options.trials, 2000);
  std::vector<AttackFloorCase> cases;
  {
    // Claim B.1: one adversary fully controls Basic-LEAD.
    ScenarioSpec spec;
    spec.protocol = "basic-lead";
    spec.deviation = "basic-single";
    spec.coalition = CoalitionSpec::consecutive(1, 3);
    spec.n = 16;
    spec.target = 6;
    cases.push_back({"Claim B.1 (k = 1 controls Basic-LEAD)", spec});
  }
  {
    // Lemma 4.1 / Theorem 4.2: k = sqrt(n) equally spaced adversaries
    // control A-LEADuni (precondition l_j <= k-1 holds at n = k^2).
    ScenarioSpec spec;
    spec.protocol = "alead-uni";
    spec.deviation = "rushing";
    spec.coalition = CoalitionSpec::equally_spaced(8);
    spec.n = 64;
    spec.target = 63;
    cases.push_back({"Lemma 4.1 / Thm 4.2 (rushing, k = sqrt(n))", spec});
  }
  {
    // Theorem 4.3: the cubic attack controls A-LEADuni with
    // k = 2 n^(1/3) staircase-placed adversaries.
    ScenarioSpec spec;
    spec.protocol = "alead-uni";
    spec.deviation = "cubic";
    spec.coalition = CoalitionSpec::cubic_staircase(Coalition::cubic_min_k(64));
    spec.n = 64;
    spec.target = 32;
    cases.push_back({"Theorem 4.3 (cubic, k = 2 n^(1/3))", spec});
  }
  {
    // Appendix E.4: the phase-sum covert channel controls PhaseSumLead
    // with a constant k = 4 coalition at any ring size >= 20.
    ScenarioSpec spec;
    spec.protocol = "phase-sum-lead";
    spec.deviation = "phase-sum";  // canonical k = 4 placement
    spec.n = 32;
    spec.target = 29;
    cases.push_back({"Appendix E.4 (phase-sum, k = 4)", spec});
  }
  for (auto& c : cases) {
    c.spec.trials = trials;
    c.spec.seed = options.seed;
  }
  return cases;
}

/// Lemma D.3/D.5 synchronization-gap envelopes: honest A-LEADuni runs
/// lock-step, the cubic attack desynchronizes by Theta(k^2) and no more,
/// and phase validation pins everyone to O(k) even under attack.  The gap
/// is a per-trial maximum, so a handful of trials suffices.
struct SyncGapCase {
  const char* what;
  ScenarioSpec spec;
  std::uint64_t max_gap;
};

std::vector<SyncGapCase> sync_gap_cases(const SuiteOptions& options) {
  const std::size_t trials = std::min<std::size_t>(options.trials, 8);
  std::vector<SyncGapCase> cases;
  {
    ScenarioSpec spec;
    spec.protocol = "alead-uni";
    spec.n = 100;
    cases.push_back({"Lemma D.3 (honest lock-step)", spec, 2});
  }
  {
    const int n = 216;
    const int k = Coalition::cubic_min_k(n);
    ScenarioSpec spec;
    spec.protocol = "alead-uni";
    spec.deviation = "cubic";
    spec.coalition = CoalitionSpec::cubic_staircase(k);
    spec.target = static_cast<Value>(n / 2);
    spec.n = n;
    cases.push_back({"Lemma D.3 (cubic desync <= 2k^2)", spec,
                     2ull * static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(k)});
  }
  {
    const int n = 100;
    const int k = 5;
    ScenarioSpec spec;
    spec.protocol = "phase-async-lead";
    spec.deviation = "phase-rushing";
    spec.coalition = CoalitionSpec::equally_spaced(k);
    spec.target = 25;
    spec.search_cap = 64ull * static_cast<std::uint64_t>(n);
    spec.n = n;
    cases.push_back({"Lemma D.5 (PhaseAsyncLead O(k))", spec,
                     4ull * static_cast<std::uint64_t>(k)});
  }
  {
    // Phase validation holds the E.4 attack to O(k) too: the covert
    // channel defeats the sum output despite intact synchronization.
    ScenarioSpec spec;
    spec.protocol = "phase-sum-lead";
    spec.deviation = "phase-sum";  // canonical k = 4 placement
    spec.n = 64;
    spec.target = 61;
    cases.push_back({"Lemma D.5 (phase-sum attack O(k))", spec, 16});
  }
  for (auto& c : cases) {
    c.spec.trials = trials;
    c.spec.seed = options.seed;
  }
  return cases;
}

/// One gate of the statistical plan, referencing plan spec indices.
struct StatGate {
  enum class Kind { kUniformity, kTermination, kResilience, kAttackFloor, kSyncGap };
  Kind kind;
  std::size_t spec_index = 0;
  std::size_t baseline_index = 0;  ///< resilience only
  UniformSupport support{};
  std::uint64_t max_messages = 0;
  double epsilon = 0.0;
  std::uint64_t max_gap = 0;
  std::string suffix;  ///< theorem pointer appended to the subject line
};

/// The statistical section as data: every scenario execution it needs (run
/// as one sweep, or sharded by trial window) plus the gates over the
/// results.
struct StatisticalPlan {
  std::vector<ScenarioSpec> specs;
  std::vector<StatGate> gates;
};

StatisticalPlan build_statistical_plan(const SuiteOptions& options) {
  StatisticalPlan plan;
  const auto add_spec = [&plan](const ScenarioSpec& spec) {
    plan.specs.push_back(spec);
    return plan.specs.size() - 1;
  };

  for (const HonestCase& c : honest_cases()) {
    const ScenarioSpec spec = honest_spec(c, options);
    const std::size_t index = add_spec(spec);
    StatGate uniformity;
    uniformity.kind = StatGate::Kind::kUniformity;
    uniformity.spec_index = index;
    uniformity.support = c.support;
    plan.gates.push_back(uniformity);
    StatGate termination;
    termination.kind = StatGate::Kind::kTermination;
    termination.spec_index = index;
    termination.max_messages = message_envelope(spec);
    plan.gates.push_back(termination);
  }
  for (const ResilienceCase& c : resilience_cases(options)) {
    ScenarioSpec baseline = c.spec;
    baseline.deviation.clear();
    baseline.coalition = CoalitionSpec{};
    StatGate gate;
    gate.kind = StatGate::Kind::kResilience;
    gate.spec_index = add_spec(c.spec);
    gate.baseline_index = add_spec(baseline);
    gate.epsilon = c.epsilon;
    gate.suffix = std::string(" [") + c.what + "]";
    plan.gates.push_back(gate);
  }
  for (const AttackFloorCase& c : attack_floor_cases(options)) {
    StatGate gate;
    gate.kind = StatGate::Kind::kAttackFloor;
    gate.spec_index = add_spec(c.spec);
    gate.suffix = std::string(" [") + c.what + "]";
    plan.gates.push_back(gate);
  }
  for (const SyncGapCase& c : sync_gap_cases(options)) {
    StatGate gate;
    gate.kind = StatGate::Kind::kSyncGap;
    gate.spec_index = add_spec(c.spec);
    gate.max_gap = c.max_gap;
    gate.suffix = std::string(" [") + c.what + "]";
    plan.gates.push_back(gate);
  }
  return plan;
}

CheckReport evaluate_plan(const StatisticalPlan& plan,
                          const std::vector<ScenarioResult>& results) {
  CheckReport report;
  for (const StatGate& gate : plan.gates) {
    const ScenarioSpec& spec = plan.specs[gate.spec_index];
    const ScenarioResult& result = results[gate.spec_index];
    CheckResult check = [&] {
      switch (gate.kind) {
        case StatGate::Kind::kUniformity: {
          UniformityOptions options;
          options.support = gate.support;
          return check_uniformity(spec, result, options);
        }
        case StatGate::Kind::kTermination: {
          TerminationOptions options;
          options.max_messages = gate.max_messages;
          return check_termination_and_messages(spec, result, options);
        }
        case StatGate::Kind::kResilience: {
          ResilienceOptions options;
          options.epsilon = gate.epsilon;
          return check_resilience(spec, result, results[gate.baseline_index], options);
        }
        case StatGate::Kind::kAttackFloor:
          return check_attack_floor(spec, result, AttackFloorOptions{});
        case StatGate::Kind::kSyncGap: {
          SyncGapOptions options;
          options.max_gap = gate.max_gap;
          return check_sync_gap(spec, result, options);
        }
      }
      throw std::logic_error("unreachable gate kind");
    }();
    check.subject += gate.suffix;
    report.add(std::move(check));
  }
  return report;
}

/// Ring protocols exercised by the exact differential checks.
const std::vector<const char*>& ring_protocols() {
  static const std::vector<const char*> kProtocols = {
      "basic-lead",   "alead-uni", "phase-async-lead", "phase-sum-lead",
      "indexing+alead-uni", "chang-roberts", "peterson"};
  return kProtocols;
}

}  // namespace

SuiteOptions quick_suite_options() {
  SuiteOptions options;
  options.trials = 400;
  options.exact_trials = 16;
  options.fuzz_specs = 16;
  return options;
}

CheckReport run_statistical_checks(const SuiteOptions& options) {
  StatisticalPlan plan = build_statistical_plan(options);
  // One sweep for the whole section: the n=8 coin checks and the 10k-trial
  // ring histograms share one executor submission, so small scenarios no
  // longer strand workers while a big one drains.
  SweepSpec sweep;
  sweep.scenarios = plan.specs;
  sweep.threads = options.threads;
  return evaluate_plan(plan, run_sweep(sweep));
}

void run_statistical_shard(const SuiteOptions& options, const ShardSlice& slice,
                           std::ostream& out) {
  if (slice.count < 1 || slice.index < 0 || slice.index >= slice.count) {
    throw std::invalid_argument("ShardSlice must satisfy 0 <= index < count (got " +
                                std::to_string(slice.index) + "/" +
                                std::to_string(slice.count) + ")");
  }
  const StatisticalPlan plan = build_statistical_plan(options);
  SweepSpec sweep;
  sweep.threads = options.threads;
  std::vector<std::size_t> case_of_scenario;
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    ScenarioSpec spec = plan.specs[i];
    const TrialWindow window =
        shard_trial_window(spec, static_cast<std::size_t>(slice.index),
                           static_cast<std::size_t>(slice.count));
    if (window.count == 0) continue;  // fewer trials than shards: nothing here
    spec.trial_offset = window.first;
    spec.trial_count = window.count;
    sweep.add(std::move(spec));
    case_of_scenario.push_back(i);
  }
  const std::vector<ScenarioResult> results = run_sweep(sweep);
  for (std::size_t s = 0; s < results.size(); ++s) {
    ShardRow row;
    row.case_index = case_of_scenario[s];
    row.spec_line = format_spec(shard_key_spec(plan.specs[case_of_scenario[s]]));
    row.result = results[s];
    out << format_shard_row(row) << '\n';
  }
}

CheckReport merge_statistical_shards(const SuiteOptions& options,
                                     const std::vector<std::string>& rows) {
  const StatisticalPlan plan = build_statistical_plan(options);
  std::vector<ShardRow> parsed;
  parsed.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].empty()) continue;
    try {
      parsed.push_back(parse_shard_row(rows[r]));
    } catch (const std::exception& error) {
      throw std::invalid_argument("shard input row " + std::to_string(r) + ": " +
                                  error.what());
    }
  }
  std::map<std::size_t, MergedCase> merged = merge_shard_rows(std::move(parsed));

  std::vector<ScenarioResult> results;
  results.reserve(plan.specs.size());
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    const auto it = merged.find(i);
    if (it == merged.end()) {
      throw std::invalid_argument("no shard rows for statistical case #" +
                                  std::to_string(i) + " (" +
                                  format_spec(shard_key_spec(plan.specs[i])) +
                                  ") — were all shard files passed to --merge?");
    }
    const std::string expected = format_spec(shard_key_spec(plan.specs[i]));
    if (it->second.spec_line != expected) {
      throw std::invalid_argument(
          "statistical case #" + std::to_string(i) + " spec mismatch: shard rows say '" +
          it->second.spec_line + "' but these options describe '" + expected +
          "' — shards and merge must run with identical budgets/seed");
    }
    results.push_back(std::move(it->second.result));
  }
  return evaluate_plan(plan, results);
}

CheckReport run_differential_checks(const SuiteOptions& options) {
  return run_differential_checks(options, ShardSlice{});
}

CheckReport run_differential_checks(const SuiteOptions& options, const ShardSlice& slice) {
  // The differential cases as thunks, so a shard can run its round-robin
  // share (case i runs on shard i mod count).
  std::vector<std::function<CheckResult()>> cases;
  for (const char* protocol : ring_protocols()) {
    ScenarioSpec spec;
    spec.protocol = protocol;
    spec.n = 12;
    spec.trials = options.exact_trials;
    spec.seed = options.seed + 17;
    spec.threads = options.threads;
    cases.emplace_back([spec] {
      return check_differential_exact(spec, TopologyKind::kRing, TopologyKind::kThreaded);
    });
    cases.emplace_back([spec] { return check_scheduler_invariance(spec); });
    cases.emplace_back([spec] { return check_trace_determinism(spec, /*traced_trials=*/8); });
  }
  {
    // Deviated executions must agree across runtimes too (the adversary
    // sees the same message sequence under any oblivious schedule).
    ScenarioSpec spec;
    spec.protocol = "basic-lead";
    spec.deviation = "basic-single";
    spec.coalition = CoalitionSpec::consecutive(1, 3);
    spec.target = 6;
    spec.n = 12;
    spec.trials = options.exact_trials;
    spec.seed = options.seed + 23;
    spec.threads = options.threads;
    cases.emplace_back([spec] {
      return check_differential_exact(spec, TopologyKind::kRing, TopologyKind::kThreaded);
    });
    cases.emplace_back([spec] { return check_trace_determinism(spec, /*traced_trials=*/8); });
  }
  {
    // Statistical reductions: protocols the paper proves uniform must be
    // indistinguishable across runtimes (ring vs sync vs graph).
    ScenarioSpec ring;
    ring.protocol = "alead-uni";
    ring.n = 8;
    ring.trials = options.trials;
    ring.seed = options.seed + 29;
    ring.threads = options.threads;
    ScenarioSpec sync = ring;
    sync.topology = TopologyKind::kSync;
    sync.protocol = "sync-ring-lead";
    // Decorrelate the samples: with a shared base seed the ring and sync
    // sum-protocols compute the *same* function of each trial seed and the
    // two histograms coincide exactly, which degenerates the test.
    sync.seed = ring.seed + 104729;
    cases.emplace_back([ring, sync] { return check_differential_distribution(ring, sync); });

    ScenarioSpec graph = ring;
    graph.topology = TopologyKind::kGraph;
    graph.protocol = "shamir-lead";
    graph.seed = ring.seed + 224737;
    cases.emplace_back([graph, sync] { return check_differential_distribution(graph, sync); });

    ScenarioSpec chang = ring;
    chang.protocol = "chang-roberts";
    ScenarioSpec peterson = ring;
    peterson.protocol = "peterson";
    peterson.seed = ring.seed + 350377;
    cases.emplace_back(
        [chang, peterson] { return check_differential_distribution(chang, peterson); });
  }

  {
    // The lane-engine gate (DESIGN.md §10): every lane kernel, on 1/4/8
    // workers, must be bit-identical to the scalar engine — outcomes,
    // aggregates, and transcripts.  The random scheduler exercises the
    // per-trial reseed; round-robin reaches the closed forms.
    constexpr int kLaneWorkers[] = {1, 4, 8};
    constexpr SchedulerKind kLaneSchedulers[] = {SchedulerKind::kRandom,
                                                 SchedulerKind::kRoundRobin};
    const char* kernels[] = {"basic-lead", "chang-roberts", "alead-uni"};
    for (const SchedulerKind scheduler : kLaneSchedulers) {
      for (const char* protocol : kernels) {
        for (const int threads : kLaneWorkers) {
          ScenarioSpec spec;
          spec.protocol = protocol;
          spec.n = 12;
          spec.trials = options.exact_trials;
          spec.seed = options.seed + 47;
          spec.scheduler = scheduler;
          cases.emplace_back([spec, threads] { return check_lane_differential(spec, threads); });
        }
      }
    }
    // The deviated lane kernels gate the same way: the Claim B.1 lone
    // adversary on BASIC-LEAD and the Lemma 4.1 rushing coalition on
    // A-LEADuni (equally spaced so every l_j <= k-1 holds).
    for (const SchedulerKind scheduler : kLaneSchedulers) {
      for (const int threads : kLaneWorkers) {
        ScenarioSpec single;
        single.protocol = "basic-lead";
        single.deviation = "basic-single";
        single.target = 5;
        single.n = 12;
        single.trials = options.exact_trials;
        single.seed = options.seed + 47;
        single.scheduler = scheduler;
        cases.emplace_back(
            [single, threads] { return check_lane_differential(single, threads); });

        ScenarioSpec rushing;
        rushing.protocol = "alead-uni";
        rushing.deviation = "rushing";
        rushing.coalition = CoalitionSpec::equally_spaced(4, 1);
        rushing.target = 7;
        rushing.n = 12;
        rushing.trials = options.exact_trials;
        rushing.seed = options.seed + 47;
        rushing.scheduler = scheduler;
        cases.emplace_back(
            [rushing, threads] { return check_lane_differential(rushing, threads); });
      }
    }
    // And the sync-runtime lanes: both sync kernels against the scalar
    // SyncEngine's round loop (rounds, messages, phase/delivery/decision
    // transcripts).
    for (const char* protocol : {"sync-broadcast-lead", "sync-ring-lead"}) {
      for (const int threads : kLaneWorkers) {
        ScenarioSpec spec;
        spec.topology = TopologyKind::kSync;
        spec.protocol = protocol;
        spec.n = 12;
        spec.trials = options.exact_trials;
        spec.seed = options.seed + 47;
        cases.emplace_back([spec, threads] { return check_lane_differential(spec, threads); });
      }
    }
  }

  // The transcript-replay differential (DESIGN.md §7) runs for EVERY
  // registered protocol on its home topology — including the turn-game
  // (fullinfo/tree) entries, which have no second runtime to diff against
  // and get their execution-level check exclusively from this: same seed,
  // same transcript, event for event, plus a re-drive from the recording.
  for (const HonestCase& c : honest_cases()) {
    ScenarioSpec spec = honest_spec(c, options);
    spec.trials = std::min<std::size_t>(options.exact_trials, 64);
    spec.seed = options.seed + 41;
    spec.threads = options.threads;
    cases.emplace_back([spec] { return check_transcript_replay(spec); });
  }
  {
    // Deviated executions replay too — one ring attack and one turn-game
    // adversary (the recorded schedule and actions pin the attack's
    // behaviour, not just the honest protocol's).
    ScenarioSpec ring;
    ring.protocol = "alead-uni";
    ring.deviation = "cubic";
    ring.n = 27;
    ring.target = 13;
    ring.trials = std::min<std::size_t>(options.exact_trials, 32);
    ring.seed = options.seed + 43;
    ring.threads = options.threads;
    cases.emplace_back([ring] { return check_transcript_replay(ring); });

    ScenarioSpec baton;
    baton.topology = TopologyKind::kFullInfo;
    baton.protocol = "baton";
    baton.deviation = "baton-greedy";
    baton.coalition = CoalitionSpec::custom({1, 2, 3});
    baton.target = 7;
    baton.n = 8;
    baton.trials = std::min<std::size_t>(options.exact_trials, 32);
    baton.seed = options.seed + 47;
    baton.threads = options.threads;
    cases.emplace_back([baton] { return check_transcript_replay(baton); });
  }

  CheckReport report;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (slice.count > 1 &&
        static_cast<int>(i % static_cast<std::size_t>(slice.count)) != slice.index) {
      continue;
    }
    report.add(cases[i]());
  }
  return report;
}

CheckReport run_conformance_suite(const SuiteOptions& options) {
  CheckReport report;
  if (options.run_statistical) report.merge(run_statistical_checks(options));
  if (options.run_differential) report.merge(run_differential_checks(options));
  if (options.run_fuzz) {
    FuzzOptions fuzz;
    fuzz.seed = options.seed;
    fuzz.specs = options.fuzz_specs;
    report.merge(run_fuzz_campaign(fuzz).as_report());
  }
  return report;
}

}  // namespace fle::verify

#include "verify/differential.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "analysis/stats.h"
#include "api/registry.h"
#include "api/specialize.h"
#include "attacks/deviation.h"
#include "fullinfo/turn_game.h"
#include "sim/engine.h"
#include "sim/transcript.h"
#include "verify/checks.h"

namespace fle::verify {

namespace {

/// Per-trial outcome comparison shared by the exact differential checks.
CheckResult compare_per_trial(const char* check, const std::string& subject,
                              const std::vector<Outcome>& a, const std::vector<Outcome>& b,
                              const std::string& labels) {
  if (a.size() != b.size()) {
    return CheckResult::fail(check, subject,
                             labels + ": trial counts differ (" + std::to_string(a.size()) +
                                 " vs " + std::to_string(b.size()) + ")");
  }
  std::size_t mismatches = 0;
  std::size_t first = a.size();
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t] != b[t]) {
      if (mismatches == 0) first = t;
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    return CheckResult::fail(check, subject,
                             labels + ": " + std::to_string(mismatches) + "/" +
                                 std::to_string(a.size()) +
                                 " per-trial outcomes differ (first at trial " +
                                 std::to_string(first) + ")");
  }
  return CheckResult::pass(check, subject,
                           labels + ": " + std::to_string(a.size()) +
                               " per-trial outcomes identical");
}

}  // namespace

CheckResult check_differential_exact(ScenarioSpec spec, TopologyKind a, TopologyKind b) {
  spec.record_outcomes = true;
  ScenarioSpec spec_a = spec;
  spec_a.topology = a;
  ScenarioSpec spec_b = spec;
  spec_b.topology = b;
  const ScenarioResult ra = run_scenario(spec_a);
  const ScenarioResult rb = run_scenario(spec_b);
  return compare_per_trial(
      "differential-exact", check_subject(spec), ra.per_trial, rb.per_trial,
      std::string(to_string(a)) + " vs " + to_string(b));
}

CheckResult check_scheduler_invariance(ScenarioSpec spec) {
  if (spec.topology != TopologyKind::kRing) {
    throw std::invalid_argument("check_scheduler_invariance is ring-only (paper §2)");
  }
  spec.record_outcomes = true;
  ScenarioSpec rr = spec;
  rr.scheduler = SchedulerKind::kRoundRobin;
  const ScenarioResult base = run_scenario(rr);
  for (const SchedulerKind kind : {SchedulerKind::kRandom, SchedulerKind::kPriority}) {
    ScenarioSpec other = spec;
    other.scheduler = kind;
    const ScenarioResult r = run_scenario(other);
    const CheckResult cmp = compare_per_trial(
        "scheduler-invariance", check_subject(spec), base.per_trial, r.per_trial,
        std::string("round-robin vs ") + to_string(kind));
    if (!cmp.passed) return cmp;
  }
  return CheckResult::pass("scheduler-invariance", check_subject(spec),
                           "all oblivious schedules agree per trial");
}

CheckResult check_trace_determinism(const ScenarioSpec& spec, std::size_t traced_trials) {
  if (spec.topology != TopologyKind::kRing) {
    throw std::invalid_argument("check_trace_determinism is ring-only");
  }
  register_builtin_scenarios();
  const ProtocolEntry& protocol_entry = ProtocolRegistry::instance().at(spec.protocol);
  if (!protocol_entry.make_ring) {
    throw std::invalid_argument("protocol '" + spec.protocol + "' does not run on the ring");
  }
  const DeviationEntry* deviation_entry =
      spec.deviation.empty() ? nullptr : &DeviationRegistry::instance().at(spec.deviation);

  // kDigest transcripts attached through set_transcript: the same hook the
  // scenario layer records through, folded instead of stored.  The fresh
  // engine's profile is built in a fresh arena every trial; the reused
  // engine's in one arena rewound per trial, the workspace cadence.
  ExecutionTranscript fresh_digest(TranscriptMode::kDigest);
  ExecutionTranscript reused_digest(TranscriptMode::kDigest);
  std::unique_ptr<RingEngine> reused;
  StrategyArena reused_arena;
  std::vector<RingStrategy*> fresh_profile;
  std::vector<RingStrategy*> reused_profile;
  std::size_t digest_mismatches = 0;
  std::size_t outcome_mismatches = 0;

  for (std::size_t t = 0; t < traced_trials; ++t) {
    const std::uint64_t trial_seed = scenario_trial_seed(spec.seed, t);
    const auto protocol = protocol_entry.make_ring(spec, trial_seed);
    std::unique_ptr<Deviation> deviation;
    if (deviation_entry) deviation = deviation_entry->make_ring(*protocol, spec);
    const std::uint64_t step_limit = scenario_ring_step_limit(spec, *protocol);

    EngineOptions fresh_options;
    fresh_options.step_limit = step_limit;
    fresh_options.scheduler_kind = spec.scheduler;
    RingEngine fresh(spec.n, trial_seed, std::move(fresh_options));
    StrategyArena fresh_arena;
    compose_profile_into(*protocol, deviation.get(), spec.n, fresh_arena, fresh_profile);
    fresh_digest.clear();
    fresh.set_transcript(&fresh_digest);
    const Outcome fresh_outcome = fresh.run(std::span<RingStrategy* const>(fresh_profile));

    if (!reused) {
      EngineOptions reused_options;
      reused_options.step_limit = step_limit;
      reused_options.scheduler_kind = spec.scheduler;
      reused = std::make_unique<RingEngine>(spec.n, trial_seed, std::move(reused_options));
      reused->set_transcript(&reused_digest);
    } else {
      reused->reset(trial_seed);
    }
    reused_arena.rewind();
    compose_profile_into(*protocol, deviation.get(), spec.n, reused_arena, reused_profile);
    reused_digest.clear();
    const Outcome reused_outcome = reused->run(std::span<RingStrategy* const>(reused_profile));

    digest_mismatches += fresh_digest.digest() != reused_digest.digest() ||
                                 fresh_digest.size() != reused_digest.size()
                             ? 1
                             : 0;
    outcome_mismatches += fresh_outcome != reused_outcome ? 1 : 0;
  }

  const std::string subject = check_subject(spec);
  if (digest_mismatches != 0 || outcome_mismatches != 0) {
    return CheckResult::fail("trace-determinism", subject,
                             "fresh vs reused engine: " + std::to_string(digest_mismatches) +
                                 " digest and " + std::to_string(outcome_mismatches) +
                                 " outcome mismatches over " +
                                 std::to_string(traced_trials) + " trials");
  }
  return CheckResult::pass("trace-determinism", subject,
                           std::to_string(traced_trials) +
                               " trials: reused engine replays fresh engine traces exactly");
}

namespace {

/// Re-drives one recorded ring trial from its transcript: the recorded
/// schedule becomes the engine's scheduler, a fresh transcript is recorded
/// and compared event for event.  Returns a failure description or empty.
std::string redrive_ring_trial(const ScenarioSpec& spec, std::size_t trial,
                               const ExecutionTranscript& reference,
                               const Outcome& recorded_outcome) {
  const ProtocolEntry& protocol_entry = ProtocolRegistry::instance().at(spec.protocol);
  const DeviationEntry* deviation_entry =
      spec.deviation.empty() ? nullptr : &DeviationRegistry::instance().at(spec.deviation);
  const std::uint64_t trial_seed = scenario_trial_seed(spec.seed, trial);
  const auto protocol = protocol_entry.make_ring(spec, trial_seed);
  std::unique_ptr<Deviation> deviation;
  if (deviation_entry) deviation = deviation_entry->make_ring(*protocol, spec);

  const Replayer replayer(reference);
  ExecutionTranscript replayed;
  EngineOptions options;
  options.step_limit = scenario_ring_step_limit(spec, *protocol);
  options.scheduler = replayer.ring_schedule();
  RingEngine engine(spec.n, trial_seed, std::move(options));
  engine.set_transcript(&replayed);
  StrategyArena arena;
  std::vector<RingStrategy*> profile;
  compose_profile_into(*protocol, deviation.get(), spec.n, arena, profile);
  Outcome outcome = Outcome::fail();
  try {
    outcome = engine.run(std::span<RingStrategy* const>(profile));
  } catch (const std::runtime_error& error) {
    return "trial " + std::to_string(trial) + ": " + error.what();
  }
  if (const auto divergence = replayer.diff(replayed)) {
    return "trial " + std::to_string(trial) + " re-drive: " + divergence->what;
  }
  if (outcome != recorded_outcome) {
    return "trial " + std::to_string(trial) + " re-drive reached a different outcome";
  }
  return {};
}

/// Re-drives one recorded turn-game trial from its recorded actions.
std::string redrive_turn_trial(const TurnGame& game, std::size_t trial,
                               const ExecutionTranscript& reference,
                               const Outcome& recorded_outcome) {
  try {
    const Value outcome = replay_turn_game(game, reference.events());
    if (!recorded_outcome.valid() || outcome != recorded_outcome.leader()) {
      return "trial " + std::to_string(trial) +
             ": replayed outcome disagrees with the recorded per-trial outcome";
    }
  } catch (const std::runtime_error& error) {
    return "trial " + std::to_string(trial) + ": " + error.what();
  }
  return {};
}

}  // namespace

CheckResult check_transcript_replay(ScenarioSpec spec, std::size_t redriven_trials) {
  register_builtin_scenarios();
  spec.record_transcripts = true;
  spec.record_outcomes = true;
  const std::string subject = check_subject(spec);

  const ScenarioResult first = run_scenario(spec);
  ScenarioSpec rerun = spec;
  rerun.threads = spec.threads == 3 ? 2 : 3;
  const ScenarioResult second = run_scenario(rerun);

  if (first.per_trial_transcript.size() != first.trials ||
      second.per_trial_transcript.size() != first.per_trial_transcript.size()) {
    return CheckResult::fail(
        "transcript-replay", subject,
        "capture incomplete: " + std::to_string(first.per_trial_transcript.size()) + " / " +
            std::to_string(second.per_trial_transcript.size()) + " transcripts for " +
            std::to_string(first.trials) + " trials");
  }

  // 1. The universal differential: two independent runs (different worker
  // counts, so different engine reuse patterns) are the same execution per
  // trial.
  for (std::size_t t = 0; t < first.per_trial_transcript.size(); ++t) {
    const Replayer replayer(first.per_trial_transcript[t]);
    if (const auto divergence = replayer.diff(second.per_trial_transcript[t])) {
      return CheckResult::fail("transcript-replay", subject,
                               "trial " + std::to_string(t) + " rerun: " + divergence->what);
    }
  }

  const std::size_t redriven = std::min(redriven_trials, first.per_trial_transcript.size());

  // 2. Binary codec round trip: encode/decode must preserve the stream.
  for (std::size_t t = 0; t < redriven; ++t) {
    const ExecutionTranscript& reference = first.per_trial_transcript[t];
    const ExecutionTranscript decoded = ExecutionTranscript::decode(reference.encode());
    if (const auto divergence = Replayer(reference).diff(decoded)) {
      return CheckResult::fail("transcript-replay", subject,
                               "trial " + std::to_string(t) +
                                   " codec round trip: " + divergence->what);
    }
  }

  // 3. Runtime-specific re-drive from the recording itself.  Graph and
  // sync have no schedule channel to re-drive (their schedules derive from
  // the trial seed alone, so the rerun comparison above IS their replay);
  // the detail line reports 0 re-driven for them rather than overstating
  // coverage.
  std::string redrive_failure;
  std::size_t redriven_executed = 0;
  switch (spec.topology) {
    case TopologyKind::kRing:
      for (std::size_t t = 0; t < redriven && redrive_failure.empty(); ++t) {
        redrive_failure = redrive_ring_trial(spec, first.trial_offset + t,
                                             first.per_trial_transcript[t],
                                             first.per_trial[t]);
        ++redriven_executed;
      }
      break;
    case TopologyKind::kTree:
    case TopologyKind::kFullInfo: {
      const ProtocolEntry& entry = ProtocolRegistry::instance().at(spec.protocol);
      const std::shared_ptr<const TurnGame> game = entry.make_game(spec);
      for (std::size_t t = 0; t < redriven && redrive_failure.empty(); ++t) {
        redrive_failure = redrive_turn_trial(*game, first.trial_offset + t,
                                             first.per_trial_transcript[t],
                                             first.per_trial[t]);
        ++redriven_executed;
      }
      break;
    }
    case TopologyKind::kGraph:
    case TopologyKind::kSync:
    case TopologyKind::kThreaded:
      break;
  }
  if (!redrive_failure.empty()) {
    return CheckResult::fail("transcript-replay", subject, redrive_failure);
  }

  return CheckResult::pass(
      "transcript-replay", subject,
      std::to_string(first.trials) + " trials agree event for event (" +
          std::to_string(redriven_executed) + " re-driven from the recording, " +
          std::to_string(redriven) + " codec round-tripped)");
}

CheckResult check_lane_differential(ScenarioSpec spec, int threads) {
  if (!lane_eligible(spec)) {
    throw std::invalid_argument("check_lane_differential requires a lane-eligible spec: " +
                                lane_ineligible_reason(spec));
  }
  spec.record_outcomes = true;
  spec.record_transcripts = true;
  spec.threads = threads;
  ScenarioSpec scalar = spec;
  scalar.engine = EngineKind::kScalar;
  ScenarioSpec laned = spec;
  laned.engine = EngineKind::kLanes;

  // A transcribing run never takes a closed form (api/specialize.h), so a
  // second lanes run without transcripts is what checks the served trials.
  ScenarioSpec served = laned;
  served.record_transcripts = false;

  const std::string subject = check_subject(spec);
  const std::string workers = "(threads=" + std::to_string(threads) + ")";
  const std::string labels = "scalar vs lanes" + workers;
  const ScenarioResult rs = run_scenario(scalar);
  const ScenarioResult rl = run_scenario(laned);
  const ScenarioResult rv = run_scenario(served);

  // Aggregates must match exactly, not just the winning outcomes: the lane
  // engine claims the same executions, so the same messages and sync gaps.
  const auto same_results = [&](const ScenarioResult& other,
                                const std::string& label) -> CheckResult {
    const CheckResult outcomes =
        compare_per_trial("lane-differential", subject, rs.per_trial, other.per_trial, label);
    if (!outcomes.passed) return outcomes;
    const auto aggregate = [&](const char* name, std::uint64_t a,
                               std::uint64_t b) -> std::string {
      if (a == b) return {};
      return label + ": " + name + " differs (" + std::to_string(a) + " vs " +
             std::to_string(b) + ")";
    };
    for (const std::string& mismatch :
         {aggregate("total_messages", rs.total_messages, other.total_messages),
          aggregate("max_messages", rs.max_messages, other.max_messages),
          aggregate("total_sync_gap", rs.total_sync_gap, other.total_sync_gap),
          aggregate("max_sync_gap", rs.max_sync_gap, other.max_sync_gap),
          aggregate("max_rounds", static_cast<std::uint64_t>(rs.max_rounds),
                    static_cast<std::uint64_t>(other.max_rounds))}) {
      if (!mismatch.empty()) return CheckResult::fail("lane-differential", subject, mismatch);
    }
    return outcomes;
  };
  if (CheckResult result = same_results(rl, labels); !result.passed) return result;
  if (CheckResult result = same_results(rv, "scalar vs lanes without transcripts" + workers);
      !result.passed) {
    return result;
  }

  if (rs.per_trial_transcript.size() != rl.per_trial_transcript.size()) {
    return CheckResult::fail("lane-differential", subject,
                             labels + ": transcript counts differ");
  }
  for (std::size_t t = 0; t < rs.per_trial_transcript.size(); ++t) {
    if (const auto divergence =
            Replayer(rs.per_trial_transcript[t]).diff(rl.per_trial_transcript[t])) {
      return CheckResult::fail("lane-differential", subject,
                               labels + ": trial " + std::to_string(t) + ": " +
                                   divergence->what);
    }
    if (rs.per_trial_transcript[t].digest() != rl.per_trial_transcript[t].digest()) {
      return CheckResult::fail("lane-differential", subject,
                               labels + ": trial " + std::to_string(t) +
                                   " transcript digests differ");
    }
  }
  return CheckResult::pass("lane-differential", subject,
                           labels + ": " + std::to_string(rs.trials) +
                               " trials bit-identical (outcomes, aggregates, transcripts; "
                               "outcomes and aggregates without transcripts too)");
}

CheckResult check_differential_distribution(const ScenarioSpec& a, const ScenarioSpec& b) {
  const ScenarioResult ra = run_scenario(a);
  const ScenarioResult rb = run_scenario(b);
  const std::string subject = check_subject(a) + " vs " + check_subject(b);

  // Histogram cells: one per outcome value up to the larger domain, plus
  // FAIL.  Cells with a combined count below 8 are pooled so the chi-square
  // approximation stays valid at small trial counts.
  const Value domain = static_cast<Value>(std::max(a.n, b.n));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cells;
  std::uint64_t pooled_a = 0;
  std::uint64_t pooled_b = 0;
  const auto consider = [&](std::uint64_t ca, std::uint64_t cb) {
    if (ca + cb == 0) return;
    if (ca + cb < 8) {
      pooled_a += ca;
      pooled_b += cb;
    } else {
      cells.emplace_back(ca, cb);
    }
  };
  for (Value j = 0; j < domain; ++j) consider(ra.outcomes.count(j), rb.outcomes.count(j));
  consider(ra.outcomes.fails(), rb.outcomes.fails());
  if (pooled_a + pooled_b > 0) cells.emplace_back(pooled_a, pooled_b);

  if (cells.size() < 2) {
    // Both samples concentrated on one cell: identical by construction.
    return CheckResult::pass("differential-distribution", subject,
                             "both samples concentrate on the same single outcome");
  }

  double total_a = 0.0;
  double total_b = 0.0;
  for (const auto& [ca, cb] : cells) {
    total_a += static_cast<double>(ca);
    total_b += static_cast<double>(cb);
  }
  const double total = total_a + total_b;
  double chi = 0.0;
  for (const auto& [ca, cb] : cells) {
    const double col = static_cast<double>(ca + cb);
    const double ea = col * total_a / total;
    const double eb = col * total_b / total;
    const double da = static_cast<double>(ca) - ea;
    const double db = static_cast<double>(cb) - eb;
    chi += da * da / ea + db * db / eb;
  }
  const int dof = static_cast<int>(cells.size()) - 1;
  const double critical = chi_square_critical_999(dof);
  const std::string detail = "two-sample chi2 = " + format_double(chi) +
                             " vs critical(0.999, dof=" + std::to_string(dof) +
                             ") = " + format_double(critical);
  return chi <= critical ? CheckResult::pass("differential-distribution", subject, detail)
                         : CheckResult::fail("differential-distribution", subject, detail);
}

}  // namespace fle::verify

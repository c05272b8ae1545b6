#include "api/scenario.h"

#include <chrono>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "api/parallel.h"
#include "api/registry.h"
#include "api/specialize.h"
#include "api/sweep.h"
#include "attacks/deviation.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "sim/graph_engine.h"
#include "sim/lane_engine.h"
#include "sim/sync_engine.h"
#include "sim/threaded_runtime.h"

namespace fle {

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kRing:
      return "ring";
    case TopologyKind::kGraph:
      return "graph";
    case TopologyKind::kTree:
      return "tree";
    case TopologyKind::kSync:
      return "sync";
    case TopologyKind::kThreaded:
      return "threaded";
    case TopologyKind::kFullInfo:
      return "fullinfo";
  }
  return "unknown";
}

std::optional<TopologyKind> parse_topology(const std::string& name) {
  if (name == "ring") return TopologyKind::kRing;
  if (name == "graph") return TopologyKind::kGraph;
  if (name == "tree") return TopologyKind::kTree;
  if (name == "sync") return TopologyKind::kSync;
  if (name == "threaded") return TopologyKind::kThreaded;
  if (name == "fullinfo") return TopologyKind::kFullInfo;
  return std::nullopt;
}

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kAuto:
      return "auto";
    case EngineKind::kScalar:
      return "scalar";
    case EngineKind::kLanes:
      return "lanes";
  }
  return "unknown";
}

std::optional<EngineKind> parse_engine(const std::string& name) {
  if (name == "auto") return EngineKind::kAuto;
  if (name == "scalar") return EngineKind::kScalar;
  if (name == "lanes") return EngineKind::kLanes;
  return std::nullopt;
}

const char* to_string(GraphAdjacency adjacency) {
  switch (adjacency) {
    case GraphAdjacency::kComplete:
      return "complete";
    case GraphAdjacency::kDirectedRing:
      return "directed-ring";
    case GraphAdjacency::kStar:
      return "star";
  }
  return "unknown";
}

std::optional<GraphAdjacency> parse_adjacency(const std::string& name) {
  if (name == "complete") return GraphAdjacency::kComplete;
  if (name == "directed-ring") return GraphAdjacency::kDirectedRing;
  if (name == "star") return GraphAdjacency::kStar;
  return std::nullopt;
}

std::vector<std::vector<char>> build_adjacency(GraphAdjacency adjacency, int n) {
  if (adjacency == GraphAdjacency::kComplete) return {};
  std::vector<std::vector<char>> matrix(static_cast<std::size_t>(n),
                                        std::vector<char>(static_cast<std::size_t>(n), 0));
  switch (adjacency) {
    case GraphAdjacency::kComplete:
      break;  // unreachable
    case GraphAdjacency::kDirectedRing:
      for (ProcessorId u = 0; u < n; ++u) {
        matrix[static_cast<std::size_t>(u)][static_cast<std::size_t>(ring_succ(u, n))] = 1;
      }
      break;
    case GraphAdjacency::kStar:
      for (ProcessorId v = 1; v < n; ++v) {
        matrix[0][static_cast<std::size_t>(v)] = 1;
        matrix[static_cast<std::size_t>(v)][0] = 1;
      }
      break;
  }
  return matrix;
}

CoalitionSpec CoalitionSpec::consecutive(int k, ProcessorId first) {
  CoalitionSpec spec;
  spec.placement = Placement::kConsecutive;
  spec.k = k;
  spec.first = first;
  return spec;
}

CoalitionSpec CoalitionSpec::equally_spaced(int k, ProcessorId first) {
  CoalitionSpec spec;
  spec.placement = Placement::kEquallySpaced;
  spec.k = k;
  spec.first = first;
  return spec;
}

CoalitionSpec CoalitionSpec::bernoulli(double density, std::uint64_t placement_seed) {
  CoalitionSpec spec;
  spec.placement = Placement::kBernoulli;
  spec.density = density;
  spec.placement_seed = placement_seed;
  return spec;
}

CoalitionSpec CoalitionSpec::cubic_staircase(int k, ProcessorId first) {
  CoalitionSpec spec;
  spec.placement = Placement::kCubicStaircase;
  spec.k = k;
  spec.first = first;
  return spec;
}

CoalitionSpec CoalitionSpec::custom(std::vector<ProcessorId> members) {
  CoalitionSpec spec;
  spec.placement = Placement::kCustom;
  spec.members = std::move(members);
  return spec;
}

namespace {

/// Field-naming validation for the k-parameterized placements: a coalition
/// must leave at least one honest processor, so 0 < k < n.
void require_coalition_k(const CoalitionSpec& spec, int n) {
  if (spec.k <= 0 || spec.k >= n) {
    throw std::invalid_argument("ScenarioSpec.coalition.k must satisfy 0 < k < n (got k = " +
                                std::to_string(spec.k) + ", n = " + std::to_string(n) + ")");
  }
}

}  // namespace

std::optional<Coalition> build_coalition(const CoalitionSpec& spec, int n) {
  switch (spec.placement) {
    case CoalitionSpec::Placement::kDefault:
      return std::nullopt;
    case CoalitionSpec::Placement::kConsecutive:
      require_coalition_k(spec, n);
      return Coalition::consecutive(n, spec.k, spec.first);
    case CoalitionSpec::Placement::kEquallySpaced:
      require_coalition_k(spec, n);
      return Coalition::equally_spaced(n, spec.k, spec.first);
    case CoalitionSpec::Placement::kBernoulli:
      if (spec.density < 0.0 || spec.density > 1.0) {
        throw std::invalid_argument(
            "ScenarioSpec.coalition.density must be a probability in [0, 1] (got " +
            std::to_string(spec.density) + ")");
      }
      return Coalition::bernoulli(n, spec.density, spec.placement_seed);
    case CoalitionSpec::Placement::kCubicStaircase:
      require_coalition_k(spec, n);
      return Coalition::cubic_staircase(n, spec.k, spec.first);
    case CoalitionSpec::Placement::kCustom:
      for (std::size_t i = 0; i < spec.members.size(); ++i) {
        const ProcessorId member = spec.members[i];
        if (member < 0 || member >= n) {
          throw std::invalid_argument(
              "ScenarioSpec.coalition.members[" + std::to_string(i) + "] = " +
              std::to_string(member) + " out of range [0, n) with n = " + std::to_string(n));
        }
      }
      return Coalition(n, spec.members);
  }
  return std::nullopt;
}

TrialWindow scenario_trial_window(const ScenarioSpec& spec) {
  if (spec.trial_offset > spec.trials) {
    throw std::invalid_argument(
        "ScenarioSpec.trial_offset = " + std::to_string(spec.trial_offset) +
        " exceeds trials = " + std::to_string(spec.trials));
  }
  const std::size_t rest = spec.trials - spec.trial_offset;
  if (spec.trial_count == 0) return {spec.trial_offset, rest};
  if (spec.trial_count > rest) {
    throw std::invalid_argument(
        "ScenarioSpec.trial_count = " + std::to_string(spec.trial_count) +
        " overruns trials = " + std::to_string(spec.trials) +
        " (trial_offset = " + std::to_string(spec.trial_offset) + ")");
  }
  return {spec.trial_offset, spec.trial_count};
}

void ScenarioResult::merge(const ScenarioResult& other) {
  const auto mismatch = [](const std::string& field, const std::string& a,
                           const std::string& b) {
    throw std::invalid_argument("ScenarioResult.merge: " + field + " mismatch ('" + a +
                                "' vs '" + b + "')");
  };
  if (protocol_name != other.protocol_name) {
    mismatch("protocol_name", protocol_name, other.protocol_name);
  }
  if (deviation_name != other.deviation_name) {
    mismatch("deviation_name", deviation_name, other.deviation_name);
  }
  if (outcomes.domain() != other.outcomes.domain()) {
    mismatch("outcomes domain (n)", std::to_string(outcomes.domain()),
             std::to_string(other.outcomes.domain()));
  }
  if (base_seed != other.base_seed) {
    mismatch("base_seed", std::to_string(base_seed), std::to_string(other.base_seed));
  }
  if (spec_trials != other.spec_trials) {
    mismatch("spec_trials", std::to_string(spec_trials), std::to_string(other.spec_trials));
  }
  if (outcomes_recorded != other.outcomes_recorded) {
    mismatch("outcomes_recorded", outcomes_recorded ? "true" : "false",
             other.outcomes_recorded ? "true" : "false");
  }
  if (transcripts_recorded != other.transcripts_recorded) {
    mismatch("transcripts_recorded", transcripts_recorded ? "true" : "false",
             other.transcripts_recorded ? "true" : "false");
  }
  if (trial_offset + trials != other.trial_offset) {
    throw std::invalid_argument(
        "ScenarioResult.merge: shards are not contiguous — this result covers trials [" +
        std::to_string(trial_offset) + ", " + std::to_string(trial_offset + trials) +
        ") but other.trial_offset = " + std::to_string(other.trial_offset) +
        " (merge shards in trial_offset order)");
  }

  outcomes.merge(other.outcomes);
  trials += other.trials;
  total_messages += other.total_messages;
  max_messages = std::max(max_messages, other.max_messages);
  total_sync_gap += other.total_sync_gap;
  max_sync_gap = std::max(max_sync_gap, other.max_sync_gap);
  max_rounds = std::max(max_rounds, other.max_rounds);
  wall_seconds += other.wall_seconds;
  per_trial.insert(per_trial.end(), other.per_trial.begin(), other.per_trial.end());
  per_trial_transcript.insert(per_trial_transcript.end(), other.per_trial_transcript.begin(),
                              other.per_trial_transcript.end());
  if (trials > 0) {
    mean_messages = static_cast<double>(total_messages) / static_cast<double>(trials);
    mean_sync_gap = static_cast<double>(total_sync_gap) / static_cast<double>(trials);
  }
}

namespace {

/// One scenario, prepared for the executor: normalized spec copy, trial
/// window, the trial body (capturing its shared instances or registry
/// entries by value plus a pointer back to this heap-stable job), and the
/// result skeleton with display names resolved.  run_scenario builds one;
/// run_sweep builds many and submits them together.
struct ScenarioJob {
  ScenarioSpec spec;
  TrialWindow window;
  ScenarioResult result{1};
  std::vector<TrialStats> stats;
  /// Per-trial transcript slots (record_transcripts only), indexed by local
  /// trial (global - window.first); each worker writes only its own slot,
  /// exactly like stats.
  std::vector<ExecutionTranscript> transcripts;
  WorkspaceKey workspace_key{};
  WorkspaceFactory make_workspace;
  Executor::TrialBody body;
  Executor::ChunkBody chunk_body;  ///< lane-routed jobs: whole-window body
  /// Lane jobs with a token-sum or deviated-constant closed form: global
  /// trial 0's general-path result, which supplies the per-shape constants.
  /// Read once per job by whichever worker gets there first.
  std::once_flag trial0_once;
  LaneTrialResult trial0;

  /// The transcript slot for global trial `trial`, or nullptr when the
  /// spec does not record.  The slot is cleared for the trial (reused
  /// slots keep their capacity).
  ExecutionTranscript* transcript_slot(std::size_t trial) {
    if (!spec.record_transcripts) return nullptr;
    ExecutionTranscript& slot = transcripts[trial - window.first];
    slot.clear();
    return &slot;
  }
};

/// Workspace cache families (api/parallel.h WorkspaceKey); scenarios with
/// the same (family, n) share cached engines per executor thread.  Graph
/// scenarios get one family per adjacency shape so a cached engine always
/// carries the right link matrix without any per-trial comparison.
constexpr int kRingFamily = 1;
constexpr int kGraphFamily = 2;
constexpr int kSyncFamily = 3;
constexpr int kLaneFamily = 4;      ///< batched ring lane engine (sim/lane_engine.h)
constexpr int kSyncLaneFamily = 5;  ///< batched sync lane engine (sim/sync_engine.h)
constexpr int kGraphFamilyBase = 16;  ///< + GraphAdjacency index for restricted graphs

int graph_family(GraphAdjacency adjacency) {
  return adjacency == GraphAdjacency::kComplete
             ? kGraphFamily
             : kGraphFamilyBase + static_cast<int>(adjacency);
}

/// Shared reduction: fold the per-trial stats, in trial order, into the
/// aggregate result.  This is the only place trial data merges, so the
/// merge order — and thus every derived mean — is independent of the worker
/// count and the chunking.  Sums are exact integer totals so shard results
/// merge() bit-identically.
void reduce_job(ScenarioJob& job) {
  ScenarioResult& result = job.result;
  for (const TrialStats& trial : job.stats) {
    result.outcomes.record(trial.outcome);
    result.total_messages += trial.messages;
    result.max_messages = std::max(result.max_messages, trial.messages);
    result.total_sync_gap += trial.sync_gap;
    result.max_sync_gap = std::max(result.max_sync_gap, trial.sync_gap);
    result.max_rounds = std::max(result.max_rounds, trial.rounds);
    if (job.spec.record_outcomes) result.per_trial.push_back(trial.outcome);
  }
  result.trials = job.stats.size();
  result.trial_offset = job.window.first;
  result.spec_trials = job.spec.trials;
  result.base_seed = job.spec.seed;
  result.outcomes_recorded = job.spec.record_outcomes;
  result.transcripts_recorded = job.spec.record_transcripts;
  result.per_trial_transcript = std::move(job.transcripts);
  if (!job.stats.empty()) {
    result.mean_messages =
        static_cast<double>(result.total_messages) / static_cast<double>(result.trials);
    result.mean_sync_gap =
        static_cast<double>(result.total_sync_gap) / static_cast<double>(result.trials);
  }
}

Executor::Batch batch_of(ScenarioJob& job) {
  Executor::Batch batch;
  batch.trials = job.window.count;
  batch.trial_offset = job.window.first;
  batch.base_seed = job.spec.seed;
  batch.workspace = job.workspace_key;
  batch.make_workspace = job.make_workspace;
  batch.body = job.body;
  batch.chunk_body = job.chunk_body;
  batch.out = &job.stats;
  return batch;
}

/// The spec's explicit step limit, or the default slack over the protocol's
/// honest message bound (shared by the ring and graph runtimes).
std::uint64_t derived_step_limit(std::uint64_t requested, std::uint64_t honest_bound) {
  return requested != 0 ? requested : honest_bound * 2 + 4096;
}

void require_n(const ScenarioSpec& spec, int minimum) {
  if (spec.n < minimum) {
    throw std::invalid_argument("scenario needs n >= " + std::to_string(minimum) +
                                " (got " + std::to_string(spec.n) + ")");
  }
}

/// Per-worker workspace (DESIGN.md §4): one engine + one strategy arena,
/// cached per executor thread under (family, n) and reused across every
/// trial — and, since PR 4, across scenarios of the same shape.  The engine
/// is (re)built only when its shape (step/round limit, scheduler) changes
/// and rearmed with reset() otherwise, so steady-state trials perform no
/// engine allocations.
template <typename Engine, typename Strategy>
struct EngineWorkspace {
  std::unique_ptr<Engine> engine;
  StrategyArena arena;
  std::vector<Strategy*> profile;
};

using RingWorkspace = EngineWorkspace<RingEngine, RingStrategy>;
using GraphWorkspace = EngineWorkspace<GraphEngine, GraphStrategy>;
using SyncWorkspace = EngineWorkspace<SyncEngine, SyncStrategy>;

template <typename Workspace>
WorkspaceFactory workspace_factory() {
  return [] { return std::static_pointer_cast<void>(std::make_shared<Workspace>()); };
}

void fill_ring_job(ScenarioJob& job, const ProtocolEntry* protocol_entry,
                   const DeviationEntry* deviation_entry) {
  const ScenarioSpec& spec = job.spec;
  require_n(spec, 2);
  if (!protocol_entry->make_ring) {
    throw std::invalid_argument("protocol '" + protocol_entry->name +
                                "' does not run on the ring topology");
  }
  if (deviation_entry && !deviation_entry->make_ring) {
    throw std::invalid_argument("deviation '" + deviation_entry->name +
                                "' does not apply to ring protocols");
  }

  job.result = ScenarioResult(spec.n);
  std::shared_ptr<const RingProtocol> shared_protocol;
  std::shared_ptr<const Deviation> shared_deviation;
  if (!protocol_entry->per_trial) {
    shared_protocol = protocol_entry->make_ring(spec, spec.seed);
    if (deviation_entry) {
      shared_deviation = deviation_entry->make_ring(*shared_protocol, spec);
    }
  }

  // Resolve display names before launching workers.
  {
    const auto named =
        shared_protocol ? shared_protocol : protocol_entry->make_ring(spec, spec.seed);
    job.result.protocol_name = named->name();
    if (deviation_entry) {
      const auto dev =
          shared_deviation ? shared_deviation : deviation_entry->make_ring(*named, spec);
      job.result.deviation_name = dev->name();
    }
  }

  const bool threaded = spec.topology == TopologyKind::kThreaded;
  ScenarioJob* j = &job;
  job.body = [j, protocol_entry, deviation_entry, shared_protocol, shared_deviation,
              threaded](std::size_t trial, std::uint64_t trial_seed,
                        void* raw) -> TrialStats {
    const ScenarioSpec& spec = j->spec;
    // Shared instances are read in place; per-trial ones live for the trial.
    std::unique_ptr<RingProtocol> own_protocol;
    std::unique_ptr<Deviation> own_deviation;
    if (!shared_protocol) {
      own_protocol = protocol_entry->make_ring(spec, trial_seed);
      if (deviation_entry) own_deviation = deviation_entry->make_ring(*own_protocol, spec);
    }
    const RingProtocol& protocol = shared_protocol ? *shared_protocol : *own_protocol;
    const Deviation* deviation = shared_protocol ? shared_deviation.get() : own_deviation.get();
    TrialStats stats;
    if (threaded) {
      // One OS thread per processor: the runtime's whole point is fresh
      // threads, so there is nothing to reuse.  Each processor gets its own
      // arena: the indexing wrapper emplaces its inner strategy from its
      // processor's thread mid-run, and StrategyArena is not synchronised.
      ThreadedRuntimeOptions options;
      options.send_limit = scenario_ring_step_limit(spec, protocol);
      ThreadedRuntime runtime(spec.n, trial_seed, options);
      std::vector<StrategyArena> arenas(static_cast<std::size_t>(spec.n));
      std::vector<RingStrategy*> profile;
      profile.reserve(static_cast<std::size_t>(spec.n));
      for (ProcessorId p = 0; p < spec.n; ++p) {
        profile.push_back(
            emplace_processor(protocol, deviation, p, spec.n, arenas[static_cast<std::size_t>(p)]));
      }
      stats.outcome = runtime.run(std::span<RingStrategy* const>(profile));
      stats.messages = runtime.stats().total_sent;
    } else {
      auto& ws = *static_cast<RingWorkspace*>(raw);
      const std::uint64_t step_limit = scenario_ring_step_limit(spec, protocol);
      // The workspace may come from another scenario with the same (ring, n)
      // key: rebuild whenever the engine shape differs, not just on first use.
      if (!ws.engine || ws.engine->step_limit() != step_limit ||
          ws.engine->scheduler_kind() != spec.scheduler) {
        EngineOptions options;
        options.step_limit = step_limit;
        options.scheduler_kind = spec.scheduler;
        ws.engine = std::make_unique<RingEngine>(spec.n, trial_seed, std::move(options));
      } else {
        ws.engine->reset(trial_seed);
      }
      // Always (re)point the hook: a cached engine may carry the previous
      // scenario's transcript pointer.
      ws.engine->set_transcript(j->transcript_slot(trial));
      ws.arena.rewind();
      compose_profile_into(protocol, deviation, spec.n, ws.arena, ws.profile);
      stats.outcome = ws.engine->run(std::span<RingStrategy* const>(ws.profile));
      ws.engine->set_transcript(nullptr);  // the slot vector outlives no one
      stats.messages = ws.engine->stats().total_sent;
      stats.sync_gap = ws.engine->stats().max_sync_gap;
    }
    return stats;
  };
  if (!threaded) {
    job.workspace_key = WorkspaceKey{kRingFamily, spec.n};
    job.make_workspace = workspace_factory<RingWorkspace>();
  }
}

/// Per-worker lane workspace: one lane engine plus the window-shaped
/// staging vectors, cached under (kLaneFamily or kSyncLaneFamily, n) like
/// every other engine workspace and rebuilt only when the engine shape
/// changes.
template <typename Engine>
struct LaneWorkspace {
  std::unique_ptr<Engine> engine;
  std::vector<std::size_t> locals;  ///< local trial index of each staged trial
  std::vector<std::uint64_t> seeds;
  std::vector<LaneTrialResult> results;
  std::vector<ExecutionTranscript*> transcripts;
  ClosedFormScratch scratch;  ///< ring lanes: the chang-roberts closed form
};

TrialStats lane_stats(const LaneTrialResult& result) {
  TrialStats stats;
  stats.outcome = result.outcome;
  stats.messages = result.messages;
  stats.sync_gap = result.max_sync_gap;
  stats.rounds = static_cast<int>(result.rounds);
  return stats;
}

/// Runs the job's local trials ws.locals as one engine window — seeds and
/// transcript slots staged by global index — and writes their stats.  The
/// raw results stay in ws.results, parallel to ws.locals.
template <typename Engine>
void run_lane_trials(ScenarioJob& job, LaneWorkspace<Engine>& ws) {
  const std::size_t count = ws.locals.size();
  ws.seeds.resize(count);
  ws.results.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    ws.seeds[i] = scenario_trial_seed(job.spec.seed, job.window.first + ws.locals[i]);
  }
  std::span<ExecutionTranscript* const> transcripts;
  if (job.spec.record_transcripts) {
    ws.transcripts.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      ws.transcripts[i] = job.transcript_slot(job.window.first + ws.locals[i]);
    }
    transcripts = std::span<ExecutionTranscript* const>(ws.transcripts);
  }
  ws.engine->run_window(std::span<const std::uint64_t>(ws.seeds),
                        std::span<LaneTrialResult>(ws.results), transcripts);
  for (std::size_t i = 0; i < count; ++i) job.stats[ws.locals[i]] = lane_stats(ws.results[i]);
}

/// The specializer's lane path: the executor hands whole trial windows to
/// a batched LaneEngine via the chunk-body seam.  Only reachable for
/// lane_eligible() specs (route_to_lanes gates it), so the protocol always
/// has a devirtualized kernel and the profile is honest or one of the
/// lane-served deviations (basic-single, rushing).  A spec with a closed
/// form (api/specialize.h) serves its unaudited trials from it and runs
/// only the audited ones.
void fill_lane_job(ScenarioJob& job, const ProtocolEntry* protocol_entry,
                   const DeviationEntry* deviation_entry) {
  const ScenarioSpec& spec = job.spec;
  require_n(spec, 2);
  job.result = ScenarioResult(spec.n);
  const LaneKernelId kernel = *lane_kernel_for(spec.protocol);

  // One representative instance resolves the display name and the step
  // limit; the kernels' honest message bounds depend only on n, so the
  // limit is uniform across the window's trials.
  LaneEngineOptions options;
  options.scheduler_kind = spec.scheduler;
  {
    const std::shared_ptr<const RingProtocol> named =
        protocol_entry->make_ring(spec, spec.seed);
    job.result.protocol_name = named->name();
    options.step_limit = scenario_ring_step_limit(spec, *named);
    if (deviation_entry) {
      // Build the scalar deviation once: its factory runs exactly the
      // validation the scalar path would (coalition preconditions, honest
      // origin, target range) and resolves the display name plus the
      // member layout the lane register file bakes in.
      const std::shared_ptr<const Deviation> scalar =
          deviation_entry->make_ring(*named, spec);
      job.result.deviation_name = scalar->name();
      options.deviation.id = *lane_deviation_id(spec.deviation);
      options.deviation.members = scalar->coalition().members();
      options.deviation.segment_lengths = scalar->coalition().segment_lengths();
      options.deviation.target = spec.target;
    }
  }
  const ClosedFormKind closed = closed_form_kind(spec, options.step_limit);
  const bool needs_trial0 =
      closed == ClosedFormKind::kTokenSum || closed == ClosedFormKind::kDeviatedConstant;

  ScenarioJob* j = &job;
  job.chunk_body = [j, kernel, options, closed, needs_trial0](std::size_t begin, std::size_t end,
                                                              void* raw) {
    const ScenarioSpec& spec = j->spec;
    auto& ws = *static_cast<LaneWorkspace<LaneEngine>*>(raw);
    if (!ws.engine || ws.engine->kernel() != kernel || ws.engine->n() != spec.n ||
        ws.engine->step_limit() != options.step_limit ||
        ws.engine->scheduler_kind() != options.scheduler_kind ||
        !(ws.engine->deviation() == options.deviation)) {
      ws.engine = std::make_unique<LaneEngine>(spec.n, kernel, options);
    }
    if (needs_trial0) {
      // The constants come from one general run per job, which is also
      // trial 0's audit and, inside the window, its reported result.
      std::call_once(j->trial0_once, [&] {
        const std::uint64_t seed = scenario_trial_seed(spec.seed, 0);
        ws.engine->run_window(std::span<const std::uint64_t>(&seed, 1),
                              std::span<LaneTrialResult>(&j->trial0, 1));
        audit_closed_form(spec, 0, closed_form_result(closed, spec, 0, j->trial0, ws.scratch),
                          j->trial0);
      });
    }
    ws.locals.clear();
    for (std::size_t local = begin; local < end; ++local) {
      const std::size_t trial = j->window.first + local;
      if (closed == ClosedFormKind::kNone) {
        ws.locals.push_back(local);
      } else if (needs_trial0 && trial == 0) {
        j->stats[local] = lane_stats(j->trial0);
      } else if (closed_form_audited(spec.seed, trial)) {
        ws.locals.push_back(local);
      } else {
        j->stats[local] =
            lane_stats(closed_form_result(closed, spec, trial, j->trial0, ws.scratch));
      }
    }
    run_lane_trials(*j, ws);
    if (closed == ClosedFormKind::kNone) return;
    for (std::size_t i = 0; i < ws.locals.size(); ++i) {
      const std::size_t trial = j->window.first + ws.locals[i];
      audit_closed_form(spec, trial, closed_form_result(closed, spec, trial, j->trial0, ws.scratch),
                        ws.results[i]);
    }
  };
  job.workspace_key = WorkspaceKey{kLaneFamily, spec.n};
  job.make_workspace = workspace_factory<LaneWorkspace<LaneEngine>>();
}

/// Sync-runtime counterpart of fill_lane_job: whole trial windows on a
/// batched SyncLaneEngine.  Only reachable for lane_eligible() sync specs
/// (honest profile, sync lane-kernel protocol).
void fill_sync_lane_job(ScenarioJob& job, const ProtocolEntry* protocol_entry) {
  const ScenarioSpec& spec = job.spec;
  require_n(spec, 2);
  if (spec.step_limit > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument("sync scenarios interpret step_limit as a round limit; " +
                                std::to_string(spec.step_limit) + " does not fit in int");
  }
  job.result = ScenarioResult(spec.n);
  const SyncLaneKernelId kernel = *sync_lane_kernel_for(spec.protocol);

  // Same round-limit resolution as fill_sync_job: the spec's explicit
  // limit, or the protocol's round_bound(n).
  int round_limit = 0;
  {
    const std::shared_ptr<const SyncProtocol> named =
        protocol_entry->make_sync(spec, spec.seed);
    job.result.protocol_name = named->name();
    round_limit = spec.step_limit != 0 ? static_cast<int>(spec.step_limit)
                                       : named->round_bound(spec.n);
  }

  ScenarioJob* j = &job;
  job.chunk_body = [j, kernel, round_limit](std::size_t begin, std::size_t end, void* raw) {
    const ScenarioSpec& spec = j->spec;
    auto& ws = *static_cast<LaneWorkspace<SyncLaneEngine>*>(raw);
    if (!ws.engine || ws.engine->kernel() != kernel || ws.engine->n() != spec.n ||
        ws.engine->round_limit() != round_limit) {
      SyncLaneEngineOptions options;
      options.round_limit = round_limit;
      ws.engine = std::make_unique<SyncLaneEngine>(spec.n, kernel, options);
    }
    ws.locals.clear();
    for (std::size_t local = begin; local < end; ++local) ws.locals.push_back(local);
    run_lane_trials(*j, ws);
  };
  job.workspace_key = WorkspaceKey{kSyncLaneFamily, spec.n};
  job.make_workspace = workspace_factory<LaneWorkspace<SyncLaneEngine>>();
}

void fill_graph_job(ScenarioJob& job, const ProtocolEntry* protocol_entry,
                    const DeviationEntry* deviation_entry) {
  const ScenarioSpec& spec = job.spec;
  require_n(spec, 2);
  if (!protocol_entry->make_graph) {
    throw std::invalid_argument("protocol '" + protocol_entry->name +
                                "' does not run on the graph topology");
  }
  if (deviation_entry && !deviation_entry->make_graph) {
    throw std::invalid_argument("deviation '" + deviation_entry->name +
                                "' does not apply to graph protocols");
  }
  LinkScheduleKind schedule = LinkScheduleKind::kRoundRobin;
  switch (spec.scheduler) {
    case SchedulerKind::kRoundRobin:
      schedule = LinkScheduleKind::kRoundRobin;
      break;
    case SchedulerKind::kRandom:
      schedule = LinkScheduleKind::kRandom;
      break;
    case SchedulerKind::kPriority:
      throw std::invalid_argument("the priority scheduler is ring-only");
  }

  job.result = ScenarioResult(spec.n);
  std::shared_ptr<const GraphProtocol> shared_protocol;
  std::shared_ptr<const GraphDeviation> shared_deviation;
  if (!protocol_entry->per_trial) {
    shared_protocol = protocol_entry->make_graph(spec, spec.seed);
    if (deviation_entry) {
      shared_deviation = deviation_entry->make_graph(*shared_protocol, spec);
    }
  }

  // Resolve display names before launching workers.
  {
    const auto named =
        shared_protocol ? shared_protocol : protocol_entry->make_graph(spec, spec.seed);
    job.result.protocol_name = named->name();
    if (deviation_entry) {
      const auto dev =
          shared_deviation ? shared_deviation : deviation_entry->make_graph(*named, spec);
      job.result.deviation_name = dev->name();
    }
  }

  ScenarioJob* j = &job;
  job.body = [j, protocol_entry, deviation_entry, shared_protocol, shared_deviation,
              schedule](std::size_t trial, std::uint64_t trial_seed,
                        void* raw) -> TrialStats {
    const ScenarioSpec& spec = j->spec;
    auto& ws = *static_cast<GraphWorkspace*>(raw);
    std::shared_ptr<const GraphProtocol> protocol = shared_protocol;
    std::shared_ptr<const GraphDeviation> deviation = shared_deviation;
    if (!protocol) {
      protocol = protocol_entry->make_graph(spec, trial_seed);
      if (deviation_entry) deviation = deviation_entry->make_graph(*protocol, spec);
    }
    const std::uint64_t step_limit =
        derived_step_limit(spec.step_limit, protocol->honest_message_bound(spec.n));
    // The adjacency shape is baked into the workspace family, so a cached
    // engine here always carries the matrix this scenario needs.
    if (!ws.engine || ws.engine->step_limit() != step_limit ||
        ws.engine->schedule_kind() != schedule) {
      GraphEngineOptions options;
      options.step_limit = step_limit;
      options.schedule = schedule;
      options.schedule_seed = trial_seed;
      options.adjacency = build_adjacency(spec.adjacency, spec.n);
      ws.engine = std::make_unique<GraphEngine>(spec.n, trial_seed, std::move(options));
    } else {
      ws.engine->reset(trial_seed, /*schedule_seed=*/trial_seed);
    }
    ws.engine->set_transcript(j->transcript_slot(trial));
    ws.arena.rewind();
    compose_profile_into(*protocol, deviation.get(), spec.n, ws.arena, ws.profile);
    TrialStats stats;
    stats.outcome = ws.engine->run(std::span<GraphStrategy* const>(ws.profile));
    ws.engine->set_transcript(nullptr);
    stats.messages = ws.engine->stats().total_sent;
    return stats;
  };
  job.workspace_key = WorkspaceKey{graph_family(spec.adjacency), spec.n};
  job.make_workspace = workspace_factory<GraphWorkspace>();
}

void fill_sync_job(ScenarioJob& job, const ProtocolEntry* protocol_entry,
                   const DeviationEntry* deviation_entry) {
  const ScenarioSpec& spec = job.spec;
  require_n(spec, 2);
  if (!protocol_entry->make_sync) {
    throw std::invalid_argument("protocol '" + protocol_entry->name +
                                "' does not run on the sync topology");
  }
  if (deviation_entry && !deviation_entry->make_sync) {
    throw std::invalid_argument("deviation '" + deviation_entry->name +
                                "' does not apply to synchronous protocols");
  }
  if (spec.step_limit > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument("sync scenarios interpret step_limit as a round limit; " +
                                std::to_string(spec.step_limit) + " does not fit in int");
  }

  job.result = ScenarioResult(spec.n);
  std::shared_ptr<const SyncProtocol> shared_protocol;
  std::shared_ptr<const SyncDeviation> shared_deviation;
  if (!protocol_entry->per_trial) {
    shared_protocol = protocol_entry->make_sync(spec, spec.seed);
    if (deviation_entry) {
      shared_deviation = deviation_entry->make_sync(*shared_protocol, spec);
    }
  }

  // Resolve display names before launching workers.
  {
    const auto named =
        shared_protocol ? shared_protocol : protocol_entry->make_sync(spec, spec.seed);
    job.result.protocol_name = named->name();
    if (deviation_entry) {
      const auto dev =
          shared_deviation ? shared_deviation : deviation_entry->make_sync(*named, spec);
      job.result.deviation_name = dev->name();
    }
  }

  ScenarioJob* j = &job;
  job.body = [j, protocol_entry, deviation_entry, shared_protocol, shared_deviation](
                 std::size_t trial, std::uint64_t trial_seed, void* raw) -> TrialStats {
    const ScenarioSpec& spec = j->spec;
    auto& ws = *static_cast<SyncWorkspace*>(raw);
    std::shared_ptr<const SyncProtocol> protocol = shared_protocol;
    std::shared_ptr<const SyncDeviation> deviation = shared_deviation;
    if (!protocol) {
      protocol = protocol_entry->make_sync(spec, trial_seed);
      if (deviation_entry) deviation = deviation_entry->make_sync(*protocol, spec);
    }
    const int round_limit = spec.step_limit != 0 ? static_cast<int>(spec.step_limit)
                                                 : protocol->round_bound(spec.n);
    if (!ws.engine || ws.engine->round_limit() != round_limit) {
      SyncEngineOptions options;
      options.round_limit = round_limit;
      ws.engine = std::make_unique<SyncEngine>(spec.n, trial_seed, options);
    } else {
      ws.engine->reset(trial_seed);
    }
    ws.engine->set_transcript(j->transcript_slot(trial));
    ws.arena.rewind();
    compose_profile_into(*protocol, deviation.get(), spec.n, ws.arena, ws.profile);
    TrialStats stats;
    stats.outcome = ws.engine->run(std::span<SyncStrategy* const>(ws.profile));
    ws.engine->set_transcript(nullptr);
    stats.messages = ws.engine->stats().total_sent;
    stats.rounds = ws.engine->stats().rounds;
    return stats;
  };
  job.workspace_key = WorkspaceKey{kSyncFamily, spec.n};
  job.make_workspace = workspace_factory<SyncWorkspace>();
}

void fill_turn_job(ScenarioJob& job, const ProtocolEntry* protocol_entry,
                   const DeviationEntry* deviation_entry) {
  const ScenarioSpec& spec = job.spec;
  require_n(spec, 2);
  if (!protocol_entry->make_game) {
    throw std::invalid_argument("protocol '" + protocol_entry->name +
                                "' does not run as a turn game (topology '" +
                                to_string(spec.topology) + "')");
  }
  if (deviation_entry && (!deviation_entry->make_turn || !deviation_entry->turn_coalition)) {
    throw std::invalid_argument("deviation '" + deviation_entry->name +
                                "' does not apply to turn games");
  }
  const std::shared_ptr<const TurnGame> game = protocol_entry->make_game(spec);
  std::vector<ProcessorId> coalition;
  if (deviation_entry) coalition = deviation_entry->turn_coalition(*game, spec);

  // Turn-game outcomes live in [0, players) for elections and {0, 1} for
  // coin games; size the counter to cover both.
  const int domain = std::max(game->players(), std::max(spec.n, 2));
  job.result = ScenarioResult(domain);
  job.result.protocol_name = protocol_entry->name;
  if (deviation_entry) job.result.deviation_name = deviation_entry->name;

  ScenarioJob* j = &job;
  job.body = [j, deviation_entry, game, coalition = std::move(coalition)](
                 std::size_t trial, std::uint64_t trial_seed,
                 void* /*workspace*/) -> TrialStats {
    Xoshiro256 rng(trial_seed);
    std::unique_ptr<TurnAdversary> adversary;
    if (deviation_entry) adversary = deviation_entry->make_turn(*game, j->spec);
    TrialStats stats;
    stats.outcome = Outcome::elected(play_turn_game(*game, coalition, adversary.get(), rng,
                                                    j->transcript_slot(trial)));
    return stats;
  };
}

/// Validates the spec's plain fields, resolves the registries, and builds
/// the executor-ready job.  Shared by run_scenario and run_sweep.
std::unique_ptr<ScenarioJob> prepare_scenario_job(const ScenarioSpec& spec) {
  if (spec.protocol.empty()) {
    throw std::invalid_argument("ScenarioSpec.protocol must name a registered protocol");
  }
  // Validate the spec's plain fields up front, before any factory runs, so
  // the error names the spec field rather than whatever internal invariant
  // a factory trips over first.
  if (spec.n < 2) {
    throw std::invalid_argument("ScenarioSpec.n must be >= 2 (got " +
                                std::to_string(spec.n) + ")");
  }
  build_coalition(spec.coalition, spec.n);  // throws with the offending field
  // Transcript capture needs a deterministic runtime; the threaded
  // runtime's schedule belongs to the OS.
  if (spec.record_transcripts && spec.topology == TopologyKind::kThreaded) {
    throw std::invalid_argument(
        "ScenarioSpec.record_transcripts: topology 'threaded' is scheduled by the OS and "
        "cannot be deterministically transcribed (use 'ring' — the §2 equivalence makes the "
        "executions interchangeable)");
  }
  // The routing decision (and the engine=lanes eligibility error) comes
  // before any factory runs, like every other spec-field validation.
  const bool lanes = route_to_lanes(spec);
  register_builtin_scenarios();
  const ProtocolEntry* protocol_entry = &ProtocolRegistry::instance().at(spec.protocol);
  const DeviationEntry* deviation_entry =
      spec.deviation.empty() ? nullptr : &DeviationRegistry::instance().at(spec.deviation);

  auto job = std::make_unique<ScenarioJob>();
  job->spec = spec;
  job->window = scenario_trial_window(spec);
  job->stats.resize(job->window.count);
  if (spec.record_transcripts) job->transcripts.resize(job->window.count);
  switch (spec.topology) {
    case TopologyKind::kRing:
    case TopologyKind::kThreaded:
      if (lanes) {
        fill_lane_job(*job, protocol_entry, deviation_entry);
      } else {
        fill_ring_job(*job, protocol_entry, deviation_entry);
      }
      break;
    case TopologyKind::kGraph:
      fill_graph_job(*job, protocol_entry, deviation_entry);
      break;
    case TopologyKind::kSync:
      if (lanes) {
        fill_sync_lane_job(*job, protocol_entry);
      } else {
        fill_sync_job(*job, protocol_entry, deviation_entry);
      }
      break;
    case TopologyKind::kTree:
    case TopologyKind::kFullInfo:
      fill_turn_job(*job, protocol_entry, deviation_entry);
      break;
  }
  return job;
}

}  // namespace

std::uint64_t scenario_ring_step_limit(const ScenarioSpec& spec,
                                       const RingProtocol& protocol) {
  return derived_step_limit(spec.step_limit, protocol.honest_message_bound(spec.n));
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  const std::unique_ptr<ScenarioJob> job = prepare_scenario_job(spec);
  Executor::Batch batch = batch_of(*job);
  Executor::shared().run(std::span<Executor::Batch>(&batch, 1), spec.threads);
  reduce_job(*job);
  job->result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return std::move(job->result);
}

std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep) {
  // A sweep backend (the fabric's RemoteExecutor, or a test double) takes
  // the whole sweep; its contract is a result vector bit-identical to the
  // in-process path below.
  if (SweepBackend* backend = sweep_backend()) return backend->run_sweep(sweep);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<ScenarioJob>> jobs;
  jobs.reserve(sweep.scenarios.size());
  for (std::size_t i = 0; i < sweep.scenarios.size(); ++i) {
    try {
      jobs.push_back(prepare_scenario_job(sweep.scenarios[i]));
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument("SweepSpec.scenarios[" + std::to_string(i) +
                                  "]: " + error.what());
    }
  }
  std::vector<Executor::Batch> batches;
  batches.reserve(jobs.size());
  for (const auto& job : jobs) batches.push_back(batch_of(*job));
  Executor::shared().run(std::span<Executor::Batch>(batches), sweep.threads, sweep.chunk);

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::vector<ScenarioResult> results;
  results.reserve(jobs.size());
  for (const auto& job : jobs) {
    reduce_job(*job);
    // Scenarios share the submission, so each result reports the sweep's
    // wall time (per-scenario attribution is meaningless under stealing).
    job->result.wall_seconds = elapsed;
    results.push_back(std::move(job->result));
  }
  return results;
}

}  // namespace fle

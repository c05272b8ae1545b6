#pragma once
// The unified Scenario API: one registry-driven entrypoint over all of the
// repo's execution runtimes.
//
// A ScenarioSpec names everything an experiment needs — topology, protocol,
// deviation + coalition placement, scheduler, ring size, trial count, base
// seed — as plain data.  run_scenario() resolves the protocol and deviation
// through the string-keyed registries (api/registry.h), dispatches to the
// right runtime (RingEngine, GraphEngine, SyncEngine, ThreadedRuntime, or
// the full-information/game-tree turn-game player), fans the trials out
// over the persistent executor (api/parallel.h) with per-trial seeds
// derived from the base seed, and aggregates everything into one
// ScenarioResult.  run_sweep (api/sweep.h) does the same for many scenarios
// at once on one shared work queue.  The two are the only way into the
// trial loop: tests, tools and benches all describe their runs as specs.
//
// Determinism contract: the same ScenarioSpec yields identical outcome
// counts for every worker-thread count — per-trial seeds depend only on
// (base seed, global trial index) and results are reduced in trial order.
//
// Sharding: trial_offset/trial_count select a window of the scenario's
// trials, so one scenario can be split across processes; the per-shard
// ScenarioResults merge() back into exactly the monolithic result (seeds
// are position-independent, aggregates are kept as exact integer totals).
//
// See DESIGN.md for the layer diagram and a quickstart.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "attacks/coalition.h"
#include "core/types.h"
#include "sim/scheduler.h"
#include "sim/transcript.h"

namespace fle {

class RingProtocol;

/// Which runtime executes the scenario.
///
///  * kRing      — deterministic asynchronous unidirectional ring (RingEngine)
///  * kGraph     — general-topology asynchronous network (GraphEngine)
///  * kTree      — extensive-form game over a tree protocol, played as a
///                 turn game (Section 7 / Appendix F machinery)
///  * kSync      — synchronous lockstep rounds (SyncEngine)
///  * kThreaded  — one OS thread per processor on the ring (ThreadedRuntime)
///  * kFullInfo  — full-information broadcast turn games (Related Work)
enum class TopologyKind { kRing, kGraph, kTree, kSync, kThreaded, kFullInfo };

const char* to_string(TopologyKind kind);
std::optional<TopologyKind> parse_topology(const std::string& name);

/// Which execution engine serves a scenario's trials (ring and sync
/// topologies; other runtimes have no lane engines and ignore this).
///
///  * kAuto   — the specializer (api/specialize.h) runs every spec that has
///              a devirtualized lane kernel — honest or deviated
///              (basic-single, rushing) ring specs, honest sync specs — on
///              the batched lane engines, and everything else on the
///              scalar engines.  Results are bit-identical either way (the
///              lane differentials gate it), so this is purely a
///              performance decision.
///  * kScalar — always the scalar reference engine (the oracle).
///  * kLanes  — force the batched lane engine; rejected (invalid_argument
///              with the lane_ineligible_reason) when the spec has no lane
///              kernel.
enum class EngineKind { kAuto, kScalar, kLanes };

const char* to_string(EngineKind kind);
std::optional<EngineKind> parse_engine(const std::string& name);

/// Adjacency restriction for kGraph scenarios (GraphEngineOptions::
/// adjacency underneath).  kComplete is the fully-connected default;
/// kDirectedRing embeds the unidirectional ring (each u may send only to
/// u+1 mod n); kStar routes everything through processor 0 (bidirectional
/// spokes).  Protocols that send along absent links throw — a spec pairing
/// a broadcast protocol with a restricted adjacency is rejected like any
/// other inconsistent spec.
enum class GraphAdjacency { kComplete, kDirectedRing, kStar };

const char* to_string(GraphAdjacency adjacency);
std::optional<GraphAdjacency> parse_adjacency(const std::string& name);

/// The n x n link matrix a GraphAdjacency describes (empty = complete).
std::vector<std::vector<char>> build_adjacency(GraphAdjacency adjacency, int n);

/// How the deviation's coalition is placed on the ring/network.
struct CoalitionSpec {
  enum class Placement {
    kDefault,         ///< the deviation's canonical placement (if it has one)
    kConsecutive,     ///< Coalition::consecutive(n, k, first)
    kEquallySpaced,   ///< Coalition::equally_spaced(n, k, first)
    kBernoulli,       ///< Coalition::bernoulli(n, density, placement_seed)
    kCubicStaircase,  ///< Coalition::cubic_staircase(n, k, first)
    kCustom,          ///< explicit member list
  };

  Placement placement = Placement::kDefault;
  int k = 0;                           ///< coalition size (where applicable)
  ProcessorId first = 1;               ///< first member position
  double density = 0.0;                ///< Bernoulli density p
  std::uint64_t placement_seed = 0;    ///< Bernoulli draw seed
  std::vector<ProcessorId> members;    ///< kCustom member list

  static CoalitionSpec consecutive(int k, ProcessorId first = 1);
  static CoalitionSpec equally_spaced(int k, ProcessorId first = 1);
  static CoalitionSpec bernoulli(double density, std::uint64_t placement_seed);
  static CoalitionSpec cubic_staircase(int k, ProcessorId first = 1);
  static CoalitionSpec custom(std::vector<ProcessorId> members);
};

/// Builds the Coalition a spec describes, or nullopt for kDefault (the
/// deviation factory then supplies its canonical placement).
std::optional<Coalition> build_coalition(const CoalitionSpec& spec, int n);

/// A complete, value-typed description of one experiment.
struct ScenarioSpec {
  TopologyKind topology = TopologyKind::kRing;
  std::string protocol;       ///< ProtocolRegistry key
  std::string deviation;      ///< DeviationRegistry key; empty = honest
  CoalitionSpec coalition;
  Value target = 0;           ///< the leader the coalition tries to force

  SchedulerKind scheduler = SchedulerKind::kRoundRobin;
  int n = 0;                  ///< processors (players for turn games)
  std::size_t trials = 100;   ///< the scenario's FULL logical trial count
  /// Sharding window: this process runs global trials
  /// [trial_offset, trial_offset + trial_count), where trial_count = 0
  /// means "through trial `trials`".  Seeds depend on the global index
  /// only, so shard results merge() into exactly the monolithic run.
  std::size_t trial_offset = 0;
  std::size_t trial_count = 0;
  std::uint64_t seed = 1;     ///< base seed; per-trial seeds derive from it
  std::uint64_t step_limit = 0;  ///< deliveries (rounds for kSync); 0 = derive
  int threads = 1;            ///< trial-batching workers; 0 = hardware count
  bool record_outcomes = false;  ///< keep per-trial outcomes in the result
  /// Keep one ExecutionTranscript per trial in the result (sim/transcript.h),
  /// keyed by global trial index so sharded captures merge like everything
  /// else.  Rejected for kThreaded: the OS schedule is not transcribable.
  bool record_transcripts = false;
  /// kGraph only: the link structure trials run on (ignored elsewhere).
  GraphAdjacency adjacency = GraphAdjacency::kComplete;
  /// Engine selection (see EngineKind); lanes serve ring and sync specs.
  EngineKind engine = EngineKind::kAuto;

  // Protocol / deviation knobs (consumed by the registered factories that
  // care; ignored by the rest).
  std::uint64_t protocol_key = 0x5eed;  ///< PRF key for keyed protocols
  int param_l = 0;            ///< PhaseAsyncLead l override (0 = paper default)
  std::uint64_t search_cap = 0;   ///< attack preimage-search cap (0 = default)
  int prefix = 4;             ///< random-location detection constant C
  int rounds = 3;             ///< game rounds for tree turn games
  std::uint64_t tamper_send = 0;  ///< which send the tamper deviations corrupt
};

/// The window of global trial indices a spec executes.
struct TrialWindow {
  std::size_t first = 0;
  std::size_t count = 0;
};

/// Resolves spec.trial_offset/trial_count against spec.trials.  Throws
/// std::invalid_argument naming the offending field when the window does
/// not fit inside [0, spec.trials].
TrialWindow scenario_trial_window(const ScenarioSpec& spec);

/// Unified aggregate over all runtimes.  Fields that a runtime does not
/// produce stay at their zero value (e.g. sync gaps outside the ring).
/// Sums are kept as exact integer totals (the means derive from them), so
/// shard results merge() bit-identically into the monolithic run.
struct ScenarioResult {
  OutcomeCounter outcomes;
  std::size_t trials = 0;          ///< trials aggregated here (window size)
  std::size_t trial_offset = 0;    ///< global index of the first trial here
  std::size_t spec_trials = 0;     ///< the scenario's full trial count
  std::uint64_t base_seed = 0;     ///< the spec's base seed (merge guard)
  std::uint64_t total_messages = 0;  ///< exact sum of sends over trials
  double mean_messages = 0.0;      ///< total_messages / trials
  std::uint64_t max_messages = 0;
  std::uint64_t total_sync_gap = 0;  ///< exact sum (ring engine only)
  std::uint64_t max_sync_gap = 0;  ///< max over trials (ring engine only)
  double mean_sync_gap = 0.0;
  int max_rounds = 0;              ///< kSync: max rounds over trials
  double wall_seconds = 0.0;       ///< wall time of the whole batch
  std::string protocol_name;       ///< resolved display name
  std::string deviation_name;      ///< resolved display name (empty = honest)
  bool outcomes_recorded = false;  ///< spec.record_outcomes
  std::vector<Outcome> per_trial;  ///< filled when outcomes_recorded
  bool transcripts_recorded = false;  ///< spec.record_transcripts
  /// per_trial_transcript[i] is the transcript of global trial
  /// trial_offset + i; shard results concatenate under merge() exactly
  /// like per_trial outcomes.
  std::vector<ExecutionTranscript> per_trial_transcript;

  explicit ScenarioResult(int n) : outcomes(n) {}

  /// Folds `other` — the NEXT contiguous shard of the same scenario — into
  /// this result: outcome counts and integer totals add, maxima combine,
  /// means are recomputed, per-trial outcomes concatenate.  Shards must be
  /// merged in trial_offset order.  Throws std::invalid_argument naming the
  /// mismatched field (protocol_name, deviation_name, outcome domain,
  /// base_seed, spec_trials, trial_offset contiguity, outcomes_recorded).
  void merge(const ScenarioResult& other);
};

/// Seed of trial `trial` under base seed `base_seed` (a splitmix64 stream:
/// every trial gets an independently mixed 64-bit seed).
std::uint64_t scenario_trial_seed(std::uint64_t base_seed, std::size_t trial);

/// The delivery bound a ring/threaded trial of `spec` runs under: the
/// spec's explicit step_limit, or the default slack over the protocol's
/// honest message bound.  Public so the verify subsystem's trace checks
/// replay executions under exactly the production limit.
std::uint64_t scenario_ring_step_limit(const ScenarioSpec& spec, const RingProtocol& protocol);

/// The single-scenario entrypoint: resolves the spec against the
/// registries, runs its trial window on `spec.threads` workers of the
/// shared executor, and aggregates.  Throws std::invalid_argument on
/// unknown names or inconsistent specs.
ScenarioResult run_scenario(const ScenarioSpec& spec);

}  // namespace fle

#pragma once
// String-keyed registries binding scenario names to protocol and deviation
// factories across every runtime family.
//
// One entry may serve several runtime families: a registered protocol
// exposes whichever of the make_* factories apply (a ring protocol runs on
// both kRing and kThreaded; a turn game runs on kFullInfo or kTree).
// run_scenario() picks the factory matching the spec's topology and fails
// with a clear error when the protocol does not support it.
//
// All built-in protocols (src/protocols/, src/fullinfo/, src/trees/) and
// attacks (src/attacks/) are registered by register_builtin_scenarios(),
// which every registry lookup (and add()) triggers lazily; user code may
// add its own entries with add() before calling run_scenario().  Builtin
// names are reserved: an add() that collides with one throws immediately.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "attacks/deviation.h"
#include "attacks/graph_deviation.h"
#include "attacks/sync_attacks.h"
#include "fullinfo/turn_game.h"
#include "sim/graph_engine.h"
#include "sim/strategy.h"
#include "sim/sync_engine.h"

namespace fle {

struct PhaseParams;

struct ProtocolEntry {
  std::string name;     ///< registry key
  std::string summary;  ///< one-line description (paper pointer)
  /// Randomized protocols (per-trial id permutations etc.): the factory is
  /// re-invoked for every trial with that trial's seed.  Deterministic
  /// protocols are built once per scenario and shared across workers.
  bool per_trial = false;

  // Exactly the factories for the families the protocol supports.
  std::function<std::unique_ptr<RingProtocol>(const ScenarioSpec&, std::uint64_t seed)>
      make_ring;
  std::function<std::unique_ptr<GraphProtocol>(const ScenarioSpec&, std::uint64_t seed)>
      make_graph;
  std::function<std::unique_ptr<SyncProtocol>(const ScenarioSpec&, std::uint64_t seed)>
      make_sync;
  std::function<std::unique_ptr<TurnGame>(const ScenarioSpec&)> make_game;
};

struct DeviationEntry {
  std::string name;
  std::string summary;

  std::function<std::unique_ptr<Deviation>(const RingProtocol&, const ScenarioSpec&)>
      make_ring;
  std::function<std::unique_ptr<GraphDeviation>(const GraphProtocol&, const ScenarioSpec&)>
      make_graph;
  std::function<std::unique_ptr<SyncDeviation>(const SyncProtocol&, const ScenarioSpec&)>
      make_sync;
  /// Turn games: the adversary plus the coalition it plays for.
  std::function<std::unique_ptr<TurnAdversary>(const TurnGame&, const ScenarioSpec&)>
      make_turn;
  std::function<std::vector<ProcessorId>(const TurnGame&, const ScenarioSpec&)>
      turn_coalition;
};

class ProtocolRegistry {
 public:
  static ProtocolRegistry& instance();

  /// Throws std::invalid_argument on a duplicate name (builtin names are
  /// reserved: they are registered before the entry is checked).
  void add(ProtocolEntry entry);
  /// Throws std::invalid_argument with the registered names on a miss.
  [[nodiscard]] const ProtocolEntry& at(const std::string& name) const;
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  /// add() without the builtin-registration trigger; what
  /// register_builtin_scenarios() itself inserts through.
  void insert(ProtocolEntry entry);
  friend void register_builtin_scenarios();

  std::map<std::string, ProtocolEntry> entries_;
};

class DeviationRegistry {
 public:
  static DeviationRegistry& instance();

  void add(DeviationEntry entry);
  [[nodiscard]] const DeviationEntry& at(const std::string& name) const;
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  void insert(DeviationEntry entry);
  friend void register_builtin_scenarios();

  std::map<std::string, DeviationEntry> entries_;
};

/// Registers every built-in protocol and deviation.  Idempotent and
/// thread-safe; invoked automatically by registry lookups and run_scenario.
void register_builtin_scenarios();

/// The domain parameters the phase-async-lead and phase-sum-lead entries
/// build from `spec`: PhaseParams::defaults(n), with l = spec.param_l when
/// it is set.  Throws std::invalid_argument unless 1 <= param_l < n.
PhaseParams phase_params(const ScenarioSpec& spec);

}  // namespace fle

#pragma once
// Adversarial deviations on general-topology networks (paper Definition 2.2
// lifted from the ring to arbitrary communication graphs).
//
// Mirrors attacks/deviation.h: a deviation binds a coalition to adversarial
// GraphStrategy instances; everyone outside the coalition runs the
// protocol's honest strategy.

#include "attacks/coalition.h"
#include "sim/graph_engine.h"

namespace fle {

/// Deviation interface for graph protocols (Definition 2.2 on networks).
class GraphDeviation {
 public:
  virtual ~GraphDeviation() = default;
  [[nodiscard]] virtual const Coalition& coalition() const = 0;
  /// Arena adversary factory; see Deviation::emplace_adversary.
  [[nodiscard]] virtual GraphStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id,
                                                         int n) const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace fle

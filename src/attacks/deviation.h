#pragma once
// Adversarial deviations (paper Definition 2.2).
//
// A deviation binds a coalition C to adversarial strategies for its members;
// everyone outside C runs the protocol's honest strategy.  Coalition members
// share only *pre-agreed static configuration* (the coalition layout, the
// target leader w, constants); at run time they may communicate exclusively
// through ring messages, exactly as the model prescribes.

#include "attacks/coalition.h"
#include "sim/strategy.h"

namespace fle {

class Deviation {
 public:
  virtual ~Deviation() = default;

  [[nodiscard]] virtual const Coalition& coalition() const = 0;
  /// Strategy for coalition member `id`, built in `arena`; see
  /// RingProtocol::emplace_strategy.  Only called for members.
  [[nodiscard]] virtual RingStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id,
                                                        int n) const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace fle

#pragma once
// Claim B.1: Basic-LEAD is broken by a single adversary.
//
// The adversary stays silent at wake-up, buffers the n-1 honest values as
// they arrive (every honest value reaches it without its help), then picks
// M = w - sum(others) mod n, sends M followed by the buffered values in
// arrival order, and terminates with w.  Every honest processor receives n
// values ending with its own, sums to w, and elects w.

#include "attacks/deviation.h"
#include "core/types.h"

namespace fle {

class BasicSingleDeviation final : public Deviation {
 public:
  /// `adversary` is the lone coalition member; `target` the leader to force.
  BasicSingleDeviation(int n, ProcessorId adversary, Value target);

  const Coalition& coalition() const override { return coalition_; }
  RingStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "basic-single (Claim B.1)"; }

 private:
  Coalition coalition_;
  Value target_;
};

}  // namespace fle

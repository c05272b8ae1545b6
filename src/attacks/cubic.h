#pragma once
// The Cubic Attack on A-LEADuni (paper Theorem 4.3, Appendix C pseudo-code).
//
// k = Theta(n^(1/3)) adversaries at staircase distances (l_k <= k-1,
// l_i <= l_{i+1} + k-1, sum l_i = n-k) control the outcome.  Each adversary
// a_i pipes its first n-k-l_i incoming messages, bursts k-1 zeros (the
// "push" that keeps the next adversary fed), absorbs l_i more messages
// silently, then sends M = w - sum(first n-k incoming) and replays its last
// l_i received values (its own segment's secrets).

#include "attacks/deviation.h"
#include "core/types.h"

namespace fle {

class CubicDeviation final : public Deviation {
 public:
  /// `coalition` is normally Coalition::cubic_staircase(n, k); any placement
  /// whose segment profile satisfies the staircase constraints cyclically
  /// will terminate.  Requires an honest origin.
  CubicDeviation(Coalition coalition, Value target);

  const Coalition& coalition() const override { return coalition_; }
  RingStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "cubic (Theorem 4.3)"; }

 private:
  Coalition coalition_;
  Value target_;
  std::vector<int> segment_lengths_;
};

}  // namespace fle

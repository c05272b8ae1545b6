#pragma once
// The rushing attack on A-LEADuni (paper Lemma 4.1 / Theorem 4.2).
//
// Precondition: every honest segment has l_j <= k-1 (e.g. k >= sqrt(n)
// equally spaced adversaries).  Every adversary forwards its first n-k
// incoming messages immediately instead of buffering — the coalition never
// injects its own secrets, so after n-k receives each adversary has seen
// every honest secret.  It then sends
//     M = w - S_honest - S_segment  (mod n),
// k - l_j - 1 zeros, and finally replays the last l_j received values (the
// secrets of its own honest segment, in the order validation requires), so
// every honest processor passes validation and computes sum w.

#include "attacks/deviation.h"
#include "core/types.h"

namespace fle {

class RushingDeviation final : public Deviation {
 public:
  /// Throws unless Lemma 4.1's precondition holds (all l_j <= k-1) and the
  /// origin is honest.
  RushingDeviation(Coalition coalition, Value target);

  const Coalition& coalition() const override { return coalition_; }
  RingStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "rushing (Lemma 4.1)"; }

 private:
  Coalition coalition_;
  Value target_;
  std::vector<int> segment_lengths_;
};

}  // namespace fle

#pragma once
// The randomly-located-coalition attack on A-LEADuni (paper Theorem C.1).
//
// Randomized model: each processor is an adversary independently with
// probability p; adversaries know neither k nor their relative distances.
// Each adversary forwards incoming messages while scanning for circularity:
// the first T > C with m[1..C] == m[T-C+1..T] reveals that the ring's n-k
// honest values have wrapped around, so k' = n - T + C.  It then sends
//     M = w - S(1,T) - S(n-k'-(k'-C-1)+1, n-k')   (mod n)
// followed by the last k'-C-1 values of the first circulation (hoping
// l_j <= k'-C-1 covers its own segment).  The attack fails only when honest
// values collide on a C-prefix (probability <= n^(2-C)) or some segment is
// too long (probability delta), matching the theorem's bound.
//
// Per the paper, if the origin is drawn into the coalition it simply plays
// honestly.

#include "attacks/deviation.h"
#include "core/types.h"
#include "sim/strategy.h"

namespace fle {

class RandomLocationDeviation final : public Deviation {
 public:
  /// `coalition` typically comes from Coalition::bernoulli(n, p, seed);
  /// `prefix` is the circularity-detection constant C >= 2.
  /// `honest_origin_factory` supplies the honest strategy when processor 0
  /// is drawn into the coalition.
  RandomLocationDeviation(Coalition coalition, Value target, int prefix,
                          const RingProtocol& protocol);

  const Coalition& coalition() const override { return coalition_; }
  RingStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "random-location (Theorem C.1)"; }

  /// Theorem C.1's recommended density p = sqrt(8 ln(n) / n).
  static double recommended_density(int n);

 private:
  Coalition coalition_;
  Value target_;
  int prefix_;
  const RingProtocol* protocol_;
};

}  // namespace fle

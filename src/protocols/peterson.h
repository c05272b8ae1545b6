#pragma once
// Peterson's O(n log n) unidirectional election (paper Related Work, [24]).
//
// Classical, non-fault-tolerant baseline for experiment E12.  Processors are
// active or relays; in each phase an active processor compares its temporary
// id with the ids of its two nearest active predecessors and survives only
// if the nearer predecessor's id is a local maximum; actives at least halve
// every phase, giving 2n messages per phase and O(n log n) total, worst
// case.  The last active processor sees its own temporary id return and
// announces itself; the announcement circulates once.
//
// Like Chang-Roberts, logical ids are a per-trial permutation and the output
// is the announcing processor's position.

#include <vector>

#include "sim/strategy.h"

namespace fle {

class PetersonProtocol final : public RingProtocol {
 public:
  explicit PetersonProtocol(std::vector<Value> logical_ids);
  static PetersonProtocol random(int n, std::uint64_t seed);

  RingStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "Peterson"; }
  std::uint64_t honest_message_bound(int n) const override {
    // 2n per phase, <= ceil(log2 n) + 1 phases, + n announcement.
    std::uint64_t bound = static_cast<std::uint64_t>(n);
    for (int v = n; v > 1; v = (v + 1) / 2) bound += 2ull * static_cast<std::uint64_t>(n);
    return bound + static_cast<std::uint64_t>(n);
  }

 private:
  std::vector<Value> logical_ids_;
};

}  // namespace fle

#pragma once
// Chang-Roberts extrema-finding election (paper Related Work, [12]).
//
// Classical, non-fault-tolerant baseline for the message-complexity
// comparison (experiment E12): each processor launches its logical id; ids
// are swallowed by larger ones; the processor whose id survives a full
// circulation announces itself leader.  Average message complexity
// Theta(n log n) over random id arrangements, Theta(n^2) worst case.
//
// Logical ids are a permutation of [0, n) supplied per trial (our physical
// ids are ring positions, which would be a degenerate arrangement).  The
// elected output is the *position* of the winning processor so outcomes
// remain comparable with the fair protocols.

#include <vector>

#include "sim/strategy.h"

namespace fle {

class ChangRobertsProtocol final : public RingProtocol {
 public:
  /// `logical_ids[p]` = logical id of the processor at position p; must be a
  /// permutation of 0..n-1.
  explicit ChangRobertsProtocol(std::vector<Value> logical_ids);

  /// Random permutation of logical ids drawn from `seed`.
  static ChangRobertsProtocol random(int n, std::uint64_t seed);

  RingStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "Chang-Roberts"; }
  std::uint64_t honest_message_bound(int n) const override {
    return static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) + 2ull * n;
  }

  /// Position that will win (holder of the maximal logical id).
  [[nodiscard]] ProcessorId expected_winner() const;

 private:
  std::vector<Value> logical_ids_;
};

}  // namespace fle

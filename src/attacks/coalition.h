#pragma once
// Coalition placements and honest segments (paper Definition 3.1, Figure 1).
//
// A coalition C = {a_1 < a_2 < ... < a_k} of ring positions partitions the
// honest processors into honest segments I_j (the maximal runs of honest
// processors between consecutive coalition members); l_j = |I_j| is the
// distance from a_j to a_{j+1} minus one.  The attacks are parameterized by
// placements:
//  * consecutive      — the case analyzed by Abraham et al. (Claim D.1)
//  * equally spaced   — Lemma 4.1 / Theorem 4.2 (needs l_j <= k-1)
//  * Bernoulli(p)     — Theorem C.1's randomized model
//  * cubic staircase  — Theorem 4.3's l_k <= k-1, l_i <= l_{i+1} + k-1
//                       profile with sum l_i = n-k

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "sim/arena.h"

namespace fle {

class Coalition {
 public:
  /// Members are deduplicated, sorted and validated against [0, n).
  Coalition(int n, std::vector<ProcessorId> members);

  /// k consecutive positions starting at `start`.
  static Coalition consecutive(int n, int k, ProcessorId start = 1);

  /// k positions spread as evenly as possible; first member at `first`
  /// (default 1 keeps the origin honest, as the attack analyses assume).
  static Coalition equally_spaced(int n, int k, ProcessorId first = 1);

  /// Every processor is an adversary independently with probability p
  /// (Theorem C.1's randomized model).  May produce any k including 0.
  static Coalition bernoulli(int n, double p, std::uint64_t seed);

  /// Theorem 4.3's staircase: segment lengths built back-to-front with
  /// l_{k-1} <= k-1 and steps of at most k-1, summing to n-k (the relaxed
  /// constraints l_k <= k-1, l_i <= l_{i+1}+k-1 of Section 4).  Throws if k
  /// is too small to cover the ring (see cubic_min_k).
  static Coalition cubic_staircase(int n, int k, ProcessorId first = 1);

  /// Smallest k such that the staircase profile can reach sum n-k, i.e.
  /// (k-1)k(k+1)/2 >= n-k; this is Theta(n^(1/3)) (= ~2 n^(1/3) with the
  /// paper's slack).
  static int cubic_min_k(int n);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int k() const { return static_cast<int>(members_.size()); }
  [[nodiscard]] const std::vector<ProcessorId>& members() const { return members_; }
  [[nodiscard]] bool contains(ProcessorId p) const;
  /// Index j of member p in ring order, or -1.
  [[nodiscard]] int index_of(ProcessorId p) const;

  /// l_j for every member j (Definition 3.1): the number of honest
  /// processors strictly between member j and the next member (cyclic).
  [[nodiscard]] std::vector<int> segment_lengths() const;
  [[nodiscard]] int max_segment_length() const;
  [[nodiscard]] int min_segment_length() const;

  /// Lemma 4.1's precondition: every honest segment has l_j <= k-1.
  /// False for k < 2: a lone member's one segment holds the n - 1 others.
  [[nodiscard]] bool rushing_precondition_holds() const;

  /// Figure 1 rendering: members and segment lengths around the ring.
  [[nodiscard]] std::string render() const;

 private:
  int n_;
  std::vector<ProcessorId> members_;
  std::vector<char> is_member_;
};

/// Builds processor `p`'s strategy of the deviated profile (P_{V-C}, P'_C)
/// inside `arena`: `deviation`'s adversary for a coalition member, the
/// protocol's honest strategy everywhere else (deviation == nullptr is the
/// honest profile).  Works for every runtime family's (protocol, deviation)
/// pair.
template <typename Protocol, typename Deviation>
auto emplace_processor(const Protocol& protocol, const Deviation* deviation, ProcessorId p,
                       int n, StrategyArena& arena) {
  return deviation != nullptr && deviation->coalition().contains(p)
             ? deviation->emplace_adversary(arena, p, n)
             : protocol.emplace_strategy(arena, p, n);
}

/// The whole deviated profile: every processor's strategy is emplaced into
/// `arena` and the non-owning profile is written into `out`, whose capacity
/// is reused across trials.  The caller owns the rewind cadence: rewind the
/// arena before each compose, and keep the arena alive for as long as the
/// profile runs.
template <typename Protocol, typename Deviation, typename Strategy>
void compose_profile_into(const Protocol& protocol, const Deviation* deviation, int n,
                          StrategyArena& arena, std::vector<Strategy*>& out) {
  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  for (ProcessorId p = 0; p < n; ++p) {
    out.push_back(emplace_processor(protocol, deviation, p, n, arena));
  }
}

}  // namespace fle

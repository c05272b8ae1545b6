#pragma once
// Rushing attack on PhaseAsyncLead (paper, remark after Theorem 6.1).
//
// The coalition pipes data messages (never injecting its own secrets) and
// handles validation messages honestly.  The compression by k positions
// leaves each adversary a_j with k - l_j "free" data slots at rounds
// n-k+1 .. n-l_j — after it has seen every honest data value (round n-k)
// and every validation value f consumes (v-hat[1..n-l], known by round
// n-l < n-k), but before its committed replay tail.  Those slots are the
// d-hat entries of coalition positions as seen by its segment I_j, so the
// adversary brute-forces values for them until
//     f(d-hat, v-hat[1..n-l]) = w,
// exactly as the paper's information-limited, computationally-unbounded
// adversary would.  With l_j <= k-3 each adversary controls >= 3 entries
// and succeeds almost surely; at k = ceil(sqrt(n)) + 3 equally spaced the
// precondition holds, matching the paper's tightness claim.
//
// Below the threshold (l_j >= k) there are no free slots: the adversary
// commits to its replay tail before it can steer, different segments
// compute different f outputs, and the execution FAILs — the empirical face
// of Theorem 6.1's resilience.

#include "attacks/deviation.h"
#include "protocols/phase_async_lead.h"

namespace fle {

class PhaseRushingDeviation final : public Deviation {
 public:
  /// `search_cap` bounds the preimage search per adversary (0 = 8n
  /// attempts).  A member with s free slots has only n^s distinct
  /// assignments, so it succeeds with probability ~ 1 - (1-1/n)^min(cap, n^s):
  /// ~0.63 at s = 1 whatever the cap.
  PhaseRushingDeviation(Coalition coalition, Value target,
                        const PhaseAsyncLeadProtocol& protocol,
                        std::uint64_t search_cap = 0);

  const Coalition& coalition() const override { return coalition_; }
  RingStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "phase-rushing (Thm 6.1 remark)"; }

  /// Free data slots available to member j: max(0, k - l_j).
  [[nodiscard]] int free_slots(int member_index) const;
  /// True when every member has at least one steerable slot.
  [[nodiscard]] bool steering_possible() const;

 private:
  Coalition coalition_;
  Value target_;
  const PhaseAsyncLeadProtocol* protocol_;
  std::uint64_t search_cap_;
  std::vector<int> segment_lengths_;
};

}  // namespace fle

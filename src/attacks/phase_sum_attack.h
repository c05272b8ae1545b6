#pragma once
// The k = 4 attack on PhaseSumLead (paper Appendix E.4).
//
// Phase validation keeps processors synchronized, but with a *sum* output
// the validation values themselves become a covert channel: on rounds whose
// validator is a coalition member, any adversary may originate, rewrite, or
// absorb the circulating validation message — the only processor that
// checks the value is the (colluding) validator.
//
// With members a0 < a1 < a2 < a3 (paper's a_1..a_4) and rushed data:
//  * Round R2 = a1+1 (a1 validates): a1 originates S2 (the data-sum of the
//    segment behind it); a2, a3 add their behind-segment sums while
//    forwarding; a0 adds the last share, so a0 and a1 learn
//    S = sum of all honest data values.
//  * Round R3 = a2+1 (a2 validates): a1 *initiates the round early* with
//    value S into its successor segment (undetectable: honest processors
//    just forward), a2 reads S and originates S onward, a3 and a0 read S
//    while forwarding, and a1 absorbs the circulating copy so message
//    counts stay intact.  Every adversary now knows S before its point of
//    commitment.
//  * Each adversary pipes data for n-l_j-4 rounds, sends M = w - S, three
//    zeros, and its committed tail, so every segment sums to w.

#include "attacks/deviation.h"
#include "protocols/phase_sum_lead.h"

namespace fle {

class PhaseSumDeviation final : public Deviation {
 public:
  /// Requires |coalition| == 4, honest origin, and the timing constraints
  /// listed in DESIGN.md (all satisfied by placement(n)).
  PhaseSumDeviation(Coalition coalition, Value target, const PhaseSumLeadProtocol& protocol);

  /// The paper's placement: four near-equal segments, first member at
  /// position 1 (requires n >= 20).
  static Coalition placement(int n);

  const Coalition& coalition() const override { return coalition_; }
  RingStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "phase-sum covert channel (E.4)"; }

 private:
  Coalition coalition_;
  Value target_;
  PhaseParams params_;
  std::vector<int> segment_lengths_;
};

}  // namespace fle

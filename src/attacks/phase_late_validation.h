#pragma once
// The late-validation steering attack on PhaseAsyncLead with a mis-tuned l
// (design ablation for Section 6's parameter choice l = Theta(sqrt(n))).
//
// The output f(d-hat, v-hat[1..n-l]) consumes validation round n-l, whose
// value is *chosen* by its validator (processor n-l-1) during round n-l —
// much later than any data commitment.  If the coalition occupies the l
// consecutive positions n-l-1 .. n-2 with pre-agreed data values, then at
// its validator round the steerer (position n-l-1) already knows every
// other f input:
//   * data of positions 0..n-l-2 and n-1: received during rounds 1..n-l;
//   * data of positions n-l..n-2: the pre-agreed coalition constants;
//   * validation rounds 1..n-l-1: already circulated.
// It brute-forces its own validation value (m = 2n^2 candidates, ~n
// expected tries) so that f evaluates to the target.  Everything else is
// bit-for-bit honest: the deviation only replaces private random draws, so
// no validation can ever fire — the execution is valid, all processors
// share identical (d-hat, v-hat), and the outcome is w.
//
// Coalition size needed: exactly l.  With the paper's l = ceil(10 sqrt(n))
// this is *worse* than the rushing attack (E7) — which is the point: l
// large enough keeps this channel expensive, l small (e.g. constant) hands
// the election to a constant-size consecutive coalition.  Together with the
// rushing attack this pins the design window 3k < l <= n/k the paper's
// proof uses.

#include "attacks/deviation.h"
#include "protocols/phase_async_lead.h"

namespace fle {

class PhaseLateValidationDeviation final : public Deviation {
 public:
  /// Builds the canonical coalition {n-l-1, ..., n-2} for the protocol's l.
  /// `search_cap` bounds the steerer's preimage search (0 = 64n).
  PhaseLateValidationDeviation(const PhaseAsyncLeadProtocol& protocol, Value target,
                               std::uint64_t search_cap = 0);

  const Coalition& coalition() const override { return coalition_; }
  RingStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "phase-late-validation (l ablation)"; }

  /// The steering member (validator of round n-l).
  [[nodiscard]] ProcessorId steerer() const { return steerer_; }
  /// Coalition size this attack needs: l.
  static int required_k(const PhaseAsyncLeadProtocol& protocol) {
    return protocol.params().l;
  }

 private:
  static Coalition build_coalition(const PhaseParams& params);

  Coalition coalition_;
  Value target_;
  const PhaseAsyncLeadProtocol* protocol_;
  std::uint64_t search_cap_;
  ProcessorId steerer_;
};

}  // namespace fle

#pragma once
// PhaseSumLead (paper Appendix E.4): the strawman that motivates the random
// function in PhaseAsyncLead.
//
// Identical message flow to PhaseAsyncLead (data/validation alternation,
// per-round validators), but the output is the plain sum of the data values
// mod n, as in A-LEADuni.  The phase validation keeps processors
// synchronized, yet k = 4 adversaries can abuse validation *values* on
// rounds whose validator is a coalition member as a covert channel to share
// the honest sum S, and then cancel it (attacks/phase_sum_attack.h).

#include "protocols/phase_async_lead.h"

namespace fle {

class PhaseSumLeadProtocol final : public RingProtocol {
 public:
  explicit PhaseSumLeadProtocol(int n) : params_(PhaseParams::defaults(n)) {}
  explicit PhaseSumLeadProtocol(PhaseParams params) : params_(params) {}

  RingStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "PhaseSumLead"; }
  std::uint64_t honest_message_bound(int n) const override {
    return 2ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
  }

  [[nodiscard]] const PhaseParams& params() const { return params_; }
  [[nodiscard]] PhaseOutputFn output_fn() const;

 private:
  PhaseParams params_;
};

}  // namespace fle

#pragma once
// Basic-LEAD (paper Appendix B): the didactic, non-resilient FLE protocol.
//
// Every processor draws d_i uniformly from [n], sends it, forwards the next
// n-1 incoming values, and sums all n incoming values mod n.  The n-th
// incoming value must be its own d_i (one full circulation) or it aborts.
// The elected leader is the total sum mod n.
//
// Pseudo-code correction: the appendix listing initializes round = 1 and
// forwards unconditionally, which double-counts a send and validates the
// wrong message; the prose ("sends its secret and then forwards n-1
// messages, receives n values, the last must be its own") is what we
// implement.  See DESIGN.md §2.
//
// Claim B.1: a single adversary controls the outcome (see
// attacks/basic_single.h).

#include "sim/strategy.h"

namespace fle {

class BasicLeadProtocol final : public RingProtocol {
 public:
  RingStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "Basic-LEAD"; }
  std::uint64_t honest_message_bound(int n) const override {
    return static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
  }
};

/// Honest Basic-LEAD strategy (symmetric; every processor wakes up and
/// sends).  Exposed so attacks can delegate to honest behaviour.
class BasicLeadStrategy final : public RingStrategy {
 public:
  void on_init(RingContext& ctx) override;
  void on_receive(RingContext& ctx, Value v) override;

 private:
  Value d_ = 0;
  Value sum_ = 0;
  int count_ = 0;
};

}  // namespace fle

#pragma once
// A-LEADuni (paper Section 3, Appendix A): the Abraham et al. asynchronous
// unidirectional-ring FLE protocol, as reformulated by Afek et al.
//
// Secret sharing with a one-round buffering delay: every normal processor
// stores its secret d_i in a buffer and, on each incoming message, first
// sends the buffer and then stores the incoming value (so it commits to d_i
// before learning anything).  The origin (processor 0) sends d_0 at wake-up
// and acts as a pipe.  Every processor receives exactly n values, sums them
// mod n, checks that its n-th incoming value is its own d_i (the validation
// of line 13 referenced by Lemma 3.5), and outputs the sum.
//
// Pseudo-code correction (DESIGN.md §2): the appendix origin listing starts
// round = 1 and forwards every message, terminating one receive early with
// a failed validation.  Section 3's prose — origin sends d_0, forwards the
// next n-1 incoming messages, and validates its n-th — is what we implement
// (verified by exhaustive small-n traces in tests).

#include "sim/strategy.h"

namespace fle {

class ALeadUniProtocol final : public RingProtocol {
 public:
  RingStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "A-LEADuni"; }
  std::uint64_t honest_message_bound(int n) const override {
    return static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
  }
};

/// Origin strategy (processor 0): wake-up send, then pipe; validates its
/// n-th incoming value.
class ALeadOriginStrategy final : public RingStrategy {
 public:
  void on_init(RingContext& ctx) override;
  void on_receive(RingContext& ctx, Value v) override;

 private:
  Value d_ = 0;
  Value sum_ = 0;
  int count_ = 0;
};

/// Normal strategy (processors 1..n-1): one-slot buffer delay.
class ALeadNormalStrategy final : public RingStrategy {
 public:
  void on_init(RingContext& ctx) override;
  void on_receive(RingContext& ctx, Value v) override;

 private:
  Value d_ = 0;
  Value buffer_ = 0;
  Value sum_ = 0;
  int count_ = 0;
};

}  // namespace fle

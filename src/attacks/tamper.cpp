#include "attacks/tamper.h"

namespace fle {

namespace {

/// Context shim that rewrites the outgoing message stream.  The send counter
/// lives in the owning strategy so it persists across events.
class TamperContext final : public RingContext {
 public:
  TamperContext(RingContext& inner, TamperKind kind, std::uint64_t target,
                std::uint64_t& counter)
      : RingContext(inner.id(), inner.ring_size()),
        inner_(inner),
        kind_(kind),
        target_(target),
        counter_(counter) {}

  void send(Value v) override {
    const std::uint64_t index = counter_++;
    if (index != target_) {
      inner_.send(v);
      return;
    }
    switch (kind_) {
      case TamperKind::kFlipValue:
        inner_.send(v + 1);
        break;
      case TamperKind::kDropSend:
        break;
      case TamperKind::kDuplicate:
        inner_.send(v);
        inner_.send(v);
        break;
      case TamperKind::kExtraZero:
        inner_.send(v);
        inner_.send(0);
        break;
    }
  }

  void terminate(Value output) override { inner_.terminate(output); }
  void abort() override { inner_.abort(); }
  RandomTape& tape() override { return inner_.tape(); }

 private:
  RingContext& inner_;
  TamperKind kind_;
  std::uint64_t target_;
  std::uint64_t& counter_;
};

class TamperStrategy final : public RingStrategy {
 public:
  TamperStrategy(RingStrategy* inner, TamperKind kind, std::uint64_t target)
      : inner_(inner), kind_(kind), target_(target) {}

  void on_init(RingContext& ctx) override {
    TamperContext shim(ctx, kind_, target_, counter_);
    inner_->on_init(shim);
  }

  void on_receive(RingContext& ctx, Value v) override {
    TamperContext shim(ctx, kind_, target_, counter_);
    inner_->on_receive(shim, v);
  }

 private:
  RingStrategy* inner_;  ///< the honest strategy, built in the same arena
  TamperKind kind_;
  std::uint64_t target_;
  std::uint64_t counter_ = 0;
};

}  // namespace

TamperDeviation::TamperDeviation(int n, ProcessorId adversary, const RingProtocol& protocol,
                                 TamperKind kind, std::uint64_t target_send)
    : coalition_(n, {adversary}),
      protocol_(&protocol),
      kind_(kind),
      target_send_(target_send) {}

RingStrategy* TamperDeviation::emplace_adversary(StrategyArena& arena, ProcessorId id,
                                                 int n) const {
  return arena.emplace<TamperStrategy>(protocol_->emplace_strategy(arena, id, n), kind_,
                                       target_send_);
}

}  // namespace fle

#include "attacks/basic_single.h"

#include <stdexcept>
#include <vector>

namespace fle {

namespace {

class BasicSingleStrategy final : public RingStrategy {
 public:
  explicit BasicSingleStrategy(Value target) : target_(target) {}

  void on_init(RingContext& /*ctx*/) override {
    // Deviation: stay silent; wait for everyone else's value first.
  }

  void on_receive(RingContext& ctx, Value v) override {
    if (done_) return;
    const auto n = static_cast<Value>(ctx.ring_size());
    buffered_.push_back(v % n);
    if (static_cast<int>(buffered_.size()) < ctx.ring_size() - 1) return;

    // All n-1 honest values collected: cancel them out.
    Value others = 0;
    for (const Value b : buffered_) others = (others + b) % n;
    const Value m = (target_ + n - others % n) % n;
    ctx.send(m);
    for (const Value b : buffered_) ctx.send(b);  // replay: everyone still
                                                  // sees its own value last
    ctx.terminate(target_);
    done_ = true;
  }

 private:
  Value target_;
  std::vector<Value> buffered_;
  bool done_ = false;
};

}  // namespace

BasicSingleDeviation::BasicSingleDeviation(int n, ProcessorId adversary, Value target)
    : coalition_(n, {adversary}), target_(target) {
  if (target >= static_cast<Value>(n)) throw std::invalid_argument("target out of range");
}

RingStrategy* BasicSingleDeviation::emplace_adversary(StrategyArena& arena, ProcessorId /*id*/,
                                                      int /*n*/) const {
  return arena.emplace<BasicSingleStrategy>(target_);
}

}  // namespace fle

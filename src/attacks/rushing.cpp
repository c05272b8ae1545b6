#include "attacks/rushing.h"

#include <stdexcept>
#include <vector>

namespace fle {

namespace {

class RushingStrategy final : public RingStrategy {
 public:
  RushingStrategy(Value target, int k, int lj) : target_(target), k_(k), lj_(lj) {}

  void on_init(RingContext& /*ctx*/) override {
    // Deviation: never inject our own secret.
  }

  void on_receive(RingContext& ctx, Value v) override {
    if (done_) return;
    const auto n = static_cast<Value>(ctx.ring_size());
    v %= n;
    stream_.push_back(v);
    const int received = static_cast<int>(stream_.size());
    const int honest_total = ctx.ring_size() - k_;
    if (received < honest_total) {
      ctx.send(v);  // rush: pipe instead of buffering
      return;
    }
    if (received > honest_total) return;  // late traffic is ignored

    // received == n-k: pipe this one too, then burst the remaining k sends.
    ctx.send(v);
    Value s_honest = 0;
    for (const Value x : stream_) s_honest = (s_honest + x) % n;
    // The last lj received values are our segment's secrets (reversed ring
    // order), which is exactly the order validation requires.
    Value s_segment = 0;
    for (int i = honest_total - lj_; i < honest_total; ++i) {
      s_segment = (s_segment + stream_[static_cast<std::size_t>(i)]) % n;
    }
    const Value m = (target_ + 2 * n - s_honest - s_segment) % n;
    ctx.send(m);
    for (int i = 0; i < k_ - lj_ - 1; ++i) ctx.send(0);
    for (int i = honest_total - lj_; i < honest_total; ++i) {
      ctx.send(stream_[static_cast<std::size_t>(i)]);
    }
    ctx.terminate(target_);
    done_ = true;
  }

 private:
  Value target_;
  int k_;
  int lj_;
  std::vector<Value> stream_;
  bool done_ = false;
};

}  // namespace

RushingDeviation::RushingDeviation(Coalition coalition, Value target)
    : coalition_(std::move(coalition)),
      target_(target),
      segment_lengths_(coalition_.segment_lengths()) {
  if (!coalition_.rushing_precondition_holds()) {
    throw std::invalid_argument("rushing attack needs every l_j <= k-1 (Lemma 4.1)");
  }
  if (coalition_.contains(0)) {
    throw std::invalid_argument("rushing attack assumes an honest origin");
  }
  if (target_ >= static_cast<Value>(coalition_.n())) {
    throw std::invalid_argument("target out of range");
  }
}

RingStrategy* RushingDeviation::emplace_adversary(StrategyArena& arena, ProcessorId id,
                                                  int /*n*/) const {
  const int j = coalition_.index_of(id);
  if (j < 0) throw std::invalid_argument("not a coalition member");
  return arena.emplace<RushingStrategy>(target_, coalition_.k(),
                                        segment_lengths_[static_cast<std::size_t>(j)]);
}

}  // namespace fle

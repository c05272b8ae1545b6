#include "attacks/cubic.h"

#include <stdexcept>
#include <vector>

namespace fle {

namespace {

/// Appendix C "CubicAttack" pseudo-code, 0-based.
class CubicStrategy final : public RingStrategy {
 public:
  CubicStrategy(Value target, int k, int li) : target_(target), k_(k), li_(li) {}

  void on_init(RingContext& /*ctx*/) override {}

  void on_receive(RingContext& ctx, Value v) override {
    if (done_) return;
    const auto n = static_cast<Value>(ctx.ring_size());
    if (v >= n) v %= n;  // honest traffic is already reduced; skip the divide
    stream_.push_back(v);
    const int count = static_cast<int>(stream_.size());
    const int honest_total = ctx.ring_size() - k_;

    if (count <= honest_total - li_) {
      ctx.send(v);  // step 1: transfer immediately
    }
    if (count == honest_total - li_) {
      for (int i = 0; i < k_ - 1; ++i) ctx.send(0);  // step 2: push zeros
    }
    if (count == honest_total) {
      // steps 4-5: cancel the sum, then replay our segment's secrets.
      Value s = 0;
      for (const Value x : stream_) {
        s += x;
        if (s >= n) s -= n;
      }
      ctx.send((target_ + n - s) % n);
      for (int i = honest_total - li_; i < honest_total; ++i) {
        ctx.send(stream_[static_cast<std::size_t>(i)]);
      }
      ctx.terminate(target_);
      done_ = true;
    }
  }

 private:
  Value target_;
  int k_;
  int li_;
  std::vector<Value> stream_;
  bool done_ = false;
};

}  // namespace

CubicDeviation::CubicDeviation(Coalition coalition, Value target)
    : coalition_(std::move(coalition)),
      target_(target),
      segment_lengths_(coalition_.segment_lengths()) {
  if (coalition_.contains(0)) {
    throw std::invalid_argument("cubic attack assumes an honest origin");
  }
  if (target_ >= static_cast<Value>(coalition_.n())) {
    throw std::invalid_argument("target out of range");
  }
  // Cyclic staircase feasibility: every forward step drops by at most k-1.
  const int k = coalition_.k();
  for (int j = 0; j < k; ++j) {
    const int cur = segment_lengths_[static_cast<std::size_t>(j)];
    const int nxt = segment_lengths_[static_cast<std::size_t>((j + 1) % k)];
    if (cur > nxt + k - 1) {
      throw std::invalid_argument(
          "segment profile violates l_i <= l_{i+1} + k-1 (Theorem 4.3)");
    }
  }
}

RingStrategy* CubicDeviation::emplace_adversary(StrategyArena& arena, ProcessorId id,
                                                int /*n*/) const {
  const int j = coalition_.index_of(id);
  if (j < 0) throw std::invalid_argument("not a coalition member");
  return arena.emplace<CubicStrategy>(target_, coalition_.k(),
                                      segment_lengths_[static_cast<std::size_t>(j)]);
}

}  // namespace fle

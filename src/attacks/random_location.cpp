#include "attacks/random_location.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace fle {

namespace {

class RandomLocationStrategy final : public RingStrategy {
 public:
  RandomLocationStrategy(Value target, int prefix) : target_(target), prefix_(prefix) {}

  void on_init(RingContext& /*ctx*/) override {}

  void on_receive(RingContext& ctx, Value v) override {
    if (done_) return;
    const int n = ctx.ring_size();
    const auto nv = static_cast<Value>(n);
    v %= nv;
    stream_.push_back(v);
    const int t = static_cast<int>(stream_.size());

    ctx.send(v);  // step 1: keep forwarding while scanning

    if (t <= prefix_ || !matches_prefix(t)) {
      if (t >= 2 * n) {
        // No circularity after two laps: something is off; bail out.
        ctx.abort();
        done_ = true;
      }
      return;
    }

    // Circularity detected at T = t: estimate k' = n - T + C.
    const int k_est = n - t + prefix_;
    const int budget = k_est - prefix_ - 1;  // sends left after M
    const int honest_est = n - k_est;
    if (budget < 0 || honest_est < 0) {
      ctx.abort();  // estimate inconsistent; give up (counts toward delta)
      done_ = true;
      return;
    }
    // Paper step 3 replays the last `budget` first-circulation values.  For
    // dense coalitions (k' - C - 1 > n - k', outside the theorem's
    // asymptotic regime) we pad with zeros before a shorter replay, exactly
    // like the Lemma 4.1 burst; the segment only needs the last l_j values.
    const int replay_len = std::min(budget, honest_est);
    const int zeros = budget - replay_len;
    const int replay_begin = honest_est - replay_len;  // 0-based index
    Value s_all = 0;
    for (const Value x : stream_) s_all = (s_all + x) % nv;
    Value s_replay = 0;
    for (int i = replay_begin; i < honest_est; ++i) {
      s_replay = (s_replay + stream_[static_cast<std::size_t>(i)]) % nv;
    }
    ctx.send((target_ + 2 * nv - s_all - s_replay) % nv);  // step 2
    for (int i = 0; i < zeros; ++i) ctx.send(0);
    for (int i = replay_begin; i < honest_est; ++i) {      // step 3
      ctx.send(stream_[static_cast<std::size_t>(i)]);
    }
    ctx.terminate(target_);
    done_ = true;
  }

 private:
  bool matches_prefix(int t) const {
    for (int i = 0; i < prefix_; ++i) {
      if (stream_[static_cast<std::size_t>(t - prefix_ + i)] !=
          stream_[static_cast<std::size_t>(i)]) {
        return false;
      }
    }
    return true;
  }

  Value target_;
  int prefix_;
  std::vector<Value> stream_;
  bool done_ = false;
};

}  // namespace

RandomLocationDeviation::RandomLocationDeviation(Coalition coalition, Value target,
                                                 int prefix, const RingProtocol& protocol)
    : coalition_(std::move(coalition)),
      target_(target),
      prefix_(prefix),
      protocol_(&protocol) {
  if (prefix_ < 2) throw std::invalid_argument("prefix constant C must be >= 2");
  if (target_ >= static_cast<Value>(coalition_.n())) {
    throw std::invalid_argument("target out of range");
  }
}

double RandomLocationDeviation::recommended_density(int n) {
  return std::sqrt(8.0 * std::log(static_cast<double>(n)) / static_cast<double>(n));
}

RingStrategy* RandomLocationDeviation::emplace_adversary(StrategyArena& arena, ProcessorId id,
                                                         int n) const {
  if (id == 0) {
    // Theorem C.1: a coalition origin executes honestly.
    return protocol_->emplace_strategy(arena, 0, n);
  }
  return arena.emplace<RandomLocationStrategy>(target_, prefix_);
}

}  // namespace fle

#include "attacks/phase_rushing.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace fle {

namespace {

class PhaseRushingStrategy final : public RingStrategy {
 public:
  PhaseRushingStrategy(ProcessorId id, Value target, int k, int l_self,
                       const PhaseAsyncLeadProtocol& protocol, std::uint64_t search_cap)
      : id_(id),
        target_(target),
        k_(k),
        l_self_(l_self),
        params_(protocol.params()),
        f_(&protocol.f()),
        search_cap_(search_cap) {
    vval_.assign(static_cast<std::size_t>(params_.n) + 1, 0);
  }

  void on_init(RingContext& /*ctx*/) override {
    // Deviation: no own data value; we will pipe instead.
  }

  void on_receive(RingContext& ctx, Value v) override {
    if (dead_) return;
    if (expect_data_) {
      on_data(ctx, v);
    } else {
      on_validation(ctx, v);
    }
    expect_data_ = !expect_data_;
  }

 private:
  void on_data(RingContext& ctx, Value x) {
    const int n = params_.n;
    x %= static_cast<Value>(n);
    stream_.push_back(x);
    const int r = static_cast<int>(stream_.size());

    const int pipe_end = std::min(n - k_, n - l_self_);
    if (r <= pipe_end) {
      ctx.send(x);  // rush: pipe the honest value onward
    } else if (r <= n - l_self_) {
      // Free slot (exists only when l_self < k): steered value.
      if (!solved_) solve();
      ctx.send(plan_[static_cast<std::size_t>(r)]);
    } else {
      // Committed tail: our segment's own values, shifted by k positions
      // (stream positions n-k-l_self+1 .. n-k), so every honest successor
      // sees its own d return at its round n.
      ctx.send(stream_[static_cast<std::size_t>(r - k_ - 1)]);
    }

    if (r == id_ + 1) {
      // Our validator round: behave like an honest validator.
      own_v_ = ctx.tape().uniform(params_.m);
      vval_[static_cast<std::size_t>(r)] = own_v_;
      ctx.send(own_v_);
    }
  }

  void on_validation(RingContext& ctx, Value y) {
    const int n = params_.n;
    y %= params_.m;
    const int r = static_cast<int>(stream_.size());
    if (r == id_ + 1) {
      // Our own validation value returning; accept whatever arrives.
    } else {
      vval_[static_cast<std::size_t>(r)] = y;
      ctx.send(y);
    }
    if (r == n) {
      ctx.terminate(target_);
      dead_ = true;
    }
  }

  /// Build our segment's view of (d-hat, v-hat) and search the free
  /// entries for an assignment on which f evaluates to the target.
  void solve() {
    solved_ = true;
    const int n = params_.n;
    std::vector<Value> dmap(static_cast<std::size_t>(n), 0);
    auto pos_of_round = [&](int t) {
      return static_cast<std::size_t>(((id_ + 1 - t) % n + n) % n);
    };
    // Piped rounds: honest values as our successors bound them.
    for (int t = 1; t <= n - k_; ++t) {
      dmap[pos_of_round(t)] = stream_[static_cast<std::size_t>(t - 1)];
    }
    // Committed tail: our segment's true values.
    for (int t = n - l_self_ + 1; t <= n; ++t) {
      const int src = t - k_ - 1;
      if (src >= 0 && src < static_cast<int>(stream_.size())) {
        dmap[pos_of_round(t)] = stream_[static_cast<std::size_t>(src)];
      }
    }
    // Free rounds n-k+1 .. n-l_self.
    std::vector<std::size_t> free_pos;
    for (int t = n - k_ + 1; t <= n - l_self_; ++t) free_pos.push_back(pos_of_round(t));

    const int keep = f_->validation_inputs();
    std::vector<Value> vmap(static_cast<std::size_t>(keep), 0);
    for (int r = 1; r <= keep && r <= static_cast<int>(stream_.size()); ++r) {
      vmap[static_cast<std::size_t>(r - 1)] = vval_[static_cast<std::size_t>(r)];
    }

    plan_.assign(static_cast<std::size_t>(n) + 1, 0);
    if (free_pos.empty()) return;  // nothing steerable (resilient regime)

    const auto radix = static_cast<std::uint64_t>(n);
    const std::uint64_t cap = search_cap_ != 0 ? search_cap_ : 8 * radix;
    // Free round t sends digit t - (n-k+1) of the first hit; a miss sends
    // zeros.
    std::uint64_t attempt =
        f_->first_preimage(dmap, vmap, free_pos, radix, cap, target_).value_or(0);
    for (int t = n - k_ + 1; t <= n - l_self_; ++t) {
      plan_[static_cast<std::size_t>(t)] = attempt % radix;
      attempt /= radix;
    }
  }

  ProcessorId id_;
  Value target_;
  int k_;
  int l_self_;
  PhaseParams params_;
  const RandomFunction* f_;
  std::uint64_t search_cap_;

  bool expect_data_ = true;
  bool dead_ = false;
  bool solved_ = false;
  Value own_v_ = 0;
  std::vector<Value> stream_;  ///< data values by round (1-based round r at [r-1])
  std::vector<Value> vval_;    ///< validation values by round (index = round)
  std::vector<Value> plan_;    ///< steered data values by round
};

}  // namespace

PhaseRushingDeviation::PhaseRushingDeviation(Coalition coalition, Value target,
                                             const PhaseAsyncLeadProtocol& protocol,
                                             std::uint64_t search_cap)
    : coalition_(std::move(coalition)),
      target_(target),
      protocol_(&protocol),
      search_cap_(search_cap),
      segment_lengths_(coalition_.segment_lengths()) {
  if (coalition_.contains(0)) {
    throw std::invalid_argument("phase rushing assumes an honest origin");
  }
  if (coalition_.n() != protocol.params().n) {
    throw std::invalid_argument("coalition/protocol ring size mismatch");
  }
  if (target_ >= static_cast<Value>(coalition_.n())) {
    throw std::invalid_argument("target out of range");
  }
}

int PhaseRushingDeviation::free_slots(int member_index) const {
  return std::max(0, coalition_.k() -
                         segment_lengths_[static_cast<std::size_t>(member_index)]);
}

bool PhaseRushingDeviation::steering_possible() const {
  for (int j = 0; j < coalition_.k(); ++j) {
    if (free_slots(j) < 1) return false;
  }
  return true;
}

RingStrategy* PhaseRushingDeviation::emplace_adversary(StrategyArena& arena, ProcessorId id,
                                                       int /*n*/) const {
  const int j = coalition_.index_of(id);
  if (j < 0) throw std::invalid_argument("not a coalition member");
  return arena.emplace<PhaseRushingStrategy>(
      id, target_, coalition_.k(), segment_lengths_[static_cast<std::size_t>(j)], *protocol_,
      search_cap_);
}

}  // namespace fle

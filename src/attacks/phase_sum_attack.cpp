#include "attacks/phase_sum_attack.h"

#include <optional>
#include <stdexcept>
#include <vector>

namespace fle {

namespace {

class PhaseSumAttackStrategy final : public RingStrategy {
 public:
  PhaseSumAttackStrategy(ProcessorId id, int member_index, Value target,
                         const Coalition& coalition, PhaseParams params,
                         std::vector<int> segment_lengths)
      : id_(id),
        t_(member_index),
        target_(target),
        members_(coalition.members()),
        params_(params),
        lengths_(std::move(segment_lengths)) {}

  void on_init(RingContext& /*ctx*/) override {}

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
  [[nodiscard]] int l_self() const { return lengths_[static_cast<std::size_t>(t_)]; }
  [[nodiscard]] int l_behind() const {
    return lengths_[static_cast<std::size_t>((t_ + 3) % 4)];
  }
  [[nodiscard]] Value behind_sum() const {
    const auto n = static_cast<Value>(params_.n);
    Value s = 0;
    for (int i = 0; i < l_behind(); ++i) s = (s + stream_[static_cast<std::size_t>(i)]) % n;
    return s;
  }

  void on_data(RingContext& ctx, Value x) {
    const int n = params_.n;
    x %= static_cast<Value>(n);
    stream_.push_back(x);
    const int r = static_cast<int>(stream_.size());
    const int l = l_self();

    // Data plan: pipe, then M = w - S, then k-1 zeros, then committed tail.
    if (r <= n - l - 4) {
      ctx.send(x);
    } else if (r == n - l - 3) {
      const auto nv = static_cast<Value>(n);
      const Value s = total_sum_.value_or(0);  // missing S => execution FAILs
      ctx.send((target_ + nv - s % nv) % nv);
    } else if (r <= n - l) {
      ctx.send(0);
    } else {
      ctx.send(stream_[static_cast<std::size_t>(r - 5)]);  // stream[r-4], 1-based
    }

    // Validator duty (data part): launch our round's validation value.
    if (r == id_ + 1) {
      if (t_ == 1) {
        ctx.send(behind_sum());  // R2: originate our share of S
      } else if (t_ == 2) {
        // R3: defer origination until a1's early message arrives.
      } else {
        ctx.send(ctx.tape().uniform(params_.m));  // honest-looking rounds
      }
    }
    // a1's early initiation of round R3 (= a2+1) with the full sum S.
    if (t_ == 1 && r == members_[2] + 1) {
      ctx.send(total_sum_.value_or(0));
    }
  }

  void on_validation(RingContext& ctx, Value y) {
    const int r = static_cast<int>(stream_.size());
    const ProcessorId validator = static_cast<ProcessorId>(r - 1);

    if (validator == id_) {
      // Our own round's validation slot.
      if (t_ == 1) {
        total_sum_ = y;  // R2 return: the accumulated S
      } else if (t_ == 2) {
        total_sum_ = y;  // early message from a1 carrying S
        ctx.send(y);     // now originate round R3's circulating value
      }
      // a0/a3 accept their returns silently, like any colluding validator.
    } else if (validator == members_[1]) {
      // Round R2: accumulate behind-segment shares while forwarding.
      const auto nv = static_cast<Value>(params_.n);
      const Value acc = (y + behind_sum()) % nv;
      ctx.send(acc);
      if (t_ == 0) total_sum_ = acc;  // a0 adds the last share: acc == S
    } else if (validator == members_[2]) {
      // Round R3 circulating copy.
      if (t_ == 1) {
        // Absorb: we pre-initiated this round; dropping the copy keeps
        // per-slot message counts intact for every honest processor.
      } else {
        total_sum_ = y;
        ctx.send(y);
      }
    } else {
      ctx.send(y);  // honest validator rounds: forward faithfully
    }

    if (r == params_.n) {
      ctx.terminate(target_);
      dead_ = true;
    }
  }

  ProcessorId id_;
  int t_;  ///< member index (0..3)
  Value target_;
  std::vector<ProcessorId> members_;
  PhaseParams params_;
  std::vector<int> lengths_;

  bool expect_data_ = true;
  bool dead_ = false;
  std::vector<Value> stream_;
  std::optional<Value> total_sum_;
};

}  // namespace

Coalition PhaseSumDeviation::placement(int n) {
  if (n < 20) throw std::invalid_argument("E.4 attack needs n >= 20");
  return Coalition::equally_spaced(n, 4, /*first=*/1);
}

PhaseSumDeviation::PhaseSumDeviation(Coalition coalition, Value target,
                                     const PhaseSumLeadProtocol& protocol)
    : coalition_(std::move(coalition)),
      target_(target),
      params_(protocol.params()),
      segment_lengths_(coalition_.segment_lengths()) {
  if (coalition_.k() != 4) throw std::invalid_argument("E.4 attack uses exactly k = 4");
  if (coalition_.contains(0)) throw std::invalid_argument("E.4 attack assumes honest origin");
  if (coalition_.n() != params_.n) throw std::invalid_argument("ring size mismatch");
  if (target_ >= static_cast<Value>(params_.n)) {
    throw std::invalid_argument("target out of range");
  }
  // Timing feasibility (DESIGN.md): every member must know S before its
  // point of commitment, and behind-segment sums must be ready by R2.
  const auto& m = coalition_.members();
  const int n = params_.n;
  const int r2 = m[1] + 1;
  const int r3 = m[2] + 1;
  const int deadline0 = n - segment_lengths_[0] - 3;
  const int deadline1 = n - segment_lengths_[1] - 3;
  const int deadline2 = n - segment_lengths_[2] - 3;
  const int deadline3 = n - segment_lengths_[3] - 3;
  const bool ok = r2 <= deadline0 && r2 <= deadline1 && r3 <= deadline2 &&
                  r3 <= deadline3 &&
                  segment_lengths_[1] <= r2 && segment_lengths_[2] <= r2 &&
                  segment_lengths_[3] <= r2 && segment_lengths_[0] <= r2;
  if (!ok) throw std::invalid_argument("placement violates E.4 timing constraints");
}

RingStrategy* PhaseSumDeviation::emplace_adversary(StrategyArena& arena, ProcessorId id,
                                                   int /*n*/) const {
  const int j = coalition_.index_of(id);
  if (j < 0) throw std::invalid_argument("not a coalition member");
  return arena.emplace<PhaseSumAttackStrategy>(id, j, target_, coalition_, params_,
                                               segment_lengths_);
}

}  // namespace fle

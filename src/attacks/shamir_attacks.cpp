#include "attacks/shamir_attacks.h"

#include <map>
#include <stdexcept>

namespace fle {

namespace {

// Coalition-internal coordination tags (disjoint from ShamirTag).
constexpr Value kCoordShare = 10;  ///< {tag, owner, y}: forwarded share
constexpr Value kAssign = 11;      ///< {tag, secret}: leader-chosen secret
constexpr Value kCoordVec = 12;    ///< {tag, y_0..y_{n-1}}: member's held shares
constexpr Value kForge = 13;       ///< {tag, owner, c}: pencil shift

// ---------------------------------------------------------------------------
// Rushing: withhold distribution, pool shares, reconstruct, then play honest.
// ---------------------------------------------------------------------------

class ShamirRushingStrategy final : public ShamirLeadStrategy {
 public:
  ShamirRushingStrategy(ProcessorId id, ShamirParams params, Value target,
                        const Coalition& coalition)
      : ShamirLeadStrategy(id, params), target_(target), coalition_(coalition) {
    leader_ = coalition_.members().front();
    if (id_ == leader_) {
      pool_.assign(static_cast<std::size_t>(params_.n), {});
    }
  }

  void on_init(GraphContext& /*ctx*/) override {
    // Deviation: withhold the phase-1 distribution (invisible in an
    // asynchronous network) until the leader assigns our secret.
  }

  void on_receive(GraphContext& ctx, ProcessorId from, const GraphMessage& m) override {
    if (m.empty()) return;
    if (m[0] == kCoordShare) {
      if (id_ != leader_ || m.size() != 3) return;
      add_to_pool(ctx, static_cast<ProcessorId>(m[1]), from, Fp(m[2]));
      return;
    }
    if (m[0] == kAssign) {
      if (m.size() == 2 && !distributed_) distribute(ctx, m[1]);
      return;
    }
    if (m[0] == static_cast<Value>(ShamirTag::kShare) && m.size() == 2 &&
        !coalition_.contains(from)) {
      // Forward every honest share to the leader's pool.
      if (id_ == leader_) {
        add_to_pool(ctx, from, id_, Fp(m[1]));
      } else {
        ctx.send(leader_, {kCoordShare, static_cast<Value>(from), m[1]});
      }
    }
    ShamirLeadStrategy::on_receive(ctx, from, m);
  }

  // finalize() stays the honest one: after assignment the adversary's view
  // is fully consistent, and the honest sum it computes *is* the target
  // when reconstruction succeeded (and an unbiased value otherwise).

 private:
  void add_to_pool(GraphContext& ctx, ProcessorId owner, ProcessorId holder, Fp y) {
    auto& entries = pool_[static_cast<std::size_t>(owner)];
    entries.push_back(Share{Fp(static_cast<std::uint64_t>(holder) + 1), y});
    if (assigned_) return;
    // Complete once every honest owner has one share per coalition member.
    for (ProcessorId o = 0; o < params_.n; ++o) {
      if (coalition_.contains(o)) continue;
      if (static_cast<int>(pool_[static_cast<std::size_t>(o)].size()) < coalition_.k()) {
        return;
      }
    }
    assigned_ = true;
    assign_secrets(ctx);
  }

  void assign_secrets(GraphContext& ctx) {
    const auto nv = static_cast<Value>(params_.n);
    Value s_honest = 0;
    for (ProcessorId o = 0; o < params_.n; ++o) {
      if (coalition_.contains(o)) continue;
      const auto& entries = pool_[static_cast<std::size_t>(o)];
      // With k >= t the first t points reconstruct exactly; below the
      // threshold this yields garbage and the attack (provably) degrades to
      // an unbiased guess.
      const std::size_t use =
          std::min(entries.size(), static_cast<std::size_t>(params_.t));
      const Fp secret = shamir_reconstruct(std::span<const Share>(entries).first(use));
      s_honest = (s_honest + secret.value() % nv) % nv;
    }
    const Value mine = (target_ + nv - s_honest) % nv;
    for (const ProcessorId m : coalition_.members()) {
      if (m == id_) continue;
      ctx.send(m, {kAssign, 0});
    }
    distribute(ctx, mine);
  }

  Value target_;
  const Coalition& coalition_;
  ProcessorId leader_ = 0;
  bool assigned_ = false;
  std::vector<std::vector<Share>> pool_;  ///< by owner (leader only)
};

// ---------------------------------------------------------------------------
// Forging: honest phases 1-2, then rush honest reveals and shift the
// leader's own secret along the pencil P + c*Z.
// ---------------------------------------------------------------------------

class ShamirForgeStrategy final : public ShamirLeadStrategy {
 public:
  ShamirForgeStrategy(ProcessorId id, ShamirParams params, Value target,
                      const Coalition& coalition)
      : ShamirLeadStrategy(id, params), target_(target), coalition_(coalition) {
    leader_ = coalition_.members().front();
    if (id_ == leader_) {
      member_vecs_.assign(static_cast<std::size_t>(params_.n), std::nullopt);
    }
  }

  void on_receive(GraphContext& ctx, ProcessorId from, const GraphMessage& m) override {
    if (m.empty()) return;
    if (m[0] == kCoordVec) {
      if (id_ != leader_ || m.size() != static_cast<std::size_t>(params_.n) + 1) return;
      std::vector<Fp> v;
      for (std::size_t i = 1; i < m.size(); ++i) v.emplace_back(m[i]);
      member_vecs_[static_cast<std::size_t>(from)] = std::move(v);
      maybe_forge(ctx);
      return;
    }
    if (m[0] == kForge) {
      if (m.size() == 3) emit_forged_reveal(ctx, static_cast<ProcessorId>(m[1]), Fp(m[2]));
      return;
    }
    ShamirLeadStrategy::on_receive(ctx, from, m);
    if (id_ == leader_ && m[0] == static_cast<Value>(ShamirTag::kReveal)) {
      maybe_forge(ctx);
    }
  }

 protected:
  void send_reveal(GraphContext& ctx) override {
    // Deviation point: do not reveal yet.  Members ship their held shares
    // to the leader; the leader waits for every honest reveal.
    if (id_ != leader_) {
      GraphMessage m{kCoordVec};
      for (const auto& h : held_) m.push_back(h->value());
      ctx.send(leader_, std::move(m));
    } else {
      ready_to_forge_ = true;
      maybe_forge(ctx);
    }
  }

  void finalize(GraphContext& ctx) override {
    if (id_ != leader_) {
      // Members' own secrets survive; the honest finalize outputs the
      // (shifted) sum, which is the target.
      ShamirLeadStrategy::finalize(ctx);
      return;
    }
    // The leader shifted its own secret, so the honest own-value check
    // would fire; it knowingly accepts the shifted outcome.
    if (dead_) return;
    dead_ = true;
    ctx.terminate(target_);
  }

 private:
  [[nodiscard]] Fp z_at(Fp x) const {
    // Z(x) = prod over honest evaluation points (x - x_h).
    Fp z(1);
    for (ProcessorId h = 0; h < params_.n; ++h) {
      if (coalition_.contains(h)) continue;
      z = z * (x - Fp(static_cast<std::uint64_t>(h) + 1));
    }
    return z;
  }

  void maybe_forge(GraphContext& ctx) {
    if (id_ != leader_ || forged_ || !ready_to_forge_) return;
    // Need every honest reveal and every member's held vector.
    for (ProcessorId p = 0; p < params_.n; ++p) {
      if (coalition_.contains(p)) {
        if (p != id_ && !member_vecs_[static_cast<std::size_t>(p)].has_value()) return;
      } else if (revealed_from_[static_cast<std::size_t>(p)] == 0) {
        return;
      }
    }
    forged_ = true;

    // Reconstruct the full running sum from true points (honest reveals +
    // coalition-held vectors) of holders 0..t-1: the table's P(0) row.
    const auto nv = static_cast<Value>(params_.n);
    auto point_of = [&](ProcessorId holder, ProcessorId owner) {
      if (holder == id_) return *held_[static_cast<std::size_t>(owner)];
      if (coalition_.contains(holder)) {
        return (*member_vecs_[static_cast<std::size_t>(holder)])[static_cast<std::size_t>(owner)];
      }
      return revealed_points(owner)[static_cast<std::size_t>(holder)];
    };
    Value sum = 0;
    std::vector<Fp> basis(static_cast<std::size_t>(params_.t));
    for (ProcessorId o = 0; o < params_.n; ++o) {
      for (ProcessorId holder = 0; holder < params_.t; ++holder) {
        basis[static_cast<std::size_t>(holder)] = point_of(holder, o);
      }
      sum = (sum + params_.weights->reconstruct(basis).value() % nv) % nv;
    }
    // Shift our own secret so the sum becomes the target:
    // new value v = secret + (w - sum); c = (v - secret) / Z(0).
    const Value v = (secret_ + target_ + 2 * nv - sum) % nv;
    const Fp c = (Fp(v) - Fp(secret_)) * z_at(Fp(0)).inverse();
    for (const ProcessorId m : coalition_.members()) {
      if (m == id_) continue;
      ctx.send(m, {kForge, static_cast<Value>(id_), c.value()});
    }
    emit_forged_reveal(ctx, id_, c);
  }

  void emit_forged_reveal(GraphContext& ctx, ProcessorId owner, Fp c) {
    if (revealed_forged_) return;
    revealed_forged_ = true;
    std::vector<Fp> values;
    values.reserve(static_cast<std::size_t>(params_.n));
    for (ProcessorId o = 0; o < params_.n; ++o) {
      Fp y = *held_[static_cast<std::size_t>(o)];
      if (o == owner) y = y + c * z_at(Fp(static_cast<std::uint64_t>(id_) + 1));
      values.push_back(y);
    }
    broadcast_reveal(ctx, values);
  }

  Value target_;
  const Coalition& coalition_;
  ProcessorId leader_ = 0;
  bool ready_to_forge_ = false;
  bool forged_ = false;
  bool revealed_forged_ = false;
  std::vector<std::optional<std::vector<Fp>>> member_vecs_;  ///< leader only
};

}  // namespace

ShamirRushingDeviation::ShamirRushingDeviation(Coalition coalition, Value target,
                                               const ShamirLeadProtocol& protocol)
    : coalition_(std::move(coalition)), target_(target), params_(protocol.params()) {
  if (coalition_.n() != params_.n) throw std::invalid_argument("network size mismatch");
  if (target_ >= static_cast<Value>(params_.n)) {
    throw std::invalid_argument("target out of range");
  }
}

GraphStrategy* ShamirRushingDeviation::emplace_adversary(StrategyArena& arena, ProcessorId id,
                                                         int /*n*/) const {
  if (!coalition_.contains(id)) throw std::invalid_argument("not a coalition member");
  return arena.emplace<ShamirRushingStrategy>(id, params_, target_, coalition_);
}

ShamirForgeDeviation::ShamirForgeDeviation(Coalition coalition, Value target,
                                           const ShamirLeadProtocol& protocol)
    : coalition_(std::move(coalition)), target_(target), params_(protocol.params()) {
  if (coalition_.n() != params_.n) throw std::invalid_argument("network size mismatch");
  if (target_ >= static_cast<Value>(params_.n)) {
    throw std::invalid_argument("target out of range");
  }
}

GraphStrategy* ShamirForgeDeviation::emplace_adversary(StrategyArena& arena, ProcessorId id,
                                                       int /*n*/) const {
  if (!coalition_.contains(id)) throw std::invalid_argument("not a coalition member");
  return arena.emplace<ShamirForgeStrategy>(id, params_, target_, coalition_);
}

}  // namespace fle

#include "protocols/shamir_lead.h"

#include <cassert>
#include <stdexcept>

namespace fle {

ShamirLeadProtocol::ShamirLeadProtocol(ShamirParams params) : params_(std::move(params)) {
  params_.weights = std::make_shared<const ShamirWeights>(params_.n, params_.t);
}

GraphStrategy* ShamirLeadProtocol::emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                    int n) const {
  if (n != params_.n) throw std::invalid_argument("network size mismatch");
  return arena.emplace<ShamirLeadStrategy>(id, params_);
}

ShamirLeadStrategy::ShamirLeadStrategy(ProcessorId id, ShamirParams params)
    : id_(id), params_(std::move(params)) {
  if (!params_.weights || params_.weights->n() != params_.n ||
      params_.weights->t() != params_.t) {
    throw std::invalid_argument(
        "ShamirParams.weights must be the (n, t) table of a ShamirLeadProtocol");
  }
  const auto n = static_cast<std::size_t>(params_.n);
  held_.assign(n, std::nullopt);
  ready_from_.assign(n, 0);
  reveals_.assign(n * n, Fp(0));
  revealed_from_.assign(n, 0);
}

void ShamirLeadStrategy::on_init(GraphContext& ctx) {
  distribute(ctx, ctx.tape().uniform(static_cast<Value>(params_.n)));
}

void ShamirLeadStrategy::fail(GraphContext& ctx) {
  if (dead_) return;
  dead_ = true;
  ctx.abort();
}

void ShamirLeadStrategy::distribute(GraphContext& ctx, Value secret) {
  assert(!distributed_);
  distributed_ = true;
  secret_ = secret;
  const auto shares = shamir_share(Fp(secret), params_.t, params_.n, ctx.tape().raw());
  for (ProcessorId j = 0; j < params_.n; ++j) {
    if (j == id_) {
      held_[static_cast<std::size_t>(id_)] = shares[static_cast<std::size_t>(j)].y;
      ++shares_count_;
    } else {
      ctx.send(j, {static_cast<Value>(ShamirTag::kShare),
                   shares[static_cast<std::size_t>(j)].y.value()});
    }
  }
  maybe_advance(ctx);
}

void ShamirLeadStrategy::maybe_advance(GraphContext& ctx) {
  if (dead_) return;
  // Share barrier -> READY broadcast (commitment point).
  if (shares_count_ == params_.n && ready_from_[static_cast<std::size_t>(id_)] == 0) {
    ready_from_[static_cast<std::size_t>(id_)] = 1;
    ++ready_count_;
    for (ProcessorId j = 0; j < params_.n; ++j) {
      if (j != id_) ctx.send(j, {static_cast<Value>(ShamirTag::kReady)});
    }
  }
  // Ready barrier -> REVEAL broadcast.
  if (ready_count_ == params_.n && !revealed_) {
    revealed_ = true;
    send_reveal(ctx);
  }
  if (reveal_count_ == params_.n) finalize(ctx);
}

void ShamirLeadStrategy::send_reveal(GraphContext& ctx) {
  std::vector<Fp> mine;
  mine.reserve(static_cast<std::size_t>(params_.n));
  for (const auto& h : held_) mine.push_back(*h);
  broadcast_reveal(ctx, mine);
}

void ShamirLeadStrategy::broadcast_reveal(GraphContext& ctx, std::span<const Fp> values) {
  if (values.size() != static_cast<std::size_t>(params_.n)) {
    throw std::invalid_argument("broadcast_reveal: need one value per owner");
  }
  GraphMessage m;
  m.reserve(values.size() + 1);
  m.push_back(static_cast<Value>(ShamirTag::kReveal));
  for (const Fp v : values) m.push_back(v.value());
  for (ProcessorId j = 0; j < params_.n; ++j) {
    if (j != id_) ctx.send(j, m);
  }
  record_reveal(id_, std::span<const Value>(m).subspan(1));
  if (reveal_count_ == params_.n) finalize(ctx);
}

void ShamirLeadStrategy::record_reveal(ProcessorId revealer, std::span<const Value> values) {
  const auto n = static_cast<std::size_t>(params_.n);
  for (std::size_t owner = 0; owner < n; ++owner) {
    reveals_[owner * n + static_cast<std::size_t>(revealer)] = Fp(values[owner]);
  }
  revealed_from_[static_cast<std::size_t>(revealer)] = 1;
  ++reveal_count_;
}

void ShamirLeadStrategy::on_receive(GraphContext& ctx, ProcessorId from,
                                    const GraphMessage& m) {
  if (dead_) return;
  if (m.empty()) return fail(ctx);
  switch (static_cast<ShamirTag>(m[0])) {
    case ShamirTag::kShare: {
      if (m.size() != 2 || held_[static_cast<std::size_t>(from)].has_value()) {
        return fail(ctx);
      }
      held_[static_cast<std::size_t>(from)] = Fp(m[1]);
      ++shares_count_;
      break;
    }
    case ShamirTag::kReady: {
      if (m.size() != 1 || ready_from_[static_cast<std::size_t>(from)] != 0) {
        return fail(ctx);
      }
      ready_from_[static_cast<std::size_t>(from)] = 1;
      ++ready_count_;
      break;
    }
    case ShamirTag::kReveal: {
      if (m.size() != static_cast<std::size_t>(params_.n) + 1 ||
          revealed_from_[static_cast<std::size_t>(from)] != 0) {
        return fail(ctx);
      }
      record_reveal(from, std::span<const Value>(m).subspan(1));
      break;
    }
    default:
      return fail(ctx);
  }
  maybe_advance(ctx);
}

std::span<const Fp> ShamirLeadStrategy::revealed_points(ProcessorId owner) const {
  const auto n = static_cast<std::size_t>(params_.n);
  return std::span<const Fp>(reveals_).subspan(static_cast<std::size_t>(owner) * n, n);
}

std::optional<Fp> ShamirLeadStrategy::reconstruct(ProcessorId owner) const {
  if (reveal_count_ != params_.n) return std::nullopt;
  return params_.weights->reconstruct_checked(revealed_points(owner));
}

void ShamirLeadStrategy::finalize(GraphContext& ctx) {
  if (dead_) return;
  Value sum = 0;
  for (ProcessorId owner = 0; owner < params_.n; ++owner) {
    const auto secret = reconstruct(owner);
    if (!secret.has_value()) return fail(ctx);  // inconsistent points: someone lied
    if (owner == id_ && secret->value() % static_cast<Value>(params_.n) !=
                            secret_ % static_cast<Value>(params_.n)) {
      return fail(ctx);  // my own secret did not survive
    }
    sum = (sum + secret->value() % static_cast<Value>(params_.n)) %
          static_cast<Value>(params_.n);
  }
  dead_ = true;
  ctx.terminate(sum);
}

}  // namespace fle

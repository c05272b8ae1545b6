#include "protocols/phase_async_lead.h"

#include <cassert>
#include <stdexcept>

namespace fle {

// ---------------------------------------------------------------------------
// Normal processors (1..n-1)
// ---------------------------------------------------------------------------

PhaseNormalStrategy::PhaseNormalStrategy(ProcessorId id, PhaseParams params,
                                         PhaseOutputFn output)
    : id_(id), params_(params), output_(std::move(output)) {
  assert(id_ >= 1);
  dval_.assign(static_cast<std::size_t>(params_.n), 0);
  vval_.assign(static_cast<std::size_t>(params_.n), 0);
}

Value PhaseNormalStrategy::draw_data(RingContext& ctx) {
  return ctx.tape().uniform(static_cast<Value>(params_.n));
}

Value PhaseNormalStrategy::draw_validation(RingContext& ctx) {
  return ctx.tape().uniform(params_.m);
}

void PhaseNormalStrategy::on_init(RingContext& ctx) {
  d_ = draw_data(ctx);
  dval_[static_cast<std::size_t>(id_)] = d_;
  buffer_ = d_;
}

void PhaseNormalStrategy::on_receive(RingContext& ctx, Value v) {
  if (dead_) return;
  if (expect_data_) {
    on_data(ctx, v);
  } else {
    on_validation(ctx, v);
  }
  expect_data_ = !expect_data_;
}

void PhaseNormalStrategy::on_data(RingContext& ctx, Value x) {
  const int n = params_.n;
  if (x >= static_cast<Value>(n)) x %= static_cast<Value>(n);  // honest x is reduced
  ctx.send(buffer_);  // one-round delay: commit before learning
  buffer_ = x;
  ++round_;
  // (id_ - round_) mod n: round_ <= n (the n-th round's validation always
  // ends the strategy) and 1 <= id_ < n, so one add lifts a negative value.
  int pos = id_ - round_;
  if (pos < 0) pos += n;
  dval_[static_cast<std::size_t>(pos)] = x;
  if (round_ == id_ + 1) {
    // Our validator round: draw and launch our validation value.
    v_ = draw_validation(ctx);
    vval_[static_cast<std::size_t>(round_ - 1)] = v_;
    ctx.send(v_);
  }
  if (round_ == params_.n && x != d_) {
    // Own data value did not come full circle (Lemma 3.5 validation).
    ctx.abort();
    dead_ = true;
  }
}

void PhaseNormalStrategy::on_validation(RingContext& ctx, Value y) {
  if (y >= params_.m) y %= params_.m;
  if (round_ == id_ + 1) {
    // This is our validation value returning after a full circulation.
    if (y != v_) {
      ctx.abort();
      dead_ = true;
      return;
    }
    // The validator does not forward its own value.
  } else {
    vval_[static_cast<std::size_t>(round_ - 1)] = y;
    ctx.send(y);  // validation values travel without delay
  }
  if (round_ == params_.n) {
    ctx.terminate(output_(dval_, vval_));
    dead_ = true;
  }
}

// ---------------------------------------------------------------------------
// Origin (processor 0)
// ---------------------------------------------------------------------------

PhaseOriginStrategy::PhaseOriginStrategy(PhaseParams params, PhaseOutputFn output)
    : params_(params), output_(std::move(output)) {
  dval_.assign(static_cast<std::size_t>(params_.n), 0);
  vval_.assign(static_cast<std::size_t>(params_.n), 0);
}

void PhaseOriginStrategy::on_init(RingContext& ctx) {
  d_ = ctx.tape().uniform(static_cast<Value>(params_.n));
  dval_[0] = d_;
  ctx.send(d_);  // data message of round 1
  v_ = ctx.tape().uniform(params_.m);
  vval_[0] = v_;
  ctx.send(v_);  // validation message of round 1 (origin is round-1 validator)
}

void PhaseOriginStrategy::on_receive(RingContext& ctx, Value v) {
  if (dead_) return;
  if (expect_data_) {
    on_data(ctx, v);
  } else {
    on_validation(ctx, v);
  }
  expect_data_ = !expect_data_;
}

void PhaseOriginStrategy::on_data(RingContext& ctx, Value x) {
  if (x >= static_cast<Value>(params_.n)) x %= static_cast<Value>(params_.n);
  ++data_received_;
  // In round j the origin receives d-hat of position (n - j) mod n: its
  // predecessor's value first, its own value last.
  const int pos = (params_.n - data_received_) % params_.n;
  dval_[static_cast<std::size_t>(pos)] = x;
  buffer_ = x;
  if (data_received_ == params_.n && x != d_) {
    ctx.abort();
    dead_ = true;
  }
}

void PhaseOriginStrategy::on_validation(RingContext& ctx, Value y) {
  if (y >= params_.m) y %= params_.m;
  ++val_received_;
  if (val_received_ == 1) {
    // Round 1: our own validation value must return intact.
    if (y != v_) {
      ctx.abort();
      dead_ = true;
      return;
    }
  } else {
    vval_[static_cast<std::size_t>(val_received_ - 1)] = y;
    ctx.send(y);
  }
  if (val_received_ < params_.n) {
    // Round val_received_ is complete ring-wide; launch the next round's
    // data message (the buffered value continues its journey).
    ctx.send(buffer_);
  } else {
    ctx.terminate(output_(dval_, vval_));
    dead_ = true;
  }
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

PhaseAsyncLeadProtocol::PhaseAsyncLeadProtocol(int n, std::uint64_t f_key)
    : PhaseAsyncLeadProtocol(PhaseParams::defaults(n), f_key) {}

PhaseAsyncLeadProtocol::PhaseAsyncLeadProtocol(PhaseParams params, std::uint64_t f_key)
    : params_(params), f_(f_key, params.n, params.m, params.l) {}

PhaseOutputFn PhaseAsyncLeadProtocol::output_fn() const {
  const RandomFunction* f = &f_;
  const int keep = f_.validation_inputs();
  return [f, keep](std::span<const Value> dval, std::span<const Value> vval) {
    return f->evaluate(dval, vval.first(static_cast<std::size_t>(keep)));
  };
}

RingStrategy* PhaseAsyncLeadProtocol::emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                       int n) const {
  if (n != params_.n) throw std::invalid_argument("ring size mismatch with PhaseParams");
  if (id == 0) return arena.emplace<PhaseOriginStrategy>(params_, output_fn());
  return arena.emplace<PhaseNormalStrategy>(id, params_, output_fn());
}

}  // namespace fle

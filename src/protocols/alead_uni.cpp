#include "protocols/alead_uni.h"

namespace fle {

RingStrategy* ALeadUniProtocol::emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                 int /*n*/) const {
  if (id == 0) return arena.emplace<ALeadOriginStrategy>();
  return arena.emplace<ALeadNormalStrategy>();
}

void ALeadOriginStrategy::on_init(RingContext& ctx) {
  d_ = ctx.tape().uniform(static_cast<Value>(ctx.ring_size()));
  ctx.send(d_);
}

void ALeadOriginStrategy::on_receive(RingContext& ctx, Value v) {
  const auto n = static_cast<Value>(ctx.ring_size());
  if (v >= n) v %= n;  // honest traffic is already reduced; skip the divide
  ++count_;
  sum_ += v;
  if (sum_ >= n) sum_ -= n;
  if (count_ < ctx.ring_size()) {
    ctx.send(v);  // pipe: receive and send immediately
    return;
  }
  // n-th incoming message must be our own secret coming full circle.
  if (v == d_) {
    ctx.terminate(sum_);
  } else {
    ctx.abort();
  }
}

void ALeadNormalStrategy::on_init(RingContext& ctx) {
  d_ = ctx.tape().uniform(static_cast<Value>(ctx.ring_size()));
  buffer_ = d_;  // commit: the secret leaves the buffer before we learn anything
}

void ALeadNormalStrategy::on_receive(RingContext& ctx, Value v) {
  const auto n = static_cast<Value>(ctx.ring_size());
  if (v >= n) v %= n;
  ctx.send(buffer_);  // send the delayed value first (one-round buffering)
  buffer_ = v;
  ++count_;
  sum_ += v;
  if (sum_ >= n) sum_ -= n;
  if (count_ == ctx.ring_size()) {
    if (v == d_) {
      ctx.terminate(sum_);
    } else {
      ctx.abort();  // validation failed (Lemma 3.5)
    }
  }
}

}  // namespace fle

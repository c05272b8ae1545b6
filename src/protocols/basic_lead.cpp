#include "protocols/basic_lead.h"

namespace fle {

RingStrategy* BasicLeadProtocol::emplace_strategy(StrategyArena& arena, ProcessorId /*id*/,
                                                  int /*n*/) const {
  return arena.emplace<BasicLeadStrategy>();
}

void BasicLeadStrategy::on_init(RingContext& ctx) {
  d_ = ctx.tape().uniform(static_cast<Value>(ctx.ring_size()));
  ctx.send(d_);
}

void BasicLeadStrategy::on_receive(RingContext& ctx, Value v) {
  const auto n = static_cast<Value>(ctx.ring_size());
  if (v >= n) v %= n;  // honest traffic is already reduced; skip the divide
  ++count_;
  sum_ += v;
  if (sum_ >= n) sum_ -= n;
  if (count_ < ctx.ring_size()) {
    ctx.send(v);
    return;
  }
  // n-th incoming value: one full circulation brought our own value back.
  if (v == d_) {
    ctx.terminate(sum_);
  } else {
    ctx.abort();  // some processor deviated
  }
}

}  // namespace fle

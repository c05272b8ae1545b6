#include "protocols/indexing.h"

#include <cassert>

namespace fle {

namespace {

/// Runs the counter phase, then delegates every event to the inner strategy
/// built with the learned index.  The inner strategy is emplaced mid-run
/// into the arena the wrapper lives in, so it is destroyed at the same
/// rewind (before the wrapper: it was constructed after it).
///
/// FIFO links guarantee the counter is always the first message on every
/// link: the origin sends it before any inner-protocol traffic, and every
/// processor forwards it before initializing its inner strategy.
class IndexingStrategy final : public RingStrategy {
 public:
  IndexingStrategy(const RingProtocol& inner, StrategyArena& arena, bool is_origin)
      : inner_protocol_(inner), arena_(arena), is_origin_(is_origin) {}

  void on_init(RingContext& ctx) override {
    if (is_origin_) {
      ctx.send(1);  // counter: successor's position is 1
      start_inner(ctx, /*index=*/0);
    }
    // Normal processors stay silent until the counter arrives.
  }

  void on_receive(RingContext& ctx, Value v) override {
    if (!counter_done_) {
      counter_done_ = true;
      if (is_origin_) {
        // Counter returned (as n); swallow it.
        return;
      }
      ctx.send(v + 1);
      start_inner(ctx, static_cast<int>(v));
      return;
    }
    assert(inner_ != nullptr);
    inner_->on_receive(ctx, v);
  }

 private:
  void start_inner(RingContext& ctx, int index) {
    inner_ = inner_protocol_.emplace_strategy(arena_, index, ctx.ring_size());
    inner_->on_init(ctx);
  }

  const RingProtocol& inner_protocol_;
  StrategyArena& arena_;
  bool is_origin_;
  bool counter_done_ = false;
  RingStrategy* inner_ = nullptr;
};

}  // namespace

RingStrategy* IndexingProtocol::emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                 int /*n*/) const {
  return arena.emplace<IndexingStrategy>(*inner_, arena, id == 0);
}

}  // namespace fle

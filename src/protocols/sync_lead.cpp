#include "protocols/sync_lead.h"

namespace fle {

namespace {

class SyncBroadcastStrategy final : public SyncStrategy {
 public:
  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    const auto n = static_cast<Value>(ctx.network_size());
    if (ctx.round() == 1) {
      d_ = ctx.tape().uniform(n);
      ctx.broadcast({d_});
      return;
    }
    // Round 2: exactly one in-range value from every other processor, or a
    // deviation happened (synchrony makes silence observable).
    if (static_cast<int>(inbox.size()) != ctx.network_size() - 1) return ctx.abort();
    Value sum = d_ % n;
    ProcessorId expected = 0;
    for (const auto& [from, m] : inbox) {
      if (expected == ctx.id()) ++expected;
      if (from != expected || m.size() != 1 || m[0] >= n) return ctx.abort();
      sum = (sum + m[0]) % n;
      ++expected;
    }
    ctx.terminate(sum);
  }

 private:
  Value d_ = 0;
};

class SyncRingStrategy final : public SyncStrategy {
 public:
  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    const int n = ctx.network_size();
    const auto nv = static_cast<Value>(n);
    const ProcessorId succ = ring_succ(ctx.id(), n);
    const ProcessorId pred = ring_pred(ctx.id(), n);
    if (ctx.round() == 1) {
      d_ = ctx.tape().uniform(nv);
      sum_ = d_;
      ctx.send(succ, {d_});
      return;
    }
    // Rounds 2..n: exactly one in-range value from the predecessor.
    if (inbox.size() != 1 || inbox[0].first != pred || inbox[0].second.size() != 1 ||
        inbox[0].second[0] >= nv) {
      return ctx.abort();
    }
    const Value v = inbox[0].second[0];
    sum_ = (sum_ + v) % nv;
    if (ctx.round() < n) {
      ctx.send(succ, {v});
      return;
    }
    // Round n: the value arriving now completed the circle; the last value
    // each processor receives is its predecessor's... after n-1 forwards
    // every secret visited everyone exactly once.
    ctx.terminate(sum_);
  }

 private:
  Value d_ = 0;
  Value sum_ = 0;
};

}  // namespace

SyncStrategy* SyncBroadcastLeadProtocol::emplace_strategy(StrategyArena& arena,
                                                          ProcessorId /*id*/,
                                                          int /*n*/) const {
  return arena.emplace<SyncBroadcastStrategy>();
}

SyncStrategy* SyncRingLeadProtocol::emplace_strategy(StrategyArena& arena, ProcessorId /*id*/,
                                                     int /*n*/) const {
  return arena.emplace<SyncRingStrategy>();
}

}  // namespace fle

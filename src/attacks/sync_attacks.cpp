#include "attacks/sync_attacks.h"

namespace fle {
namespace {

/// Broadcasts a fixed value in round 1, then completes the honest sum.
class FixedValueColluder final : public SyncStrategy {
 public:
  explicit FixedValueColluder(Value v) : v_(v) {}

  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    const auto n = static_cast<Value>(ctx.network_size());
    if (ctx.round() == 1) {
      ctx.broadcast({v_ % n});
      return;
    }
    Value sum = v_ % n;
    for (const auto& [from, m] : inbox) sum = (sum + m[0]) % n;
    ctx.terminate(sum);
  }

 private:
  Value v_;
};

/// Waits one round before broadcasting (the asynchronous winning move).
class LateBroadcaster final : public SyncStrategy {
 public:
  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    const auto n = static_cast<Value>(ctx.network_size());
    if (ctx.round() == 1) return;
    if (ctx.round() == 2) {
      Value others = 0;
      for (const auto& [from, m] : inbox) others = (others + m[0]) % n;
      ctx.broadcast({(n - others % n) % n});
      return;
    }
    ctx.terminate(0);
  }
};

}  // namespace

SyncBlindCollusionDeviation::SyncBlindCollusionDeviation(Coalition coalition)
    : coalition_(std::move(coalition)) {}

SyncStrategy* SyncBlindCollusionDeviation::emplace_adversary(StrategyArena& arena,
                                                             ProcessorId id,
                                                             int /*n*/) const {
  return arena.emplace<FixedValueColluder>(static_cast<Value>(id));
}

SyncLateBroadcastDeviation::SyncLateBroadcastDeviation(Coalition coalition)
    : coalition_(std::move(coalition)) {}

SyncStrategy* SyncLateBroadcastDeviation::emplace_adversary(StrategyArena& arena,
                                                            ProcessorId /*id*/,
                                                            int /*n*/) const {
  return arena.emplace<LateBroadcaster>();
}

}  // namespace fle

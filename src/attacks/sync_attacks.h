#pragma once
// Adversarial deviations for the synchronous lockstep engine (paper Section
// 1.1's synchronous scenarios), plus the two canonical deviations of
// experiment E15 against Sync-Broadcast-LEAD:
//
//  * Blind collusion: up to n-1 members broadcast pre-agreed fixed values in
//    round 1.  Synchrony forces the commitment before any honest secret can
//    arrive, so the sum stays uniform — the coalition gains nothing, which
//    is exactly the k = n-1 resilience of Abraham et al.
//  * Late broadcast: one member stays silent in round 1 and broadcasts in
//    round 2 after reading everyone's secrets — the move that wins in
//    asynchrony.  Honest validation (exactly one value from every peer in
//    round 2) detects the silence and aborts: the attack FAILs structurally.

#include "attacks/coalition.h"
#include "sim/sync_engine.h"

namespace fle {

/// Deviation interface for synchronous protocols (Definition 2.2 in the
/// lockstep model).
class SyncDeviation {
 public:
  virtual ~SyncDeviation() = default;
  [[nodiscard]] virtual const Coalition& coalition() const = 0;
  /// Arena adversary factory; see Deviation::emplace_adversary.
  [[nodiscard]] virtual SyncStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id,
                                                        int n) const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Blind collusion against Sync-Broadcast-LEAD: member p broadcasts the
/// fixed value p mod n in round 1 and plays the rest of the protocol
/// honestly.  Even at k = n-1 one honest uniform secret keeps the sum
/// uniform.
class SyncBlindCollusionDeviation final : public SyncDeviation {
 public:
  explicit SyncBlindCollusionDeviation(Coalition coalition);

  const Coalition& coalition() const override { return coalition_; }
  SyncStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "sync-blind-collusion"; }

 private:
  Coalition coalition_;
};

/// Late broadcast against Sync-Broadcast-LEAD: the member withholds its
/// round-1 broadcast, reads every honest secret, and broadcasts the
/// completing value in round 2.  Detected: honest processors see a missing
/// round-2 delivery and abort.
class SyncLateBroadcastDeviation final : public SyncDeviation {
 public:
  explicit SyncLateBroadcastDeviation(Coalition coalition);

  const Coalition& coalition() const override { return coalition_; }
  SyncStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "sync-late-broadcast"; }

 private:
  Coalition coalition_;
};

}  // namespace fle

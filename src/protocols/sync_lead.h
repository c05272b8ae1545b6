#pragma once
// The two synchronous scenarios of the paper's Section 1.1: Abraham et
// al.'s optimal (k = n-1 resilient) fair leader election for synchronous
// fully-connected networks and synchronous rings.
//
// Synchrony is the whole trick: in round 1 every processor must commit its
// secret *before* any other secret can reach it (simultaneous delivery),
// and a processor that stays silent or sends off-schedule is detected
// structurally.  With the output sum(d_i) mod n, even n-1 colluders gain
// nothing — their values are chosen blind, and one honest uniform secret
// makes the sum uniform.
//
// SyncBroadcastLead (fully connected): round 1 broadcast d_i; round 2
// validate (exactly one value from every peer, in range) and output the sum.
//
// SyncRingLead (ring): n-1 forwarding rounds; round r sends the value
// received in round r-1 to the successor (starting with d_i); every round
// must deliver exactly one in-range value from the predecessor; after
// collecting all n secrets, output the sum.  (With synchrony there is no
// need for A-LEADuni's buffering delay — timing itself is the commitment.)

#include "sim/sync_engine.h"

namespace fle {

class SyncBroadcastLeadProtocol final : public SyncProtocol {
 public:
  SyncStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "Sync-Broadcast-LEAD"; }
  int round_bound(int /*n*/) const override { return 4; }
};

class SyncRingLeadProtocol final : public SyncProtocol {
 public:
  SyncStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "Sync-Ring-LEAD"; }
  int round_bound(int n) const override { return n + 3; }
};

}  // namespace fle

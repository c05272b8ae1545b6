#pragma once
// The two coalition attacks that pin the fully-connected protocol's n/2
// resilience boundary (paper Section 1.1 / Theorem 7.2's special case).
//
// ShamirRushingDeviation (needs k >= t = floor(n/2)+1): adversaries withhold
// their phase-1 distribution — asynchrony makes the delay invisible — while
// forwarding every received share to a coalition leader.  With >= t shares
// of each honest secret the leader reconstructs them all, picks coalition
// secrets summing to the target, and the coalition then plays the protocol
// honestly.  Every validation passes; the outcome is w.
//
// ShamirForgeDeviation (needs only k >= ceil(n/2), i.e. honest < t): phases
// 1-2 are honest, so coalition secrets are committed — but at reveal time
// the honest evaluation points no longer pin degree-(t-1) polynomials.  The
// coalition rushes the honest reveals, reconstructs the running sum, and
// shifts one adversary-owned secret along the pencil P + c*Z, where
// Z = prod over honest points (x - x_h) has degree n-k <= t-1 and vanishes
// on every honest share: all n revealed points stay consistent, no owner
// check fires (the owner colludes), and the sum lands on w.  This closes
// the gap to the paper's k >= n/2 impossibility exactly.

#include <optional>

#include "attacks/coalition.h"
#include "attacks/graph_deviation.h"
#include "protocols/shamir_lead.h"

namespace fle {

/// Early-reconstruction attack; controls the outcome iff k >= t.
class ShamirRushingDeviation final : public GraphDeviation {
 public:
  ShamirRushingDeviation(Coalition coalition, Value target,
                         const ShamirLeadProtocol& protocol);

  const Coalition& coalition() const override { return coalition_; }
  GraphStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "shamir-rushing (k >= n/2+1)"; }

  /// True iff the coalition holds enough shares to reconstruct early.
  [[nodiscard]] bool reconstruction_possible() const {
    return coalition_.k() >= params_.t;
  }

 private:
  Coalition coalition_;
  Value target_;
  ShamirParams params_;
};

/// Reveal-forging attack; controls the outcome iff honest count < t
/// (k >= ceil(n/2) with the default threshold).
class ShamirForgeDeviation final : public GraphDeviation {
 public:
  ShamirForgeDeviation(Coalition coalition, Value target,
                       const ShamirLeadProtocol& protocol);

  const Coalition& coalition() const override { return coalition_; }
  GraphStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "shamir-forge (k >= n/2)"; }

  /// True iff the honest points no longer pin the polynomials.
  [[nodiscard]] bool forging_possible() const {
    return coalition_.n() - coalition_.k() <= params_.t - 1;
  }

 private:
  Coalition coalition_;
  Value target_;
  ShamirParams params_;
};

}  // namespace fle

#pragma once
// Fair leader election on an asynchronous fully-connected network via
// Shamir secret sharing (paper Section 1.1, related work: Abraham et al.'s
// "straightforward" application with optimal resilience k = n/2 - 1).
//
// Protocol (threshold t = floor(n/2) + 1):
//  1. SHARE:  each processor draws d_i in [n], splits it with a (t, n)
//     Shamir scheme, and sends share j to processor j.
//  2. READY:  after holding one share of every secret, broadcast READY —
//     the commitment barrier: secrets are now information-theoretically
//     fixed (honest processors hold them) before anyone reveals.
//  3. REVEAL: after n READYs, broadcast the vector of held shares.
//  4. Each processor reconstructs every secret with a consistency check
//     (all n points must lie on one degree-(t-1) polynomial; the >= t
//     honest points pin it, so lies are detected), verifies its own secret
//     survived, and outputs sum(d_i) mod n.
//
// Reconstruction runs through one ShamirWeights table per protocol
// (core/shamir.h), built in the constructor and shared read-only with every
// strategy and attack via ShamirParams::weights.
//
// Resilience boundary (reproduced in attacks/shamir_attacks.h):
//  * k <= ceil(n/2) - 1: coalitions hold < t shares (learn nothing early)
//    and honest points >= t (lies detected)  ->  unbiased.
//  * k = ceil(n/2):      honest points < t:  the coalition can shift an
//    adversary-owned secret along the pencil P + c*Z (Z vanishing on the
//    honest evaluation points) after rushing the honest reveals — full
//    control, matching the paper's k >= n/2 impossibility.
//  * k >= floor(n/2)+1:  the coalition reconstructs every honest secret
//    before committing its own — full control (rushing).

#include <memory>
#include <span>

#include "core/shamir.h"
#include "sim/graph_engine.h"

namespace fle {

/// Message tags (first element of every GraphMessage).
enum class ShamirTag : Value {
  kShare = 1,   ///< {tag, y}: your share of my secret
  kReady = 2,   ///< {tag}
  kReveal = 3,  ///< {tag, y_0, ..., y_{n-1}}: all shares I hold, by owner
};

struct ShamirParams {
  // Constructors rather than an aggregate: `ShamirParams{n, t}` then
  // leaves `weights` unset without a missing-initializer warning.
  ShamirParams() = default;
  ShamirParams(int n, int t) : n(n), t(t) {}

  int n = 0;
  int t = 0;  ///< reconstruction threshold (degree t-1 polynomials)
  /// The (n, t) Lagrange table; ShamirLeadProtocol's constructor builds it.
  std::shared_ptr<const ShamirWeights> weights;

  static ShamirParams defaults(int n) { return ShamirParams{n, n / 2 + 1}; }
};

class ShamirLeadProtocol final : public GraphProtocol {
 public:
  explicit ShamirLeadProtocol(int n) : ShamirLeadProtocol(ShamirParams::defaults(n)) {}
  /// Builds the weight table; throws std::invalid_argument unless n >= 2
  /// and 1 <= t <= n.
  explicit ShamirLeadProtocol(ShamirParams params);

  GraphStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "Shamir-LEAD (fully connected)"; }
  std::uint64_t honest_message_bound(int n) const override {
    return 3ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
  }

  [[nodiscard]] const ShamirParams& params() const { return params_; }

 private:
  ShamirParams params_;
};

/// The honest state machine, exposed so the attacks can reuse its phases.
class ShamirLeadStrategy : public GraphStrategy {
 public:
  /// `params.weights` must hold the (n, t) table (ShamirLeadProtocol's
  /// params() do); throws std::invalid_argument otherwise.
  ShamirLeadStrategy(ProcessorId id, ShamirParams params);

  void on_init(GraphContext& ctx) override;
  void on_receive(GraphContext& ctx, ProcessorId from, const GraphMessage& m) override;

 protected:
  /// Phase 1 for a specific secret (honest code calls this at wake-up with
  /// a fresh uniform draw; the rushing adversary defers it).
  void distribute(GraphContext& ctx, Value secret);
  /// Phase 3 broadcast (virtual so the forging adversary can rewrite it).
  virtual void send_reveal(GraphContext& ctx);
  /// Broadcasts an explicit reveal vector of n values, by owner (used by
  /// send_reveal and by the forging adversary's rewritten reveal).
  void broadcast_reveal(GraphContext& ctx, std::span<const Fp> values);
  /// Called once all reveals are in; default reconstructs + terminates.
  virtual void finalize(GraphContext& ctx);

  /// Reconstructs secret of `owner` from the reveal matrix; nullopt on
  /// inconsistency.  Valid only after all reveals arrived.
  [[nodiscard]] std::optional<Fp> reconstruct(ProcessorId owner) const;

  /// Owner's revealed points, by revealer: entry j is P_owner(j + 1) as
  /// revealer j claimed it (meaningful once j's reveal arrived).
  [[nodiscard]] std::span<const Fp> revealed_points(ProcessorId owner) const;

  void fail(GraphContext& ctx);

  ProcessorId id_;
  ShamirParams params_;
  bool distributed_ = false;
  bool dead_ = false;
  Value secret_ = 0;
  std::vector<std::optional<Fp>> held_;  ///< my share, by owner
  std::vector<char> ready_from_;
  int ready_count_ = 0;
  bool revealed_ = false;
  std::vector<Fp> reveals_;         ///< n x n, owner-major: [owner * n + revealer]
  std::vector<char> revealed_from_;  ///< by revealer
  int reveal_count_ = 0;
  int shares_count_ = 0;

 private:
  void maybe_advance(GraphContext& ctx);
  /// Stores one revealer's n values (by owner) into its reveal column.
  void record_reveal(ProcessorId revealer, std::span<const Value> values);
};

}  // namespace fle

#pragma once
// Fault-injection deviations used to exercise abort paths.
//
// Each wraps the protocol's honest strategy and corrupts exactly one aspect
// of its behaviour (flip a value, drop a send, duplicate a send, inject an
// extra message).  The paper's validation machinery (Lemma 3.5, the phase
// validators) must turn every such deviation into a FAIL outcome; tests and
// the failure-injection sweeps verify that.

#include <cstdint>

#include "attacks/deviation.h"

namespace fle {

enum class TamperKind {
  kFlipValue,   ///< adds 1 (mod the receiver's expected domain) to one send
  kDropSend,    ///< suppresses one send
  kDuplicate,   ///< sends one message twice
  kExtraZero,   ///< injects an extra 0 after one send
};

class TamperDeviation final : public Deviation {
 public:
  /// The single coalition member `adversary` runs the honest strategy, but
  /// its `target_send`-th outgoing message (0-based) is tampered per `kind`.
  TamperDeviation(int n, ProcessorId adversary, const RingProtocol& protocol,
                  TamperKind kind, std::uint64_t target_send);

  const Coalition& coalition() const override { return coalition_; }
  RingStrategy* emplace_adversary(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "tamper"; }

 private:
  Coalition coalition_;
  const RingProtocol* protocol_;
  TamperKind kind_;
  std::uint64_t target_send_;
};

}  // namespace fle

#pragma once
// Core model vocabulary for the fair-leader-election reproduction.
//
// Paper model (Section 2): processors are nodes of a communication graph,
// exchanging messages of unlimited size over FIFO links under an oblivious
// asynchronous schedule.  Each processor may terminate with an output in
// [n] or with bottom (abort).  The global outcome of an execution is a valid
// id iff *all* processors terminated with that same id; everything else
// (any abort, any disagreement, any non-termination) is FAIL.
//
// Ids are 0-based here: processors are 0..n-1 and processor 0 is the origin.
// The paper's [1..n] maps to ours by subtracting one.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace fle {

/// A ring message payload.  The paper allows unlimited-size messages; every
/// protocol in the paper only ever sends a single value per message, so a
/// 64-bit integer suffices (values live in [n] or [m] with m = 2n^2).
using Value = std::uint64_t;

/// 0-based processor id.
using ProcessorId = int;

/// Local output of one processor: a value, or bottom (abort).
struct LocalOutput {
  bool aborted = false;  ///< true => terminated with output = bottom
  Value value = 0;       ///< meaningful only when !aborted
};

/// Global outcome of an execution (paper Section 2).
///
/// `valid()` outcomes carry the elected id in [0, n).  FAIL covers: some
/// processor aborted, two processors disagreed, or some processor never
/// terminated (detected via quiescence or the step bound).
class Outcome {
 public:
  static Outcome fail() { return Outcome{}; }
  static Outcome elected(Value id) {
    Outcome o;
    o.elected_ = id;
    return o;
  }

  [[nodiscard]] bool valid() const { return elected_.has_value(); }
  [[nodiscard]] bool failed() const { return !elected_.has_value(); }
  /// Elected id; only meaningful when valid().
  [[nodiscard]] Value leader() const { return *elected_; }

  friend bool operator==(const Outcome&, const Outcome&) = default;

 private:
  std::optional<Value> elected_;
};

/// What one trial leaves behind, on every runtime and fast path: the scalar
/// engines, the lane engine and the closed-form layer all report it, and
/// the closed-form audit compares it field for field.  Fields a runtime
/// does not produce stay 0.
struct TrialStats {
  Outcome outcome;                ///< default-constructed = FAIL
  std::uint64_t messages = 0;     ///< total sends
  std::uint64_t sync_gap = 0;     ///< ring runtimes' max synchronization gap
  int rounds = 0;                 ///< sync engine rounds
  bool step_limit_hit = false;    ///< ring step limit or sync round limit hit
};

/// Aggregates per-processor local outputs into the global outcome, per the
/// paper's definition: outcome(e) = o iff all processors terminated with
/// output o in [0, n); otherwise FAIL.
///
/// `outputs[i]` must be the local output of processor i, or nullopt if the
/// processor never terminated.
inline Outcome aggregate_outcome(std::span<const std::optional<LocalOutput>> outputs,
                                 std::size_t n) {
  if (outputs.size() != n) return Outcome::fail();
  std::optional<Value> agreed;
  for (const auto& out : outputs) {
    if (!out.has_value()) return Outcome::fail();   // never terminated
    if (out->aborted) return Outcome::fail();       // bottom
    if (out->value >= n) return Outcome::fail();    // out-of-range output
    if (agreed && *agreed != out->value) return Outcome::fail();
    agreed = out->value;
  }
  if (!agreed) return Outcome::fail();  // n == 0
  return Outcome::elected(*agreed);
}

/// Ring-position helpers (all mod n, 0-based).
inline ProcessorId ring_succ(ProcessorId p, int n) { return (p + 1) % n; }
inline ProcessorId ring_pred(ProcessorId p, int n) { return (p + n - 1) % n; }
/// Distance walking forward (in send direction) from `from` to `to`.
inline int ring_distance(ProcessorId from, ProcessorId to, int n) {
  return ((to - from) % n + n) % n;
}

}  // namespace fle

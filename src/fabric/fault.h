#pragma once
// Deterministic fault injection for the sweep fabric.  A FaultPlan is a
// per-worker schedule of misbehaviours keyed by assignment ordinal: "on
// your 2nd window, die".  Plans are plain text (fle_worker --fault, and
// diffable in CI logs), and a test can sample one from a seed: the same
// (seed, windows, rate) always yields the same plan.
//
// Text format, comma-separated actions:
//
//   kill@2,hang@3:2000,corrupt@1,slow@4:250
//
// `<kind>@<ordinal>` with an optional `:<millis>` parameter.  Ordinals are
// 1-based and count kAssign frames received by the worker.  Kinds:
//
//   kill     — exit immediately without replying (worker loss)
//   hang     — go silent for <millis> (default WorkerOptions::default_hang_ms)
//              before continuing; the driver's deadline fires first, and
//              a driver that hangs up meanwhile ends the hang and the worker
//   corrupt  — send a garbage frame instead of the result (protocol error)
//   slow     — run the window, then delay the reply by <millis> (slow link)

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fle::fabric {

enum class FaultKind : std::uint8_t {
  kKill,
  kHang,
  kCorruptFrame,
  kSlowLink,
};

const char* to_string(FaultKind kind);

struct FaultAction {
  FaultKind kind = FaultKind::kKill;
  std::uint64_t window = 1;  ///< 1-based assignment ordinal it fires on
  std::uint64_t millis = 0;  ///< hang/slow parameter; 0 = use the worker default

  bool operator==(const FaultAction&) const = default;
};

struct FaultPlan {
  std::vector<FaultAction> actions;

  [[nodiscard]] bool empty() const { return actions.empty(); }

  /// The action scheduled for the given 1-based assignment ordinal, if any.
  /// At most one action fires per ordinal (parse rejects duplicates).
  [[nodiscard]] std::optional<FaultAction> action_at(std::uint64_t ordinal) const;

  /// Parses the text format.  Throws std::invalid_argument naming the
  /// offending token on bad kinds, ordinals, parameters, or duplicate
  /// ordinals.  An empty string is the empty plan.
  static FaultPlan parse(const std::string& text);

  /// Deterministically samples a plan: each of the first `windows`
  /// assignment ordinals independently gets a fault with probability
  /// `rate` (kind and parameter drawn from the seed too).  Same arguments,
  /// same plan, so a test that samples its plans replays them exactly.
  static FaultPlan sample(std::uint64_t seed, std::uint64_t windows, double rate);

  bool operator==(const FaultPlan&) const = default;
};

}  // namespace fle::fabric

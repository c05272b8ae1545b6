#pragma once
// PhaseAsyncLead (paper Section 6, Appendix E): the new Theta(sqrt(n))-
// resilient FLE protocol.
//
// A-LEADuni's data stream is augmented with a *phase validation* mechanism:
// message streams strictly alternate between data messages (odd incoming
// positions, the buffered secret-sharing of A-LEADuni) and validation
// messages (even positions).  In round r, processor r-1 (0-based; the
// paper's processor r) is the round validator: it draws v_r uniformly from
// [m] (m = 2n^2), sends it right after its round-r data action, and aborts
// unless the value that eventually circulates back to it equals v_r.  All
// other processors forward validation values without delay and record them.
// This forces every execution to stay O(k)-synchronized.
//
// The output is f(d[0..n-1], v[0..n-l-1]) for a fixed random function f
// (substituted here by a keyed PRF, DESIGN.md §2) — summing is *not* safe
// once the validation channel exists (Appendix E.4; see PhaseSumLead).
//
// Pseudo-code corrections relative to listing E.3 (DESIGN.md §2): the origin
// must not send a data message after the round-n validation (it would be its
// (n+1)-th) and must terminate only after forwarding the round-n validation;
// it also validates its own returning data value, symmetric with normal
// processors.  Verified by exhaustive small-n traces in tests.

#include <functional>
#include <vector>

#include "core/random_function.h"
#include "sim/strategy.h"

namespace fle {

/// Domain parameters of one PhaseAsyncLead instance (paper defaults:
/// m = 2n^2, l = ceil(10*sqrt(n)) clamped for small rings).
struct PhaseParams {
  int n = 0;
  Value m = 0;  ///< validation values live in [m]
  int l = 0;    ///< f consumes validation rounds 1..n-l only

  static PhaseParams defaults(int n) {
    return PhaseParams{n, RandomFunction::default_m(n), RandomFunction::default_l(n)};
  }
};

/// Computes the protocol output from the completed share arrays:
/// (d-hat[0..n-1], v-hat[0..n-1]) -> leader in [0, n).  Implementations
/// decide how much of v-hat they consume.
using PhaseOutputFn = std::function<Value(std::span<const Value>, std::span<const Value>)>;

/// Shared honest strategy for processors 1..n-1.
///
/// Extensible (protected state + draw hooks) so deviations that are
/// *honest-except-for-their-own-random-draws* — e.g. pre-agreed data values
/// or a steered validation value (attacks/phase_late_validation.h) — can be
/// expressed without duplicating the message machinery.  Such deviations
/// are undetectable by construction: the values a processor draws are its
/// private randomness.
class PhaseNormalStrategy : public RingStrategy {
 public:
  PhaseNormalStrategy(ProcessorId id, PhaseParams params, PhaseOutputFn output);

  void on_init(RingContext& ctx) override;
  void on_receive(RingContext& ctx, Value v) override;

 protected:
  /// Our data value (default: uniform from the tape).
  virtual Value draw_data(RingContext& ctx);
  /// Our validation value, drawn in our validator round (default: uniform).
  virtual Value draw_validation(RingContext& ctx);

 private:
  void on_data(RingContext& ctx, Value x);
  void on_validation(RingContext& ctx, Value y);

 protected:
  ProcessorId id_;
  PhaseParams params_;
  PhaseOutputFn output_;

  Value d_ = 0;       ///< own data value
  Value v_ = 0;       ///< own validation value (drawn in our validator round)
  Value buffer_ = 0;  ///< one-round data delay
  int round_ = 0;     ///< completed data receives
  bool expect_data_ = true;
  bool dead_ = false;
  std::vector<Value> dval_;  ///< d-hat by ring position
  std::vector<Value> vval_;  ///< v-hat by round (0-based round r-1)
};

/// Shared honest strategy for the origin (processor 0).
class PhaseOriginStrategy final : public RingStrategy {
 public:
  PhaseOriginStrategy(PhaseParams params, PhaseOutputFn output);

  void on_init(RingContext& ctx) override;
  void on_receive(RingContext& ctx, Value v) override;

 private:
  void on_data(RingContext& ctx, Value x);
  void on_validation(RingContext& ctx, Value y);

  PhaseParams params_;
  PhaseOutputFn output_;

  Value d_ = 0;
  Value v_ = 0;
  Value buffer_ = 0;
  int data_received_ = 0;
  int val_received_ = 0;
  bool expect_data_ = true;
  bool dead_ = false;
  std::vector<Value> dval_;
  std::vector<Value> vval_;
};

/// PhaseAsyncLead proper: random-function output (Theorem 6.1).
class PhaseAsyncLeadProtocol final : public RingProtocol {
 public:
  /// `f_key` selects the fixed random function instance ("randomizing f").
  PhaseAsyncLeadProtocol(int n, std::uint64_t f_key);
  /// Full control over the domain parameters (tests, ablations).
  PhaseAsyncLeadProtocol(PhaseParams params, std::uint64_t f_key);

  RingStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "PhaseAsyncLead"; }
  std::uint64_t honest_message_bound(int n) const override {
    return 2ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
  }

  [[nodiscard]] const PhaseParams& params() const { return params_; }
  [[nodiscard]] const RandomFunction& f() const { return f_; }
  /// The output functional (useful to attacks that must steer f).
  [[nodiscard]] PhaseOutputFn output_fn() const;

 private:
  PhaseParams params_;
  RandomFunction f_;
};

}  // namespace fle

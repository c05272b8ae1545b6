#pragma once
// The random output function f of PhaseAsyncLead (paper Section 6).
//
// The paper fixes a uniformly random function
//     f : [n]^n x [m]^(n-l)  ->  [n]
// non-constructively, and proves resilience "with exponentially high
// probability over randomizing f".  A truly random function over that domain
// is not storable; we substitute a keyed pseudo-random function (a chained
// splitmix64-style Merkle-Damgard mixer).  The paper's adversaries are
// information-limited, not computation-limited, and every quantitative claim
// we reproduce only requires f to behave independently across distinct
// inputs, which the mixer provides statistically (see DESIGN.md §2).
//
// The attack of the remark after Theorem 6.1 brute-forces preimages over the
// entries it controls, exactly as the paper's unbounded adversary would;
// first_preimage() is that search (DESIGN.md §12).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "core/types.h"

namespace fle {

/// Keyed instance of the paper's random function f.
///
/// Domain parameters follow Section 6: data values live in [n], validation
/// values in [m] (paper default m = 2n^2), and only the first (n - l)
/// validation values enter f (paper default l = ceil(10*sqrt(n)), clamped to
/// keep at least one and at most n inputs for small rings).
class RandomFunction {
 public:
  /// `key` selects which function from the family we fixed (the paper's
  /// "randomizing f"); n, m, l are the domain parameters.
  RandomFunction(std::uint64_t key, int n, Value m, int l);

  /// f(d[0..n-1], v[0..n-l-1]) in [0, n).  `data.size()` must be n and
  /// `validation.size()` must be n - l.
  [[nodiscard]] Value evaluate(std::span<const Value> data,
                               std::span<const Value> validation) const;

  /// The first attempt a in [0, attempts) for which f equals `target` once
  /// input free_inputs[i] is set to digit i of a in base `radix` (least
  /// significant first), or nullopt.  Input j < n is data[j], input j >= n
  /// is validation[j - n]; the other inputs keep their values.  Same answer
  /// as evaluating every attempt in order, but an attempt past
  /// radix^|free_inputs| repeats an earlier assignment and is not tried.
  /// Throws std::invalid_argument on radix 0 or on a free input that is out
  /// of range or repeated.
  [[nodiscard]] std::optional<std::uint64_t> first_preimage(
      std::span<const Value> data, std::span<const Value> validation,
      std::span<const std::size_t> free_inputs, std::uint64_t radix, std::uint64_t attempts,
      Value target) const;

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] Value m() const { return m_; }
  [[nodiscard]] int l() const { return l_; }
  /// Number of validation entries f consumes (n - l).
  [[nodiscard]] int validation_inputs() const { return n_ - l_; }
  [[nodiscard]] std::uint64_t key() const { return key_; }

  /// Paper-default l = ceil(10*sqrt(n)), clamped to [1, n-1] so the protocol
  /// remains well-defined on small rings (documented substitution).
  static int default_l(int n);
  /// Paper-default m = 2n^2.
  static Value default_m(int n);

 private:
  std::uint64_t key_;
  int n_;
  Value m_;
  int l_;
};

}  // namespace fle

#pragma once
// Shamir secret sharing over GF(2^61 - 1).
//
// (t, n) threshold scheme: a secret s is embedded as P(0) of a uniformly
// random polynomial P of degree t-1; share j is P(x_j) with x_j = j+1.
// Any t shares determine s (Lagrange interpolation at 0); any t-1 reveal
// nothing.  `consistent` checks that n points lie on one degree-(t-1)
// polynomial — the error-detection step the fully-connected election uses
// to catch lying revealers (honest points >= t pin the polynomial; a
// corrupted point falls off it).
//
// Two reconstruction paths compute the same field elements:
//  * the generic functions (`interpolate_at`, `shamir_reconstruct*`) take
//    arbitrary distinct x and pay a Fermat inversion per Lagrange term —
//    they are the test oracle, and the rushing attack's share pool needs
//    them because its evaluation points are whatever it collected;
//  * `ShamirWeights` fixes x_j = j+1 and t, precomputes every Lagrange
//    weight once, and reconstructs-with-verification in (n-t+1)*t
//    multiply-adds with no inversion — the Shamir-LEAD hot path.
// GF(p) arithmetic is exact and the interpolating polynomial is unique, so
// the two paths agree on every input, nullopt included (DESIGN.md §11).

#include <optional>
#include <span>
#include <vector>

#include "core/field.h"

namespace fle {

struct Share {
  Fp x;  ///< evaluation point (j+1 for holder j)
  Fp y;  ///< P(x)
};

/// Split `secret` into n shares with threshold t (1 <= t <= n): any t
/// reconstruct, any t-1 are independent of the secret.
std::vector<Share> shamir_share(Fp secret, int t, int n, Xoshiro256& rng);

/// Lagrange interpolation of P(0) from exactly t shares with distinct x.
/// Throws std::invalid_argument on a repeated x.
Fp shamir_reconstruct(std::span<const Share> shares);

/// Evaluate the unique degree-(|shares|-1) interpolating polynomial at x.
/// Throws std::invalid_argument on a repeated x among the shares.
Fp interpolate_at(std::span<const Share> shares, Fp x);

/// Do all points lie on a single polynomial of degree <= t-1?  (Uses the
/// first t points to fix the polynomial and verifies the rest.)
bool shamir_consistent(std::span<const Share> shares, int t);

/// Reconstruct with verification: nullopt if the points are inconsistent.
std::optional<Fp> shamir_reconstruct_checked(std::span<const Share> shares, int t);

/// The Lagrange weights of one (n, t) scheme at the fixed points
/// x_j = j+1.  Built once per (n, t); immutable afterwards, so one table
/// may be read from any number of threads.
class ShamirWeights {
 public:
  /// Throws std::invalid_argument unless n >= 2 and 1 <= t <= n.
  ShamirWeights(int n, int t);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int t() const { return t_; }

  /// P(0) from the first t points, ys[j] = P(j+1); needs |ys| >= t.
  /// Equals shamir_reconstruct on shares (1, ys[0]) .. (t, ys[t-1]).
  [[nodiscard]] Fp reconstruct(std::span<const Fp> ys) const;

  /// shamir_reconstruct_checked on the n shares (j+1, ys[j]): nullopt
  /// unless every point past the first t lies on the polynomial through
  /// the first t.  Needs |ys| == n.
  [[nodiscard]] std::optional<Fp> reconstruct_checked(std::span<const Fp> ys) const;

 private:
  /// Row r of the (n-t+1) x t table: row 0 maps points 1..t to P(0), row
  /// r >= 1 maps them to P(t+r).
  [[nodiscard]] Fp apply_row(int r, std::span<const Fp> ys) const;

  int n_;
  int t_;
  std::vector<Fp> weights_;  ///< row-major, t weights per row
};

}  // namespace fle

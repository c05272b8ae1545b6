#include "core/shamir.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace fle {

std::vector<Share> shamir_share(Fp secret, int t, int n, Xoshiro256& rng) {
  if (t < 1 || t > n) throw std::invalid_argument("need 1 <= t <= n");
  // P(x) = secret + c1 x + ... + c_{t-1} x^{t-1}, coefficients uniform.
  std::vector<Fp> coeffs(static_cast<std::size_t>(t));
  coeffs[0] = secret;
  for (int i = 1; i < t; ++i) coeffs[static_cast<std::size_t>(i)] = Fp::random(rng);

  std::vector<Share> shares;
  shares.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const Fp x(static_cast<std::uint64_t>(j) + 1);
    Fp y(0);
    // Horner evaluation.
    for (int i = t - 1; i >= 0; --i) y = y * x + coeffs[static_cast<std::size_t>(i)];
    shares.push_back(Share{x, y});
  }
  return shares;
}

Fp interpolate_at(std::span<const Share> shares, Fp x) {
  // Lagrange: sum_i y_i * prod_{j != i} (x - x_j) / (x_i - x_j).
  Fp acc(0);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    Fp num(1);
    Fp den(1);
    for (std::size_t j = 0; j < shares.size(); ++j) {
      if (j == i) continue;
      num = num * (x - shares[j].x);
      den = den * (shares[i].x - shares[j].x);
    }
    // inverse() of zero is zero, which would silently drop this term.
    if (den == Fp(0)) {
      throw std::invalid_argument("interpolate_at: evaluation point x = " +
                                  std::to_string(shares[i].x.value()) + " is repeated");
    }
    acc = acc + shares[i].y * num * den.inverse();
  }
  return acc;
}

Fp shamir_reconstruct(std::span<const Share> shares) {
  return interpolate_at(shares, Fp(0));
}

bool shamir_consistent(std::span<const Share> shares, int t) {
  if (static_cast<int>(shares.size()) < t) return false;
  const auto basis = shares.first(static_cast<std::size_t>(t));
  for (std::size_t i = static_cast<std::size_t>(t); i < shares.size(); ++i) {
    if (interpolate_at(basis, shares[i].x) != shares[i].y) return false;
  }
  return true;
}

std::optional<Fp> shamir_reconstruct_checked(std::span<const Share> shares, int t) {
  if (!shamir_consistent(shares, t)) return std::nullopt;
  return shamir_reconstruct(shares.first(static_cast<std::size_t>(t)));
}

ShamirWeights::ShamirWeights(int n, int t) : n_(n), t_(t) {
  if (n < 2) {
    throw std::invalid_argument("ShamirWeights: n must be >= 2 (got n=" + std::to_string(n) +
                                ")");
  }
  if (t < 1 || t > n) {
    throw std::invalid_argument("ShamirWeights: threshold t must be in [1, n] (got t=" +
                                std::to_string(t) + ", n=" + std::to_string(n) + ")");
  }
  // The basis points are x_i = i+1, i < t.  The denominators
  // prod_{j != i} (x_i - x_j) do not depend on the target, so invert them
  // once; each row then needs only its numerators.
  const auto x = [](int i) { return Fp(static_cast<std::uint64_t>(i) + 1); };
  std::vector<Fp> den_inv(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    Fp den(1);
    for (int j = 0; j < t; ++j) {
      if (j != i) den = den * (x(i) - x(j));
    }
    den_inv[static_cast<std::size_t>(i)] = den.inverse();
  }
  weights_.reserve(static_cast<std::size_t>(n - t + 1) * static_cast<std::size_t>(t));
  for (int r = 0; r <= n - t; ++r) {
    const Fp target = r == 0 ? Fp(0) : x(t + r - 1);
    for (int i = 0; i < t; ++i) {
      Fp num(1);
      for (int j = 0; j < t; ++j) {
        if (j != i) num = num * (target - x(j));
      }
      weights_.push_back(num * den_inv[static_cast<std::size_t>(i)]);
    }
  }
}

Fp ShamirWeights::apply_row(int r, std::span<const Fp> ys) const {
  const Fp* w = weights_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(t_);
  Fp acc(0);
  for (int i = 0; i < t_; ++i) acc = acc + w[i] * ys[static_cast<std::size_t>(i)];
  return acc;
}

Fp ShamirWeights::reconstruct(std::span<const Fp> ys) const {
  if (static_cast<int>(ys.size()) < t_) {
    throw std::invalid_argument("ShamirWeights::reconstruct: need t=" + std::to_string(t_) +
                                " points, got " + std::to_string(ys.size()));
  }
  return apply_row(0, ys);
}

std::optional<Fp> ShamirWeights::reconstruct_checked(std::span<const Fp> ys) const {
  if (static_cast<int>(ys.size()) != n_) {
    throw std::invalid_argument("ShamirWeights::reconstruct_checked: need n=" +
                                std::to_string(n_) + " points, got " +
                                std::to_string(ys.size()));
  }
  for (int k = t_; k < n_; ++k) {
    if (apply_row(k - t_ + 1, ys) != ys[static_cast<std::size_t>(k)]) return std::nullopt;
  }
  return apply_row(0, ys);
}

}  // namespace fle

#include "core/random_function.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/rng.h"

namespace fle {

namespace {

// Chained mixing: every input is bound to its position (tag j + 1, with a
// salt per input kind) so that permuted inputs hash differently, and the
// key separates function instances.
constexpr std::uint64_t kKeySalt = 0xa076'1d64'78bd'642full;
constexpr std::uint64_t kDataSalt = 0x517c'c1b7'2722'0a95ull;
constexpr std::uint64_t kValidationSalt = 0x2545'f491'4f6c'dd1dull;

/// Attempts first_preimage() moves through the chain together.
constexpr std::size_t kBatch = 8;

/// Input j's own term; it does not depend on the chain state.
inline std::uint64_t input_term(std::size_t j, std::size_t n, Value value) {
  return mix64(value + (j < n ? kDataSalt : kValidationSalt) * (j + 1));
}

/// One chain step: fold an input's term into the running state.
inline std::uint64_t chain(std::uint64_t h, std::uint64_t term) { return mix64(h ^ term); }

/// The chain state after inputs [0, end).
std::uint64_t chain_prefix(std::uint64_t key, std::span<const Value> data,
                           std::span<const Value> validation, std::size_t end) {
  const std::size_t n = data.size();
  std::uint64_t h = mix64(key ^ kKeySalt);
  for (std::size_t j = 0; j < std::min(end, n); ++j) h = chain(h, input_term(j, n, data[j]));
  for (std::size_t j = n; j < end; ++j) h = chain(h, input_term(j, n, validation[j - n]));
  return h;
}

}  // namespace

RandomFunction::RandomFunction(std::uint64_t key, int n, Value m, int l)
    : key_(key), n_(n), m_(m), l_(l) {
  assert(n_ >= 2);
  assert(l_ >= 0 && l_ < n_);
  assert(m_ >= 1);
}

Value RandomFunction::evaluate(std::span<const Value> data,
                               std::span<const Value> validation) const {
  assert(static_cast<int>(data.size()) == n_);
  assert(static_cast<int>(validation.size()) == n_ - l_);
  // Final draw in [0, n).  A plain mod keeps evaluation cheap; the bias is
  // 2^-64 * n, far below anything our statistics can see.
  return chain_prefix(key_, data, validation, data.size() + validation.size()) %
         static_cast<std::uint64_t>(n_);
}

std::optional<std::uint64_t> RandomFunction::first_preimage(
    std::span<const Value> data, std::span<const Value> validation,
    std::span<const std::size_t> free_inputs, std::uint64_t radix, std::uint64_t attempts,
    Value target) const {
  assert(static_cast<int>(data.size()) == n_);
  assert(static_cast<int>(validation.size()) == n_ - l_);
  if (radix == 0) throw std::invalid_argument("first_preimage: radix must be positive");
  const std::size_t n = data.size();
  const std::size_t inputs = n + validation.size();
  std::size_t lo = inputs;  // the lowest free input
  for (const std::size_t j : free_inputs) {
    if (j >= inputs) throw std::invalid_argument("first_preimage: free input out of range");
    lo = std::min(lo, j);
  }
  // digit_of[j - lo]: the digit free input j takes, or -1 for a fixed input.
  std::vector<std::ptrdiff_t> digit_of(inputs - lo, -1);
  for (std::size_t i = 0; i < free_inputs.size(); ++i) {
    std::ptrdiff_t& digit = digit_of[free_inputs[i] - lo];
    if (digit >= 0) throw std::invalid_argument("first_preimage: repeated free input");
    digit = static_cast<std::ptrdiff_t>(i);
  }

  // Attempt a and a + radix^|free| set every free input alike, so the
  // search stops at the smaller of the two bounds.
  std::uint64_t space = 1;
  for (std::size_t i = 0; i < free_inputs.size() && space < attempts; ++i) {
    space = space > std::numeric_limits<std::uint64_t>::max() / radix
                ? std::numeric_limits<std::uint64_t>::max()
                : space * radix;
  }
  const std::uint64_t bound = std::min(attempts, space);

  // Everything before the lowest free input is hashed once, and every
  // fixed input after it contributes the same term to every attempt.
  const std::uint64_t h0 = chain_prefix(key_, data, validation, lo);
  std::vector<std::uint64_t> terms(inputs - lo);
  for (std::size_t j = lo; j < inputs; ++j) {
    terms[j - lo] = input_term(j, n, j < n ? data[j] : validation[j - n]);
  }

  std::vector<std::uint64_t> digits(free_inputs.size());
  std::vector<std::array<std::uint64_t, kBatch>> lane_digits(free_inputs.size());
  const auto modulus = static_cast<std::uint64_t>(n_);
  for (std::uint64_t first = 0; first < bound;) {
    // Lane b tries attempt first + b: decode the first attempt's digits,
    // then count up.
    std::uint64_t a = first;
    for (std::uint64_t& d : digits) {
      d = a % radix;
      a /= radix;
    }
    for (std::size_t b = 0; b < kBatch; ++b) {
      for (std::size_t i = 0; i < digits.size(); ++i) lane_digits[i][b] = digits[i];
      for (std::size_t i = 0; i < digits.size() && ++digits[i] == radix; ++i) digits[i] = 0;
    }

    std::array<std::uint64_t, kBatch> h;
    h.fill(h0);
    for (std::size_t j = lo; j < inputs; ++j) {
      const std::ptrdiff_t digit = digit_of[j - lo];
      if (digit < 0) {
        for (std::uint64_t& x : h) x = chain(x, terms[j - lo]);
      } else {
        const auto& values = lane_digits[static_cast<std::size_t>(digit)];
        for (std::size_t b = 0; b < kBatch; ++b) h[b] = chain(h[b], input_term(j, n, values[b]));
      }
    }

    const std::uint64_t count = std::min<std::uint64_t>(kBatch, bound - first);
    for (std::size_t b = 0; b < count; ++b) {
      if (h[b] % modulus == target) return first + b;
    }
    first += count;
  }
  return std::nullopt;
}

int RandomFunction::default_l(int n) {
  const int l = static_cast<int>(std::ceil(10.0 * std::sqrt(static_cast<double>(n))));
  if (l >= n) return n - 1;  // small-ring clamp (DESIGN.md §2)
  if (l < 1) return 1;
  return l;
}

Value RandomFunction::default_m(int n) {
  return 2ull * static_cast<Value>(n) * static_cast<Value>(n);
}

}  // namespace fle

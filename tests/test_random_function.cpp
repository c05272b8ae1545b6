// The random function f (Section 6): domain handling, determinism,
// statistical behaviour (uniform outputs, avalanche on single entries),
// pinned values, and the preimage search the phase attacks rely on, held to
// a serial evaluate() loop.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/random_function.h"
#include "core/rng.h"

namespace fle {
namespace {

std::vector<Value> random_vector(Xoshiro256& rng, int len, Value bound) {
  std::vector<Value> v(static_cast<std::size_t>(len));
  for (auto& x : v) x = rng.below(bound);
  return v;
}

TEST(RandomFunction, Deterministic) {
  const int n = 16;
  RandomFunction f(42, n, RandomFunction::default_m(n), 4);
  Xoshiro256 rng(1);
  const auto d = random_vector(rng, n, n);
  const auto v = random_vector(rng, n - 4, RandomFunction::default_m(n));
  EXPECT_EQ(f.evaluate(d, v), f.evaluate(d, v));
}

TEST(RandomFunction, KeySeparatesInstances) {
  const int n = 16;
  RandomFunction f1(1, n, 512, 4), f2(2, n, 512, 4);
  Xoshiro256 rng(3);
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    const auto d = random_vector(rng, n, n);
    const auto v = random_vector(rng, n - 4, 512);
    if (f1.evaluate(d, v) != f2.evaluate(d, v)) ++differing;
  }
  EXPECT_GT(differing, 150);
}

TEST(RandomFunction, OutputInRange) {
  const int n = 11;
  RandomFunction f(9, n, 242, 3);
  Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto d = random_vector(rng, n, n);
    const auto v = random_vector(rng, n - 3, 242);
    EXPECT_LT(f.evaluate(d, v), static_cast<Value>(n));
  }
}

TEST(RandomFunction, OutputsRoughlyUniform) {
  const int n = 8;
  RandomFunction f(77, n, 128, 2);
  Xoshiro256 rng(6);
  std::vector<int> counts(static_cast<std::size_t>(n), 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    const auto d = random_vector(rng, n, n);
    const auto v = random_vector(rng, n - 2, 128);
    ++counts[f.evaluate(d, v)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / 8.0, 6.0 * std::sqrt(trials / 8.0));
  }
}

TEST(RandomFunction, SingleEntryAvalanche) {
  // Changing one data entry re-randomizes the output: Pr[same] ~ 1/n.
  const int n = 64;
  RandomFunction f(123, n, RandomFunction::default_m(n), 10);
  Xoshiro256 rng(7);
  int same = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    auto d = random_vector(rng, n, n);
    const auto v = random_vector(rng, n - 10, RandomFunction::default_m(n));
    const Value before = f.evaluate(d, v);
    d[static_cast<std::size_t>(rng.below(n))] ^= 1;
    if (f.evaluate(d, v) == before) ++same;
  }
  EXPECT_LT(same, trials / 16);  // well below coincidence-heavy behaviour
}

TEST(RandomFunction, PositionSensitivity) {
  // Swapping two distinct entries changes the output (inputs are
  // index-bound, not multiset-hashed).
  const int n = 10;
  RandomFunction f(5, n, 200, 2);
  Xoshiro256 rng(8);
  int same = 0;
  for (int i = 0; i < 300; ++i) {
    auto d = random_vector(rng, n, n);
    d[0] = 1;
    d[1] = 2;
    const auto v = random_vector(rng, n - 2, 200);
    const Value before = f.evaluate(d, v);
    std::swap(d[0], d[1]);
    if (f.evaluate(d, v) == before) ++same;
  }
  EXPECT_LT(same, 60);
}

TEST(RandomFunction, EvaluatePinned) {
  // f's values on fixed instances, at sizes the paper tables run (n=36 has
  // the clamped l = n-1).  Any change to the chain's constants or order
  // moves them.
  struct Pin {
    int n;
    std::vector<Value> outputs;
  };
  const std::vector<Pin> pins = {
      {36, {14, 28, 16, 12, 23, 22, 20, 4}},
      {100, {95, 35, 87, 30, 25, 18, 85, 14}},
      {400, {90, 272, 214, 222, 381, 196, 67, 162}},
      {529, {273, 488, 369, 5, 390, 408, 349, 298}},
  };
  for (const Pin& pin : pins) {
    const int n = pin.n;
    const int l = RandomFunction::default_l(n);
    const Value m = RandomFunction::default_m(n);
    RandomFunction f(0xf00dull + n, n, m, l);
    Xoshiro256 rng(static_cast<std::uint64_t>(n));
    std::vector<Value> outputs;
    for (int i = 0; i < 8; ++i) {
      const auto d = random_vector(rng, n, n);
      const auto v = random_vector(rng, n - l, m);
      outputs.push_back(f.evaluate(d, v));
    }
    EXPECT_EQ(outputs, pin.outputs) << "n=" << n;
  }
}

TEST(RandomFunction, PreimageSearchHitsTargets) {
  // The phase-rushing adversary's core step: with 2 free entries and a
  // budget of 8n attempts, a preimage for any target exists w.h.p.
  const int n = 32;
  RandomFunction f(321, n, RandomFunction::default_m(n), 8);
  Xoshiro256 rng(9);
  const std::size_t free_inputs[] = {3, 7};
  int hits = 0;
  const int cases = 100;
  for (int c = 0; c < cases; ++c) {
    const auto d = random_vector(rng, n, n);
    const auto v = random_vector(rng, n - 8, RandomFunction::default_m(n));
    const Value target = rng.below(n);
    hits += f.first_preimage(d, v, free_inputs, n, 8ull * n, target).has_value() ? 1 : 0;
  }
  EXPECT_GE(hits, 95);
}

/// The oracle first_preimage() must agree with: set the free inputs to the
/// digits of every attempt in turn and evaluate f in full.
std::optional<std::uint64_t> serial_preimage(const RandomFunction& f, std::vector<Value> d,
                                             std::vector<Value> v,
                                             std::span<const std::size_t> free_inputs,
                                             std::uint64_t radix, std::uint64_t attempts,
                                             Value target) {
  for (std::uint64_t attempt = 0; attempt < attempts; ++attempt) {
    std::uint64_t a = attempt;
    for (const std::size_t j : free_inputs) {
      (j < d.size() ? d[j] : v[j - d.size()]) = a % radix;
      a /= radix;
    }
    if (f.evaluate(d, v) == target) return attempt;
  }
  return std::nullopt;
}

TEST(RandomFunction, FirstPreimageMatchesSerialSearch) {
  const int n = 16;
  const int l = 4;  // 16 data + 12 validation inputs
  const Value m = RandomFunction::default_m(n);
  const std::vector<std::vector<std::size_t>> free_sets = {
      {5, 6, 7},            // contiguous
      {1, 0, 15},           // descending, wrapping past position n-1
      {15, 0},              // the wrap alone
      {27},                 // a single validation input: f's last
      {19},                 // a single validation input mid-chain
      {3, 20},              // data and validation
      {},                   // nothing free: one attempt, f itself
  };
  Xoshiro256 rng(11);
  int found = 0;
  int missed = 0;
  for (int instance = 0; instance < 6; ++instance) {
    RandomFunction f(0x5eedull + instance, n, m, l);
    const auto d = random_vector(rng, n, n);
    const auto v = random_vector(rng, n - l, m);
    for (const auto& free_inputs : free_sets) {
      for (const std::uint64_t radix : {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{16}}) {
        std::uint64_t space = 1;
        for (std::size_t i = 0; i < free_inputs.size(); ++i) space *= radix;
        // Below, at and above radix^|free|, and counts that are not a
        // multiple of the batch width.
        for (const std::uint64_t attempts :
             {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{9},
              space - 1, space, space + 5, 3 * space + 13}) {
          for (const Value target : {rng.below(n), rng.below(n), Value{n}}) {
            const auto expected = serial_preimage(f, d, v, free_inputs, radix, attempts, target);
            EXPECT_EQ(f.first_preimage(d, v, free_inputs, radix, attempts, target), expected)
                << "instance " << instance << " |free| " << free_inputs.size() << " radix "
                << radix << " attempts " << attempts << " target " << target;
            (expected ? found : missed) += 1;
          }
        }
      }
    }
  }
  // Both outcomes are exercised; the unreachable target n never hits.
  EXPECT_GT(found, 500);
  EXPECT_GT(missed, 500);
}

TEST(RandomFunction, FirstPreimageSaturatesTheAssignmentCount) {
  // 20 free inputs of radix 16 span 2^80 assignments: the product saturates
  // instead of wrapping, so the search runs its full budget.
  const int n = 32;
  RandomFunction f(0xa11ull, n, RandomFunction::default_m(n), 6);
  Xoshiro256 rng(12);
  std::vector<std::size_t> free_inputs;
  for (std::size_t j = 4; j < 24; ++j) free_inputs.push_back(j);
  for (int c = 0; c < 20; ++c) {
    const auto d = random_vector(rng, n, n);
    const auto v = random_vector(rng, n - 6, RandomFunction::default_m(n));
    const Value target = rng.below(n);
    EXPECT_EQ(f.first_preimage(d, v, free_inputs, 16, 301, target),
              serial_preimage(f, d, v, free_inputs, 16, 301, target));
    EXPECT_EQ(f.first_preimage(d, v, free_inputs, 16, 301, Value{n}), std::nullopt);
    // An unbounded budget still stops at the first hit.
    EXPECT_EQ(f.first_preimage(d, v, free_inputs, 16,
                               std::numeric_limits<std::uint64_t>::max(), target),
              serial_preimage(f, d, v, free_inputs, 16, 100000, target));
  }
}

TEST(RandomFunction, FirstPreimageRejectsBadFreeInputs) {
  const int n = 8;
  RandomFunction f(1, n, RandomFunction::default_m(n), 2);
  const std::vector<Value> d(8, 0);
  const std::vector<Value> v(6, 0);
  const std::size_t in_range[] = {0, 13};
  const std::size_t out_of_range[] = {2, 14};
  const std::size_t repeated[] = {5, 1, 5};
  EXPECT_THROW((void)f.first_preimage(d, v, in_range, 0, 10, 1), std::invalid_argument);
  EXPECT_THROW((void)f.first_preimage(d, v, out_of_range, 8, 10, 1), std::invalid_argument);
  EXPECT_THROW((void)f.first_preimage(d, v, repeated, 8, 10, 1), std::invalid_argument);
  EXPECT_NO_THROW((void)f.first_preimage(d, v, in_range, 8, 10, 1));
}

TEST(RandomFunction, DefaultsMatchPaper) {
  EXPECT_EQ(RandomFunction::default_m(100), 20000u);
  EXPECT_EQ(RandomFunction::default_l(100), 99);   // clamped: 10*sqrt(100)=100 >= n
  EXPECT_EQ(RandomFunction::default_l(400), 200);  // unclamped
  EXPECT_EQ(RandomFunction::default_l(10000), 1000);
}

}  // namespace
}  // namespace fle

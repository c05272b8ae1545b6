#pragma once
// Deterministic randomness substrate.
//
// The paper gives every processor an infinite random input string and lets it
// act deterministically (Section 2).  We reproduce that with per-processor
// xoshiro256** streams derived from a single trial seed, so every execution
// is replayable bit-for-bit.

#include <cstdint>
#include <span>

#include "core/types.h"

namespace fle {

/// SplitMix64 step; also used as a standalone 64-bit finalizer/mixer.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One-shot strong 64-bit mix (stateless splitmix64 finalizer).
inline std::uint64_t mix64(std::uint64_t x) { return splitmix64(x); }

/// xoshiro256** PRNG.  Small, fast, and plenty for simulation workloads.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed);

  std::uint64_t next();

  /// Uniform value in [0, bound) via Lemire-style rejection (bound > 0).
  std::uint64_t below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli(p).
  bool bernoulli(double p) { return uniform01() < p; }

  // UniformRandomBitGenerator interface, for <random>/<algorithm> interop.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

 private:
  std::uint64_t s_[4];
};

/// A processor's private random tape (paper: "infinite random string").
/// Derived deterministically from (trial seed, processor id).
class RandomTape {
 public:
  RandomTape(std::uint64_t trial_seed, ProcessorId owner)
      : rng_(mix64(trial_seed ^
                   mix64(0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(owner)))) {}

  /// Uniform draw from [0, bound) — the paper's Uniform([n]) / Uniform([m]).
  Value uniform(Value bound) { return rng_.below(bound); }

  /// The underlying stream, for strategies that draw more than uniform()
  /// offers (e.g. Shamir-LEAD's polynomial coefficients).
  Xoshiro256& raw() { return rng_; }

 private:
  Xoshiro256 rng_;
};

/// Fills `ids` with a uniformly shuffled permutation of 0..ids.size()-1
/// drawn from Xoshiro256(seed): the per-trial logical-id table of the
/// comparison-based protocols.  ChangRobertsProtocol::random, its lane
/// kernel and its closed form (and PetersonProtocol::random) all draw
/// through here, so their tables agree bit for bit.
void shuffled_ids(std::span<Value> ids, std::uint64_t seed);

}  // namespace fle

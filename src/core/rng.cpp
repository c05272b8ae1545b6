#include "core/rng.h"

#include <algorithm>
#include <numeric>

namespace fle {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  // Seed the state with splitmix64 per the xoshiro authors' recommendation.
  std::uint64_t s = seed;
  for (auto& w : s_) w = splitmix64(s);
}

std::uint64_t Xoshiro256::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256::below(std::uint64_t bound) {
  // Unbiased bounded draw by rejection on the top of the range.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Xoshiro256::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void shuffled_ids(std::span<Value> ids, std::uint64_t seed) {
  std::iota(ids.begin(), ids.end(), Value{0});
  Xoshiro256 rng(seed);
  std::shuffle(ids.begin(), ids.end(), rng);
}

}  // namespace fle

#include "sim/digest.h"

#include <algorithm>
#include <cstring>

// The hardware block function needs x86-64 and the GNU target attribute.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLE_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace fle {

namespace {

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu, 0x59f111f1u,
    0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
    0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u, 0xe49b69c1u, 0xefbe4786u,
    0x0fc19dc6u, 0x240ca1ccu, 0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
    0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
    0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u, 0xa2bfe8a1u, 0xa81a664bu,
    0xc24b8b70u, 0xc76c51a3u, 0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
    0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au,
    0x5b9cca4fu, 0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

std::uint32_t rotr(std::uint32_t value, int bits) {
  return (value >> bits) | (value << (32 - bits));
}

#ifdef FLE_SHA256_X86
// The CPUID bits the hardware path needs: SSSE3 and SSE4.1 (leaf 1, ecx)
// and SHA (leaf 7 subleaf 0, ebx).
constexpr unsigned kCpuidSsse3 = 1u << 9;
constexpr unsigned kCpuidSse41 = 1u << 19;
constexpr unsigned kCpuidSha = 1u << 29;

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & kCpuidSsse3) == 0 || (ecx & kCpuidSse41) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & kCpuidSha) != 0;
}

/// Rounds 4G..4G+3 of one block on the SHA extensions.  w[G & 3] holds the
/// message words W[4G..4G+3]; the schedule computes W four words at a time
/// into the slot whose words are no longer needed: msg1 starts W[4(G+3)..]
/// in the slot of W[4(G-1)..], and msg2 completes W[4(G+1)..].
template <int G>
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void hardware_rounds(
    __m128i (&w)[4], __m128i& abef, __m128i& cdgh) {
  const __m128i cur = w[G & 3];
  const __m128i wk = _mm_add_epi32(
      cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound.data() + 4 * G)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  if constexpr (G >= 3 && G <= 14) {
    __m128i& next = w[(G + 1) & 3];
    next = _mm_sha256msg2_epu32(
        _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(G + 3) & 3], 4)), cur);
  }
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
  if constexpr (G >= 1 && G <= 12) {
    __m128i& later = w[(G + 3) & 3];
    later = _mm_sha256msg1_epu32(later, cur);
  }
}

__attribute__((target("sha,sse4.1,ssse3"))) void hardware_blocks(std::uint32_t* state,
                                                                 const std::uint8_t* data,
                                                                 std::size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  // The round instruction keeps the state as two vectors, (a, b, e, f) and
  // (c, d, g, h), highest lane first.
  const __m128i badc = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xb1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(badc, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, badc, 0xf0);
  for (; blocks != 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), byte_swap);
    }
    hardware_rounds<0>(w, abef, cdgh);
    hardware_rounds<1>(w, abef, cdgh);
    hardware_rounds<2>(w, abef, cdgh);
    hardware_rounds<3>(w, abef, cdgh);
    hardware_rounds<4>(w, abef, cdgh);
    hardware_rounds<5>(w, abef, cdgh);
    hardware_rounds<6>(w, abef, cdgh);
    hardware_rounds<7>(w, abef, cdgh);
    hardware_rounds<8>(w, abef, cdgh);
    hardware_rounds<9>(w, abef, cdgh);
    hardware_rounds<10>(w, abef, cdgh);
    hardware_rounds<11>(w, abef, cdgh);
    hardware_rounds<12>(w, abef, cdgh);
    hardware_rounds<13>(w, abef, cdgh);
    hardware_rounds<14>(w, abef, cdgh);
    hardware_rounds<15>(w, abef, cdgh);
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

/// Byte b's two lowercase hex digits at [2b, 2b + 1].
constexpr std::array<char, 512> kHexPairs = [] {
  constexpr char kDigits[] = "0123456789abcdef";
  std::array<char, 512> pairs{};
  for (std::size_t b = 0; b < 256; ++b) {
    pairs[2 * b] = kDigits[b >> 4];
    pairs[2 * b + 1] = kDigits[b & 0xf];
  }
  return pairs;
}();

/// Each character's hex value, either case, or -1.
constexpr std::array<std::int8_t, 256> kHexValues = [] {
  std::array<std::int8_t, 256> values{};
  values.fill(-1);
  for (int c = 0; c < 10; ++c) values['0' + c] = static_cast<std::int8_t>(c);
  for (int c = 0; c < 6; ++c) {
    values['a' + c] = static_cast<std::int8_t>(10 + c);
    values['A' + c] = static_cast<std::int8_t>(10 + c);
  }
  return values;
}();

}  // namespace

void append_hex(std::string& out, std::span<const std::uint8_t> bytes) {
  const std::size_t at = out.size();
  out.resize(at + 2 * bytes.size());
  char* hex = out.data() + at;
  for (const std::uint8_t byte : bytes) {
    std::memcpy(hex, &kHexPairs[2 * std::size_t{byte}], 2);
    hex += 2;
  }
}

std::size_t decode_hex(std::string_view hex, std::span<std::uint8_t> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int high = kHexValues[static_cast<unsigned char>(hex[2 * i])];
    const int low = kHexValues[static_cast<unsigned char>(hex[2 * i + 1])];
    if (high < 0) return 2 * i;
    if (low < 0) return 2 * i + 1;
    out[i] = static_cast<std::uint8_t>((high << 4) | low);
  }
  return 2 * out.size();
}

std::string Digest256::hex() const {
  std::string out;
  append_hex(out, bytes);
  return out;
}

std::optional<Digest256> Digest256::from_hex(std::string_view text) {
  Digest256 out;
  if (text.size() != 2 * out.bytes.size() || decode_hex(text, out.bytes) != text.size()) {
    return std::nullopt;
  }
  return out;
}

void sha256_portable_blocks(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks) {
  for (; blocks != 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Blocks sha256_hardware_blocks() {
#ifdef FLE_SHA256_X86
  static const bool supported = cpu_has_sha_extensions();
  return supported ? hardware_blocks : nullptr;
#else
  return nullptr;
#endif
}

Sha256::Sha256()
    : Sha256([] {
        const Sha256Blocks hardware = sha256_hardware_blocks();
        return hardware != nullptr ? hardware : sha256_portable_blocks;
      }()) {}

void Sha256::reset() {
  state_ = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
            0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::update(const void* data, std::size_t size) {
  if (size == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bytes_ += size;
  if (buffered_ != 0) {
    const std::size_t take = std::min(size, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    size -= take;
    if (buffered_ < buffer_.size()) return;
    blocks_(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  if (size >= 64) {
    blocks_(state_.data(), bytes, size / 64);
    bytes += size & ~std::size_t{63};
    size &= 63;
  }
  if (size != 0) {
    std::memcpy(buffer_.data(), bytes, size);
    buffered_ = size;
  }
}

Digest256 Sha256::finish() {
  // The padding is one update: 0x80, zeros up to 56 mod 64, then the
  // message length in bits, big-endian.
  const std::uint64_t bit_length = total_bytes_ * 8;
  std::uint8_t pad[72] = {0x80};
  const std::size_t length_at = buffered_ < 56 ? 56 - buffered_ : 120 - buffered_;
  for (int i = 0; i < 8; ++i) {
    pad[length_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  update(pad, length_at + 8);
  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  reset();
  return out;
}

Digest256 Sha256::of(std::span<const std::uint8_t> bytes) {
  Sha256 hasher;
  hasher.update(bytes);
  return hasher.finish();
}

Digest256 Sha256::of_string(std::string_view text) {
  Sha256 hasher;
  hasher.update(text.data(), text.size());
  return hasher.finish();
}

}  // namespace fle

#pragma once
// The content digest used at the transcript-store boundary.
//
// A transcript's canonical FLET bytes are its execution's fingerprint
// (sim/transcript.h): two transcripts are equal when their bytes are.  The
// content-addressed store (src/store/) keys deduplicated transcript blobs
// by a hash of those bytes and folds child hashes into inner-node hashes,
// where a 64-bit non-cryptographic fold would be too weak: a colliding
// pair of blobs would silently alias two different executions under one
// store key, and a sync() between two stores would report them identical.
// The store boundary therefore uses SHA-256 (the same choice rippled's
// SHAMap makes for its "rapid synchronization" trees): 256-bit keys make
// accidental and adversarial collisions equally irrelevant, and the
// implementation has no external dependency.
//
// A transcript is hashed only where its bytes cross a trust boundary (a
// fabric worker's keys for its row, RemoteExecutor's check of a shipped
// blob, a shard row's store_keys check); the key then travels with the decoded
// transcript (ExecutionTranscript's keyed decode), so later stages read
// it instead of hashing again.
//
// Two block functions compress the 64-byte blocks.  On x86-64 CPUs with
// the SHA extensions (CPUID leaf 7, with SSSE3 and SSE4.1) the hardware
// one runs the sha256rnds2/msg1/msg2 instructions; CPUID is read once per
// process, on the first hash, and picks it for every default-built Sha256.  Everywhere
// else the portable FIPS 180-4 function runs.  The portable function is
// also the reference: Sha256.HardwareBlocksMatchPortable holds the
// hardware path to it on every length up to 1,024 bytes and every update
// split.  Both produce the same bytes, so nothing about a digest says which
// path made it.

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace fle {

/// Appends the lowercase hex of `bytes` to `out`, two digits per byte,
/// from a table of digit pairs.
void append_hex(std::string& out, std::span<const std::uint8_t> bytes);

/// Decodes the first 2 * out.size() characters of `hex` (digits of either
/// case, through a 256-entry table) into `out`.  Returns the position of
/// the first character that is not a hex digit, or 2 * out.size() when
/// every one was.  `hex` must hold at least 2 * out.size() characters.
std::size_t decode_hex(std::string_view hex, std::span<std::uint8_t> out);

/// A 256-bit digest value: the store's blob key and tree-node hash.
struct Digest256 {
  std::array<std::uint8_t, 32> bytes{};

  friend bool operator==(const Digest256&, const Digest256&) = default;
  friend std::strong_ordering operator<=>(const Digest256& a, const Digest256& b) {
    return a.bytes <=> b.bytes;
  }

  [[nodiscard]] bool is_zero() const {
    for (const std::uint8_t byte : bytes) {
      if (byte != 0) return false;
    }
    return true;
  }

  /// 64 lowercase hex characters.
  [[nodiscard]] std::string hex() const;

  /// Parses 64 hex characters (either case).  Returns nullopt on any other
  /// length or a non-hex character.
  static std::optional<Digest256> from_hex(std::string_view text);
};

/// A SHA-256 block function: folds `blocks` consecutive 64-byte blocks at
/// `data` into the eight state words.
using Sha256Blocks = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

/// The portable FIPS 180-4 block function: the only path on CPUs without
/// the SHA extensions, and the reference the hardware path is tested
/// against.
void sha256_portable_blocks(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);

/// The block function on the x86 SHA extensions, or null where this CPU
/// (or a non-x86-64 build) lacks them.  CPUID is read on the first call
/// only.
Sha256Blocks sha256_hardware_blocks();

/// Incremental SHA-256 (FIPS 180-4).  update() may be called any number of
/// times; finish() pads, finalizes and leaves the object unusable until the
/// next reset().
class Sha256 {
 public:
  /// Compresses with the hardware block function where the CPU has one,
  /// and with the portable one otherwise.
  Sha256();
  /// Compresses with `blocks`, so a test can run either path.
  explicit Sha256(Sha256Blocks blocks) : blocks_(blocks) { reset(); }

  void reset();
  /// Whole 64-byte blocks go to the block function in one call per update.
  void update(const void* data, std::size_t size);
  void update(std::span<const std::uint8_t> bytes) { update(bytes.data(), bytes.size()); }
  [[nodiscard]] Digest256 finish();

  /// One-shot convenience.
  static Digest256 of(std::span<const std::uint8_t> bytes);
  static Digest256 of_string(std::string_view text);

 private:
  Sha256Blocks blocks_;
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

}  // namespace fle

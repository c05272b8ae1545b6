#pragma once
// The strengthened content digest used at the transcript-store boundary.
//
// The in-loop transcript fingerprint stays the order-sensitive 64-bit
// FNV-1a fold (sim/transcript.h) — one xor+mul per word is what keeps
// recording allocation- and branch-cheap on the trial hot path.  But the
// content-addressed store (src/store/) keys deduplicated transcript blobs
// by hash and folds child hashes into inner-node hashes, where a 64-bit
// non-cryptographic fold is too weak: a colliding pair of blobs would
// silently alias two different executions under one store key, and a
// sync() between two stores would report them identical.  The store
// boundary therefore uses SHA-256 (the same choice rippled's SHAMap makes
// for its "rapid synchronization" trees): 256-bit keys make accidental
// and adversarial collisions equally irrelevant, and the implementation
// below is the plain FIPS 180-4 compression function with no external
// dependency.
//
// A transcript is hashed only where its bytes cross a trust boundary (a
// fabric worker's keys for its row, RemoteExecutor's check of a shipped
// blob, a shard row's store_keys check); the key then travels with the decoded
// transcript (ExecutionTranscript's keyed decode), so later stages read
// it instead of hashing again.

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace fle {

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

/// Incremental SHA-256 (FIPS 180-4).  update() may be called any number of
/// times; finish() pads, finalizes and leaves the object unusable until the
/// next reset().
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(const void* data, std::size_t size);
  void update(std::span<const std::uint8_t> bytes) { update(bytes.data(), bytes.size()); }
  [[nodiscard]] Digest256 finish();

  /// One-shot convenience.
  static Digest256 of(std::span<const std::uint8_t> bytes);
  static Digest256 of_string(std::string_view text);

 private:
  void compress(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

}  // namespace fle

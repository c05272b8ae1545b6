#pragma once
// Unified execution transcripts: one observation stream over every runtime.
//
// The paper's fairness and resilience arguments are statements about
// *executions* — which messages were delivered in which order, whose turn
// it was, when processors decided (Yifrach–Mansour §2's oblivious-schedule
// equivalence, the Lemma D.3/D.5 synchronization envelopes, the turn-game
// results of Section 7 / Appendix F).  An ExecutionTranscript is the
// runtime-independent record of one execution as a flat event stream:
//
//   kDelivery  a = step index      b = receiver (ring) / link id (graph)
//              c = message value (ring) / payload fold (graph, sync)
//   kTurn      a = turn index      b = mover          c = action
//   kPhase     a = round/phase     b = deliveries     c = 0 (round marker)
//   kDecision  a = actor           b = aborted (0/1)  c = output value
//
// Two executions are THE SAME execution iff their transcripts are equal
// event for event; every replay check in verify/differential reduces to
// that comparison.  Each runtime records into the stream through a raw
// pointer hook (null = disabled, one predicted branch on the hot path — the
// ring path stays allocation-free with recording off, test_alloc_free.cpp).
//
// Modes: kFull holds the execution as its canonical FLET bytes (below):
// record() appends each event to them, and they are the record itself, the
// bytes the fabric ships, a shard row hexes and the store keeps, so no
// consumer re-encodes a transcript; events() decodes on demand.  kDigest
// keeps only a running FNV-1a fold and the event count — the cheap
// fingerprint the trace-determinism check (verify/differential.h) compares
// fresh and reused engines by.  Both modes maintain the digest, so a kDigest
// transcript can always be compared against a kFull one.  The transcript is
// the only execution fingerprint in the system.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/digest.h"
#include "sim/scheduler.h"

namespace fle {

enum class TranscriptMode : std::uint8_t {
  kFull,    ///< store every event (replayable, encodable)
  kDigest,  ///< running FNV fold + event count only
};

enum class TranscriptEventKind : std::uint8_t {
  kDelivery = 0,
  kTurn = 1,
  kPhase = 2,
  kDecision = 3,
};

const char* to_string(TranscriptEventKind kind);

struct TranscriptEvent {
  TranscriptEventKind kind = TranscriptEventKind::kDelivery;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  friend bool operator==(const TranscriptEvent&, const TranscriptEvent&) = default;
};

/// One-line rendering with kind-specific field names — e.g.
/// "delivery step=3 receiver=1 value=7" — used by fle_verify
/// --dump-transcript and fle_store cat/diff.
std::string format_event(const TranscriptEvent& event);

/// The LEB128 varint codec the transcript encoding is built on, exposed so
/// the fabric wire protocol (src/fabric/wire.h) and the store (src/store/)
/// use the identical primitive.  leb128_put writes the minimal encoding;
/// leb128_get accepts only that: it throws std::invalid_argument on a
/// truncated, 64-bit-overflowing or overlong varint (a multi-byte varint
/// whose last byte is 0, such as 81 00 for 1), and advances `index` past
/// the bytes it consumed.  Every accepted input therefore re-encodes to
/// exactly its own bytes.
void leb128_put(std::vector<std::uint8_t>& out, std::uint64_t value);
std::uint64_t leb128_get(std::span<const std::uint8_t> bytes, std::size_t& index);

/// FNV-1a fold of a word sequence; the payload fingerprint graph/sync
/// deliveries carry in their `c` slot (messages there are value vectors).
std::uint64_t transcript_fold(std::span<const std::uint64_t> words);

class ExecutionTranscript {
 public:
  explicit ExecutionTranscript(TranscriptMode mode = TranscriptMode::kFull)
      : mode_(mode) {}

  [[nodiscard]] TranscriptMode mode() const { return mode_; }

  /// Drops all recorded events and restarts the digest.  Storage capacity
  /// is kept, so a reused transcript reaches an allocation-free steady
  /// state just like the engines it observes.
  void clear();

  /// Appends one event: always folds it into the digest, appends its bytes
  /// in kFull mode.
  void record(TranscriptEventKind kind, std::uint64_t a, std::uint64_t b, std::uint64_t c);

  // Typed helpers, one per event kind.
  void delivery(std::uint64_t step, std::uint64_t receiver, std::uint64_t value) {
    record(TranscriptEventKind::kDelivery, step, receiver, value);
  }
  void turn(std::uint64_t index, std::uint64_t mover, std::uint64_t action) {
    record(TranscriptEventKind::kTurn, index, mover, action);
  }
  void phase(std::uint64_t round, std::uint64_t deliveries) {
    record(TranscriptEventKind::kPhase, round, deliveries, 0);
  }
  void decision(std::uint64_t actor, bool aborted, std::uint64_t output) {
    record(TranscriptEventKind::kDecision, actor, aborted ? 1 : 0, output);
  }

  /// Order-sensitive FNV-1a digest over every recorded event (both modes).
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  /// Events recorded since the last clear() (both modes).
  [[nodiscard]] std::uint64_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// The recorded stream, decoded from bytes() on each call; empty in
  /// kDigest mode.
  [[nodiscard]] std::vector<TranscriptEvent> events() const;

  /// The held canonical bytes (kFull only; throws std::logic_error in
  /// digest mode): a 'F','L','E','T' magic, the event count as a LEB128
  /// varint, then per event one kind byte and three LEB128 varints, every
  /// varint minimal.  The view is valid until the next record(), clear()
  /// or assignment.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const;
  /// A copy of bytes(), allocated at exactly its size.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Accepts exactly the bytes a kFull transcript holds: a scan that
  /// allocates nothing refuses any other input with std::invalid_argument
  /// (bad magic, truncation, an overflowing or overlong varint, an unknown
  /// kind, trailing bytes) and recomputes the digest and count; the
  /// accepted bytes are then copied in once.  So decode(b).bytes() equals
  /// b, and round-tripping preserves digest, count and events.
  static ExecutionTranscript decode(std::span<const std::uint8_t> bytes);
  /// Keyed decode, for bytes that arrive with their content key (a shipped
  /// fabric blob, a shard row's store_keys entry): throws
  /// std::invalid_argument unless Sha256::of(bytes) == key, then decodes,
  /// and the result carries `key`.  Sound because decode accepts only the
  /// canonical bytes: the key of the accepted bytes is the key of the
  /// transcript.
  static ExecutionTranscript decode(std::span<const std::uint8_t> bytes, const Digest256& key);

  /// SHA-256 of bytes() — the content-addressed store key (src/store/).
  /// The in-loop FNV fold stays the cheap fingerprint; this strengthened
  /// digest is hashed only where a transcript's bytes cross a trust
  /// boundary (the worker's keys for its row, RemoteExecutor's blob check,
  /// a shard row's store_keys check).  A transcript from keyed decode
  /// carries its key, and this returns it without hashing; any other
  /// transcript's bytes are hashed here.  Copies and moves keep the carried
  /// key; record() and clear() drop it.  A pure read: no cache is filled,
  /// so it is safe on a shared const object.  kFull only, like bytes().
  [[nodiscard]] Digest256 content_key() const;

  /// Transcripts compare by their common observable: digest and event
  /// count always, their bytes too when both sides hold them.
  friend bool operator==(const ExecutionTranscript& a, const ExecutionTranscript& b);

 private:
  /// A kFull transcript holding `bytes`, which a scan accepted with this
  /// count and digest.
  ExecutionTranscript(std::vector<std::uint8_t> bytes, std::uint64_t count,
                      std::uint64_t digest);
  void append(TranscriptEventKind kind, std::uint64_t a, std::uint64_t b, std::uint64_t c);

  TranscriptMode mode_;
  /// kFull: the FLET bytes, empty until the first record() (bytes() then
  /// views the constant empty blob).
  std::vector<std::uint8_t> bytes_;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;  ///< FNV-1a 64 offset basis
  std::uint64_t count_ = 0;
  std::optional<Digest256> key_;  ///< the content key keyed decode checked
};

/// Re-drives an engine from a recorded transcript and pinpoints
/// divergence.
///
/// Two services:
///  * diff(replay) — event-for-event comparison of a re-recorded transcript
///    against the reference; nullopt means the replay IS the recorded
///    execution.  Works for every runtime (the universal check).
///  * ring_schedule() — a Scheduler serving exactly the recorded delivery
///    order, so a ring engine can be literally re-driven from the recorded
///    schedule (not merely re-run under the same seed).  The scheduler
///    throws std::runtime_error the moment the execution requests a
///    delivery the recording cannot serve — a turn-order regression caught
///    at its first divergent step.  It decodes the recording once and
///    owns those events.
class Replayer {
 public:
  /// The reference must outlive the replayer.
  explicit Replayer(const ExecutionTranscript& reference);

  struct Divergence {
    std::size_t index = 0;  ///< first differing event position
    std::string what;       ///< human-readable description
  };

  [[nodiscard]] std::optional<Divergence> diff(const ExecutionTranscript& replay) const;

  /// Requires a kFull reference.  Throws std::invalid_argument otherwise.
  [[nodiscard]] std::unique_ptr<Scheduler> ring_schedule() const;

 private:
  const ExecutionTranscript* reference_;
};

}  // namespace fle

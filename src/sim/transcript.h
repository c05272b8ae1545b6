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
// Two executions are THE SAME execution iff their transcripts hold equal
// canonical bytes; every replay check in verify/differential reduces to
// that comparison.  Each runtime records into the stream through a raw
// pointer hook (null = disabled, one predicted branch on the hot path — the
// ring path stays allocation-free with recording off, test_alloc_free.cpp).
//
// A transcript holds the execution as its canonical FLET bytes (below):
// record() appends each event to them, and they are the record itself, the
// bytes the fabric ships, a shard row hexes and the store keeps, so no
// consumer re-encodes a transcript; events() decodes on demand.  The bytes
// are also the execution's one fingerprint: == compares them, and
// content_key() hashes them where they cross a trust boundary.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/digest.h"
#include "sim/scheduler.h"

namespace fle {

/// One value: a transcript always holds its bytes.  The enum stays only
/// because perfbench/pipeline.cpp constructs a transcript by naming kFull.
enum class TranscriptMode : std::uint8_t {
  kFull,  ///< hold the canonical bytes (replayable, encodable)
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
/// "delivery step=3 receiver=1 value=7" — used by first_divergence,
/// fle_verify --dump-transcript and fle_store cat.
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
  explicit ExecutionTranscript(TranscriptMode /*mode*/ = TranscriptMode::kFull) {}

  /// Drops all recorded events.  Storage capacity is kept, so a reused
  /// transcript reaches an allocation-free steady state just like the
  /// engines it observes.
  void clear();

  /// Appends one event's bytes.
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

  /// Events recorded since the last clear().
  [[nodiscard]] std::uint64_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// The recorded stream, decoded from bytes() on each call.
  [[nodiscard]] std::vector<TranscriptEvent> events() const;

  /// The held canonical bytes: a 'F','L','E','T' magic, the event count
  /// as a LEB128 varint, then per event one kind byte and three LEB128
  /// varints, every varint minimal.  The view is valid until the next
  /// record(), clear() or assignment.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const;
  /// A copy of bytes(), allocated at exactly its size.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Accepts exactly the bytes a transcript holds: a scan that allocates
  /// nothing refuses any other input with std::invalid_argument (bad
  /// magic, truncation, an overflowing or overlong varint, an unknown
  /// kind, trailing bytes) and counts the events; the accepted bytes are
  /// then copied in once.  So decode(b).bytes() equals b, and
  /// round-tripping preserves count and events.
  static ExecutionTranscript decode(std::span<const std::uint8_t> bytes);
  /// Keyed decode, for bytes that arrive with their content key (a shipped
  /// fabric blob, a shard row's store_keys entry): throws
  /// std::invalid_argument unless Sha256::of(bytes) == key, then decodes,
  /// and the result carries `key`.  Sound because decode accepts only the
  /// canonical bytes: the key of the accepted bytes is the key of the
  /// transcript.
  static ExecutionTranscript decode(std::span<const std::uint8_t> bytes, const Digest256& key);

  /// SHA-256 of bytes() — the content-addressed store key (src/store/),
  /// hashed only where a transcript's bytes cross a trust boundary (the
  /// worker's keys for its row, RemoteExecutor's blob check, a shard row's
  /// store_keys check).  A transcript from keyed decode
  /// carries its key, and this returns it without hashing; any other
  /// transcript's bytes are hashed here.  Copies and moves keep the carried
  /// key; record() and clear() drop it.  A pure read: no cache is filled,
  /// so it is safe on a shared const object.
  [[nodiscard]] Digest256 content_key() const;

  /// Transcripts compare by their bytes.
  friend bool operator==(const ExecutionTranscript& a, const ExecutionTranscript& b);

 private:
  /// The FLET bytes, empty until the first record() (bytes() then views
  /// the constant empty blob).
  std::vector<std::uint8_t> bytes_;
  std::uint64_t count_ = 0;
  std::optional<Digest256> key_;  ///< the content key keyed decode checked
};

/// Where a replay first departs from a recording.
struct TranscriptDivergence {
  std::size_t index = 0;  ///< the first differing event, or the shorter length
  std::string what;       ///< both events (format_event), or both lengths
};

/// nullopt when `replay` holds `recorded`'s bytes, i.e. is the same
/// execution.  Otherwise the index of the first differing event with both
/// events rendered, or, when one stream is a prefix of the other, the
/// shorter length with both lengths.  Only a divergence is decoded.
std::optional<TranscriptDivergence> first_divergence(const ExecutionTranscript& recorded,
                                                     const ExecutionTranscript& replay);

/// A Scheduler serving exactly `recorded`'s delivery order, so a ring
/// engine can be literally re-driven from the recorded schedule (not
/// merely re-run under the same seed).  The scheduler throws
/// std::runtime_error the moment the execution requests a delivery the
/// recording cannot serve — a turn-order regression caught at its first
/// divergent step.  It decodes the recording once and owns those events.
std::unique_ptr<Scheduler> replay_ring_schedule(const ExecutionTranscript& recorded);

}  // namespace fle

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
// Modes: kFull stores the events (and can encode() them into a compact
// varint binary form — the wire format the fabric ships shard transcripts
// over); kDigest keeps only a running FNV-1a fold and the event count — the
// cheap fingerprint the trace-determinism check (verify/differential.h)
// compares fresh and reused engines by.  Both modes maintain the digest, so
// a kDigest transcript can always be compared against a kFull one.  The
// transcript is the only execution fingerprint in the system.

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
/// --dump-transcript / --diff-transcripts.
std::string format_event(const TranscriptEvent& event);

/// The LEB128 varint codec the transcript encoding is built on, exposed so
/// the fabric wire protocol (src/fabric/wire.h) frames with the identical
/// primitive.  leb128_get throws std::invalid_argument on a truncated or
/// 64-bit-overflowing varint and advances `index` past the bytes it
/// consumed.
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

  /// Appends one event: always folds it into the digest, stores it in kFull
  /// mode.
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

  /// The stored stream; empty in kDigest mode.
  [[nodiscard]] std::span<const TranscriptEvent> events() const { return events_; }

  /// Compact binary encoding (kFull only; throws std::logic_error in digest
  /// mode): a 'F','L','E','T' magic, then per event one kind byte and three
  /// LEB128 varints.  decode() inverts it exactly; round-tripping preserves
  /// digest, count and events.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static ExecutionTranscript decode(std::span<const std::uint8_t> bytes);

  /// SHA-256 of encode() — the content-addressed store key (src/store/).
  /// The in-loop FNV fold stays the cheap fingerprint; this strengthened
  /// digest is computed once per trial at the store boundary, so identical
  /// executions key identical blobs and distinct executions cannot
  /// plausibly collide.  kFull only, like encode().
  [[nodiscard]] Digest256 content_key() const;

  /// Transcripts compare by their common observable: digest and event
  /// count always, stored events too when both sides carry them.
  friend bool operator==(const ExecutionTranscript& a, const ExecutionTranscript& b);

 private:
  void fold(std::uint64_t word);

  TranscriptMode mode_;
  std::vector<TranscriptEvent> events_;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;  ///< FNV-1a 64 offset basis
  std::uint64_t count_ = 0;
};

/// Multi-transcript container: a 'F','L','E','S' magic, a varint transcript
/// count, then per transcript one varint byte length and its encode()
/// stream.  This is the on-disk format `fle_verify --dump-transcript --out`
/// writes and `--diff-transcripts` reads; decode_transcript_set also
/// accepts a bare single-transcript 'FLET' stream for hand-built files.
/// Both throw std::invalid_argument on malformed input, naming the
/// offending transcript index.
std::vector<std::uint8_t> encode_transcript_set(
    std::span<const ExecutionTranscript> transcripts);
std::vector<ExecutionTranscript> decode_transcript_set(
    std::span<const std::uint8_t> bytes);

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
///    at its first divergent step.
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

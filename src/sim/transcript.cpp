#include "sim/transcript.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace fle {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::uint8_t kMagic[4] = {'F', 'L', 'E', 'T'};
constexpr std::size_t kMaxVarintBytes = 10;

/// The bytes leb128_put writes for `value`: one per started 7-bit group,
/// and one for 0.
std::size_t leb128_size(std::uint64_t value) {
  return static_cast<std::size_t>(std::bit_width(value | 1) + 6) / 7;
}

/// Writes the minimal varint at `out` and returns the byte after it.
std::uint8_t* leb128_write(std::uint8_t* out, std::uint64_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<std::uint8_t>(value) | 0x80;
    value >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(value);
  return out;
}

}  // namespace

void leb128_put(std::vector<std::uint8_t>& out, std::uint64_t value) {
  std::uint8_t bytes[kMaxVarintBytes];
  out.insert(out.end(), bytes, leb128_write(bytes, value));
}

std::uint64_t leb128_get(std::span<const std::uint8_t> bytes, std::size_t& index) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (index >= bytes.size()) {
      throw std::invalid_argument("leb128: truncated varint");
    }
    const std::uint8_t byte = bytes[index++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7e) != 0)) {
      throw std::invalid_argument("leb128: varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift != 0) throw std::invalid_argument("leb128: overlong varint");
      return v;
    }
    shift += 7;
  }
}

const char* to_string(TranscriptEventKind kind) {
  switch (kind) {
    case TranscriptEventKind::kDelivery:
      return "delivery";
    case TranscriptEventKind::kTurn:
      return "turn";
    case TranscriptEventKind::kPhase:
      return "phase";
    case TranscriptEventKind::kDecision:
      return "decision";
  }
  return "unknown";
}

std::uint64_t transcript_fold(std::span<const std::uint64_t> words) {
  std::uint64_t hash = kFnvOffset;
  const auto mix = [&hash](std::uint64_t word) {
    hash ^= word;
    hash *= kFnvPrime;
  };
  mix(words.size());
  for (const std::uint64_t word : words) mix(word);
  return hash;
}

void ExecutionTranscript::clear() {
  events_.clear();
  digest_ = kFnvOffset;
  count_ = 0;
  key_.reset();
}

void ExecutionTranscript::fold(std::uint64_t word) {
  digest_ ^= word;
  digest_ *= kFnvPrime;
}

void ExecutionTranscript::record(TranscriptEventKind kind, std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c) {
  fold(static_cast<std::uint64_t>(kind));
  fold(a);
  fold(b);
  fold(c);
  ++count_;
  key_.reset();
  if (mode_ == TranscriptMode::kFull) events_.push_back(TranscriptEvent{kind, a, b, c});
}

std::vector<std::uint8_t> ExecutionTranscript::encode() const {
  if (mode_ != TranscriptMode::kFull) {
    throw std::logic_error("ExecutionTranscript::encode requires kFull mode");
  }
  // Sized exactly, then written through a pointer: a blob holds no spare
  // capacity, and StoreWriter keeps each blob it stores as it is.
  std::size_t size = sizeof(kMagic) + leb128_size(events_.size()) + events_.size();
  for (const TranscriptEvent& e : events_) {
    size += leb128_size(e.a) + leb128_size(e.b) + leb128_size(e.c);
  }
  std::vector<std::uint8_t> out(size);
  std::uint8_t* at = std::copy(std::begin(kMagic), std::end(kMagic), out.data());
  at = leb128_write(at, events_.size());
  for (const TranscriptEvent& e : events_) {
    *at++ = static_cast<std::uint8_t>(e.kind);
    at = leb128_write(at, e.a);
    at = leb128_write(at, e.b);
    at = leb128_write(at, e.c);
  }
  return out;
}

Digest256 ExecutionTranscript::content_key() const {
  if (key_) return *key_;
  return Sha256::of(encode());
}

ExecutionTranscript ExecutionTranscript::decode(std::span<const std::uint8_t> bytes,
                                                const Digest256& key) {
  if (Sha256::of(bytes) != key) {
    throw std::invalid_argument("ExecutionTranscript::decode: bytes do not hash to the key " +
                                key.hex());
  }
  ExecutionTranscript transcript = decode(bytes);
  transcript.key_ = key;
  return transcript;
}

ExecutionTranscript ExecutionTranscript::decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4 || bytes[0] != kMagic[0] || bytes[1] != kMagic[1] ||
      bytes[2] != kMagic[2] || bytes[3] != kMagic[3]) {
    throw std::invalid_argument("ExecutionTranscript::decode: bad magic");
  }
  std::size_t i = 4;
  const std::uint64_t count = leb128_get(bytes, i);
  // Each event occupies at least 4 bytes (kind + three 1-byte varints);
  // reject counts the buffer cannot possibly hold before reserving storage.
  if (count > (bytes.size() - i) / 4) {
    throw std::invalid_argument("ExecutionTranscript::decode: event count " +
                                std::to_string(count) + " exceeds the buffer");
  }
  ExecutionTranscript transcript(TranscriptMode::kFull);
  transcript.events_.reserve(count);
  for (std::uint64_t e = 0; e < count; ++e) {
    if (i >= bytes.size()) {
      throw std::invalid_argument("ExecutionTranscript::decode: truncated event");
    }
    const std::uint8_t kind_byte = bytes[i++];
    if (kind_byte > static_cast<std::uint8_t>(TranscriptEventKind::kDecision)) {
      throw std::invalid_argument("ExecutionTranscript::decode: unknown event kind " +
                                  std::to_string(kind_byte));
    }
    const std::uint64_t a = leb128_get(bytes, i);
    const std::uint64_t b = leb128_get(bytes, i);
    const std::uint64_t c = leb128_get(bytes, i);
    transcript.record(static_cast<TranscriptEventKind>(kind_byte), a, b, c);
  }
  if (i != bytes.size()) {
    throw std::invalid_argument("ExecutionTranscript::decode: trailing bytes");
  }
  return transcript;
}

std::string format_event(const TranscriptEvent& event) {
  switch (event.kind) {
    case TranscriptEventKind::kDelivery:
      return "delivery step=" + std::to_string(event.a) +
             " receiver=" + std::to_string(event.b) + " value=" + std::to_string(event.c);
    case TranscriptEventKind::kTurn:
      return "turn index=" + std::to_string(event.a) + " mover=" + std::to_string(event.b) +
             " action=" + std::to_string(event.c);
    case TranscriptEventKind::kPhase:
      return "phase round=" + std::to_string(event.a) +
             " deliveries=" + std::to_string(event.b);
    case TranscriptEventKind::kDecision:
      return "decision actor=" + std::to_string(event.a) +
             " aborted=" + std::to_string(event.b) + " output=" + std::to_string(event.c);
  }
  return "unknown(" + std::to_string(event.a) + ", " + std::to_string(event.b) + ", " +
         std::to_string(event.c) + ")";
}

bool operator==(const ExecutionTranscript& a, const ExecutionTranscript& b) {
  if (a.count_ != b.count_ || a.digest_ != b.digest_) return false;
  if (a.mode_ == TranscriptMode::kFull && b.mode_ == TranscriptMode::kFull) {
    return a.events_ == b.events_;
  }
  return true;
}

Replayer::Replayer(const ExecutionTranscript& reference) : reference_(&reference) {}

std::optional<Replayer::Divergence> Replayer::diff(const ExecutionTranscript& replay) const {
  const ExecutionTranscript& ref = *reference_;
  if (ref.mode() == TranscriptMode::kFull && replay.mode() == TranscriptMode::kFull) {
    const auto a = ref.events();
    const auto b = replay.events();
    const std::size_t common = std::min(a.size(), b.size());
    const auto describe = [](const TranscriptEvent& e) {
      return std::string(to_string(e.kind)) + "(" + std::to_string(e.a) + ", " +
             std::to_string(e.b) + ", " + std::to_string(e.c) + ")";
    };
    for (std::size_t i = 0; i < common; ++i) {
      if (!(a[i] == b[i])) {
        return Divergence{i, "event " + std::to_string(i) + ": recorded " + describe(a[i]) +
                                 " vs replayed " + describe(b[i])};
      }
    }
    if (a.size() != b.size()) {
      return Divergence{common, "replay has " + std::to_string(b.size()) +
                                    " events, recording has " + std::to_string(a.size())};
    }
    return std::nullopt;
  }
  // Digest-mode comparison: the fingerprint is order-sensitive, so equal
  // (count, digest) is the same equality the event walk would establish.
  if (ref.size() != replay.size()) {
    return Divergence{std::min<std::size_t>(ref.size(), replay.size()),
                      "replay has " + std::to_string(replay.size()) +
                          " events, recording has " + std::to_string(ref.size())};
  }
  if (ref.digest() != replay.digest()) {
    return Divergence{0, "transcript digests differ (" + std::to_string(ref.digest()) +
                             " vs " + std::to_string(replay.digest()) + ")"};
  }
  return std::nullopt;
}

namespace {

/// Serves exactly the recorded delivery order; the execution being
/// re-driven must request the same receivers in the same order or the
/// divergence is reported at its first step.
class TranscriptReplayScheduler final : public Scheduler {
 public:
  explicit TranscriptReplayScheduler(std::span<const TranscriptEvent> events)
      : events_(events) {}

  ProcessorId pick(std::span<const ProcessorId> ready) override {
    while (cursor_ < events_.size() &&
           events_[cursor_].kind != TranscriptEventKind::kDelivery) {
      ++cursor_;
    }
    if (cursor_ >= events_.size()) {
      throw std::runtime_error(
          "transcript replay diverged: the execution requests a delivery past the end of "
          "the recording (" +
          std::to_string(events_.size()) + " events)");
    }
    const TranscriptEvent& e = events_[cursor_++];
    const auto to = static_cast<ProcessorId>(e.b);
    for (const ProcessorId p : ready) {
      if (p == to) return to;
    }
    throw std::runtime_error("transcript replay diverged at step " + std::to_string(e.a) +
                             ": recorded receiver " + std::to_string(to) +
                             " has no pending delivery");
  }

  const char* name() const override { return "transcript-replay"; }

 private:
  std::span<const TranscriptEvent> events_;
  std::size_t cursor_ = 0;
};

}  // namespace

std::unique_ptr<Scheduler> Replayer::ring_schedule() const {
  if (reference_->mode() != TranscriptMode::kFull) {
    throw std::invalid_argument("Replayer::ring_schedule needs a kFull recording");
  }
  return std::make_unique<TranscriptReplayScheduler>(reference_->events());
}

}  // namespace fle

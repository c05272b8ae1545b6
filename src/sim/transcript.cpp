#include "sim/transcript.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace fle {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::uint8_t kMagic[4] = {'F', 'L', 'E', 'T'};
/// What bytes() views before the first record(): the magic and a count of 0.
constexpr std::uint8_t kEmptyBlob[5] = {'F', 'L', 'E', 'T', 0};
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

namespace {

/// Walks `bytes` as a FLET blob and calls on_event(kind, a, b, c) per
/// event.  Throws std::invalid_argument on anything but the canonical form
/// a transcript holds.  Allocates nothing on success.
template <typename OnEvent>
void scan(std::span<const std::uint8_t> bytes, OnEvent&& on_event) {
  if (bytes.size() < sizeof(kMagic) || !std::equal(std::begin(kMagic), std::end(kMagic),
                                                   bytes.begin())) {
    throw std::invalid_argument("ExecutionTranscript::decode: bad magic");
  }
  std::size_t i = sizeof(kMagic);
  const std::uint64_t count = leb128_get(bytes, i);
  // Each event occupies at least 4 bytes (kind + three 1-byte varints);
  // reject counts the buffer cannot possibly hold before walking them.
  if (count > (bytes.size() - i) / 4) {
    throw std::invalid_argument("ExecutionTranscript::decode: event count " +
                                std::to_string(count) + " exceeds the buffer");
  }
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
    on_event(static_cast<TranscriptEventKind>(kind_byte), a, b, c);
  }
  if (i != bytes.size()) {
    throw std::invalid_argument("ExecutionTranscript::decode: trailing bytes");
  }
}

}  // namespace

void ExecutionTranscript::clear() {
  bytes_.clear();
  count_ = 0;
  key_.reset();
}

void ExecutionTranscript::record(TranscriptEventKind kind, std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c) {
  ++count_;
  key_.reset();
  if (bytes_.empty()) bytes_.assign(std::begin(kEmptyBlob), std::end(kEmptyBlob));
  // The count varint after the magic is rewritten in place.  It widens by
  // a byte when the count reaches 2^7, 2^14, ..., and the events after it
  // shift right by one, so the blob stays one contiguous canonical form.
  if (leb128_size(count_) != leb128_size(count_ - 1)) {
    bytes_.insert(bytes_.begin() + sizeof(kMagic), std::uint8_t{0});
  }
  leb128_write(bytes_.data() + sizeof(kMagic), count_);
  // The event is sized exactly, then written through a pointer.
  const std::size_t end = bytes_.size();
  bytes_.resize(end + 1 + leb128_size(a) + leb128_size(b) + leb128_size(c));
  std::uint8_t* at = bytes_.data() + end;
  *at++ = static_cast<std::uint8_t>(kind);
  at = leb128_write(at, a);
  at = leb128_write(at, b);
  leb128_write(at, c);
}

std::vector<TranscriptEvent> ExecutionTranscript::events() const {
  std::vector<TranscriptEvent> events;
  events.reserve(count_);
  scan(bytes(), [&events](TranscriptEventKind kind, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) { events.push_back(TranscriptEvent{kind, a, b, c}); });
  return events;
}

std::span<const std::uint8_t> ExecutionTranscript::bytes() const {
  if (bytes_.empty()) return kEmptyBlob;
  return bytes_;
}

std::vector<std::uint8_t> ExecutionTranscript::encode() const {
  const std::span<const std::uint8_t> held = bytes();
  return {held.begin(), held.end()};
}

Digest256 ExecutionTranscript::content_key() const {
  if (key_) return *key_;
  return Sha256::of(bytes());
}

ExecutionTranscript ExecutionTranscript::decode(std::span<const std::uint8_t> bytes) {
  ExecutionTranscript decoded;
  scan(bytes, [&decoded](TranscriptEventKind, std::uint64_t, std::uint64_t, std::uint64_t) {
    ++decoded.count_;
  });
  decoded.bytes_.assign(bytes.begin(), bytes.end());
  return decoded;
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
  return std::ranges::equal(a.bytes(), b.bytes());
}

std::optional<TranscriptDivergence> first_divergence(const ExecutionTranscript& recorded,
                                                     const ExecutionTranscript& replay) {
  if (recorded == replay) return std::nullopt;
  // Decode accepts only canonical bytes, so unequal bytes are unequal
  // event streams: they differ at an event or one is a prefix.
  const std::vector<TranscriptEvent> a = recorded.events();
  const std::vector<TranscriptEvent> b = replay.events();
  const auto [at_a, at_b] = std::ranges::mismatch(a, b);
  const auto index = static_cast<std::size_t>(at_a - a.begin());
  if (at_a != a.end() && at_b != b.end()) {
    return TranscriptDivergence{index, "event " + std::to_string(index) + ": " +
                                           format_event(*at_a) + " vs " + format_event(*at_b)};
  }
  return TranscriptDivergence{
      index, std::to_string(a.size()) + " vs " + std::to_string(b.size()) + " events"};
}

namespace {

/// Serves exactly the recorded delivery order; the execution being
/// re-driven must request the same receivers in the same order or the
/// divergence is reported at its first step.
class TranscriptReplayScheduler final : public Scheduler {
 public:
  explicit TranscriptReplayScheduler(std::vector<TranscriptEvent> events)
      : events_(std::move(events)) {}

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
  std::vector<TranscriptEvent> events_;
  std::size_t cursor_ = 0;
};

}  // namespace

std::unique_ptr<Scheduler> replay_ring_schedule(const ExecutionTranscript& recorded) {
  return std::make_unique<TranscriptReplayScheduler>(recorded.events());
}

}  // namespace fle

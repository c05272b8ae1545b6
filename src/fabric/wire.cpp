#include "fabric/wire.h"

#include <algorithm>
#include <stdexcept>

#include "api/registry.h"
#include "sim/transcript.h"
#include "verify/fuzzer.h"

namespace fle::fabric {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("fabric frame: " + what);
}

void put_string(std::vector<std::uint8_t>& out, std::string_view text) {
  leb128_put(out, text.size());
  out.insert(out.end(), text.begin(), text.end());
}

std::string get_string(std::span<const std::uint8_t> bytes, std::size_t& i,
                       const char* field) {
  const std::uint64_t length = leb128_get(bytes, i);
  if (length > bytes.size() - i) {
    bad(std::string(field) + " string of " + std::to_string(length) +
        " bytes overruns the frame");
  }
  std::string out(reinterpret_cast<const char*>(bytes.data() + i),
                  static_cast<std::size_t>(length));
  i += static_cast<std::size_t>(length);
  return out;
}

/// Payload skeleton: kind byte first, frame length prefix prepended at the
/// end (the length covers the whole payload including the kind byte).
std::vector<std::uint8_t> begin_payload(MessageKind kind) {
  return {static_cast<std::uint8_t>(kind)};
}

std::vector<std::uint8_t> finish_frame(std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 4);
  leb128_put(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::uint64_t fnv_string(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

const char* to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kHello:
      return "hello";
    case MessageKind::kWelcome:
      return "welcome";
    case MessageKind::kAssign:
      return "assign";
    case MessageKind::kResult:
      return "result";
    case MessageKind::kHeartbeat:
      return "heartbeat";
    case MessageKind::kDrain:
      return "drain";
    case MessageKind::kBye:
      return "bye";
    case MessageKind::kError:
      return "error";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(const Hello& message) {
  auto payload = begin_payload(MessageKind::kHello);
  leb128_put(payload, message.version);
  leb128_put(payload, message.build);
  put_string(payload, message.label);
  return finish_frame(std::move(payload));
}

std::vector<std::uint8_t> encode_frame(const Welcome& message) {
  auto payload = begin_payload(MessageKind::kWelcome);
  leb128_put(payload, message.version);
  leb128_put(payload, message.build);
  leb128_put(payload, message.spec_digest);
  leb128_put(payload, message.spec_lines.size());
  for (const std::string& line : message.spec_lines) put_string(payload, line);
  return finish_frame(std::move(payload));
}

std::vector<std::uint8_t> encode_frame(const Assign& message) {
  auto payload = begin_payload(MessageKind::kAssign);
  leb128_put(payload, message.window);
  leb128_put(payload, message.scenario);
  leb128_put(payload, message.trial_offset);
  leb128_put(payload, message.trial_count);
  return finish_frame(std::move(payload));
}

std::vector<std::uint8_t> encode_frame(const ResultMsg& message) {
  auto payload = begin_payload(MessageKind::kResult);
  leb128_put(payload, message.window);
  put_string(payload, message.row);
  payload.insert(payload.end(), message.blobs.begin(), message.blobs.end());
  return finish_frame(std::move(payload));
}

std::vector<std::uint8_t> encode_frame(const Heartbeat& message) {
  auto payload = begin_payload(MessageKind::kHeartbeat);
  leb128_put(payload, message.seq);
  return finish_frame(std::move(payload));
}

std::vector<std::uint8_t> encode_frame(const ErrorMsg& message) {
  auto payload = begin_payload(MessageKind::kError);
  put_string(payload, message.message);
  return finish_frame(std::move(payload));
}

std::vector<std::uint8_t> encode_frame(MessageKind bare) {
  if (bare != MessageKind::kDrain && bare != MessageKind::kBye) {
    throw std::invalid_argument(std::string("fabric frame: kind '") + to_string(bare) +
                                "' carries a payload — use its typed encode_frame overload");
  }
  return finish_frame(begin_payload(bare));
}

std::optional<FrameParse> try_parse_frame(std::span<const std::uint8_t> buffer) {
  // The length prefix itself may be partial: it is complete once a byte
  // without the top bit set arrives, which a valid varint does within 10
  // bytes.  A complete prefix goes through the shared varint reader, so it
  // is held to the same overflow and minimality rules as every payload
  // field.
  const std::size_t probe = std::min<std::size_t>(buffer.size(), 10);
  std::size_t last = 0;
  while (last < probe && (buffer[last] & 0x80) != 0) ++last;
  if (last == probe) {
    if (probe == 10) bad("length prefix is not a valid varint");
    return std::nullopt;  // incomplete prefix, keep buffering
  }
  std::size_t i = 0;
  std::uint64_t length = 0;
  try {
    length = leb128_get(buffer.first(last + 1), i);
  } catch (const std::invalid_argument& error) {
    bad(std::string("length prefix: ") + error.what());
  }
  if (length == 0) bad("empty payload (a frame carries at least its kind byte)");
  if (length > kMaxFrameBytes) {
    bad("payload of " + std::to_string(length) + " bytes exceeds the frame cap of " +
        std::to_string(kMaxFrameBytes));
  }
  if (length > buffer.size() - i) return std::nullopt;  // incomplete payload

  const std::span<const std::uint8_t> payload = buffer.subspan(i, length);
  const std::size_t consumed = i + static_cast<std::size_t>(length);
  std::size_t p = 0;
  const std::uint8_t kind_byte = payload[p++];
  Frame frame;
  switch (kind_byte) {
    case static_cast<std::uint8_t>(MessageKind::kHello):
      frame.kind = MessageKind::kHello;
      frame.hello.version = leb128_get(payload, p);
      frame.hello.build = leb128_get(payload, p);
      frame.hello.label = get_string(payload, p, "hello.label");
      break;
    case static_cast<std::uint8_t>(MessageKind::kWelcome): {
      frame.kind = MessageKind::kWelcome;
      frame.welcome.version = leb128_get(payload, p);
      frame.welcome.build = leb128_get(payload, p);
      frame.welcome.spec_digest = leb128_get(payload, p);
      const std::uint64_t count = leb128_get(payload, p);
      if (count > (payload.size() - p) / (1 + kMinSpecLineBytes)) {
        bad("welcome.spec_lines count " + std::to_string(count) + " exceeds the frame");
      }
      frame.welcome.spec_lines.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t s = 0; s < count; ++s) {
        frame.welcome.spec_lines.push_back(get_string(payload, p, "welcome.spec_lines"));
      }
      break;
    }
    case static_cast<std::uint8_t>(MessageKind::kAssign):
      frame.kind = MessageKind::kAssign;
      frame.assign.window = leb128_get(payload, p);
      frame.assign.scenario = leb128_get(payload, p);
      frame.assign.trial_offset = leb128_get(payload, p);
      frame.assign.trial_count = leb128_get(payload, p);
      break;
    case static_cast<std::uint8_t>(MessageKind::kResult): {
      frame.kind = MessageKind::kResult;
      frame.result.window = leb128_get(payload, p);
      frame.result.row = get_string(payload, p, "result.row");
      // The blob list is the rest of the payload, copied whole: the driver
      // walks it with next_blob against the row's keys.
      frame.result.blobs.assign(payload.begin() + static_cast<std::ptrdiff_t>(p), payload.end());
      p = payload.size();
      break;
    }
    case static_cast<std::uint8_t>(MessageKind::kHeartbeat):
      frame.kind = MessageKind::kHeartbeat;
      frame.heartbeat.seq = leb128_get(payload, p);
      break;
    case static_cast<std::uint8_t>(MessageKind::kDrain):
      frame.kind = MessageKind::kDrain;
      break;
    case static_cast<std::uint8_t>(MessageKind::kBye):
      frame.kind = MessageKind::kBye;
      break;
    case static_cast<std::uint8_t>(MessageKind::kError):
      frame.kind = MessageKind::kError;
      frame.error.message = get_string(payload, p, "error.message");
      break;
    default:
      bad("unknown message kind " + std::to_string(kind_byte));
  }
  if (p != payload.size()) {
    bad(std::string("trailing bytes after '") + to_string(frame.kind) + "' payload");
  }
  return FrameParse{std::move(frame), consumed};
}

void append_blob(std::vector<std::uint8_t>& list, std::span<const std::uint8_t> blob) {
  leb128_put(list, blob.size());
  list.insert(list.end(), blob.begin(), blob.end());
}

std::span<const std::uint8_t> next_blob(std::span<const std::uint8_t> list,
                                        std::size_t& cursor) {
  if (cursor >= list.size()) bad("blob list ends before this blob");
  const std::uint64_t length = leb128_get(list, cursor);
  if (length > list.size() - cursor) {
    bad("blob of " + std::to_string(length) + " bytes overruns the blob list");
  }
  const std::span<const std::uint8_t> blob = list.subspan(cursor, length);
  cursor += static_cast<std::size_t>(length);
  return blob;
}

std::uint64_t build_digest() {
  register_builtin_scenarios();
  verify::register_fuzz_user_entries();
  std::vector<std::uint64_t> words;
  words.push_back(kWireVersion);
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    words.push_back(fnv_string(name));
  }
  for (const std::string& name : DeviationRegistry::instance().names()) {
    words.push_back(fnv_string(name));
  }
  return transcript_fold(words);
}

std::uint64_t sweep_digest(std::span<const std::string> spec_lines) {
  std::vector<std::uint64_t> words;
  words.reserve(spec_lines.size());
  for (const std::string& line : spec_lines) words.push_back(fnv_string(line));
  return transcript_fold(words);
}

}  // namespace fle::fabric

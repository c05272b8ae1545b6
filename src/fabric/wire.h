#pragma once
// The fabric wire protocol: length-prefixed frames between the fle_sweep
// driver and fle_worker processes (DESIGN.md §8).
//
// Everything on the wire is built from the two encodings the repo already
// has: the §7 LEB128 varint codec (sim/transcript.h leb128_put/leb128_get)
// frames and encodes every integer field, and the shard-row JSONL format
// (verify/shard.h) is the result payload — a worker's answer for a trial
// window is one row, which RemoteExecutor parses with parse_shard_row and
// folds in trial order with ScenarioResult::merge.  A transcript-recording
// window's row is transcripts-elided: its store_keys column stays, and the
// same kResult frame carries every trial's FLET blob in binary, in trial
// order, as one blob list after the row.
//
// Frame layout: one varint payload length, then the payload; payload byte 0
// is the MessageKind, the rest is kind-specific (varints, and strings as
// varint length + raw bytes).  A frame is the atomic unit — a receiver
// either has all of it or keeps buffering — and any malformed payload is a
// protocol error that drops the connection (the peer's windows are
// re-issued; see driver.h).
//
// Handshake (versioned, digest-guarded): the worker opens with kHello
// carrying the wire version and its build digest — a fold over the wire
// version and every registered protocol/deviation name — and the driver
// rejects mismatched binaries at connect time with kError.  The driver's
// kWelcome carries the same pair back plus the sweep's canonical spec
// lines (verify/fuzzer.h format_spec) and their fold, so a worker verifies
// it decoded exactly the sweep the driver is running before any trial
// executes.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fle::fabric {

/// Bumped on any frame-layout or semantics change; both sides reject a
/// mismatch at handshake (version policy: exact match, no ranges — the
/// driver and workers of one sweep are expected to be one build).
/// v3: every window answers with one kResult frame; a transcript window's
/// frame carries its elided row and all of its blobs.
inline constexpr std::uint64_t kWireVersion = 3;

/// Frames larger than this are a protocol error before any allocation
/// happens (a corrupt length prefix must not become an OOM).
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// The shortest spec line a kWelcome can carry: format_spec always writes
/// these five keys.  try_parse_frame refuses a spec-line count the frame
/// cannot hold at this length (each line also takes its length varint)
/// before it reserves the lines.
inline constexpr std::size_t kMinSpecLineBytes =
    std::string_view("topology= protocol= n= trials= seed=").size();

enum class MessageKind : std::uint8_t {
  kHello = 1,      ///< worker → driver: version, build digest, label
  kWelcome = 2,    ///< driver → worker: version, build digest, sweep specs
  kAssign = 3,     ///< driver → worker: one trial window to execute
  kResult = 4,     ///< worker → driver: one window's shard row (+ blobs)
  kHeartbeat = 5,  ///< either way: liveness ping/echo, by sequence number
  kDrain = 6,      ///< driver → worker: no more work, finish and say kBye
  kBye = 7,        ///< either way: clean close
  kError = 8,      ///< either way: fatal, human-readable reason, then close
};

const char* to_string(MessageKind kind);

struct Hello {
  std::uint64_t version = kWireVersion;
  std::uint64_t build = 0;  ///< build_digest() of the worker binary
  std::string label;        ///< display name for driver-side diagnostics
};

struct Welcome {
  std::uint64_t version = kWireVersion;
  std::uint64_t build = 0;        ///< build_digest() of the driver binary
  std::uint64_t spec_digest = 0;  ///< sweep_digest(spec_lines)
  /// format_spec(shard_key_spec(scenario)) per sweep scenario, in order;
  /// kAssign windows name scenarios by index into this list.
  std::vector<std::string> spec_lines;
};

struct Assign {
  std::uint64_t window = 0;        ///< driver-side window id (echoed in kResult)
  std::uint64_t scenario = 0;      ///< index into Welcome::spec_lines
  std::uint64_t trial_offset = 0;  ///< global index of the window's first trial
  std::uint64_t trial_count = 0;   ///< trials in the window (> 0)
};

struct ResultMsg {
  std::uint64_t window = 0;
  /// verify/shard.h format_shard_row of the window result; transcripts
  /// elided when the window records them.
  std::string row;
  /// A transcript window's blob list: its encoded FLET streams, one per
  /// trial in trial order, each a varint length and its bytes (append_blob,
  /// next_blob); empty for any other window.  It fills the frame after the
  /// row and is parsed as one copy, however many blobs it holds.
  std::vector<std::uint8_t> blobs;
};

struct Heartbeat {
  std::uint64_t seq = 0;
};

struct ErrorMsg {
  std::string message;
};

/// One decoded frame: the kind plus its payload (only the member matching
/// `kind` is meaningful; kDrain and kBye have no payload).
struct Frame {
  MessageKind kind = MessageKind::kBye;
  Hello hello;
  Welcome welcome;
  Assign assign;
  ResultMsg result;
  Heartbeat heartbeat;
  ErrorMsg error;
};

// Complete frames (length prefix included), ready to write to a socket.
std::vector<std::uint8_t> encode_frame(const Hello& message);
std::vector<std::uint8_t> encode_frame(const Welcome& message);
std::vector<std::uint8_t> encode_frame(const Assign& message);
std::vector<std::uint8_t> encode_frame(const ResultMsg& message);
std::vector<std::uint8_t> encode_frame(const Heartbeat& message);
std::vector<std::uint8_t> encode_frame(const ErrorMsg& message);
std::vector<std::uint8_t> encode_frame(MessageKind bare);  ///< kDrain / kBye

/// Parses one frame from the front of `buffer`.  Returns nullopt when the
/// buffer holds only a partial frame (read more bytes and retry); on
/// success `consumed` is how many bytes the frame occupied.  Throws
/// std::invalid_argument naming the offending field on malformed input —
/// oversized length prefix, unknown kind, truncated or trailing payload.
struct FrameParse {
  Frame frame;
  std::size_t consumed = 0;
};
std::optional<FrameParse> try_parse_frame(std::span<const std::uint8_t> buffer);

/// Appends one blob to a ResultMsg blob list.
void append_blob(std::vector<std::uint8_t>& list, std::span<const std::uint8_t> blob);

/// The blob at `cursor` in a blob list, as a view into it; advances
/// `cursor` past it.  Throws std::invalid_argument when the list ends at
/// `cursor` or the blob overruns it.
std::span<const std::uint8_t> next_blob(std::span<const std::uint8_t> list,
                                        std::size_t& cursor);

/// The handshake's binary-compatibility fingerprint: a fold over the wire
/// version and every registered protocol and deviation name (builtin and
/// fuzz-user entries), so a worker whose registry cannot execute the
/// driver's specs is rejected at connect time rather than failing
/// mid-sweep.  Registers the builtin and fuzz-user entries itself.
std::uint64_t build_digest();

/// Order-sensitive fold of the sweep's canonical spec lines; carried in
/// kWelcome so the worker proves it decoded the driver's exact sweep.
std::uint64_t sweep_digest(std::span<const std::string> spec_lines);

}  // namespace fle::fabric

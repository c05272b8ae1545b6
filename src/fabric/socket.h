#pragma once
// Thin POSIX TCP helpers shared by the fabric driver and worker: RAII fds,
// listen/connect, full-buffer sends, and a blocking frame reader.  All of
// the protocol logic lives in wire.h / driver.h / worker.h; this file only
// wraps the syscalls so those layers read as protocol code.
//
// Everything throws std::runtime_error with the failing operation and
// errno text; the driver additionally treats per-peer failures as worker
// loss (re-issue), never as fatal.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fabric/wire.h"

namespace fle::fabric {

/// RAII socket fd (move-only).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close();
  /// Releases ownership without closing.
  int release();

 private:
  int fd_ = -1;
};

/// Binds and listens on `address:port` (port 0 = ephemeral).  Returns the
/// listening socket (non-blocking) and the actually bound port.
struct ListenResult {
  Socket socket;
  std::uint16_t port = 0;
};
ListenResult listen_tcp(const std::string& address, std::uint16_t port);

/// Accepts one pending connection, or an invalid Socket when none is
/// pending.  The accepted fd is non-blocking.
Socket accept_tcp(int listen_fd);

/// Connects to `host:port`, retrying until `timeout` elapses (the driver
/// may not be accepting yet when a worker launches).  The returned fd is
/// blocking.  Throws std::runtime_error when the timeout expires.
Socket connect_tcp(const std::string& host, std::uint16_t port,
                   std::chrono::milliseconds timeout);

/// Sets SO_RCVTIMEO so blocking reads fail instead of hanging forever.
void set_read_timeout(int fd, std::chrono::milliseconds timeout);

/// Waits up to `timeout` for the peer to hang up (POLLRDHUP, POLLHUP or
/// POLLERR) and returns true if it did.  Readable data does not end the
/// wait, and none is read.
bool wait_for_hangup(int fd, std::chrono::milliseconds timeout);

/// Writes the whole buffer (blocking fd: loops; non-blocking fd: returns
/// the number of bytes actually written, which may be short).  Throws on
/// hard errors; EPIPE/ECONNRESET surface as the exception too — callers
/// that tolerate peer loss catch it.
std::size_t send_bytes(int fd, const std::uint8_t* data, std::size_t size, bool blocking);

/// Appends whatever is readable right now to `buffer` (non-blocking fd).
/// Returns false when the peer closed the connection (EOF) or a hard error
/// occurred; true otherwise (including "nothing to read yet").
bool read_available(int fd, std::vector<std::uint8_t>& buffer);

/// Blocking frame reader: reads from `fd` (honouring its SO_RCVTIMEO)
/// until `buffer` holds one complete frame, then returns it.  Returns
/// nullopt on EOF; throws std::runtime_error on timeout or socket error
/// and std::invalid_argument (from wire.h) on malformed frames.
std::optional<Frame> read_frame(int fd, std::vector<std::uint8_t>& buffer);

}  // namespace fle::fabric

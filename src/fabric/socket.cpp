#include "fabric/socket.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <limits>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace fle::fabric {

namespace {

[[noreturn]] void fail(const std::string& op) {
  throw std::runtime_error("fabric socket: " + op + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) fail("fcntl(O_NONBLOCK)");
}

sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("fabric socket: '" + address + "' is not an IPv4 address");
  }
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int Socket::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

ListenResult listen_tcp(const std::string& address, std::uint16_t port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail("socket");
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(address, port);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) fail("bind");
  if (::listen(sock.fd(), 64) < 0) fail("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    fail("getsockname");
  }
  set_nonblocking(sock.fd());
  return {std::move(sock), ntohs(addr.sin_port)};
}

Socket accept_tcp(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return Socket();
    fail("accept");
  }
  Socket sock(fd);
  set_nonblocking(sock.fd());
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

Socket connect_tcp(const std::string& host, std::uint16_t port,
                   std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const sockaddr_in addr = make_addr(host, port);
  for (;;) {
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid()) fail("socket");
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return sock;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("fabric socket: connect to " + host + ":" +
                               std::to_string(port) + " timed out after " +
                               std::to_string(timeout.count()) + "ms: " +
                               std::strerror(errno));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

void set_read_timeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) < 0) {
    fail("setsockopt(SO_RCVTIMEO)");
  }
}

bool wait_for_hangup(int fd, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd watch{fd, POLLRDHUP, 0};
    const int ready = ::poll(&watch, 1,
                             static_cast<int>(std::clamp<std::int64_t>(
                                 left.count(), 0, std::numeric_limits<int>::max())));
    if (ready > 0) return true;
    if (ready == 0) return false;
    if (errno != EINTR) fail("poll");
  }
}

std::size_t send_bytes(int fd, const std::uint8_t* data, std::size_t size, bool blocking) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (!blocking && (errno == EAGAIN || errno == EWOULDBLOCK)) return sent;
      fail("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return sent;
}

bool read_available(int fd, std::vector<std::uint8_t>& buffer) {
  for (;;) {
    std::uint8_t chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer.insert(buffer.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

std::optional<Frame> read_frame(int fd, std::vector<std::uint8_t>& buffer) {
  for (;;) {
    if (auto parsed = try_parse_frame(buffer)) {
      buffer.erase(buffer.begin(),
                   buffer.begin() + static_cast<std::ptrdiff_t>(parsed->consumed));
      return std::move(parsed->frame);
    }
    std::uint8_t chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer.insert(buffer.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) return std::nullopt;  // EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw std::runtime_error("fabric socket: read timed out waiting for a frame");
    }
    fail("recv");
  }
}

}  // namespace fle::fabric

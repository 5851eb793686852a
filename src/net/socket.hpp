// Portable POSIX TCP primitives for the serving layer.
//
// Three small pieces, no event framework:
//
//   * Socket      — RAII over a connected file descriptor with EINTR-safe
//                   read/write helpers. Writes never raise SIGPIPE
//                   (engine::run_blocking_session turns a gone peer into
//                   a quiet end, not a crash).
//   * TcpListener — bind + listen with SO_REUSEADDR; port 0 picks an
//                   ephemeral port and port() reports the bound one, which
//                   is what the loopback tests and benches use.
//   * connect_to  — getaddrinfo-based client connect (pgtool client, CI).
//
// Everything throws std::runtime_error with the errno text on setup
// failures; steady-state I/O reports EOF/peer-gone through return values
// because those are normal session endings, not errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace probgraph::net {

/// RAII TCP socket (movable, non-copyable). A default-constructed Socket
/// is invalid; read/write on it behave as EOF/peer-gone.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Read up to `n` bytes. Returns the count, 0 on orderly EOF, and -1 on
  /// a hard error (the caller treats both endings the same way). Retries
  /// EINTR; a peer reset (ECONNRESET) is reported as -1.
  [[nodiscard]] long read_some(void* buf, std::size_t n) noexcept;

  /// Write all `n` bytes, retrying short writes and EINTR. Returns false
  /// when the peer is gone (EPIPE/ECONNRESET) or on any other error —
  /// never raises SIGPIPE.
  [[nodiscard]] bool write_all(const void* buf, std::size_t n) noexcept;
  [[nodiscard]] bool write_all(std::string_view s) noexcept {
    return write_all(s.data(), s.size());
  }

  /// Half-close the write side (client EOF signal: "no more requests").
  void shutdown_write() noexcept;
  /// Shut down both directions — unblocks a thread parked in read_some on
  /// this socket (the server's stop path), without racing the fd's close.
  void shutdown_both() noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Listening TCP socket on 127.0.0.1 (the serving layer is a loopback /
/// behind-a-proxy service; it never binds a public interface by default).
class TcpListener {
 public:
  /// Binds and listens. `port` 0 means "pick an ephemeral port" — read the
  /// chosen one back with port(). Throws std::runtime_error on failure
  /// (address in use, out of fds, ...).
  explicit TcpListener(std::uint16_t port, int backlog = 64);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int fd() const noexcept { return sock_.fd(); }

  /// Accept one connection. Returns an invalid Socket on error (e.g. the
  /// listener was shut down); retries EINTR and transient per-connection
  /// failures (ECONNABORTED).
  [[nodiscard]] Socket accept() noexcept;

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Client-side connect. `host` is a name or numeric address. Throws
/// std::runtime_error when resolution or every candidate connect fails.
[[nodiscard]] Socket connect_to(const std::string& host, std::uint16_t port);

}  // namespace probgraph::net

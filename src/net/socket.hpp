// drw::net -- minimal POSIX TCP plumbing for the always-on walk server.
//
// Everything here is deliberately boring: RAII fds, non-blocking sockets
// (set by tcp_listen, accept_one and tcp_connect) whose every wait is a
// poll() with a timeout -- so a stuck peer can never park a thread in
// ::send or ::recv -- and a self-pipe so an async-signal-safe
// request_stop() can wake a poll()ing loop. Failpoint sites ("net.accept",
// "net.read", "net.write" -- see resil/failpoint.hpp) sit on each path so
// the crash harness and tests can inject connection-level faults against
// the real server.
//
// The framing protocol built on top lives in net/frame.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace drw::net {

/// RAII file descriptor. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (port 0 = ephemeral; read the real one
/// back with local_port). Throws std::runtime_error on failure.
Socket tcp_listen(const std::string& host, std::uint16_t port,
                  int backlog = 64);

/// The locally bound port of a listening (or connected) socket.
std::uint16_t local_port(const Socket& s);

/// Connects with a timeout. Throws std::runtime_error on failure/timeout.
Socket tcp_connect(const std::string& host, std::uint16_t port,
                   int timeout_ms);

/// Accepts one connection, waiting up to `timeout_ms` for it (0 = only if
/// one is already pending). Returns an invalid Socket on timeout or a
/// transient accept failure. Failpoint "net.accept" (short_write action
/// drops the accepted connection).
Socket accept_one(Socket& listener, int timeout_ms);

/// One non-blocking send / recv: the bytes moved, 0 if the socket would
/// block, -1 on EOF or error (the connection is done). Failpoints
/// "net.write" (short_write sends half the bytes and reports failure, so
/// the peer sees a torn frame) and "net.read" (short_write fails the read).
long send_some(Socket& s, const void* data, std::size_t n);
long recv_some(Socket& s, void* data, std::size_t n);

/// Fully sends / receives exactly n bytes, poll()ing with `timeout_ms` per
/// wait. Returns false on EOF, timeout, or error -- the caller treats the
/// connection as dead; no partial-progress state escapes.
bool send_all(Socket& s, const void* data, std::size_t n, int timeout_ms);
bool recv_all(Socket& s, void* data, std::size_t n, int timeout_ms);

/// Self-pipe (both ends non-blocking). wake() is async-signal-safe: a
/// SIGTERM handler calls it to break a poll loop out of poll().
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;
  void wake() noexcept;
  int read_fd() const noexcept { return fds_[0]; }

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace drw::net

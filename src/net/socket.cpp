#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "resil/failpoint.hpp"

namespace drw::net {
namespace {

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("net: not an IPv4 address: " + host);
  }
  return addr;
}

/// poll() one fd for `events`, retrying EINTR against the original
/// deadline. Returns false on timeout.
bool wait_fd(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

/// Every socket runs non-blocking, so a poll() with a timeout is the ONLY
/// place a thread waits (a blocking ::send just parks until the peer
/// drains its receive window).
void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool would_block() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

}  // namespace

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket tcp_listen(const std::string& host, std::uint16_t port, int backlog) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) {
    throw std::runtime_error(std::string("net: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(host, port);
  if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("net: bind " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
  }
  if (::listen(s.fd(), backlog) != 0) {
    throw std::runtime_error(std::string("net: listen: ") +
                             std::strerror(errno));
  }
  set_nonblocking(s.fd());
  return s;
}

std::uint16_t local_port(const Socket& s) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

Socket tcp_connect(const std::string& host, std::uint16_t port,
                   int timeout_ms) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) {
    throw std::runtime_error(std::string("net: socket: ") +
                             std::strerror(errno));
  }
  sockaddr_in addr = make_addr(host.empty() ? "127.0.0.1" : host, port);
  // Non-blocking connect so the timeout actually binds; the socket STAYS
  // non-blocking for its lifetime (see set_nonblocking).
  set_nonblocking(s.fd());
  const int rc =
      ::connect(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    throw std::runtime_error("net: connect " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
  }
  if (rc != 0) {
    if (!wait_fd(s.fd(), POLLOUT, timeout_ms)) {
      throw std::runtime_error("net: connect " + host + ":" +
                               std::to_string(port) + ": timeout");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      throw std::runtime_error("net: connect " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(err));
    }
  }
  const int one = 1;
  ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

Socket accept_one(Socket& listener, int timeout_ms) {
  if (timeout_ms > 0 && !wait_fd(listener.fd(), POLLIN, timeout_ms)) {
    return Socket();
  }
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) return Socket();  // none pending, peer gone, fd pressure
  Socket s(fd);
  if (resil::failpoint("net.accept")) return Socket();  // injected drop
  set_nonblocking(s.fd());
  const int one = 1;
  ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

long send_some(Socket& s, const void* data, std::size_t n) {
  // Torn write: push out half the bytes, then report the send failed. The
  // peer sees a truncated frame; its frame reader fails cleanly.
  const bool torn = resil::failpoint("net.write");
  const ssize_t w = ::send(s.fd(), data, torn ? n / 2 : n, MSG_NOSIGNAL);
  return torn ? -1 : w >= 0 ? w : would_block() ? 0 : -1;
}

long recv_some(Socket& s, void* data, std::size_t n) {
  if (resil::failpoint("net.read")) return -1;
  const ssize_t r = ::recv(s.fd(), data, n, 0);
  return r > 0 ? r : r < 0 && would_block() ? 0 : -1;  // r == 0: EOF
}

bool send_all(Socket& s, const void* data, std::size_t n, int timeout_ms) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const long w = send_some(s, p + sent, n - sent);
    if (w < 0) return false;
    if (w == 0 && !wait_fd(s.fd(), POLLOUT, timeout_ms)) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

bool recv_all(Socket& s, void* data, std::size_t n, int timeout_ms) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    if (!wait_fd(s.fd(), POLLIN, timeout_ms)) return false;
    const long r = recv_some(s, p + got, n - got);
    if (r < 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

WakePipe::WakePipe() {
  if (::pipe(fds_) != 0) {
    fds_[0] = fds_[1] = -1;
    return;
  }
  for (int fd : fds_) set_nonblocking(fd);
}

WakePipe::~WakePipe() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

void WakePipe::wake() noexcept {
  if (fds_[1] >= 0) {
    const char byte = 1;
    // write() is async-signal-safe; a full pipe means a wake is already
    // pending, which is all we need.
    [[maybe_unused]] const ssize_t rc = ::write(fds_[1], &byte, 1);
  }
}

}  // namespace drw::net

#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

namespace sw::net {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_after(std::chrono::milliseconds timeout) {
  return Clock::now() + timeout;
}

/// Milliseconds left until `deadline`, clamped to [0, INT_MAX] for poll(2).
int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > std::numeric_limits<int>::max()) {
    return std::numeric_limits<int>::max();
  }
  return static_cast<int>(left.count());
}

/// Wait for `events` on `fd`; false when the deadline passes first.
/// Spurious wakeups re-poll against the same deadline.
bool poll_until(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int rc = ::poll(&p, 1, remaining_ms(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw sw::util::Error(std::string("poll failed: ") +
                            std::strerror(errno));
    }
    if (rc == 0) return false;
    // Error/hangup conditions still count as "ready": the subsequent
    // send/recv surfaces the precise failure.
    return true;
  }
}

std::string errno_text() { return std::strerror(errno); }

void set_nodelay(int fd) {
  // Best-effort: meaningless (and failing) on unix-domain sockets.
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  SW_REQUIRE(!path.empty() && path.size() < sizeof(addr.sun_path),
             "unix socket path empty or longer than sockaddr_un allows: " +
                 path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Resolve a TCP host/port to the first usable IPv4/IPv6 address.
struct ResolvedAddr {
  sockaddr_storage storage{};
  socklen_t len = 0;
  int family = AF_INET;
};

ResolvedAddr resolve_tcp(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* list = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &list);
  SW_REQUIRE(rc == 0 && list != nullptr,
             "cannot resolve tcp endpoint " + host + ":" + service + ": " +
                 (rc != 0 ? ::gai_strerror(rc) : "no addresses"));
  ResolvedAddr out;
  std::memcpy(&out.storage, list->ai_addr, list->ai_addrlen);
  out.len = static_cast<socklen_t>(list->ai_addrlen);
  out.family = list->ai_family;
  ::freeaddrinfo(list);
  return out;
}

}  // namespace

Endpoint Endpoint::parse(const std::string& text) {
  Endpoint ep;
  if (text.rfind("unix:", 0) == 0) {
    ep.kind = Kind::kUnix;
    ep.path = text.substr(5);
    SW_REQUIRE(!ep.path.empty(), "unix endpoint needs a path: " + text);
    return ep;
  }
  SW_REQUIRE(text.rfind("tcp:", 0) == 0,
             "endpoint must start with tcp: or unix:, got: " + text);
  const std::string rest = text.substr(4);
  const auto colon = rest.rfind(':');
  SW_REQUIRE(colon != std::string::npos && colon > 0 &&
                 colon + 1 < rest.size(),
             "tcp endpoint must be tcp:HOST:PORT, got: " + text);
  ep.kind = Kind::kTcp;
  ep.host = rest.substr(0, colon);
  const std::string port_text = rest.substr(colon + 1);
  unsigned long port = 0;
  for (const char c : port_text) {
    SW_REQUIRE(c >= '0' && c <= '9',
               "tcp endpoint port must be numeric, got: " + text);
    port = port * 10 + static_cast<unsigned long>(c - '0');
    SW_REQUIRE(port <= 65535, "tcp endpoint port out of range: " + text);
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Connection::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Connection::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Connection::set_nonblocking(bool enabled) {
  SW_REQUIRE(valid(), "set_nonblocking on an invalid connection");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  SW_REQUIRE(flags >= 0, "fcntl(F_GETFL) failed: " + errno_text());
  const int next = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  SW_REQUIRE(::fcntl(fd_, F_SETFL, next) == 0,
             "fcntl(F_SETFL) failed: " + errno_text());
}

std::ptrdiff_t Connection::recv_some(std::span<std::uint8_t> bytes) {
  SW_REQUIRE(valid(), "recv on an invalid connection");
  for (;;) {
    const ssize_t n = ::recv(fd_, bytes.data(), bytes.size(), MSG_DONTWAIT);
    if (n >= 0) return static_cast<std::ptrdiff_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw sw::util::Error("recv failed: " + errno_text());
  }
}

std::ptrdiff_t Connection::send_some(std::span<const std::uint8_t> bytes) {
  SW_REQUIRE(valid(), "send on an invalid connection");
  for (;;) {
    const ssize_t n =
        ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return static_cast<std::ptrdiff_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw sw::util::Error("send failed: " + errno_text());
  }
}

// send_all/recv_all try the syscall first (MSG_DONTWAIT, so a full/empty
// buffer returns EAGAIN even on a blocking fd) and enter poll(2) only when
// the kernel actually pushed back. Two wins over the old poll-first loop:
// the happy path pays one syscall per transfer instead of two, and EAGAIN
// now explicitly re-polls for readiness against the deadline — the old
// loop's bare `continue` on EAGAIN could spin doing nothing against a
// slow peer until the deadline expired.

void Connection::send_all(std::span<const std::uint8_t> bytes,
                          std::chrono::milliseconds timeout) {
  SW_REQUIRE(valid(), "send on an invalid connection");
  const auto deadline = deadline_after(timeout);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const std::ptrdiff_t n = send_some(bytes.subspan(sent));
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    // Buffer full: block in poll until writable (or the deadline).
    if (!poll_until(fd_, POLLOUT, deadline)) {
      throw TimeoutError("send timed out with " +
                         std::to_string(bytes.size() - sent) +
                         " byte(s) unsent");
    }
  }
}

bool Connection::recv_all(std::span<std::uint8_t> bytes,
                          std::chrono::milliseconds timeout) {
  SW_REQUIRE(valid(), "recv on an invalid connection");
  const auto deadline = deadline_after(timeout);
  std::size_t got = 0;
  while (got < bytes.size()) {
    const std::ptrdiff_t n = recv_some(bytes.subspan(got));
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got == 0) return false;  // orderly close at a message boundary
      throw sw::util::Error("connection closed mid-message (" +
                            std::to_string(got) + " of " +
                            std::to_string(bytes.size()) + " bytes)");
    }
    // Nothing buffered: block in poll until readable (or the deadline).
    if (!poll_until(fd_, POLLIN, deadline)) {
      throw TimeoutError("recv timed out with " +
                         std::to_string(bytes.size() - got) + " of " +
                         std::to_string(bytes.size()) +
                         " byte(s) outstanding");
    }
  }
  return true;
}

bool Connection::wait_readable(std::chrono::milliseconds timeout) {
  SW_REQUIRE(valid(), "wait_readable on an invalid connection");
  return poll_until(fd_, POLLIN, deadline_after(timeout));
}

Connection Connection::connect(const Endpoint& endpoint,
                               std::chrono::milliseconds timeout) {
  const auto deadline = deadline_after(timeout);
  for (;;) {
    int fd = -1;
    sockaddr_storage storage{};
    socklen_t len = 0;
    if (endpoint.kind == Endpoint::Kind::kUnix) {
      const sockaddr_un addr = unix_addr(endpoint.path);
      fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      SW_REQUIRE(fd >= 0, "cannot create unix socket: " + errno_text());
      std::memcpy(&storage, &addr, sizeof(addr));
      len = sizeof(addr);
    } else {
      const ResolvedAddr addr = resolve_tcp(endpoint.host, endpoint.port);
      fd = ::socket(addr.family, SOCK_STREAM | SOCK_CLOEXEC, 0);
      SW_REQUIRE(fd >= 0, "cannot create tcp socket: " + errno_text());
      storage = addr.storage;
      len = addr.len;
    }
    Connection conn(fd);
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&storage), len);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      if (endpoint.kind == Endpoint::Kind::kTcp) set_nodelay(fd);
      return conn;
    }
    // Not-listening-yet shapes are retried until the deadline so a
    // coordinator may start before its workers finish binding; anything
    // else is a hard error.
    const bool retryable = errno == ECONNREFUSED || errno == ENOENT ||
                           errno == ECONNRESET || errno == EAGAIN;
    if (!retryable) {
      throw sw::util::Error("connect to " + endpoint.to_string() +
                            " failed: " + errno_text());
    }
    conn.close();
    if (remaining_ms(deadline) == 0) {
      throw TimeoutError("connect to " + endpoint.to_string() +
                         " timed out: " + errno_text());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Listener::Listener(const Endpoint& endpoint, int backlog)
    : endpoint_(endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = unix_addr(endpoint.path);
    // A socket file left by a killed process would make bind fail with
    // EADDRINUSE even though nobody is listening.
    ::unlink(endpoint.path.c_str());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    SW_REQUIRE(fd_ >= 0, "cannot create unix socket: " + errno_text());
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string what = errno_text();
      close();
      throw sw::util::Error("cannot bind " + endpoint.to_string() + ": " +
                            what);
    }
    unlink_path_ = endpoint.path;
  } else {
    const ResolvedAddr addr = resolve_tcp(endpoint.host, endpoint.port);
    fd_ = ::socket(addr.family, SOCK_STREAM | SOCK_CLOEXEC, 0);
    SW_REQUIRE(fd_ >= 0, "cannot create tcp socket: " + errno_text());
    int one = 1;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr.storage),
               addr.len) != 0) {
      const std::string what = errno_text();
      close();
      throw sw::util::Error("cannot bind " + endpoint.to_string() + ": " +
                            what);
    }
    // Resolve an ephemeral port request so callers can advertise the
    // actual address.
    sockaddr_storage bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0) {
      if (bound.ss_family == AF_INET) {
        endpoint_.port = ntohs(
            reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        endpoint_.port = ntohs(
            reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
      }
    }
  }
  if (::listen(fd_, backlog) != 0) {
    const std::string what = errno_text();
    close();
    throw sw::util::Error("cannot listen on " + endpoint.to_string() + ": " +
                          what);
  }
}

std::optional<Connection> Listener::accept(
    std::chrono::milliseconds timeout) {
  if (fd_ < 0) return std::nullopt;
  if (!poll_until(fd_, POLLIN, deadline_after(timeout))) return std::nullopt;
  const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED || errno == EINVAL || errno == EBADF) {
      // EINVAL: wake() shut the listener down; EBADF: it was closed.
      return std::nullopt;
    }
    throw sw::util::Error("accept failed: " + errno_text());
  }
  if (endpoint_.kind == Endpoint::Kind::kTcp) set_nodelay(fd);
  return Connection(fd);
}

void Listener::wake() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    // close(2) alone does not interrupt a concurrent poll.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

}  // namespace sw::net

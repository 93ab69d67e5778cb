// Blocking-socket transport for the serving layer: TCP and unix-domain
// stream sockets with poll-based deadlines.
//
// The wire format (serve/wire.h) is self-delimiting, so the transport's
// only jobs are (1) moving exact byte counts with a bounded wait — every
// send/recv takes a timeout and throws TimeoutError when the peer stalls
// past it, so a dead worker can never hang a coordinator — and (2) owning
// file descriptors with RAII so sanitizer legs stay leak-free. Sockets
// stay in blocking mode; readiness is gated by poll(2) against a deadline
// computed once per call, so a slow peer that dribbles bytes still
// completes as long as the whole transfer fits the budget. TCP listeners
// set SO_REUSEADDR (CI restarts reuse ports immediately) and disable
// Nagle on accepted/established connections: request/response frames are
// latency-sensitive and self-contained, so delayed ACK coalescing only
// adds stalls.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "util/error.h"

namespace sw::net {

/// Thrown when a send/recv/accept/connect deadline expires. Distinct from
/// plain Error so callers can treat "peer is slow" differently from "peer
/// sent garbage" (the sweep coordinator re-shards on the former, aborts on
/// the latter).
class TimeoutError : public sw::util::Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

/// A parsed transport address: "tcp:HOST:PORT" or "unix:PATH". TCP port 0
/// asks the kernel for an ephemeral port; Listener::local_endpoint()
/// reports the resolved one.
struct Endpoint {
  enum class Kind : std::uint8_t { kTcp, kUnix };

  Kind kind = Kind::kTcp;
  std::string host;         ///< TCP only (numeric or resolvable name)
  std::uint16_t port = 0;   ///< TCP only
  std::string path;         ///< unix only (filesystem socket path)

  /// Parse "tcp:HOST:PORT" / "unix:PATH"; throws sw::util::Error on any
  /// other shape (missing port, empty path, unknown scheme).
  static Endpoint parse(const std::string& text);

  std::string to_string() const;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// One connected stream socket, move-only, closed on destruction.
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() { close(); }

  Connection(Connection&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close() noexcept;

  /// Flip O_NONBLOCK for the event-driven server: readiness comes from
  /// epoll, and a send/recv must return EAGAIN instead of parking the
  /// event thread. The deadline-based send_all/recv_all below still work
  /// on a non-blocking fd (they poll on EAGAIN).
  void set_nonblocking(bool enabled);

  /// One non-blocking recv: bytes read (> 0), 0 on orderly close, -1 when
  /// the socket has nothing buffered (EAGAIN) — never blocks, throws Error
  /// on a hard socket failure. The epoll read path.
  std::ptrdiff_t recv_some(std::span<std::uint8_t> bytes);

  /// One non-blocking send: bytes written (>= 0, short counts normal),
  /// -1 when the socket buffer is full (EAGAIN). SIGPIPE suppressed; peer
  /// resets throw Error. The epoll write path.
  std::ptrdiff_t send_some(std::span<const std::uint8_t> bytes);

  /// Shut down both directions without releasing the descriptor: a
  /// send/recv blocked on another thread returns immediately with an
  /// error/EOF. Safe to call concurrently with IO on the same connection
  /// (the fd itself stays valid until close()).
  void shutdown() noexcept;

  /// Send every byte of `bytes` within `timeout` (deadline over the whole
  /// span, re-polled between partial writes). Throws TimeoutError on
  /// deadline, Error on a peer reset. SIGPIPE is suppressed.
  void send_all(std::span<const std::uint8_t> bytes,
                std::chrono::milliseconds timeout);

  /// Receive exactly `bytes.size()` bytes within `timeout`. Returns false
  /// when the peer performed an orderly close before the *first* byte (a
  /// clean end-of-stream); throws Error when the stream ends mid-span and
  /// TimeoutError on deadline.
  bool recv_all(std::span<std::uint8_t> bytes,
                std::chrono::milliseconds timeout);

  /// Wait up to `timeout` for the connection to become readable (data or
  /// EOF); false on timeout. Used as the idle tick between frames so
  /// serving loops can check a stop flag with a bounded cadence.
  bool wait_readable(std::chrono::milliseconds timeout);

  /// Connect to `endpoint`, retrying refused/not-yet-bound attempts until
  /// `timeout` elapses — so a coordinator may be started before its
  /// workers finish binding. Throws TimeoutError when the deadline passes
  /// without a connection.
  static Connection connect(const Endpoint& endpoint,
                            std::chrono::milliseconds timeout);

 private:
  int fd_ = -1;
};

/// A bound, listening stream socket. Unix-domain paths are unlinked both
/// before bind (stale socket files from a killed process) and on close.
class Listener {
 public:
  explicit Listener(const Endpoint& endpoint, int backlog = 64);
  ~Listener() { close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The bound address with any ephemeral TCP port resolved.
  const Endpoint& local_endpoint() const { return endpoint_; }
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }  ///< for registering with epoll

  /// Accept one connection, waiting up to `timeout`; nullopt on timeout
  /// (and after close(), so accept loops terminate). Throws Error on a
  /// listener-level failure.
  std::optional<Connection> accept(std::chrono::milliseconds timeout);

  /// Wakes a thread parked in accept() (which then returns nullopt) via
  /// shutdown(2), without releasing the descriptor: a stopping owner calls
  /// this, joins its accept thread, and only then close()s, so neither
  /// fd_ nor the descriptor number changes under a running accept().
  void wake() noexcept;

  /// Idempotent; unblocks a concurrent accept() via shutdown(2). Releases
  /// the descriptor, so it must not race an accept() on another thread —
  /// wake() and join that thread first.
  void close() noexcept;

 private:
  int fd_ = -1;
  Endpoint endpoint_;
  std::string unlink_path_;  ///< unix socket file to remove on close
};

}  // namespace sw::net

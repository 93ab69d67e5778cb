#include "client.h"

#include <poll.h>
#include <sys/prctl.h>
#include <time.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "net/protocol.h"
#include "serve/wire.h"

namespace perfbench {

namespace {

constexpr std::size_t kRecvChunk = 64u << 10;
constexpr std::size_t kMaxConnections = 16;
/// Requests that may await a reply at once (a power of two); beyond it a
/// new request counts as failed instead of being sent.
constexpr std::size_t kRingSize = std::size_t{1} << 16;
/// Span slots request tracing leaves free for the layer probes that follow
/// a traced window.
constexpr std::size_t kSpansKeptForProbes = std::size_t{1} << 17;
/// Replies still missing this long after the last send count as timeouts.
constexpr std::int64_t kDrainTimeoutNs = 10'000'000'000;

void store_tag(std::vector<std::uint8_t>& message, std::uint64_t tag) {
  for (int b = 0; b < 8; ++b) {
    message[8 + b] = static_cast<std::uint8_t>(tag >> (8 * b));
  }
}

}  // namespace

std::pair<double, double> cpu_steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int i = 0; i < 10 && f >> v; ++i) {
    total += v;
    if (i == 7) steal = v;  // user nice system idle iowait irq softirq steal
  }
  return {steal, total};
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

Client::Client(const sw::net::Endpoint& endpoint, std::size_t connections,
               std::vector<PoolRequest>& pool)
    : pool_(&pool) {
  if (connections == 0 || connections > kMaxConnections) {
    throw std::invalid_argument("Client: 1 to 16 connections");
  }
  ring_.resize(kRingSize);
  conns_.resize(connections);
  for (auto& c : conns_) {
    const std::int64_t t0 = now_ns();
    c.socket = sw::net::Connection::connect(endpoint,
                                            std::chrono::milliseconds(5000));
    connect_us_.push_back((now_ns() - t0) / 1e3);
    c.socket.set_nonblocking(true);
    c.in.resize(2 * kRecvChunk);
  }
}

bool Client::send(std::size_t conn, std::size_t pool_index,
                  PhaseResult& result, std::int64_t due_ns) {
  ++result.attempted;
  const std::uint64_t tag = next_tag_++;
  InFlight& f = ring_[tag & (kRingSize - 1)];
  if (f.pending) {
    record(result, due_ns < 0 ? now_ns() : due_ns, 0, 0, false);
    return false;
  }
  PoolRequest& req = (*pool_)[pool_index];
  store_tag(req.message, tag);
  Conn& c = conns_[conn];
  const std::int64_t t0 = now_ns();
  std::size_t sent = 0;
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
    const auto n = c.socket.send_some(req.message);
    sent = n > 0 ? static_cast<std::size_t>(n) : 0;
  }
  c.out.insert(c.out.end(), req.message.begin() + static_cast<std::ptrdiff_t>(sent),
               req.message.end());
  const std::int64_t t1 = now_ns();
  f = {tag, due_ns < 0 ? t0 : due_ns, t0, t1,
       static_cast<std::uint32_t>(pool_index), true};
  ++outstanding_;
  ++result.sends;
  result.send_syscall_us += (t1 - t0) / 1e3;
  return true;
}

void Client::record(PhaseResult& result, std::int64_t start_ns,
                    std::int64_t done_ns, std::size_t words, bool ok) {
  const double latency_us =
      ok ? (done_ns - start_ns) / 1e3 : std::numeric_limits<double>::infinity();
  if (ok) {
    ++result.ok;
    result.words_ok += words;
    result.latency.record(latency_us);
  } else {
    ++result.failed;
  }
  const std::int64_t key = ok ? done_ns : start_ns;
  if (key < result.start_ns || key >= result.stop_ns) return;
  const std::size_t n = result.windows.size();
  const auto w = std::min(
      n - 1, static_cast<std::size_t>(static_cast<double>(key - result.start_ns) /
                                      static_cast<double>(result.stop_ns -
                                                          result.start_ns) *
                                      static_cast<double>(n)));
  result.windows[w].record(latency_us);
  if (ok) result.window_words[w] += words;
}

void Client::handle_reply(std::size_t conn,
                          const sw::net::MessageHeader& header,
                          std::span<const std::uint8_t> payload,
                          const ReplyFn& on_reply,
                          PhaseResult& result, SpanLog& spans) {
  sw::net::verify_message_payload(header, payload);
  InFlight& slot = ring_[header.tag & (kRingSize - 1)];
  if (!slot.pending || slot.tag != header.tag) {
    // A reply nobody is waiting for: a tag the server made up, or a late
    // reply to a request already counted as timed out.
    ++result.mismatches;
    ++result.failed;
    return;
  }
  // A copy: the slot is free for reuse once marked.
  const InFlight f = slot;
  slot.pending = false;
  --outstanding_;
  const auto fail = [&] { record(result, f.start_ns, 0, 0, false); };
  if (header.kind != sw::net::MessageKind::kFrame) {
    // kError (refusal, overload, internal) or a kind a reply cannot be.
    if (header.kind != sw::net::MessageKind::kError) ++result.mismatches;
    fail();
    on_reply(conn);
    return;
  }
  const std::int64_t decode_ns = now_ns();
  sw::serve::SweepFrame frame;
  try {
    frame = sw::serve::decode_frame(payload);
  } catch (const std::exception&) {
    ++result.mismatches;
    fail();
    on_reply(conn);
    return;
  }
  const std::int64_t done_ns = now_ns();
  // The next request goes out before this reply is checked, so checking
  // stays off the closed loop's critical path.
  on_reply(conn);
  const PoolRequest& req = (*pool_)[f.pool_index];
  const std::int64_t check_ns = now_ns();
  const bool shape_ok = frame.kind == sw::serve::FrameKind::kResponse &&
                        frame.word_offset == req.word_offset &&
                        frame.num_words == req.num_words &&
                        frame.matrix.size() == req.expected.size();
  const bool bits_ok =
      shape_ok && std::memcmp(frame.matrix.data(), req.expected.data(),
                              req.expected.size()) == 0;
  const std::int64_t checked_ns = now_ns();
  if (!shape_ok) {
    ++result.mismatches;
    fail();
  } else if (!bits_ok) {
    ++result.wrong_bits;
    fail();
  } else {
    record(result, f.start_ns, done_ns, req.num_words, true);
  }
  if (spans.enabled() && spans.free_slots() > kSpansKeptForProbes) {
    const std::int32_t root =
        spans.add("client.request", f.start_ns, done_ns, -1, header.tag);
    spans.add("net.client_send", f.send_ns, f.send_end_ns, root, header.tag);
    spans.add("net.await_reply", f.send_end_ns, decode_ns, root, header.tag);
    spans.add("serve.decode_frame", decode_ns, done_ns, root, header.tag);
    spans.add("bench.check", check_ns, checked_ns, -1, header.tag);
  }
}

void Client::pump(std::int64_t timeout_ns,
                  const ReplyFn& on_reply,
                  PhaseResult& result, SpanLog& spans) {
  pollfd fds[kMaxConnections];
  const std::size_t n = conns_.size();
  for (std::size_t i = 0; i < n; ++i) {
    fds[i].fd = conns_[i].socket.fd();
    fds[i].events = POLLIN;
    if (conns_[i].out_pos < conns_[i].out.size()) fds[i].events |= POLLOUT;
    fds[i].revents = 0;
  }
  timespec ts{};
  if (timeout_ns > 0) {
    ts.tv_sec = timeout_ns / 1'000'000'000;
    ts.tv_nsec = timeout_ns % 1'000'000'000;
  }
  const int ready = ::ppoll(fds, n, &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return;
    throw std::runtime_error("ppoll failed: " + std::string(std::strerror(errno)));
  }
  for (std::size_t i = 0; i < n && ready > 0; ++i) {
    Conn& c = conns_[i];
    const short ev = fds[i].revents;
    if (ev & POLLNVAL) throw std::runtime_error("connection closed locally");
    if (ev & POLLOUT) {
      const auto sent = c.socket.send_some(
          {c.out.data() + c.out_pos, c.out.size() - c.out_pos});
      if (sent > 0) c.out_pos += static_cast<std::size_t>(sent);
    }
    if (!(ev & (POLLIN | POLLERR | POLLHUP))) continue;
    for (;;) {
      if (c.in.size() - c.in_end < kRecvChunk) {
        if (c.in_pos > 0) {
          std::memmove(c.in.data(), c.in.data() + c.in_pos, c.in_end - c.in_pos);
          c.in_end -= c.in_pos;
          c.in_pos = 0;
        }
        if (c.in.size() - c.in_end < kRecvChunk) c.in.resize(c.in_end + 2 * kRecvChunk);
      }
      const auto got =
          c.socket.recv_some({c.in.data() + c.in_end, c.in.size() - c.in_end});
      if (got < 0) break;
      if (got == 0) throw std::runtime_error("server closed a connection");
      c.in_end += static_cast<std::size_t>(got);
      while (c.in_end - c.in_pos >= sw::net::kMessageHeaderSize) {
        const auto header = sw::net::parse_message_header(
            {c.in.data() + c.in_pos, sw::net::kMessageHeaderSize});
        const std::size_t need =
            sw::net::kMessageHeaderSize + static_cast<std::size_t>(header.payload_size);
        if (c.in_end - c.in_pos < need) {
          if (c.in.size() - c.in_pos < need + kRecvChunk) {
            c.in.resize(c.in_pos + need + kRecvChunk);
          }
          break;
        }
        handle_reply(i, header,
                     {c.in.data() + c.in_pos + sw::net::kMessageHeaderSize,
                      static_cast<std::size_t>(header.payload_size)},
                     on_reply, result, spans);
        c.in_pos += need;
      }
      if (c.in_pos == c.in_end) c.in_pos = c.in_end = 0;
    }
  }
}

void Client::begin_phase(PhaseResult& result, std::int64_t start_ns,
                         std::int64_t stop_ns) {
  result.start_ns = start_ns;
  result.stop_ns = stop_ns;
  windows_sampled_ = 0;
  last_ticks_ = cpu_steal_ticks();
  last_cpu_s_ = process_cpu_s();
}

void Client::sample_windows(PhaseResult& result) {
  const std::size_t n = result.windows.size();
  const double span = static_cast<double>(result.stop_ns - result.start_ns);
  const std::int64_t now = now_ns();
  while (windows_sampled_ < n &&
         now >= result.start_ns +
                    static_cast<std::int64_t>(
                        span * static_cast<double>(windows_sampled_ + 1) /
                        static_cast<double>(n))) {
    const auto ticks = cpu_steal_ticks();
    const double cpu_s = process_cpu_s();
    const double total = ticks.second - last_ticks_.second;
    result.window_steal[windows_sampled_] =
        total > 0 ? (ticks.first - last_ticks_.first) / total : 0.0;
    result.window_cpu_s[windows_sampled_++] = cpu_s - last_cpu_s_;
    last_ticks_ = ticks;
    last_cpu_s_ = cpu_s;
  }
}

void Client::drain(std::int64_t last_send_ns, const ReplyFn& on_reply,
                   PhaseResult& result, SpanLog& spans) {
  while (outstanding_ > 0) {
    if (now_ns() - last_send_ns > kDrainTimeoutNs) {
      // Timeouts: count them and forget the requests; a straggling reply
      // later reads as a mismatch.
      for (auto& f : ring_) {
        if (f.pending) record(result, f.start_ns, 0, 0, false);
        f.pending = false;
      }
      outstanding_ = 0;
      break;
    }
    pump(50'000'000, on_reply, result, spans);
  }
}

PhaseResult Client::closed_loop(std::size_t depth, double seconds,
                                std::size_t num_windows,
                                const std::function<std::size_t()>& next,
                                SpanLog& spans) {
  PhaseResult result(num_windows);
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  begin_phase(result, start, stop);
  std::int64_t last_send = start;
  for (std::size_t d = 0; d < depth; ++d) {
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      last_send = now_ns();
      send(c, next(), result);
    }
  }
  const ReplyFn on_reply = [&](std::size_t conn) {
    const std::int64_t t = now_ns();
    if (t < stop) {
      last_send = t;
      send(conn, next(), result);
    }
  };
  while (outstanding_ > 0 && now_ns() < stop) {
    pump(std::min<std::int64_t>(stop - now_ns(), 50'000'000), on_reply, result,
         spans);
    sample_windows(result);
  }
  sample_windows(result);
  drain(last_send, on_reply, result, spans);
  return result;
}

PhaseResult Client::open_loop(const std::vector<std::int64_t>& due_ns,
                              std::size_t max_backlog,
                              const std::function<std::size_t()>& next) {
  // The generator sleeps in ppoll until the next due time; the default
  // 50 us timer slack would show up as lateness.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PhaseResult result;
  SpanLog off(false);
  const ReplyFn no_op = [](std::size_t) {};
  const std::int64_t base = now_ns() + 1'000'000;
  const std::int64_t last_due = base + (due_ns.empty() ? 0 : due_ns.back());
  begin_phase(result, base, last_due + 1);
  std::int64_t last_send = base;
  std::size_t i = 0;
  while (i < due_ns.size() && !result.overloaded) {
    for (std::int64_t t = now_ns(); i < due_ns.size() && base + due_ns[i] <= t;
         ++i, t = now_ns()) {
      if (outstanding_ >= max_backlog) {
        result.overloaded = true;
        break;
      }
      const std::int64_t due = base + due_ns[i];
      last_send = now_ns();
      send(i % conns_.size(), next(), result, due);
      result.late.record((last_send - due) / 1e3);
    }
    if (i < due_ns.size() && !result.overloaded) {
      pump(base + due_ns[i] - now_ns(), no_op, result, off);
    }
  }
  sample_windows(result);
  drain(last_send, no_op, result, off);
  return result;
}

}  // namespace perfbench

// The benchmark's TCP client: one thread drives every connection
// non-blocking through the public client API (net::Connection,
// net::parse_message_header / verify_message_payload, serve::decode_frame)
// and bit-checks every reply against its precomputed Boolean reference.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "helpers.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "spans.h"

namespace perfbench {

/// Machine-wide CPU time as {steal, total} ticks (first line of
/// /proc/stat). Steal is time the hypervisor ran something else on this
/// VM's CPUs.
std::pair<double, double> cpu_steal_ticks();

/// CPU time this process has used so far, every thread, user + system.
double process_cpu_s();

/// One request of the workload's pool, encoded once at set-up.
struct PoolRequest {
  /// Envelope + wire frame. The 8-byte envelope tag (byte 8, outside the
  /// envelope checksum) is rewritten per send so every request in flight
  /// has its own tag.
  std::vector<std::uint8_t> message;
  std::uint64_t word_offset = 0;
  std::size_t num_words = 0;
  std::uint32_t key = 0;  ///< function index (program_churn), else 0
  std::vector<std::uint8_t> input;     ///< unpacked primary matrix
  std::vector<std::uint8_t> expected;  ///< Boolean reference of the reply
};

/// What one phase of traffic produced. Latencies are in microseconds,
/// from the send (closed loop) or the due time (open loop) to the decoded
/// reply.
struct PhaseResult {
  explicit PhaseResult(std::size_t num_windows = 1)
      : windows(num_windows),
        window_words(num_windows, 0),
        window_steal(num_windows, 0.0),
        window_cpu_s(num_windows, 0.0) {}

  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;     ///< refusals, typed errors, timeouts, wrong
  std::uint64_t wrong_bits = 0; ///< replies whose bits differ from reference
  std::uint64_t mismatches = 0; ///< unknown tag or wrong word offset/shape
  std::uint64_t words_ok = 0;
  /// The measured interval, split into equal windows: first send to the
  /// stop time, bucketed by completion.
  std::int64_t start_ns = 0;
  std::int64_t stop_ns = 0;
  /// Per window: latencies with failures as +inf, and words delivered.
  std::vector<LogHistogram> windows;
  std::vector<std::uint64_t> window_words;
  /// Per window: share of the machine's CPU time the host stole.
  std::vector<double> window_steal;
  /// Per window: CPU time the whole process (server and client) used.
  std::vector<double> window_cpu_s;
  LogHistogram latency;  ///< every successful request
  /// Open loop: send time minus due time, per request sent.
  LogHistogram late;
  /// Open loop: the phase stopped sending early because its backlog of
  /// unanswered requests reached the limit.
  bool overloaded = false;
  double send_syscall_us = 0.0;  ///< summed time inside send calls
  std::uint64_t sends = 0;
};

class Client {
 public:
  /// Connects `connections` sockets to `endpoint`, timing each connect.
  Client(const sw::net::Endpoint& endpoint, std::size_t connections,
         std::vector<PoolRequest>& pool);
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  const std::vector<double>& connect_us() const { return connect_us_; }

  /// Closed loop: `depth` requests in flight per connection; each reply
  /// releases the next request on its connection until `seconds` pass,
  /// then the loop drains. `next` picks the pool index of each request.
  PhaseResult closed_loop(std::size_t depth, double seconds,
                          std::size_t num_windows,
                          const std::function<std::size_t()>& next,
                          SpanLog& spans);

  /// Open loop: request i is due at `due_ns[i]` after the start, goes out
  /// on connection i % connections and carries pool entry `next()`. Once
  /// `max_backlog` requests await replies the phase stops sending, marks
  /// itself overloaded and drains, so an overloaded server is reported,
  /// not queued into timeouts.
  PhaseResult open_loop(const std::vector<std::int64_t>& due_ns,
                        std::size_t max_backlog,
                        const std::function<std::size_t()>& next);

 private:
  struct Conn {
    sw::net::Connection socket;
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    std::vector<std::uint8_t> in;
    std::size_t in_pos = 0;
    std::size_t in_end = 0;
  };
  /// A request awaiting its reply, in a fixed ring indexed by tag.
  struct InFlight {
    std::uint64_t tag = 0;
    std::int64_t start_ns = 0;  ///< due time (open loop) or send time
    std::int64_t send_ns = 0;
    std::int64_t send_end_ns = 0;
    std::uint32_t pool_index = 0;
    bool pending = false;
  };
  using ReplyFn = std::function<void(std::size_t conn)>;

  void begin_phase(PhaseResult& result, std::int64_t start_ns,
                   std::int64_t stop_ns);
  /// Read the host's steal counter and the process's CPU clock at every
  /// window boundary passed since the last call.
  void sample_windows(PhaseResult& result);
  /// False when the ring is full (the request is then counted failed).
  /// Latency counts from `due_ns`, or from the send when it is negative.
  bool send(std::size_t conn, std::size_t pool_index, PhaseResult& result,
            std::int64_t due_ns = -1);
  void record(PhaseResult& result, std::int64_t start_ns, std::int64_t done_ns,
              std::size_t words, bool ok);
  /// Poll every connection for up to `timeout_ns`, flush pending output
  /// and handle each complete reply; `on_reply` runs once per reply right
  /// after it is decoded (the closed loop sends its next request there).
  void pump(std::int64_t timeout_ns, const ReplyFn& on_reply,
            PhaseResult& result, SpanLog& spans);
  void handle_reply(std::size_t conn, const sw::net::MessageHeader& header,
                    std::span<const std::uint8_t> payload,
                    const ReplyFn& on_reply, PhaseResult& result,
                    SpanLog& spans);
  /// Wait for every outstanding reply; past a deadline the rest count as
  /// timed out.
  void drain(std::int64_t last_send_ns, const ReplyFn& on_reply,
             PhaseResult& result, SpanLog& spans);

  std::vector<PoolRequest>* pool_;
  std::vector<Conn> conns_;
  std::vector<double> connect_us_;
  std::vector<InFlight> ring_;
  std::uint64_t next_tag_ = 1;
  std::uint64_t outstanding_ = 0;
  std::size_t windows_sampled_ = 0;
  std::pair<double, double> last_ticks_;
  double last_cpu_s_ = 0.0;
};

}  // namespace perfbench

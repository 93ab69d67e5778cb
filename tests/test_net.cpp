// Networked-serving tests: endpoint parsing, socket round trips and
// timeout behaviour over TCP and unix-domain transports, the message
// envelope, EvalServer end-to-end against the in-process evaluator
// (including pipelined tagged out-of-order completion, kShed mapping to
// a typed error frame on a surviving connection, connection-cap refusal
// with a live accept loop, metrics scraping, layout-hash rejection, small
// cached requests running on the event thread while cold or larger ones
// run on the pool, and frames reassembled across arbitrary reads),
// the worker registry (advert codec, TTL upsert/expiry, tag echo), and
// the SweepCoordinator's distributed exhaustive sweep with registry
// discovery, straggler re-sharding, bit-exact duplicate deduplication
// and divergent-duplicate abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compile/lower.h"
#include "compile/synth.h"
#include "compile/truth_table.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/fvmsw.h"
#include "mag/material.h"
#include "net/eval_server.h"
#include "net/metrics.h"
#include "net/protocol.h"
#include "net/registry.h"
#include "net/socket.h"
#include "net/sweep_coordinator.h"
#include "obs/trace.h"
#include "serve/layout_hash.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_program.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace sw::net;
using sw::core::DataParallelGate;
using sw::core::GateLayout;
using sw::core::GateSpec;
using sw::core::InlineGateDesigner;
using sw::disp::FvmswDispersion;
using sw::disp::Waveguide;
using sw::wavesim::BatchEvaluator;
using sw::wavesim::WaveEngine;
using namespace std::chrono_literals;

Waveguide paper_waveguide() {
  Waveguide wg;
  wg.material = sw::mag::make_fecob();
  wg.width = 50e-9;
  wg.thickness = 1e-9;
  return wg;
}

GateSpec majority_spec(std::size_t m, std::size_t n) {
  GateSpec spec;
  spec.num_inputs = m;
  for (std::size_t i = 1; i <= n; ++i) {
    spec.frequencies.push_back(1e10 * static_cast<double>(i));
  }
  return spec;
}

std::vector<std::uint8_t> random_matrix(std::size_t rows, std::size_t cols,
                                        unsigned seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution coin(0.5);
  std::vector<std::uint8_t> m(rows * cols);
  for (auto& b : m) b = coin(rng) ? 1 : 0;
  return m;
}

/// Value of a `name value` exposition line, or -1 when absent. Matches at
/// line starts only, so a name that prefixes another (rx_bytes_total vs a
/// labelled variant) cannot alias.
double metric_value(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::atof(text.c_str() + pos + needle.size());
    }
    pos += needle.size();
  }
  return -1.0;
}

/// Everything a worker end needs: model, designer, service, server.
struct ServerFixture {
  Waveguide wg = paper_waveguide();
  FvmswDispersion model{wg};
  InlineGateDesigner designer{model};
  sw::serve::EvaluatorService service;
  EvalServer server;

  explicit ServerFixture(const Endpoint& endpoint,
                         sw::serve::ServiceOptions service_options = {},
                         EvalServerOptions server_options = {})
      : service(model, wg.material.alpha, std::move(service_options)),
        server(
            service,
            [this](const GateSpec& spec) { return designer.design(spec); },
            endpoint, server_options) {}
};

Endpoint loopback() { return Endpoint::parse("tcp:127.0.0.1:0"); }

// ------------------------------------------------------------- endpoints --

TEST(NetEndpoint, ParsesTcpAndUnix) {
  const auto tcp = Endpoint::parse("tcp:127.0.0.1:8080");
  EXPECT_EQ(tcp.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 8080);
  EXPECT_EQ(tcp.to_string(), "tcp:127.0.0.1:8080");

  const auto unix_ep = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
  EXPECT_EQ(unix_ep.to_string(), "unix:/tmp/x.sock");
}

TEST(NetEndpoint, RejectsMalformed) {
  EXPECT_THROW((void)Endpoint::parse("tcp:127.0.0.1"), sw::util::Error);
  EXPECT_THROW((void)Endpoint::parse("tcp::8080"), sw::util::Error);
  EXPECT_THROW((void)Endpoint::parse("tcp:h:65536"), sw::util::Error);
  EXPECT_THROW((void)Endpoint::parse("tcp:h:80x"), sw::util::Error);
  EXPECT_THROW((void)Endpoint::parse("unix:"), sw::util::Error);
  EXPECT_THROW((void)Endpoint::parse("udp:1.2.3.4:5"), sw::util::Error);
}

// ----------------------------------------------------- socket + envelope --

void roundtrip_over(const Endpoint& endpoint) {
  Listener listener(endpoint);
  Connection client;
  std::thread connector([&] {
    client = Connection::connect(listener.local_endpoint(), 2000ms);
  });
  auto accepted = listener.accept(2000ms);
  connector.join();
  ASSERT_TRUE(accepted.has_value());
  ASSERT_TRUE(client.valid());

  // Error message client -> server.
  send_message(client, make_error_message(ErrorCode::kOverload, "busy"),
               1000ms);
  auto got = recv_message(*accepted, 2000ms);
  ASSERT_TRUE(got.has_value());
  const auto info = decode_error_message(*got);
  EXPECT_EQ(info.code, ErrorCode::kOverload);
  EXPECT_EQ(info.text, "busy");

  // Metrics text server -> client.
  send_message(*accepted,
               make_text_message(MessageKind::kMetricsResponse, "a 1\n"),
               1000ms);
  auto text = recv_message(client, 2000ms);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(decode_text_message(*text), "a 1\n");

  // Orderly close surfaces as nullopt, not an exception.
  client.close();
  EXPECT_FALSE(recv_message(*accepted, 2000ms).has_value());
}

TEST(NetSocket, TcpRoundtrip) { roundtrip_over(loopback()); }

TEST(NetSocket, UnixRoundtrip) {
  const std::string path =
      testing::TempDir() + "swlogic_net_roundtrip.sock";
  roundtrip_over(Endpoint::parse("unix:" + path));
}

TEST(NetSocket, RecvTimesOutOnSilentPeer) {
  Listener listener(loopback());
  Connection client;
  std::thread connector([&] {
    client = Connection::connect(listener.local_endpoint(), 2000ms);
  });
  auto accepted = listener.accept(2000ms);
  connector.join();
  ASSERT_TRUE(accepted.has_value());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)recv_message(*accepted, 100ms), TimeoutError);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, 90ms);
  EXPECT_LT(waited, 5s) << "timeout must be bounded";
}

TEST(NetSocket, ConnectTimesOutWithoutListener) {
  // Bind-then-close gives a port with (almost certainly) nobody on it.
  std::uint16_t port;
  {
    Listener listener(loopback());
    port = listener.local_endpoint().port;
  }
  EXPECT_THROW((void)Connection::connect(
                   Endpoint::parse("tcp:127.0.0.1:" + std::to_string(port)),
                   200ms),
               TimeoutError);
}

TEST(NetProtocol, CorruptEnvelopeRejected) {
  Listener listener(loopback());
  Connection client;
  std::thread connector([&] {
    client = Connection::connect(listener.local_endpoint(), 2000ms);
  });
  auto accepted = listener.accept(2000ms);
  connector.join();
  ASSERT_TRUE(accepted.has_value());

  auto bytes = encode_message(
      make_error_message(ErrorCode::kInternal, "corrupt me"));
  bytes.back() ^= 0x01;  // payload flip -> checksum mismatch
  client.send_all(bytes, 1000ms);
  EXPECT_THROW((void)recv_message(*accepted, 2000ms), sw::util::Error);
}

TEST(NetProtocol, OversizedPayloadPrefixRejected) {
  auto bytes =
      encode_message(make_error_message(ErrorCode::kInternal, "x"));
  // Stamp an absurd payload_size (offset 16 in the v2 header) before any
  // body arrives: the decoder must reject from the header alone instead
  // of allocating.
  for (int i = 0; i < 8; ++i) bytes[16 + i] = 0xFF;
  Listener listener(loopback());
  Connection client;
  std::thread connector([&] {
    client = Connection::connect(listener.local_endpoint(), 2000ms);
  });
  auto accepted = listener.accept(2000ms);
  connector.join();
  client.send_all(bytes, 1000ms);
  EXPECT_THROW((void)recv_message(*accepted, 2000ms), sw::util::Error);
}

// ------------------------------------------------------------ EvalServer --

TEST(EvalServer, ServesBatchesBitExactWithMetrics) {
  ServerFixture fx(loopback());
  const GateLayout layout = fx.designer.design(majority_spec(3, 4));
  const std::size_t slots = 4 * 3;
  const std::size_t words = 257;  // odd size: exercises vector tails
  const auto matrix = random_matrix(words, slots, 42);

  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(words, matrix);

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  for (int round = 0; round < 3; ++round) {
    send_message(conn,
                 make_frame_message(sw::serve::make_request_frame(
                     layout, 0, words, matrix)),
                 2000ms);
    const auto response = recv_frame(conn, 10000ms);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->kind, sw::serve::FrameKind::kResponse);
    EXPECT_EQ(response->num_words, words);
    EXPECT_EQ(response->num_cols, 4u);
    EXPECT_EQ(response->matrix, expected);
  }

  Message metrics_request;
  metrics_request.kind = MessageKind::kMetricsRequest;
  send_message(conn, metrics_request, 2000ms);
  auto metrics = recv_message(conn, 5000ms);
  ASSERT_TRUE(metrics.has_value());
  const std::string text = decode_text_message(*metrics);
  EXPECT_NE(text.find("sw_serve_requests_completed 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("sw_serve_latency_p99_seconds"), std::string::npos);
  EXPECT_NE(text.find("sw_serve_plan_cache_hits 2"), std::string::npos);
  EXPECT_NE(text.find("sw_net_frames_received 3"), std::string::npos);
  EXPECT_NE(text.find("sw_net_connections_accepted 1"), std::string::npos);
  // The kernel/precision identity gauge and the detector-granularity f32
  // share must scrape: the kernel label is the active kernel's name and
  // the ratio is a bare number (0 here with no f32 builds; 1 when
  // SW_EVAL_PRECISION=f32 makes every build f32 and the paper layout
  // proves every detector).
  EXPECT_NE(
      text.find("sw_serve_kernel_info{kernel=\"" +
                std::string(sw::wavesim::active_kernel_name()) + "\""),
      std::string::npos)
      << text;
  const bool f32 =
      sw::wavesim::active_precision() == sw::wavesim::Precision::kFloat32;
  EXPECT_NE(text.find(std::string("sw_serve_f32_detector_ratio ") +
                      (f32 ? "1\n" : "0\n")),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sw_serve_plan_cache_block_plans 0"),
            std::string::npos)
      << text;
  // Program-cache counters render even before any program was built.
  for (const char* line : {"sw_serve_plan_cache_program_builds 0",
                           "sw_serve_plan_cache_program_stages 0",
                           "sw_serve_plan_cache_program_stage_designs 0",
                           "sw_serve_plan_cache_max_program_depth 0"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line << "\n" << text;
  }

  const auto counters = fx.server.counters();
  EXPECT_EQ(counters.frames_received, 3u);
  EXPECT_EQ(counters.responses_sent, 3u);
  EXPECT_EQ(counters.metrics_requests, 1u);
  EXPECT_EQ(counters.errors_sent, 0u);
}

TEST(EvalServer, ProgramCacheCountersRenderTheirValues) {
  sw::serve::ServiceStats stats;
  stats.cache.program_builds = 3;
  stats.cache.program_stages = 22;
  stats.cache.program_stage_designs = 5;
  stats.cache.max_program_depth = 6;
  const std::string text = sw::net::render_service_metrics(stats);
  for (const char* line : {"sw_serve_plan_cache_program_builds 3\n",
                           "sw_serve_plan_cache_program_stages 22\n",
                           "sw_serve_plan_cache_program_stage_designs 5\n",
                           "sw_serve_plan_cache_max_program_depth 6\n"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line << text;
  }
}

/// Metric names of README's catalogue table (the backticked names in the
/// first column of the table after "**Metrics catalogue.**"). A `{a,b}`
/// right after `_` expands (`x_{a,b}_y` -> x_a_y, x_b_y); a brace after a
/// letter is a label set (`sw_serve_kernel{name}`) and is dropped.
std::set<std::string> readme_catalogue_names() {
  const auto readme =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "README.md";
  std::ifstream in(readme);
  EXPECT_TRUE(in.good()) << "cannot read " << readme;
  std::set<std::string> names;
  std::string line;
  bool in_catalogue = false;
  while (std::getline(in, line)) {
    if (line.find("**Metrics catalogue.**") != std::string::npos) {
      in_catalogue = true;
      continue;
    }
    if (!in_catalogue || line.rfind("| `", 0) != 0) {
      if (in_catalogue && !names.empty() && line.rfind("|", 0) != 0) break;
      continue;
    }
    const std::string first_cell = line.substr(0, line.find(" | ", 2));
    std::size_t pos = 0;
    while ((pos = first_cell.find('`', pos)) != std::string::npos) {
      const std::size_t end = first_cell.find('`', pos + 1);
      std::string name = first_cell.substr(pos + 1, end - pos - 1);
      pos = end + 1;
      std::vector<std::string> expanded{""};
      for (std::size_t i = 0; i < name.size();) {
        if (name[i] == '{') {
          const std::size_t close = name.find('}', i);
          if (i > 0 && name[i - 1] == '_') {
            std::vector<std::string> next;
            std::stringstream alternatives(name.substr(i + 1, close - i - 1));
            std::string alt;
            while (std::getline(alternatives, alt, ',')) {
              for (const auto& prefix : expanded) next.push_back(prefix + alt);
            }
            expanded = std::move(next);
          }
          i = close + 1;
        } else {
          for (auto& prefix : expanded) prefix += name[i];
          ++i;
        }
      }
      names.insert(expanded.begin(), expanded.end());
    }
  }
  return names;
}

/// Metric family names of an exposition text: the name before any label
/// set or value, with a histogram's _bucket/_sum/_count lines folded into
/// their family (a family is a histogram when it renders _bucket lines).
std::set<std::string> rendered_families(const std::string& text) {
  std::vector<std::string> names;
  std::set<std::string> histograms;
  std::stringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    const std::string bucket = "_bucket";
    if (name.size() > bucket.size() &&
        name.compare(name.size() - bucket.size(), bucket.size(), bucket) ==
            0) {
      histograms.insert(name.substr(0, name.size() - bucket.size()));
    }
    names.push_back(name);
  }
  std::set<std::string> families;
  for (const std::string& name : names) {
    std::string family = name;
    for (const std::string suffix : {"_bucket", "_sum", "_count"}) {
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0 &&
          histograms.count(name.substr(0, name.size() - suffix.size())) > 0) {
        family = name.substr(0, name.size() - suffix.size());
      }
    }
    families.insert(family);
  }
  return families;
}

TEST(MetricsCatalogue, EveryRenderedFamilyIsInTheReadmeTable) {
  // Drift guard: a metric the service, transport or registry renders but
  // README's catalogue does not list fails here.
  const auto documented = readme_catalogue_names();
  ASSERT_FALSE(documented.empty());
  const Waveguide wg = paper_waveguide();
  const FvmswDispersion model{wg};
  sw::serve::EvaluatorService service(model, wg.material.alpha);
  const std::string text = render_service_metrics(service.stats()) +
                           render_server_metrics(ServerCounters{}) +
                           render_registry_metrics(RegistryCounters{});
  const auto families = rendered_families(text);
  EXPECT_GT(families.size(), 30u);
  for (const std::string& family : families) {
    EXPECT_EQ(documented.count(family), 1u)
        << family << " is rendered but missing from README's metrics "
        << "catalogue";
  }
}

TEST(EvalServer, MetricsHistogramsAndByteCountersScrapeMonotonically) {
  ServerFixture fx(loopback());
  const GateLayout layout = fx.designer.design(majority_spec(3, 4));
  const std::size_t words = 64;
  const auto matrix = random_matrix(words, 4 * 3, 9);

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  const auto roundtrip = [&] {
    send_message(conn,
                 make_frame_message(sw::serve::make_request_frame(
                     layout, 0, words, matrix)),
                 2000ms);
    ASSERT_TRUE(recv_frame(conn, 10000ms).has_value());
  };
  roundtrip();

  const std::string first = fetch_text(
      fx.server.local_endpoint(), MessageKind::kMetricsRequest, 5000ms);
  // Every histogram family renders in full Prometheus form: cumulative
  // buckets ending at +Inf, then _sum and _count.
  for (const std::string fam :
       {"sw_serve_request_latency_seconds", "sw_serve_admission_wait_seconds",
        "sw_serve_queue_wait_seconds", "sw_serve_kernel_exec_seconds",
        "sw_serve_batch_words"}) {
    EXPECT_NE(first.find(fam + "_bucket{le=\"+Inf\"} "), std::string::npos)
        << fam << " buckets missing:\n" << first;
    EXPECT_GE(metric_value(first, fam + "_sum"), 0.0) << fam;
    EXPECT_GE(metric_value(first, fam + "_count"), 1.0) << fam;
  }
  EXPECT_EQ(metric_value(first, "sw_serve_request_latency_seconds_count"),
            1.0);
  EXPECT_EQ(metric_value(first, "sw_serve_batch_words_sum"),
            static_cast<double>(words));
  // The windowed summary gained mean and max next to the percentiles.
  EXPECT_GE(metric_value(first, "sw_serve_latency_mean_seconds"), 0.0);
  EXPECT_GE(metric_value(first, "sw_serve_latency_max_seconds"),
            metric_value(first, "sw_serve_latency_mean_seconds"));
  const double rx1 = metric_value(first, "sw_net_rx_bytes_total");
  const double tx1 = metric_value(first, "sw_net_tx_bytes_total");
  EXPECT_GT(rx1, 0.0) << first;
  EXPECT_GT(tx1, 0.0) << first;

  // Counter monotonicity: another request can only grow the totals.
  roundtrip();
  const std::string second = fetch_text(
      fx.server.local_endpoint(), MessageKind::kMetricsRequest, 5000ms);
  EXPECT_EQ(metric_value(second, "sw_serve_request_latency_seconds_count"),
            2.0);
  EXPECT_GT(metric_value(second, "sw_net_rx_bytes_total"), rx1);
  EXPECT_GT(metric_value(second, "sw_net_tx_bytes_total"), tx1);
  EXPECT_GE(metric_value(second, "sw_serve_kernel_exec_seconds_sum"),
            metric_value(first, "sw_serve_kernel_exec_seconds_sum"));
}

TEST(EvalServer, TraceRequestReturnsPerPhaseSpans) {
  ServerFixture fx(loopback());
  const GateLayout layout = fx.designer.design(majority_spec(3, 4));
  const std::size_t words = 64;
  const auto matrix = random_matrix(words, 4 * 3, 11);

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn,
               make_frame_message(sw::serve::make_request_frame(
                   layout, 0, words, matrix)),
               2000ms);
  ASSERT_TRUE(recv_frame(conn, 10000ms).has_value());

  Message trace_request;
  trace_request.kind = MessageKind::kTraceRequest;
  trace_request.tag = 9;
  send_message(conn, trace_request, 2000ms);
  const auto reply = recv_message(conn, 5000ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, MessageKind::kTraceResponse);
  EXPECT_EQ(reply->tag, 9u);
  const std::string json = decode_text_message(*reply);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The served request's full lifetime, phase by phase: decoded off the
  // wire, admitted, plan looked up, queued, evaluated, encoded, flushed.
  for (const std::string phase :
       {"wire_decode", "admission", "plan_lookup", "queue", "kernel",
        "wire_encode", "write_queue"}) {
    EXPECT_NE(json.find("\"name\":\"" + phase + "\""), std::string::npos)
        << "missing " << phase << " span:\n" << json;
  }
  EXPECT_EQ(fx.server.counters().trace_requests, 1u);

  // The one-shot client helper fetches the same document.
  const std::string again = fetch_text(fx.server.local_endpoint(),
                                       MessageKind::kTraceRequest, 5000ms);
  EXPECT_NE(again.find("\"name\":\"kernel\""), std::string::npos);
}

TEST(EvalServer, ShedMapsToErrorFrameNotDroppedConnection) {
  // One service worker held in place + a 1-deep admission queue: the
  // third concurrent request must shed.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> started{0};

  sw::serve::ServiceOptions options;
  options.num_threads = 1;
  options.admission.max_queued_requests = 1;
  options.admission.policy = sw::serve::OverloadPolicy::kShed;
  options.on_request_start = [&](std::uint64_t) {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };

  ServerFixture fx(loopback(), std::move(options));
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const std::size_t slots = 2 * 3;
  const auto matrix = random_matrix(4, slots, 7);
  const auto request =
      sw::serve::make_request_frame(layout, 0, 4, matrix);

  auto conn_a = Connection::connect(fx.server.local_endpoint(), 2000ms);
  auto conn_b = Connection::connect(fx.server.local_endpoint(), 2000ms);
  auto conn_c = Connection::connect(fx.server.local_endpoint(), 2000ms);

  // A occupies the held worker; B fills the queue. Wait on the service's
  // own accounting at each step so C deterministically finds both budget
  // slots taken however slowly the handler threads get scheduled.
  send_message(conn_a, make_frame_message(request), 2000ms);
  while (started.load() == 0) std::this_thread::sleep_for(1ms);
  send_message(conn_b, make_frame_message(request), 2000ms);
  {
    // Generous deadline: on a one-core host a parallel ctest run can
    // starve B's handler thread for a long time; the steady state (held
    // worker + B queued) is what matters, not how fast it is reached.
    const auto deadline = std::chrono::steady_clock::now() + 60s;
    while (fx.service.stats().queued_requests < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(fx.service.stats().queued_requests, 1u)
        << "request B never reached the admission queue";
  }

  send_message(conn_c, make_frame_message(request), 2000ms);
  bool shed = false;
  try {
    (void)recv_frame(conn_c, 60000ms);
  } catch (const RemoteError& e) {
    shed = true;
    EXPECT_EQ(e.code(), ErrorCode::kOverload);
  }
  EXPECT_TRUE(shed) << "third request should have been shed";

  // The shed connection stays serviceable: release the gate, drain A and
  // B (their completion frees the whole admission budget), then retry on
  // C — which must now be admitted and answered on the same connection.
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  EXPECT_TRUE(recv_frame(conn_a, 60000ms).has_value());
  EXPECT_TRUE(recv_frame(conn_b, 60000ms).has_value());
  send_message(conn_c, make_frame_message(request), 2000ms);
  EXPECT_TRUE(recv_frame(conn_c, 60000ms).has_value());
  EXPECT_GE(fx.server.counters().overloads, 1u);
}

TEST(EvalServer, RejectsAlienGeometryWithTypedError) {
  ServerFixture fx(loopback());
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const auto matrix = random_matrix(2, 6, 3);
  auto request = sw::serve::make_request_frame(layout, 0, 2, matrix);
  request.layout_hash ^= 0xdeadbeefull;  // claim a different geometry

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn, make_frame_message(request), 2000ms);
  try {
    (void)recv_frame(conn, 10000ms);
    FAIL() << "expected a typed error reply";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("hash mismatch"),
              std::string::npos);
  }
  // And the connection survives a bad request.
  request.layout_hash ^= 0xdeadbeefull;
  send_message(conn, make_frame_message(request), 2000ms);
  EXPECT_TRUE(recv_frame(conn, 10000ms).has_value());
}

/// Synthesize `bits` (a 3-ary truth table) into a majority cascade and
/// lower it onto an n-channel fabric.
sw::wavesim::ProgramSpec synthesize_program(std::uint16_t bits,
                                            std::size_t n) {
  sw::compile::Synthesizer synth;
  const auto circuit = synth.compile(sw::compile::TruthTable(3, bits));
  return sw::compile::lower_to_program(circuit, majority_spec(3, n));
}

/// Per-stage physics oracle (mirrors the serving-layer tests): every stage
/// evaluated as its own DataParallelGate, inputs gathered per SlotSource.
/// Returns stage-major outputs; the last n entries are the program output.
std::vector<std::uint8_t> physics_stage_outputs(
    const sw::wavesim::ProgramSpec& program,
    const InlineGateDesigner& designer, const WaveEngine& engine,
    std::span<const std::uint8_t> primary_row) {
  using sw::wavesim::SlotSource;
  const std::size_t n = program.num_channels();
  std::vector<std::uint8_t> stage_out;
  for (const auto& ss : program.stages) {
    const DataParallelGate gate(designer.design(ss.gate), engine);
    const std::size_t m = ss.gate.num_inputs;
    std::vector<sw::core::Bits> inputs(n, sw::core::Bits(m));
    for (std::size_t ch = 0; ch < n; ++ch) {
      for (std::size_t k = 0; k < m; ++k) {
        const auto& src = ss.sources[ch * m + k];
        bool v = false;
        switch (src.kind) {
          case SlotSource::Kind::kZero: v = false; break;
          case SlotSource::Kind::kOne: v = true; break;
          case SlotSource::Kind::kPrimary:
            v = primary_row[src.index] != 0;
            break;
          case SlotSource::Kind::kStage:
            v = stage_out[src.stage * n + src.index] != 0;
            break;
        }
        inputs[ch][k] = static_cast<std::uint8_t>(v != src.negated);
      }
    }
    const auto results = gate.evaluate(inputs);
    std::vector<std::uint8_t> out(n);
    for (const auto& r : results) out[r.channel] = r.logic;
    stage_out.insert(stage_out.end(), out.begin(), out.end());
  }
  return stage_out;
}

TEST(EvalServer, ServesCompiledProgramsBitExact) {
  ServerFixture fx(loopback());
  const std::size_t n = 4;
  const std::uint16_t bits = 0x1B;
  const auto program = synthesize_program(bits, n);
  ASSERT_GE(program.num_stages(), 2u);  // a real cascade, not one gate
  const std::size_t words = 33;  // odd size: exercises vector tails
  const std::size_t cols = program.primary_slot_count();
  const auto matrix = random_matrix(words, cols, 71);

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn,
               make_frame_message(sw::serve::make_program_request_frame(
                   program, 0, words, matrix)),
               2000ms);
  const auto response = recv_frame(conn, 10000ms);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->kind, sw::serve::FrameKind::kResponse);
  EXPECT_EQ(response->layout_hash, sw::serve::hash_program(program));
  EXPECT_EQ(response->num_words, words);
  EXPECT_EQ(response->num_cols, n);
  ASSERT_EQ(response->matrix.size(), words * n);

  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  const sw::compile::TruthTable table(3, bits);
  for (std::size_t w = 0; w < words; ++w) {
    const std::span<const std::uint8_t> row{matrix.data() + w * cols, cols};
    const auto stages =
        physics_stage_outputs(program, fx.designer, engine, row);
    for (std::size_t ch = 0; ch < n; ++ch) {
      // The remote fused result equals the local per-stage physics …
      EXPECT_EQ(response->matrix[w * n + ch],
                stages[(program.num_stages() - 1) * n + ch])
          << "w=" << w << " ch=" << ch;
      // … and the Boolean function the client compiled.
      std::size_t a = 0;
      for (std::size_t i = 0; i < 3; ++i) {
        a |= static_cast<std::size_t>(row[ch * 3 + i] != 0) << i;
      }
      EXPECT_EQ(response->matrix[w * n + ch], table.value(a) ? 1 : 0)
          << "w=" << w << " ch=" << ch;
    }
  }
}

TEST(EvalServer, PinnedWorkerRejectsProgramFramesWithTypedError) {
  // A worker pinned to wire v2 (a pre-program build) must answer a v3
  // program frame with kUnsupportedVersion — the typed reply coordinators
  // key version negotiation on — and keep serving v2 on the connection.
  EvalServerOptions server_options;
  server_options.max_wire_version = sw::serve::kWireVersion;
  ServerFixture fx(loopback(), {}, server_options);

  const auto program = synthesize_program(0xE8, 2);
  const auto matrix = random_matrix(2, program.primary_slot_count(), 81);
  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn,
               make_frame_message(sw::serve::make_program_request_frame(
                   program, 0, 2, matrix)),
               2000ms);
  try {
    (void)recv_frame(conn, 10000ms);
    FAIL() << "expected a typed version error";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupportedVersion);
    EXPECT_NE(std::string(e.what()).find("unsupported wire version"),
              std::string::npos);
  }
  // Fall back to v2 on the same connection: still served.
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  send_message(conn,
               make_frame_message(sw::serve::make_request_frame(
                   layout, 0, 2, random_matrix(2, 6, 83))),
               2000ms);
  EXPECT_TRUE(recv_frame(conn, 10000ms).has_value());
}

TEST(EvalServer, ShutdownMessageSetsFlagWithoutStopping) {
  ServerFixture fx(loopback());
  EXPECT_FALSE(fx.server.shutdown_requested());
  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  Message shutdown;
  shutdown.kind = MessageKind::kShutdown;
  send_message(conn, shutdown, 1000ms);
  EXPECT_TRUE(fx.server.wait_shutdown(5000ms));
  // Still serving after the flag: shutdown is a request, not a kill.
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const auto matrix = random_matrix(1, 6, 9);
  send_message(conn,
               make_frame_message(
                   sw::serve::make_request_frame(layout, 0, 1, matrix)),
               2000ms);
  EXPECT_TRUE(recv_frame(conn, 10000ms).has_value());
}

TEST(EvalServer, PipelinedTaggedRequestsCompleteOutOfOrder) {
  // One connection, six tagged shard requests sent back-to-back in a
  // single write, replies matched by tag: the event core must answer all
  // of them without a request/response lockstep, in whatever order the
  // evaluations finish.
  ServerFixture fx(loopback());
  const GateSpec spec = majority_spec(3, 2);
  const GateLayout layout = fx.designer.design(spec);
  const std::uint64_t hash = sw::serve::hash_layout(layout);
  constexpr std::size_t kDepth = 6;
  constexpr std::size_t kShardWords = 8;
  constexpr std::size_t kSlots = 2 * 3;
  const std::size_t channels = layout.spec.frequencies.size();
  const auto matrix = random_matrix(kDepth * kShardWords, kSlots, 21);

  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(kDepth * kShardWords, matrix);

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  std::vector<std::uint8_t> burst;
  for (std::size_t tag = 0; tag < kDepth; ++tag) {
    const auto view = sw::serve::make_request_view(
        layout.spec, hash, tag * kShardWords, kShardWords,
        std::span<const std::uint8_t>(matrix).subspan(
            tag * kShardWords * kSlots, kShardWords * kSlots));
    append_frame_message(burst, view, tag);
  }
  conn.send_all(burst, 5000ms);

  std::vector<bool> seen(kDepth, false);
  for (std::size_t i = 0; i < kDepth; ++i) {
    auto message = recv_message(conn, 60000ms);
    ASSERT_TRUE(message.has_value());
    ASSERT_EQ(message->kind, MessageKind::kFrame);
    const std::uint64_t tag = message->tag;
    ASSERT_LT(tag, kDepth);
    EXPECT_FALSE(seen[tag]) << "tag " << tag << " answered twice";
    seen[tag] = true;
    const auto frame = sw::serve::decode_frame(message->payload);
    EXPECT_EQ(frame.kind, sw::serve::FrameKind::kResponse);
    EXPECT_EQ(frame.word_offset, tag * kShardWords);
    EXPECT_EQ(frame.num_words, kShardWords);
    const std::vector<std::uint8_t> slice(
        expected.begin() + static_cast<std::ptrdiff_t>(
                               tag * kShardWords * channels),
        expected.begin() + static_cast<std::ptrdiff_t>(
                               (tag + 1) * kShardWords * channels));
    EXPECT_EQ(frame.matrix, slice) << "wrong bits for tag " << tag;
  }
  for (std::size_t tag = 0; tag < kDepth; ++tag) {
    EXPECT_TRUE(seen[tag]) << "tag " << tag << " never answered";
  }
  const auto counters = fx.server.counters();
  EXPECT_EQ(counters.frames_received, kDepth);
  EXPECT_EQ(counters.responses_sent, kDepth);
  EXPECT_EQ(counters.errors_sent, 0u);
}

/// Thread ids recorded by ServiceOptions::on_request_start, in start order.
struct StartThreads {
  std::mutex mutex;
  std::vector<std::thread::id> ids;

  std::function<void(std::uint64_t)> hook() {
    return [this](std::uint64_t) {
      std::lock_guard<std::mutex> lock(mutex);
      ids.push_back(std::this_thread::get_id());
    };
  }
  std::thread::id last() {
    std::lock_guard<std::mutex> lock(mutex);
    return ids.empty() ? std::thread::id() : ids.back();
  }
};

TEST(EvalServer, SmallCachedRequestsRunOnTheEventThread) {
  // One pool worker, whose thread a direct submit() reveals. A served
  // request runs on that worker unless its program was cached at submit
  // and it fits one 64-word plane group: then the event thread runs it.
  StartThreads started;
  sw::serve::ServiceOptions options;
  options.num_threads = 1;
  options.on_request_start = started.hook();
  ServerFixture fx(loopback(), std::move(options));

  const GateLayout probe = fx.designer.design(majority_spec(3, 3));
  (void)fx.service
      .submit(sw::serve::EvalRequest::for_layout(
          probe, random_matrix(4, 3 * 3, 1), 4))
      .get();
  const std::thread::id worker = started.last();
  ASSERT_NE(worker, std::thread::id());

  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const std::size_t slots = 2 * 3;
  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  // The hook runs before the reply is written, so once the reply is in,
  // started.last() is the thread that ran this request.
  const auto served_on = [&](std::size_t words, unsigned seed) {
    const auto matrix = random_matrix(words, slots, seed);
    send_message(conn,
                 make_frame_message(sw::serve::make_request_frame(
                     layout, 0, words, matrix)),
                 2000ms);
    const auto response = recv_frame(conn, 10000ms);
    EXPECT_TRUE(response.has_value());
    if (response) {
      EXPECT_EQ(response->matrix, evaluator.evaluate_bits(words, matrix))
          << words << " words";
    }
    return started.last();
  };

  EXPECT_EQ(served_on(8, 2), worker) << "a cold request builds on the pool";
  const std::thread::id event_thread = served_on(8, 3);
  EXPECT_NE(event_thread, worker) << "a cached 8-word request ran on the pool";
  EXPECT_NE(event_thread, std::this_thread::get_id());
  for (unsigned seed = 4; seed < 8; ++seed) {
    EXPECT_EQ(served_on(8, seed), event_thread);
  }
  EXPECT_EQ(served_on(sw::wavesim::kernels::kPlaneWords, 8), event_thread);
  EXPECT_EQ(served_on(sw::wavesim::kernels::kPlaneWords + 1, 9), worker)
      << "a cached 65-word request must stay on the pool";

  // Inline requests keep the service's accounting and the server's.
  const auto stats = fx.service.stats();
  EXPECT_EQ(stats.completed, 9u);
  EXPECT_EQ(stats.queue_wait.count, 9u);
  EXPECT_EQ(stats.inflight_words, 0u);
  EXPECT_EQ(stats.queued_requests, 0u);
  EXPECT_EQ(fx.server.counters().responses_sent, 8u);
}

TEST(EvalServer, PipelinedColdAndCachedSmallRequestsAnswerEveryTag) {
  // One burst in one write, interleaving 8-word requests against a warm
  // layout (run inline on the event thread) with requests against two
  // cold ones (built and run on the pool, their completions queued back):
  // every tag must come back once, bit-exact.
  sw::serve::ServiceOptions options;
  options.num_threads = 2;
  ServerFixture fx(loopback(), std::move(options));
  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  struct Target {
    GateLayout layout;
    std::uint64_t hash = 0;
    std::size_t slots = 0;
    std::unique_ptr<DataParallelGate> gate;
  };
  std::vector<Target> targets;
  for (const std::size_t n : {2, 3, 4}) {
    Target t;
    t.layout = fx.designer.design(majority_spec(3, n));
    t.hash = sw::serve::hash_layout(t.layout);
    t.slots = n * 3;
    t.gate = std::make_unique<DataParallelGate>(t.layout, engine);
    targets.push_back(std::move(t));
  }
  constexpr std::size_t kWords = 8;
  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  {
    const auto warm = random_matrix(kWords, targets[0].slots, 1);
    send_message(conn,
                 make_frame_message(sw::serve::make_request_frame(
                     targets[0].layout, 0, kWords, warm)),
                 2000ms);
    ASSERT_TRUE(recv_frame(conn, 10000ms).has_value());
  }

  constexpr std::size_t kBurst = 15;
  std::vector<std::vector<std::uint8_t>> matrices;
  std::vector<std::uint8_t> burst;
  for (std::size_t tag = 0; tag < kBurst; ++tag) {
    const Target& t = targets[tag % targets.size()];
    matrices.push_back(random_matrix(kWords, t.slots,
                                     static_cast<unsigned>(100 + tag)));
    append_frame_message(
        burst,
        sw::serve::make_request_view(t.layout.spec, t.hash, tag * kWords,
                                     kWords, matrices.back()),
        tag);
  }
  conn.send_all(burst, 5000ms);

  std::vector<bool> seen(kBurst, false);
  for (std::size_t i = 0; i < kBurst; ++i) {
    auto message = recv_message(conn, 60000ms);
    ASSERT_TRUE(message.has_value());
    ASSERT_EQ(message->kind, MessageKind::kFrame);
    const std::uint64_t tag = message->tag;
    ASSERT_LT(tag, kBurst);
    EXPECT_FALSE(seen[tag]) << "tag " << tag << " answered twice";
    seen[tag] = true;
    const Target& t = targets[tag % targets.size()];
    const auto frame = sw::serve::decode_frame(message->payload);
    EXPECT_EQ(frame.word_offset, tag * kWords);
    EXPECT_EQ(frame.num_words, kWords);
    EXPECT_EQ(frame.matrix,
              BatchEvaluator(*t.gate).evaluate_bits(kWords, matrices[tag]))
        << "wrong bits for tag " << tag;
  }
  const auto counters = fx.server.counters();
  EXPECT_EQ(counters.responses_sent, kBurst + 1);
  EXPECT_EQ(counters.errors_sent, 0u);
}

TEST(EvalServer, ReassemblesFramesAcrossArbitraryReadBoundaries) {
  // The receive buffer grows and reuses its capacity without ever
  // zero-filling it. Three shapes of input must all round-trip bit-exact:
  // a frame trickled one byte per write; a frame larger than one 256 KiB
  // read chunk; and two frames in one write whose boundary leaves the
  // second frame's envelope header split across writes.
  ServerFixture fx(loopback());
  const GateLayout layout = fx.designer.design(majority_spec(3, 8));
  const std::uint64_t hash = sw::serve::hash_layout(layout);
  const std::size_t slots = 8 * 3;
  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);

  struct Request {
    std::uint64_t tag;
    std::size_t words;
    std::vector<std::uint8_t> matrix;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Request> requests;
  for (const auto& [tag, words] :
       {std::pair<std::uint64_t, std::size_t>{1, 8}, {2, 100000}, {3, 5}}) {
    Request r{tag, words, random_matrix(words, slots,
                                        static_cast<unsigned>(tag)), {}};
    append_frame_message(
        r.bytes, sw::serve::make_request_view(layout.spec, hash, 0, words,
                                              r.matrix),
        tag);
    requests.push_back(std::move(r));
  }
  ASSERT_GT(requests[1].bytes.size(), std::size_t{256} << 10)
      << "the large frame must exceed one read chunk";
  static_assert(kMessageHeaderSize > 10, "the split must fall in a header");

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  for (const std::uint8_t byte : requests[0].bytes) {
    conn.send_all({&byte, 1}, 2000ms);
    std::this_thread::sleep_for(100us);
  }
  {
    const auto response = recv_frame(conn, 10000ms);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->matrix,
              evaluator.evaluate_bits(requests[0].words, requests[0].matrix));
  }

  // Write one: the large frame plus the first 10 header bytes of the
  // small one. Write two: the rest of the small frame.
  std::vector<std::uint8_t> first = requests[1].bytes;
  first.insert(first.end(), requests[2].bytes.begin(),
               requests[2].bytes.begin() + 10);
  conn.send_all(first, 10000ms);
  std::this_thread::sleep_for(20ms);
  conn.send_all(std::span<const std::uint8_t>(requests[2].bytes).subspan(10),
                2000ms);
  // The 5-word frame runs inline while the large one runs on the pool, so
  // either may answer first: match replies by tag.
  for (int i = 0; i < 2; ++i) {
    auto message = recv_message(conn, 60000ms);
    ASSERT_TRUE(message.has_value());
    ASSERT_EQ(message->kind, MessageKind::kFrame);
    const auto it = std::find_if(
        requests.begin() + 1, requests.end(),
        [&](const Request& r) { return r.tag == message->tag; });
    ASSERT_NE(it, requests.end()) << "unexpected tag " << message->tag;
    const auto frame = sw::serve::decode_frame(message->payload);
    EXPECT_EQ(frame.num_words, it->words);
    EXPECT_EQ(frame.matrix, evaluator.evaluate_bits(it->words, it->matrix))
        << "wrong bits for tag " << it->tag;
  }
  const auto counters = fx.server.counters();
  EXPECT_EQ(counters.frames_received, 3u);
  EXPECT_EQ(counters.responses_sent, 3u);
  EXPECT_EQ(counters.errors_sent, 0u);
}

TEST(EvalServer, RefusesConnectionsPastCapButKeepsAccepting) {
  EvalServerOptions server_options;
  server_options.max_connections = 2;
  ServerFixture fx(loopback(), {}, server_options);
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const auto matrix = random_matrix(1, 6, 23);
  const auto request = sw::serve::make_request_frame(layout, 0, 1, matrix);

  // Prove each admission with a served request before connecting the
  // next peer: connect() only completes the TCP handshake (the kernel
  // backlog does that), so without the round trip the refusal could land
  // on any of the three.
  auto conn_a = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn_a, make_frame_message(request), 2000ms);
  ASSERT_TRUE(recv_frame(conn_a, 60000ms).has_value());
  auto conn_b = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn_b, make_frame_message(request), 2000ms);
  ASSERT_TRUE(recv_frame(conn_b, 60000ms).has_value());

  // The third connection must receive a *typed* refusal, then EOF — not
  // a silent drop, and not a hung accept loop.
  auto conn_c = Connection::connect(fx.server.local_endpoint(), 2000ms);
  auto refusal = recv_message(conn_c, 60000ms);
  ASSERT_TRUE(refusal.has_value());
  ASSERT_EQ(refusal->kind, MessageKind::kError);
  EXPECT_EQ(decode_error_message(*refusal).code, ErrorCode::kOverload);
  EXPECT_FALSE(recv_message(conn_c, 60000ms).has_value())
      << "refused connection should be closed after the error reply";

  {
    // connections_accepted counts every accept(), refused ones included;
    // the admitted population is the difference.
    const auto counters = fx.server.counters();
    EXPECT_GE(counters.connections_refused, 1u);
    EXPECT_EQ(counters.connections_accepted - counters.connections_refused,
              2u);
    EXPECT_LE(counters.active_connections, 2u);
  }

  // Freeing a slot re-opens admission: close B, wait for the server to
  // reap it, and a fresh connection must be served again.
  conn_b.close();
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (fx.server.counters().active_connections >= 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_LT(fx.server.counters().active_connections, 2u)
      << "server never noticed the closed connection";
  auto conn_d = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn_d, make_frame_message(request), 2000ms);
  EXPECT_TRUE(recv_frame(conn_d, 60000ms).has_value())
      << "accept loop must stay live after refusals";
}

TEST(EvalServer, StopIsNotStalledByRefusedPeersThatNeverRead) {
  // Regression: the old thread-per-connection server sent the refusal
  // reply with a blocking write while holding the server mutex, so a
  // refused peer that never read could wedge accept *and* stop(). The
  // event core writes refusals non-blockingly; stop() must stay prompt
  // however many unread refusals are outstanding.
  EvalServerOptions server_options;
  server_options.max_connections = 1;
  ServerFixture fx(loopback(), {}, server_options);
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const auto matrix = random_matrix(1, 6, 29);
  const auto request = sw::serve::make_request_frame(layout, 0, 1, matrix);

  auto admitted = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(admitted, make_frame_message(request), 2000ms);
  ASSERT_TRUE(recv_frame(admitted, 60000ms).has_value());

  std::vector<Connection> silent;
  for (int i = 0; i < 3; ++i) {
    silent.push_back(Connection::connect(fx.server.local_endpoint(), 2000ms));
  }
  const auto refused_deadline = std::chrono::steady_clock::now() + 60s;
  while (fx.server.counters().connections_refused < 3 &&
         std::chrono::steady_clock::now() < refused_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(fx.server.counters().connections_refused, 3u);

  const auto t0 = std::chrono::steady_clock::now();
  fx.server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s)
      << "stop() stalled behind unread refusal replies";
}

// ---------------------------------------------------------------- registry --

TEST(NetRegistry, AdvertCodecRoundTripsAndRejectsMalformed) {
  std::vector<WorkerAdvert> adverts(2);
  adverts[0] = {"tcp:127.0.0.1:4101", "avx2", "f64", 2.5e7};
  adverts[1] = {"unix:/tmp/worker.sock", "scalar", "f32", 0.0};
  const auto bytes = encode_adverts(adverts);
  EXPECT_EQ(decode_adverts(bytes), adverts);

  // Truncation anywhere must throw, never read garbage.
  for (const std::size_t keep : {std::size_t{0}, bytes.size() / 2,
                                 bytes.size() - 1}) {
    std::span<const std::uint8_t> cut(bytes.data(), keep);
    EXPECT_THROW((void)decode_adverts(cut), sw::util::Error) << keep;
  }
  // Trailing bytes after the advertised count are corruption too.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW((void)decode_adverts(padded), sw::util::Error);
  // An advert with no endpoint is useless to a coordinator: rejected.
  const auto empty_endpoint =
      encode_adverts({WorkerAdvert{"", "scalar", "f64", 0.0}});
  EXPECT_THROW((void)decode_adverts(empty_endpoint), sw::util::Error);
}

TEST(NetRegistry, RegisterUpsertsPerEndpointAndExpiresByTtl) {
  RegistryOptions registry_options;
  registry_options.ttl = 300ms;
  RegistryServer registry(loopback(), registry_options);

  WorkerAdvert a{"tcp:127.0.0.1:4201", "scalar", "f64", 1e6};
  WorkerAdvert b{"tcp:127.0.0.1:4202", "avx2", "f64", 3e6};
  register_worker(registry.local_endpoint(), a, 2000ms);
  // Regression: the upsert once keyed the entry map on a moved-out
  // endpoint string, so every worker landed on the same "" key and only
  // the last register survived. Both adverts must coexist.
  register_worker(registry.local_endpoint(), b, 2000ms);
  auto listed = fetch_registry(registry.local_endpoint(), 2000ms);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], a);  // snapshot order is keyed by endpoint
  EXPECT_EQ(listed[1], b);

  // A heartbeat for a known endpoint updates in place, no duplicate.
  a.words_per_second = 2e6;
  register_worker(registry.local_endpoint(), a, 2000ms);
  listed = fetch_registry(registry.local_endpoint(), 2000ms);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].words_per_second, 2e6);

  // Stop heartbeating and the adverts age out of the snapshot.
  std::this_thread::sleep_for(400ms);
  EXPECT_TRUE(fetch_registry(registry.local_endpoint(), 2000ms).empty());
}

TEST(NetRegistry, EchoesTagsAndRejectsUnsupportedKinds) {
  RegistryServer registry(loopback());
  auto conn = Connection::connect(registry.local_endpoint(), 2000ms);

  Message reg;
  reg.kind = MessageKind::kRegister;
  reg.tag = 77;
  reg.payload =
      encode_adverts({WorkerAdvert{"tcp:127.0.0.1:4301", "scalar", "f64", 0}});
  send_message(conn, reg, 2000ms);
  auto ack = recv_message(conn, 5000ms);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->kind, MessageKind::kRegister);
  EXPECT_EQ(ack->tag, 77u);

  Message alien;
  alien.kind = MessageKind::kTraceRequest;
  alien.tag = 78;
  send_message(conn, alien, 2000ms);
  auto refused = recv_message(conn, 5000ms);
  ASSERT_TRUE(refused.has_value());
  ASSERT_EQ(refused->kind, MessageKind::kError);
  EXPECT_EQ(decode_error_message(*refused).code, ErrorCode::kBadRequest);
  EXPECT_EQ(refused->tag, 78u);

  // The connection survives the rejected message.
  reg.tag = 79;
  send_message(conn, reg, 2000ms);
  ack = recv_message(conn, 5000ms);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->tag, 79u);
}

TEST(NetRegistry, MetricsCountUpsertsLiveAdvertsAndExpirations) {
  RegistryOptions options;
  options.ttl = 200ms;
  RegistryServer registry(loopback(), options);
  const WorkerAdvert a{"tcp:127.0.0.1:4401", "scalar", "f64", 1e6};
  const WorkerAdvert b{"tcp:127.0.0.1:4402", "avx2", "f32", 2e6};
  register_worker(registry.local_endpoint(), a, 2000ms);
  register_worker(registry.local_endpoint(), b, 2000ms);
  register_worker(registry.local_endpoint(), a, 2000ms);  // heartbeat

  const std::string text = fetch_text(registry.local_endpoint(),
                                      MessageKind::kMetricsRequest, 2000ms);
  EXPECT_EQ(metric_value(text, "sw_registry_upserts"), 3.0) << text;
  EXPECT_EQ(metric_value(text, "sw_registry_live_adverts"), 2.0) << text;
  EXPECT_EQ(metric_value(text, "sw_registry_expirations"), 0.0) << text;
  EXPECT_EQ(metric_value(text, "sw_registry_metrics_requests"), 1.0);
  EXPECT_GE(metric_value(text, "sw_registry_oldest_advert_age_seconds"),
            0.0);

  // Both adverts age past the TTL: the counters view prunes like
  // snapshot() does, so expirations land without any client traffic.
  std::this_thread::sleep_for(300ms);
  const auto counters = registry.counters();
  EXPECT_EQ(counters.live_adverts, 0u);
  EXPECT_EQ(counters.expirations, 2u);
  EXPECT_EQ(counters.upserts, 3u);
  EXPECT_EQ(counters.oldest_advert_age_s, 0.0);
}

// ------------------------------------------------- distributed sweeping --

/// The paper's exhaustive byte-operand workload: every (a, b) pair through
/// the 8-channel majority-as-AND fabric (third input pinned 0).
struct ExhaustiveSweep {
  static constexpr std::size_t kChannels = 8;
  static constexpr std::size_t kSlots = kChannels * 3;
  static constexpr std::size_t kWords = std::size_t{1} << 16;

  static std::vector<std::uint8_t> matrix() {
    std::vector<std::uint8_t> m(kWords * kSlots, 0);
    for (std::size_t v = 0; v < kWords; ++v) {
      const std::size_t a = v & 0xFFu;
      const std::size_t b = v >> kChannels;
      for (std::size_t ch = 0; ch < kChannels; ++ch) {
        m[v * kSlots + ch * 3 + 0] =
            static_cast<std::uint8_t>((a >> ch) & 1u);
        m[v * kSlots + ch * 3 + 1] =
            static_cast<std::uint8_t>((b >> ch) & 1u);
      }
    }
    return m;
  }
};

TEST(SweepCoordinator, DistributedExhaustiveSweepMatchesSingleProcess) {
  const GateSpec spec = majority_spec(3, ExhaustiveSweep::kChannels);
  ServerFixture worker_a(loopback());
  ServerFixture worker_b(loopback());
  const GateLayout layout = worker_a.designer.design(spec);
  const auto matrix = ExhaustiveSweep::matrix();

  const WaveEngine engine(worker_a.model, worker_a.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected =
      evaluator.evaluate_bits(ExhaustiveSweep::kWords, matrix);

  SweepOptions options;
  options.shard_words = 4096;
  SweepCoordinator coordinator(
      {worker_a.server.local_endpoint(), worker_b.server.local_endpoint()},
      options);
  SweepReport report;
  const auto merged =
      coordinator.run(layout, matrix, ExhaustiveSweep::kWords, &report);

  EXPECT_EQ(merged, expected);
  EXPECT_EQ(report.shards, 16u);
  EXPECT_EQ(report.dead_workers, 0u);
  EXPECT_EQ(report.shards_per_worker.size(), 2u);
  EXPECT_EQ(report.shards_per_worker[0] + report.shards_per_worker[1], 16u);
  // No per-worker minimum: shard acquisition is pull-based, and with the
  // SIMD kernels a 4096-word shard evaluates in tens of microseconds —
  // on a single-core host one worker can legitimately drain the whole
  // queue while the other is still building its plan. That the work
  // flows to whichever worker makes progress is asserted
  // deterministically by the straggler test below (all shards end up on
  // the fast worker when the other is delayed).
}

TEST(SweepCoordinator, RecorderCapturesPerShardSpans) {
  const GateSpec spec = majority_spec(3, 4);
  ServerFixture worker(loopback());
  const GateLayout layout = worker.designer.design(spec);
  const std::size_t words = 4096;
  const auto matrix = random_matrix(words, 4 * 3, 21);

  sw::obs::TraceRecorder recorder(64);
  SweepOptions options;
  options.shard_words = 512;
  options.recorder = &recorder;
  SweepCoordinator coordinator({worker.server.local_endpoint()}, options);
  SweepReport report;
  (void)coordinator.run(layout, matrix, words, &report);
  ASSERT_EQ(report.shards, 8u);

  // One trace per shard assignment: id = shard index, track = worker
  // index, with the full assign -> send -> wait -> retire chain closed on
  // the completion path.
  const auto traces = recorder.snapshot();
  ASSERT_GE(traces.size(), 8u);
  std::vector<bool> retired(8, false);
  for (const auto& t : traces) {
    ASSERT_LT(t.id, 8u);
    EXPECT_EQ(t.track, 0u);
    if (t.phase_ns(sw::obs::Phase::kShardRetire) == 0) continue;
    EXPECT_GT(t.phase_ns(sw::obs::Phase::kShardSend), 0u);
    EXPECT_GT(t.phase_ns(sw::obs::Phase::kShardWait), 0u);
    retired[static_cast<std::size_t>(t.id)] = true;
  }
  for (std::size_t i = 0; i < retired.size(); ++i) {
    EXPECT_TRUE(retired[i]) << "shard " << i << " has no retire span";
  }
  // Healthy single-worker sweep: nothing was duplicated, so no reshard
  // events (the straggler path is exercised by the smoke script's leg 2).
  for (const auto& t : traces) {
    EXPECT_EQ(t.phase_ns(sw::obs::Phase::kReshard), 0u);
  }
}

/// A hand-rolled worker for fault injection: serves real evaluations but
/// can delay every response, corrupt response bits, or never answer.
class FaultyWorker {
 public:
  enum class Mode { kSlow, kStalled, kCorrupt };

  FaultyWorker(Mode mode, std::chrono::milliseconds delay,
               const GateLayout& layout, const FvmswDispersion& model,
               double alpha)
      : mode_(mode),
        delay_(delay),
        listener_(Endpoint::parse("tcp:127.0.0.1:0")),
        engine_(model, alpha),
        gate_(layout, engine_),
        evaluator_(gate_) {
    thread_ = std::thread([this] { serve(); });
  }

  ~FaultyWorker() {
    listener_.close();
    if (thread_.joinable()) thread_.join();
  }

  const Endpoint& endpoint() const { return listener_.local_endpoint(); }

  /// True once the worker holds its first request — tests gate the healthy
  /// worker on this so the faulty one deterministically owns a shard (on a
  /// one-core host the healthy worker would otherwise drain every shard
  /// before this thread is even scheduled).
  bool got_request() const { return got_request_.load(); }

 private:
  void serve() {
    auto conn = listener_.accept(30000ms);
    if (!conn) return;
    try {
      for (;;) {
        auto frame = recv_frame(*conn, 30000ms);
        if (!frame) return;  // coordinator closed: sweep is over
        got_request_.store(true);
        if (mode_ == Mode::kStalled) {
          // Swallow the request; the shard must be re-sharded. Wait for
          // the coordinator to abandon us (EOF) rather than replying.
          std::uint8_t byte;
          (void)conn->recv_all({&byte, 1}, 60000ms);
          return;
        }
        auto bits = evaluator_.evaluate_bits(
            static_cast<std::size_t>(frame->num_words), frame->matrix);
        if (mode_ == Mode::kCorrupt) bits[0] ^= 1;
        std::this_thread::sleep_for(delay_);
        send_message(*conn,
                     make_frame_message(sw::serve::make_response_frame(
                         *frame, gate_.layout().spec.frequencies.size(),
                         std::move(bits))),
                     30000ms);
      }
    } catch (const sw::util::Error&) {
      // Coordinator tore the connection down mid-wait; fine.
    }
  }

  Mode mode_;
  std::chrono::milliseconds delay_;
  std::atomic<bool> got_request_{false};
  Listener listener_;
  WaveEngine engine_;
  DataParallelGate gate_;
  BatchEvaluator evaluator_;
  std::thread thread_;
};

/// Service options whose requests block until `faulty` has received one:
/// guarantees the faulty worker owns a shard before the healthy worker
/// starts retiring them, whatever the scheduler does.
sw::serve::ServiceOptions gated_on(
    const std::atomic<const FaultyWorker*>& faulty) {
  sw::serve::ServiceOptions options;
  options.on_request_start = [&faulty](std::uint64_t) {
    const auto deadline = std::chrono::steady_clock::now() + 60s;
    const FaultyWorker* worker = nullptr;
    while (((worker = faulty.load()) == nullptr || !worker->got_request()) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  };
  return options;
}

struct SmallSweep {
  static constexpr std::size_t kChannels = 4;
  static constexpr std::size_t kSlots = kChannels * 3;
  static constexpr std::size_t kWords = 4096;
};

TEST(SweepCoordinator, ReshardsStragglersAndDedupsLateDuplicates) {
  const GateSpec spec = majority_spec(3, SmallSweep::kChannels);
  std::atomic<const FaultyWorker*> faulty{nullptr};
  ServerFixture fast(loopback(), gated_on(faulty));
  const GateLayout layout = fast.designer.design(spec);
  // A slow-but-correct worker: every shard it holds goes past the
  // straggler deadline, gets duplicated to the fast worker, and then
  // answers late — exercising re-shard AND bit-exact deduplication.
  FaultyWorker slow(FaultyWorker::Mode::kSlow, 700ms, layout, fast.model,
                    fast.wg.material.alpha);
  faulty.store(&slow);

  const auto matrix =
      random_matrix(SmallSweep::kWords, SmallSweep::kSlots, 11);
  const WaveEngine engine(fast.model, fast.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(SmallSweep::kWords, matrix);

  SweepOptions options;
  options.shard_words = 512;  // 8 shards
  options.straggler_deadline = 150ms;
  options.poll_tick = 10ms;
  options.duplicate_grace = 10000ms;  // hold for the late replies
  SweepCoordinator coordinator(
      {fast.server.local_endpoint(), slow.endpoint()}, options);
  SweepReport report;
  const auto merged =
      coordinator.run(layout, matrix, SmallSweep::kWords, &report);

  EXPECT_EQ(merged, expected);
  EXPECT_GE(report.resharded, 1u);
  EXPECT_GE(report.duplicate_results, 1u);
  EXPECT_EQ(report.dead_workers, 0u);
}

TEST(SweepCoordinator, CompletesWithAWorkerThatNeverAnswers) {
  const GateSpec spec = majority_spec(3, SmallSweep::kChannels);
  std::atomic<const FaultyWorker*> faulty{nullptr};
  ServerFixture fast(loopback(), gated_on(faulty));
  const GateLayout layout = fast.designer.design(spec);
  FaultyWorker stalled(FaultyWorker::Mode::kStalled, 0ms, layout,
                       fast.model, fast.wg.material.alpha);
  faulty.store(&stalled);

  const auto matrix =
      random_matrix(SmallSweep::kWords, SmallSweep::kSlots, 13);
  const WaveEngine engine(fast.model, fast.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(SmallSweep::kWords, matrix);

  SweepOptions options;
  options.shard_words = 512;
  options.straggler_deadline = 150ms;
  options.poll_tick = 10ms;
  SweepCoordinator coordinator(
      {fast.server.local_endpoint(), stalled.endpoint()}, options);
  SweepReport report;
  const auto merged =
      coordinator.run(layout, matrix, SmallSweep::kWords, &report);

  EXPECT_EQ(merged, expected);
  EXPECT_GE(report.resharded, 1u);
  EXPECT_EQ(report.shards_per_worker[0], report.shards)
      << "the live worker should have retired every shard";
}

TEST(SweepCoordinator, DivergentDuplicateAborts) {
  const GateSpec spec = majority_spec(3, SmallSweep::kChannels);
  std::atomic<const FaultyWorker*> faulty{nullptr};
  ServerFixture fast(loopback(), gated_on(faulty));
  const GateLayout layout = fast.designer.design(spec);
  FaultyWorker corrupt(FaultyWorker::Mode::kCorrupt, 700ms, layout,
                       fast.model, fast.wg.material.alpha);
  faulty.store(&corrupt);

  const auto matrix =
      random_matrix(SmallSweep::kWords, SmallSweep::kSlots, 17);
  SweepOptions options;
  options.shard_words = 512;
  options.straggler_deadline = 150ms;
  options.poll_tick = 10ms;
  options.duplicate_grace = 10000ms;
  SweepCoordinator coordinator(
      {fast.server.local_endpoint(), corrupt.endpoint()}, options);
  try {
    (void)coordinator.run(layout, matrix, SmallSweep::kWords, nullptr);
    FAIL() << "divergent duplicate results must abort the sweep";
  } catch (const sw::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("diverge"), std::string::npos)
        << e.what();
  }
}

TEST(SweepCoordinator, DiscoversHeartbeatingWorkersAndSweepsBitExact) {
  // End-to-end discovery: two EvalServers heartbeat their adverts into a
  // registry, the coordinator takes its worker list from discover() alone
  // (no static endpoints anywhere), and the distributed sweep still
  // matches the in-process evaluator bit for bit.
  RegistryServer registry(loopback());
  EvalServerOptions server_options;
  server_options.registry = registry.local_endpoint();
  server_options.advertised_words_per_second = 1e6;
  ServerFixture worker_a(loopback(), {}, server_options);
  ServerFixture worker_b(loopback(), {}, server_options);

  const auto discovered = SweepCoordinator::discover(
      registry.local_endpoint(), 2, 30000ms);
  ASSERT_EQ(discovered.size(), 2u);
  std::vector<std::string> found;
  for (const auto& ep : discovered) found.push_back(ep.to_string());
  std::vector<std::string> served{
      worker_a.server.local_endpoint().to_string(),
      worker_b.server.local_endpoint().to_string()};
  std::sort(found.begin(), found.end());
  std::sort(served.begin(), served.end());
  EXPECT_EQ(found, served);

  // The adverts must carry real capability facts, not placeholders.
  for (const auto& advert : fetch_registry(registry.local_endpoint(), 2000ms)) {
    EXPECT_FALSE(advert.kernel.empty());
    EXPECT_FALSE(advert.precision.empty());
    EXPECT_EQ(advert.words_per_second, 1e6);
  }

  const GateSpec spec = majority_spec(3, SmallSweep::kChannels);
  const GateLayout layout = worker_a.designer.design(spec);
  const auto matrix =
      random_matrix(SmallSweep::kWords, SmallSweep::kSlots, 31);
  const WaveEngine engine(worker_a.model, worker_a.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(SmallSweep::kWords, matrix);

  SweepOptions options;
  options.shard_words = 512;
  SweepCoordinator coordinator(discovered, options);
  SweepReport report;
  const auto merged =
      coordinator.run(layout, matrix, SmallSweep::kWords, &report);
  EXPECT_EQ(merged, expected);
  EXPECT_EQ(report.dead_workers, 0u);
}

TEST(SweepCoordinator, DiscoverTimesOutOnAnEmptyRegistry) {
  RegistryServer registry(loopback());
  EXPECT_THROW((void)SweepCoordinator::discover(registry.local_endpoint(),
                                                1, 300ms),
               TimeoutError);
}

TEST(SweepCoordinator, AbortsWhenEveryWorkerIsUnreachable) {
  const GateSpec spec = majority_spec(3, 2);
  const Waveguide wg = paper_waveguide();
  const FvmswDispersion model(wg);
  const InlineGateDesigner designer(model);
  const GateLayout layout = designer.design(spec);
  const auto matrix = random_matrix(16, 6, 19);

  std::uint16_t dead_port;
  {
    Listener listener(loopback());
    dead_port = listener.local_endpoint().port;
  }
  SweepOptions options;
  options.connect_timeout = 200ms;
  SweepCoordinator coordinator(
      {Endpoint::parse("tcp:127.0.0.1:" + std::to_string(dead_port))},
      options);
  try {
    (void)coordinator.run(layout, matrix, 16, nullptr);
    FAIL() << "a sweep with no reachable workers must abort";
  } catch (const sw::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("all sweep workers failed"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace

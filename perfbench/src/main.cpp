// swbench: the serving benchmark of this repository.
//
// One process stands up serve::EvaluatorService (2 pool workers) behind a
// net::EvalServer (1 event thread) on an ephemeral localhost TCP port and
// drives it from one non-blocking client thread through the public client
// API, checking every reply bit against a Boolean reference. Workloads
// (see perfbench/README.md for why each exists):
//
//   shard_stream    closed loop, 2 connections x depth 8, 4096-word random
//                   batches on the paper's 8-channel 3-input MAJ layout
//   small_requests  closed loop, 1 connection x depth 1, 1-64 word batches
//                   on the same layout: one request at a time; the traced
//                   run adds an open-loop phase of seeded Poisson arrivals
//                   over 4 connections
//   program_churn   closed loop, 1 connection x depth 4, 512-word v3
//                   program frames over ~96 compiled 4-input functions,
//                   Zipf-skewed against the 32-entry plan cache
//
// The micromagnetic reproduction modules (mag, dispersion beyond the one
// FVMSW model the designer needs, fft, io) are not on the serving path
// and are not measured.
//
// Usage: swbench --workload NAME --seed N --seconds S --trace 0|1
//                [--out DIR]
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. The gated timings are CPU time: the process's CPU seconds per
// word served and per set-up, which a busy shared host changes far less
// than wall time. Wall-clock throughput and latency are reported beside
// them. Details (sample counts, host, windows) go to the lines before it
// and to DIR/<workload>-seed<N>-trace<T>.json; a traced run also
// writes DIR/<workload>-seed<N>.trace.json (Perfetto), the server's own
// span ring as DIR/<workload>-seed<N>.server-trace.json and the per-layer
// self-time table as DIR/<workload>-seed<N>.layers.txt.
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "client.h"
#include "compile/lower.h"
#include "compile/synth.h"
#include "compile/truth_table.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/fvmsw.h"
#include "helpers.h"
#include "net/eval_server.h"
#include "net/protocol.h"
#include "serve/layout_hash.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "spans.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_program.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace perfbench;

/// Claims made with this benchmark must also hold on this seed, which is
/// kept out of tuning.
constexpr std::uint64_t kHeldOutSeed = 7331;

constexpr std::size_t kChannels = 8;
constexpr std::size_t kLayoutInputs = 3;
constexpr std::size_t kProgramInputs = 4;
constexpr std::size_t kFunctions = 96;
constexpr std::size_t kBatchesPerFunction = 4;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kServiceThreads = 2;
/// Set-up repeats at least kSetupMinReps times and until kSetupMinSeconds
/// of set-ups have run (at most kSetupMaxReps); setup_s is the median of
/// their CPU time. A layout set-up takes about 1.5 ms, so its reps span a
/// second of the host's varying load rather than one burst of it.
constexpr int kSetupMinReps = 7;
constexpr int kSetupMaxReps = 1000;
constexpr double kSetupMinSeconds = 1.0;
/// Host CPU steal share in the windows a run's figures come from above
/// which the run is flagged as measured under contention.
constexpr double kStealWarn = 0.02;
/// Windows of the main phase (see PhaseResult).
constexpr std::size_t kMainWindows = 20;
/// The traced run's open-loop phase (small_requests): Poisson arrivals at
/// a fixed rate well below what one core serves (about 13 000 req/s one at
/// a time on a 4-vCPU AVX-512 host), over this many connections. It stops
/// sending, flagged overloaded, once kMaxBacklog requests await replies.
constexpr double kOpenLoopRate = 5000.0;
constexpr std::size_t kOpenLoopConnections = 4;
constexpr std::size_t kMaxBacklog = 1024;
/// A send this late against its due time counts as generator lateness.
constexpr double kLateSendUs = 100.0;
/// Shares of --seconds: warm-up, then the main phase. Traced runs add a
/// traced window, small_requests' open-loop phase and the
/// TCP-vs-in-process comparison.
constexpr double kWarmupShare = 0.05;
constexpr double kMainShare = 0.90;
constexpr double kTracedShare = 0.25;
constexpr double kOpenLoopShare = 0.25;
constexpr double kCompareShare = 0.25;
/// Probe durations of the traced run.
constexpr double kKernelProbeSeconds = 1.0;
constexpr double kWireProbeSeconds = 0.5;
/// Spans kept in memory by a traced run (~40 MB), and the share of them
/// written to the Perfetto file (the self-time table uses them all).
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;
constexpr std::size_t kMaxSpansWritten = 100000;

struct Workload {
  const char* name;
  bool program;  ///< v3 program frames, else the 3-input MAJ layout
  std::size_t connections;
  std::size_t depth;  ///< requests in flight per connection
  std::size_t min_words;
  std::size_t max_words;
  std::size_t pool_size;
  bool open_loop_phase;  ///< traced run: add the open-loop phase
};

// Every workload is a closed loop, so the requests in flight stay bounded
// however fast or busy the host is: no backlog, no refusals, no timeouts.
const Workload kWorkloads[] = {
    {"shard_stream", false, 2, 8, 4096, 4096, 32, false},
    {"small_requests", false, 1, 1, 1, 64, 4096, true},
    {"program_churn", true, 1, 4, 512, 512, kFunctions * kBatchesPerFunction,
     false},
};

std::size_t input_cols(const Workload& w) {
  return kChannels * (w.program ? kProgramInputs : kLayoutInputs);
}

/// The paper's 8-channel gate (10..80 GHz) with `num_inputs` inputs.
sw::core::GateSpec paper_spec(std::size_t num_inputs) {
  sw::core::GateSpec spec;
  spec.num_inputs = num_inputs;
  spec.frequencies = sw::bench::paper_frequencies();
  return spec;
}

// ----------------------------------------------------------------- inputs --

struct Inputs {
  std::vector<PoolRequest> pool;
  std::vector<std::uint16_t> tables;  ///< program_churn functions
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  if (w.program) in.tables = random_full_support_tables(seed, kFunctions);
  std::uint64_t offset = 0;
  in.pool.resize(w.pool_size);
  for (std::size_t i = 0; i < w.pool_size; ++i) {
    PoolRequest& r = in.pool[i];
    r.num_words = static_cast<std::size_t>(
        uniform_int(rng, w.min_words, w.max_words));
    r.word_offset = offset;
    offset += r.num_words;
    r.input = random_bits(rng, r.num_words, input_cols(w));
    if (w.program) {
      r.key = static_cast<std::uint32_t>(i / kBatchesPerFunction);
      r.expected = truth_table_reference(in.tables[r.key], r.input,
                                         r.num_words, kChannels,
                                         kProgramInputs);
    } else {
      r.expected = majority_reference(r.input, r.num_words, kChannels,
                                      kLayoutInputs);
    }
  }
  return in;
}

// ------------------------------------------------------------------ stack --

struct CompileStats {
  double synth_us = 0.0;  ///< summed
  double lower_us = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t memo_hits = 0;
};

/// Everything one set-up builds; members are destroyed client first.
struct Stack {
  sw::disp::Waveguide wg = sw::bench::paper_waveguide();
  std::unique_ptr<sw::disp::FvmswDispersion> model;
  std::unique_ptr<sw::core::InlineGateDesigner> designer;
  std::atomic<std::uint64_t> design_calls{0};  ///< Designer callback calls
  std::unique_ptr<sw::serve::EvaluatorService> service;
  std::unique_ptr<sw::net::EvalServer> server;
  sw::core::GateLayout layout;
  std::uint64_t layout_hash = 0;
  std::vector<sw::wavesim::ProgramSpec> programs;
  std::vector<std::uint64_t> program_hashes;
  /// Function index of each Zipf rank, hottest first (see zipf_order()).
  std::vector<std::size_t> zipf_order;
  CompileStats compile;
  std::unique_ptr<Client> client;
};

/// Zipf ranks go to functions in order of how close their cascade length
/// is to the set's median (ties by index). A few hot functions carry most
/// of the traffic, so this keeps the head's cost typical on every seed:
/// the seed changes which functions are served, not how long the hot
/// cascades are, which would otherwise swing words/s by a third.
std::vector<std::size_t> zipf_order(
    const std::vector<sw::wavesim::ProgramSpec>& programs) {
  std::vector<double> stages;
  for (const auto& p : programs) stages.push_back(static_cast<double>(p.num_stages()));
  const double mid = median(stages);
  std::vector<std::size_t> order(programs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::abs(stages[a] - mid) < std::abs(stages[b] - mid);
  });
  return order;
}

void encode_request(const Workload& w, const Stack& s, PoolRequest& r) {
  r.message.clear();
  const auto view =
      w.program
          ? sw::serve::make_program_request_view(
                s.programs[r.key], s.program_hashes[r.key], r.word_offset,
                r.num_words, r.input)
          : sw::serve::make_request_view(s.layout.spec, s.layout_hash,
                                         r.word_offset, r.num_words, r.input);
  sw::net::append_frame_message(r.message, view, 0);
}

/// One set-up: service and server construction, design, the workload's
/// compiles, connects and a first request per connection (the first plan
/// build) until every reply checks correct.
std::unique_ptr<Stack> build_stack(const Workload& w, Inputs& in,
                                   SpanLog& spans) {
  auto s = std::make_unique<Stack>();
  ScopedSpan root(spans, "setup");
  {
    ScopedSpan span(spans, "serve.service_init", root.index());
    s->model = std::make_unique<sw::disp::FvmswDispersion>(s->wg);
    s->designer = std::make_unique<sw::core::InlineGateDesigner>(*s->model);
    sw::serve::ServiceOptions options;
    options.num_threads = kServiceThreads;
    s->service = std::make_unique<sw::serve::EvaluatorService>(
        *s->model, s->wg.material.alpha, options);
  }
  {
    ScopedSpan span(spans, "net.server_init", root.index());
    Stack* raw = s.get();
    s->server = std::make_unique<sw::net::EvalServer>(
        *s->service,
        [raw](const sw::core::GateSpec& spec) {
          ++raw->design_calls;
          return raw->designer->design(spec);
        },
        sw::net::Endpoint::parse("tcp:127.0.0.1:0"));
  }
  if (w.program) {
    sw::compile::Synthesizer synth;
    const auto base = paper_spec(3);
    for (std::uint16_t bits : in.tables) {
      const std::int64_t t0 = now_ns();
      std::int32_t span = spans.begin("compile.synth", root.index());
      const auto circuit =
          synth.compile(sw::compile::TruthTable(kProgramInputs, bits));
      spans.end(span);
      const std::int64_t t1 = now_ns();
      span = spans.begin("compile.lower", root.index());
      s->programs.push_back(sw::compile::lower_to_program(circuit, base));
      s->program_hashes.push_back(sw::serve::hash_program(s->programs.back()));
      spans.end(span);
      const std::int64_t t2 = now_ns();
      s->compile.synth_us += (t1 - t0) / 1e3;
      s->compile.lower_us += (t2 - t1) / 1e3;
    }
    s->zipf_order = zipf_order(s->programs);
    s->compile.calls = synth.stats().requests;
    s->compile.memo_hits = synth.stats().memo_hits;
  } else {
    ScopedSpan span(spans, "core.design", root.index());
    s->layout = s->designer->design(paper_spec(kLayoutInputs));
    s->layout_hash = sw::serve::hash_layout(s->layout);
  }
  {
    ScopedSpan span(spans, "net.connect", root.index());
    s->client = std::make_unique<Client>(s->server->local_endpoint(),
                                         w.connections, in.pool);
  }
  {
    ScopedSpan span(spans, "client.first_reply", root.index());
    encode_request(w, *s, in.pool[0]);
    SpanLog off(false);
    const auto first = s->client->closed_loop(1, 0.0, 1, [] { return 0; }, off);
    if (first.ok != w.connections) {
      throw std::runtime_error("the first requests did not come back correct");
    }
  }
  return s;
}

// ------------------------------------------------------------ measurement --

/// A phase's figures. The CPU cost per word is the median over every
/// window of the process's CPU time over the words it delivered: time the
/// host gives to other work does not count, so it moves with the program's
/// own cost. The wall-clock throughput, p50 and p99 come from the quarter
/// of the windows in which the host stole the least CPU time, chosen by
/// steal, never by the figures. The tail and the all-sample p99 use every
/// sample.
struct PhaseSummary {
  double cpu_ns_per_word = 0.0;
  double cpu_utilisation = 0.0;  ///< process CPU seconds per wall second
  double words_per_s = 0.0;  ///< median over windows
  double p50 = 0.0;
  double p99 = 0.0;      ///< median over windows of the window's p99
  double p99_all = 0.0;  ///< over every sample of the phase
  double tail_p = 0.0;
  double tail = 0.0;
  double steal = 0.0;  ///< mean steal share over the windows used
  std::size_t samples = 0;             ///< successful requests
  std::size_t windows_used = 0;
  std::size_t min_window_samples = 0;  ///< p99 needs >= 1000 per window
  std::vector<double> window_p99;      ///< every window, for the record
  std::vector<double> window_words_per_s;
};

PhaseSummary summarize(const PhaseResult& r) {
  PhaseSummary s;
  s.samples = r.latency.count();
  s.tail_p = supported_tail_percentile(s.samples);
  s.tail = r.latency.percentile(s.tail_p);
  s.p99_all = r.latency.percentile(0.99);
  const std::size_t n = r.windows.size();
  const double window_s = (r.stop_ns - r.start_ns) / 1e9 / static_cast<double>(n);
  std::vector<double> cost, busy;
  for (std::size_t i = 0; i < n; ++i) {
    if (r.window_words[i] == 0) continue;
    cost.push_back(r.window_cpu_s[i] * 1e9 / static_cast<double>(r.window_words[i]));
    busy.push_back(r.window_cpu_s[i] / window_s);
  }
  s.cpu_ns_per_word = median(cost);
  s.cpu_utilisation = median(busy);
  std::vector<std::size_t> use(n);
  for (std::size_t i = 0; i < n; ++i) {
    use[i] = i;
    s.window_p99.push_back(r.windows[i].percentile(0.99));
    s.window_words_per_s.push_back(static_cast<double>(r.window_words[i]) /
                                   window_s);
  }
  std::stable_sort(use.begin(), use.end(), [&](std::size_t a, std::size_t b) {
    return r.window_steal[a] < r.window_steal[b];
  });
  use.resize(std::max<std::size_t>(1, n / 4));
  s.windows_used = use.size();
  LogHistogram merged;
  std::vector<double> p99, rate;
  s.min_window_samples = s.samples;
  for (std::size_t i : use) {
    merged.merge(r.windows[i]);
    p99.push_back(s.window_p99[i]);
    rate.push_back(s.window_words_per_s[i]);
    s.steal += r.window_steal[i] / static_cast<double>(use.size());
    s.min_window_samples =
        std::min<std::size_t>(s.min_window_samples, r.windows[i].count());
  }
  s.p50 = merged.percentile(0.5);
  s.p99 = median(p99);
  s.words_per_s = median(rate);
  return s;
}

/// The workload's request mix as a pool-index sequence.
std::function<std::size_t()> request_sequence(const Workload& w,
                                              const Stack& s, Rng& rng) {
  if (w.program) {
    auto zipf = std::make_shared<ZipfSampler>(kFunctions, kZipfExponent);
    const std::vector<std::size_t>* order = &s.zipf_order;
    return [&rng, zipf, order] {
      const std::size_t f = (*order)[(*zipf)(rng)];
      return f * kBatchesPerFunction +
             static_cast<std::size_t>(uniform_int(rng, 0, kBatchesPerFunction - 1));
    };
  }
  const std::size_t n = w.pool_size;
  return [&rng, n] { return static_cast<std::size_t>(uniform_int(rng, 0, n - 1)); };
}

/// One phase of the workload's own traffic shape.
PhaseResult run_traffic(const Workload& w, Stack& s, double seconds,
                        std::uint64_t seed, SpanLog& spans) {
  Rng rng(seed);
  return s.client->closed_loop(w.depth, seconds, kMainWindows,
                               request_sequence(w, s, rng), spans);
}

struct Totals {
  std::uint64_t attempted = 0, failed = 0, wrong_bits = 0, mismatches = 0;

  void add(const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    wrong_bits += r.wrong_bits;
    mismatches += r.mismatches;
  }
};

// ------------------------------------------------------- per-layer probes --

struct Delta {
  sw::serve::ServiceStats before, after;
  sw::net::ServerCounters net_before, net_after;

  static double mean_delta(const sw::obs::HistogramSnapshot& a,
                           const sw::obs::HistogramSnapshot& b) {
    const auto n = b.count - a.count;
    return n ? (b.sum - a.sum) / static_cast<double>(n) : 0.0;
  }
};

/// Run `body` repeatedly for `seconds` (at least once).
template <typename Fn>
void time_loop(double seconds, Fn&& body) {
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    body();
  } while (now_ns() < stop);
}

struct Probes {
  double synth_us = 0, lower_us = 0, memo_hit_ratio = 0;
  double design_us = 0, plan_build_us = 0, program_build_us = 0;
  double kernel_ns_per_word = 0;
  double wire_decode_ns_per_word = 0, wire_encode_ns_per_word = 0;
  std::uint64_t kernel_calls = 0, kernel_wrong = 0;  ///< bit-checked too
};

/// Times the public entry points of each layer with the workload's own
/// shapes, each call wrapped in a span.
Probes run_probes(const Workload& w, Stack& s, Inputs& in, SpanLog& spans) {
  Probes p;
  const std::int32_t root = spans.begin("probes");
  const auto& model = *s.model;
  const double alpha = s.wg.material.alpha;
  const sw::wavesim::BatchOptions single{.num_threads = 1};

  // compile: program_churn's function set was compiled at set-up; the
  // layout workloads' one function is MAJ3 itself.
  if (w.program) {
    p.synth_us = s.compile.synth_us / static_cast<double>(s.compile.calls);
    p.lower_us = s.compile.lower_us / static_cast<double>(s.compile.calls);
    p.memo_hit_ratio = static_cast<double>(s.compile.memo_hits) /
                       static_cast<double>(s.compile.calls);
  } else {
    constexpr int kReps = 20;
    std::uint64_t calls = 0, hits = 0;
    for (int i = 0; i < kReps; ++i) {
      sw::compile::Synthesizer synth;
      const std::int64_t t0 = now_ns();
      std::int32_t span = spans.begin("compile.synth", root);
      const auto circuit = synth.compile(sw::compile::TruthTable(3, 0xE8));
      spans.end(span);
      const std::int64_t t1 = now_ns();
      span = spans.begin("compile.lower", root);
      const auto program = sw::compile::lower_to_program(circuit, paper_spec(3));
      spans.end(span);
      p.synth_us += (t1 - t0) / 1e3;
      p.lower_us += (now_ns() - t1) / 1e3;
      calls += synth.stats().requests;
      hits += synth.stats().memo_hits;
    }
    p.synth_us /= kReps;
    p.lower_us /= kReps;
    p.memo_hit_ratio = static_cast<double>(hits) / static_cast<double>(calls);
  }

  // Design and plan builds, per gate: each layout workload's one layout, or
  // every stage of every program (the server's work on a program miss).
  std::vector<sw::core::GateSpec> gates;
  if (w.program) {
    for (const auto& prog : s.programs) {
      for (const auto& stage : prog.stages) gates.push_back(stage.gate);
    }
  } else {
    for (int i = 0; i < 20; ++i) gates.push_back(s.layout.spec);
  }
  double design_ns = 0, plan_ns = 0;
  for (const auto& gate_spec : gates) {
    const sw::wavesim::WaveEngine engine(model, alpha);
    std::int64_t t0 = now_ns();
    std::int32_t span = spans.begin("core.design", root);
    auto layout = s.designer->design(gate_spec);
    spans.end(span);
    std::int64_t t1 = now_ns();
    span = spans.begin("wavesim.plan_build", root);
    const sw::core::DataParallelGate gate(std::move(layout), engine);
    const sw::wavesim::BatchEvaluator evaluator(gate, single);
    spans.end(span);
    design_ns += static_cast<double>(t1 - t0);
    plan_ns += static_cast<double>(now_ns() - t1);
  }
  p.design_us = design_ns / 1e3 / static_cast<double>(gates.size());
  p.plan_build_us = plan_ns / 1e3 / static_cast<double>(gates.size());

  // Program builds, then the kernel on cached artefacts, single thread.
  const sw::wavesim::WaveEngine engine(model, alpha);
  std::vector<std::unique_ptr<sw::wavesim::EvalProgram>> programs;
  std::vector<sw::wavesim::ProgramSpec> specs = s.programs;
  if (!w.program) {
    sw::compile::Synthesizer synth;
    const auto maj = synth.compile(sw::compile::TruthTable(3, 0xE8));
    for (int i = 0; i < 20; ++i) {
      specs.push_back(sw::compile::lower_to_program(maj, paper_spec(3)));
    }
  }
  double program_ns = 0;
  for (const auto& spec : specs) {
    const std::int64_t t0 = now_ns();
    ScopedSpan span(spans, "wavesim.program_build", root);
    programs.push_back(std::make_unique<sw::wavesim::EvalProgram>(
        spec, *s.designer, engine, single));
    program_ns += static_cast<double>(now_ns() - t0);
  }
  p.program_build_us = program_ns / 1e3 / static_cast<double>(specs.size());

  {
    std::unique_ptr<sw::core::DataParallelGate> gate;
    std::unique_ptr<sw::wavesim::BatchEvaluator> evaluator;
    if (!w.program) {
      gate = std::make_unique<sw::core::DataParallelGate>(s.layout, engine);
      evaluator = std::make_unique<sw::wavesim::BatchEvaluator>(*gate, single);
    }
    std::uint64_t words = 0;
    std::size_t i = 0;
    double busy_ns = 0;
    ScopedSpan span(spans, "wavesim.kernel", root);
    time_loop(kKernelProbeSeconds, [&] {
      const PoolRequest& r = in.pool[i++ % in.pool.size()];
      const std::int64_t t0 = now_ns();
      const auto bits = w.program
                            ? programs[r.key]->evaluate_bits(r.num_words, r.input)
                            : evaluator->evaluate_bits(r.num_words, r.input);
      busy_ns += static_cast<double>(now_ns() - t0);
      words += r.num_words;
      ++p.kernel_calls;
      if (bits != r.expected) ++p.kernel_wrong;
    });
    p.kernel_ns_per_word = busy_ns / static_cast<double>(words);
  }

  // Wire codec on the server's side of the exchange: decode the request
  // frames, encode the response frames. One span per timed loop: the
  // calls are too short and too many to span one by one.
  {
    std::uint64_t words = 0;
    double decode_ns = 0;
    std::size_t i = 0;
    std::vector<sw::serve::SweepFrame> decoded(in.pool.size());
    {
      ScopedSpan span(spans, "serve.wire_decode", root);
      time_loop(kWireProbeSeconds, [&] {
        const std::size_t k = i++ % in.pool.size();
        const PoolRequest& r = in.pool[k];
        const std::span<const std::uint8_t> payload{
            r.message.data() + sw::net::kMessageHeaderSize,
            r.message.size() - sw::net::kMessageHeaderSize};
        const std::int64_t t0 = now_ns();
        decoded[k] = sw::serve::decode_frame(payload);
        decode_ns += static_cast<double>(now_ns() - t0);
        words += r.num_words;
      });
    }
    p.wire_decode_ns_per_word = decode_ns / static_cast<double>(words);

    const std::size_t n = std::min(i, in.pool.size());  // frames decoded
    words = 0;
    i = 0;
    double encode_ns = 0;
    std::vector<std::uint8_t> out;
    ScopedSpan span(spans, "serve.wire_encode", root);
    time_loop(kWireProbeSeconds, [&] {
      const std::size_t k = i++ % n;
      out.clear();
      const std::int64_t t0 = now_ns();
      sw::net::append_frame_message(
          out,
          sw::serve::make_response_view(decoded[k], kChannels,
                                        in.pool[k].expected),
          k);
      encode_ns += static_cast<double>(now_ns() - t0);
      words += decoded[k].num_words;
    });
    p.wire_encode_ns_per_word = encode_ns / static_cast<double>(words);
  }

  spans.end(root);
  return p;
}

// ------------------------------------------------- TCP vs in-process --

/// One slice of the comparison: words delivered per second, latencies of
/// the replies completed inside it, and the host's steal share over it.
struct Slice {
  double words_per_s = 0.0;
  LogHistogram latency;
  double steal = 0.0;
};

/// The transport against its in-process reference (net.tcp_inprocess_ratio,
/// net.rtt_overhead_us): alternating slices of the same request mix and
/// concurrency over TCP and through EvaluatorService::submit_async, which
/// EvalServer itself calls. Both sides keep `inflight` requests going and
/// handle completions in the order they arrive. The figures come from the
/// half of the slice pairs with the least host steal; the ratio is the
/// median of those pairs' own ratios, so host drift between pairs cancels.
struct Comparison {
  double ratio = 0;  ///< TCP words/s over in-process words/s
  double tcp_words_per_s = 0, tcp_p50_us = 0;
  double service_words_per_s = 0, service_p50_us = 0;
  std::size_t tcp_samples = 0, service_samples = 0;
  std::size_t inflight = 0, pairs_used = 0;
  double steal = 0.0;             ///< mean over the pairs used
  std::vector<double> pair_ratio; ///< every pair's words/s ratio, for the record
  std::uint64_t attempted = 0, failed = 0, wrong = 0;  ///< in-process side
};

Slice in_process_slice(const Workload& w, Stack& s, Inputs& in,
                       std::size_t inflight, double seconds,
                       const std::function<std::size_t()>& next,
                       Comparison& c) {
  struct Done {
    std::size_t index;
    std::int64_t start_ns, done_ns;
    sw::serve::ResultBatch result;
    bool error;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Done> done, batch;
  std::size_t outstanding = 0;
  std::uint64_t words = 0;
  Slice slice;
  const auto ticks = cpu_steal_ticks();
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  const auto submit = [&] {
    const std::size_t k = next();
    const PoolRequest& r = in.pool[k];
    auto request =
        w.program ? sw::serve::EvalRequest::for_program(s.programs[r.key],
                                                        r.input, r.num_words)
                  : sw::serve::EvalRequest::for_layout(s.layout, r.input,
                                                       r.num_words);
    ++c.attempted;
    ++outstanding;
    const std::int64_t t0 = now_ns();
    try {
      s.service->submit_async(
          std::move(request),
          [&, k, t0](sw::serve::ResultBatch&& result, std::exception_ptr error) {
            const std::int64_t t = now_ns();
            const std::lock_guard lock(mutex);
            done.push_back({k, t0, t, std::move(result), error != nullptr});
            cv.notify_one();
          });
    } catch (const std::exception&) {
      --outstanding;
      ++c.failed;
    }
  };
  for (std::size_t d = 0; d < inflight; ++d) submit();
  while (outstanding > 0) {
    {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return !done.empty(); });
      batch.swap(done);
    }
    for (Done& d : batch) {
      --outstanding;
      const PoolRequest& r = in.pool[d.index];
      if (d.error || d.result.bits != r.expected) {
        ++c.failed;
        if (!d.error) ++c.wrong;
      } else if (d.done_ns < stop) {
        slice.latency.record((d.done_ns - d.start_ns) / 1e3);
        words += r.num_words;
      }
      if (now_ns() < stop) submit();
    }
    batch.clear();
  }
  const auto after = cpu_steal_ticks();
  const double total = after.second - ticks.second;
  slice.steal = total > 0 ? (after.first - ticks.first) / total : 0.0;
  slice.words_per_s = static_cast<double>(words) / seconds;
  return slice;
}

/// Both sides keep the workload's own connections x depth in flight; for
/// small_requests that is one request at a time, where the difference is
/// the transport's round trip without queueing.
Comparison compare_transport(const Workload& w, Stack& s, Inputs& in,
                             double budget_s, std::uint64_t seed,
                             Totals& totals, SpanLog& spans) {
  Comparison c;
  c.inflight = w.connections * w.depth;
  const double slice_s = budget_s / (2.0 * kMainWindows);
  Rng rng(seed);
  auto next = request_sequence(w, s, rng);
  SpanLog off(false);
  const std::int32_t root = spans.begin("compare");
  std::vector<Slice> tcp(kMainWindows), local(kMainWindows);
  for (std::size_t i = 0; i < kMainWindows; ++i) {
    // Alternate which side goes first, so neither always follows the other.
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (i % 2 == 0)) {
        ScopedSpan span(spans, "net.tcp_slice", root);
        const PhaseResult r = s.client->closed_loop(w.depth, slice_s, 1, next, off);
        totals.add(r);
        tcp[i].words_per_s = static_cast<double>(r.window_words[0]) /
                             ((r.stop_ns - r.start_ns) / 1e9);
        tcp[i].latency = r.windows[0];
        tcp[i].steal = r.window_steal[0];
      } else {
        ScopedSpan span(spans, "serve.inprocess_slice", root);
        local[i] = in_process_slice(w, s, in, c.inflight, slice_s, next, c);
      }
    }
    c.pair_ratio.push_back(tcp[i].words_per_s / local[i].words_per_s);
  }
  spans.end(root);
  std::vector<std::size_t> use(kMainWindows);
  for (std::size_t i = 0; i < use.size(); ++i) use[i] = i;
  std::stable_sort(use.begin(), use.end(), [&](std::size_t a, std::size_t b) {
    return tcp[a].steal + local[a].steal < tcp[b].steal + local[b].steal;
  });
  use.resize(kMainWindows / 2);
  c.pairs_used = use.size();
  LogHistogram tcp_latency, local_latency;
  std::vector<double> tcp_rate, local_rate, ratio;
  for (std::size_t i : use) {
    ratio.push_back(c.pair_ratio[i]);
    tcp_latency.merge(tcp[i].latency);
    local_latency.merge(local[i].latency);
    tcp_rate.push_back(tcp[i].words_per_s);
    local_rate.push_back(local[i].words_per_s);
    c.steal += (tcp[i].steal + local[i].steal) / 2.0 / static_cast<double>(use.size());
  }
  c.ratio = median(ratio);
  c.tcp_words_per_s = median(tcp_rate);
  c.service_words_per_s = median(local_rate);
  c.tcp_p50_us = tcp_latency.percentile(0.5);
  c.service_p50_us = local_latency.percentile(0.5);
  c.tcp_samples = tcp_latency.count();
  c.service_samples = local_latency.count();
  totals.attempted += c.attempted;
  totals.failed += c.failed;
  totals.wrong_bits += c.wrong;
  return c;
}

// -------------------------------------------------------------- reporting --

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;  ///< 0 when not a sampled statistic
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

std::string json_metrics(const std::vector<Metric>& metrics,
                         bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"";
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

std::string read_first_line_with(const char* path, const char* key) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) return "";
      auto v = line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  }
  return "";
}

double peak_rss_mb() {
  const auto v = read_first_line_with("/proc/self/status", "VmHWM");
  return v.empty() ? 0.0 : std::stod(v) / 1024.0;
}

std::string host_json(const sw::serve::ServiceStats& stats,
                      std::uint64_t seed) {
  utsname u{};
  ::uname(&u);
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  std::string cpu = read_first_line_with("/proc/cpuinfo", "model name");
  for (auto& c : cpu) {
    if (c == '"' || c == '\\') c = ' ';
  }
  std::ostringstream o;
  o << "{\"kernel\": \"" << stats.kernel << "\", \"precision\": \""
    << stats.precision << "\", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"cpu\": \"" << cpu << "\", \"avx2\": "
    << flag(__builtin_cpu_supports("avx2")) << ", \"avx512f\": "
    << flag(__builtin_cpu_supports("avx512f")) << ", \"avx512bw\": "
    << flag(__builtin_cpu_supports("avx512bw")) << ", \"avx512vl\": "
    << flag(__builtin_cpu_supports("avx512vl")) << ", \"compiler\": \""
    << __VERSION__ << "\", \"os\": \"" << u.sysname << " " << u.release
    << "\", \"seed\": " << seed << ", \"held_out_seed\": " << kHeldOutSeed
    << "}";
  return o.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = "perfbench/out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::runtime_error("--trace 0|1");
      a.trace = value == "1";
    } else if (key == "--out") {
      a.out = value;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  if (!(a.seconds >= 1.0 && a.seconds <= 60.0)) {
    throw std::runtime_error("--seconds must be in [1, 60]");
  }
  return a;
}

int run(int argc, char** argv, std::int64_t process_start_ns) {
  const Args args = parse_args(argc, argv);
  const Workload* wp = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (!wp) throw std::runtime_error("unknown workload " + args.workload);
  const Workload& w = *wp;
  const double S = args.seconds;
  SpanLog spans(args.trace, kSpanCapacity);
  Inputs in = make_inputs(w, args.seed);

  // Set-up, several times; the last stack serves the measurement. Rep 0
  // counts from process start.
  std::vector<double> setup_cpu_s, setup_wall_s;
  std::vector<double> connect_us;
  std::unique_ptr<Stack> stack;
  double setup_total_s = 0.0;
  for (int rep = 0; rep < kSetupMaxReps &&
                    (rep < kSetupMinReps || setup_total_s < kSetupMinSeconds);
       ++rep) {
    stack.reset();
    const double cpu0 = rep == 0 ? 0.0 : process_cpu_s();
    const std::int64_t wall0 = rep == 0 ? process_start_ns : now_ns();
    stack = build_stack(w, in, spans);
    setup_cpu_s.push_back(process_cpu_s() - cpu0);
    setup_wall_s.push_back((now_ns() - wall0) / 1e9);
    setup_total_s += setup_wall_s.back();
    connect_us.insert(connect_us.end(), stack->client->connect_us().begin(),
                      stack->client->connect_us().end());
  }
  Stack& s = *stack;
  for (auto& r : in.pool) encode_request(w, s, r);

  Totals totals;
  SpanLog off(false);
  // Warm-up: fills the plan cache to its steady state, not measured.
  totals.add(run_traffic(w, s, std::max(0.5, kWarmupShare * S), args.seed + 11,
                         off));

  Delta delta{s.service->stats(), {}, s.server->counters(), {}};
  const PhaseResult main = run_traffic(w, s, kMainShare * S, args.seed + 23, off);
  delta.after = s.service->stats();
  delta.net_after = s.server->counters();
  double steal_ratio = 0.0;
  for (double x : main.window_steal) steal_ratio += x / kMainWindows;
  totals.add(main);
  const PhaseSummary lat = summarize(main);
  const double rss = peak_rss_mb();

  // Traced window, transport comparison and per-layer probes (trace runs
  // only).
  PhaseSummary traced;
  PhaseResult open;  ///< empty unless the open-loop phase ran
  Comparison cmp;
  Probes probes;
  if (args.trace) {
    const PhaseResult r =
        run_traffic(w, s, kTracedShare * S, args.seed + 41, spans);
    totals.add(r);
    traced = summarize(r);
    if (w.open_loop_phase) {
      Client generator(s.server->local_endpoint(), kOpenLoopConnections, in.pool);
      Rng rng(args.seed + 47);
      open = generator.open_loop(
          poisson_schedule(args.seed + 53, kOpenLoopRate, kOpenLoopShare * S),
          kMaxBacklog, request_sequence(w, s, rng));
      totals.add(open);
    }
    cmp = compare_transport(w, s, in, kCompareShare * S, args.seed + 43,
                            totals, spans);
    probes = run_probes(w, s, in, spans);
    totals.attempted += probes.kernel_calls;
    totals.failed += probes.kernel_wrong;
    totals.wrong_bits += probes.kernel_wrong;
  }
  const auto stats = s.service->stats();

  const std::vector<Metric> end_to_end = {
      {"cpu_ns_per_word", lat.cpu_ns_per_word, "ns", kMainWindows},
      {"setup_s", median(setup_cpu_s), "s", setup_cpu_s.size()},
      {"peak_rss_mb", rss, "MB", 1},
  };

  const auto d_hits = delta.after.cache.hits - delta.before.cache.hits;
  const auto d_misses = delta.after.cache.misses - delta.before.cache.misses;
  const auto d_bytes =
      (delta.net_after.bytes_read - delta.net_before.bytes_read) +
      (delta.net_after.bytes_written - delta.net_before.bytes_written);
  const auto ratio = [](double num, double den) {
    return den != 0.0 ? num / den : 0.0;
  };
  std::vector<Metric> per_layer;
  if (args.trace) {
    per_layer = {
        {"compile.synth_us", probes.synth_us, "us", 0},
        {"compile.lower_us", probes.lower_us, "us", 0},
        {"compile.memo_hit_ratio", probes.memo_hit_ratio, "ratio", 0},
        {"core.design_us", probes.design_us, "us", 0},
        {"core.design_calls",
         static_cast<double>(s.design_calls.load() + stats.cache.program_stages),
         "count", 0},
        {"wavesim.kernel_ns_per_word", probes.kernel_ns_per_word, "ns", 0},
        {"wavesim.plan_build_us", probes.plan_build_us, "us", 0},
        {"wavesim.program_build_us", probes.program_build_us, "us", 0},
        {"serve.wire_encode_ns_per_word", probes.wire_encode_ns_per_word, "ns",
         0},
        {"serve.wire_decode_ns_per_word", probes.wire_decode_ns_per_word, "ns",
         0},
        {"serve.service_words_per_s", cmp.service_words_per_s, "words/s", 0},
        {"serve.service_latency_p50_us", cmp.service_p50_us, "us",
         cmp.service_samples},
        {"serve.queue_wait_us",
         1e6 * Delta::mean_delta(delta.before.queue_wait, delta.after.queue_wait),
         "us", 0},
        {"serve.admission_wait_us",
         1e6 * Delta::mean_delta(delta.before.admission_wait,
                                 delta.after.admission_wait),
         "us", 0},
        {"serve.kernel_exec_us",
         1e6 * Delta::mean_delta(delta.before.kernel_exec,
                                 delta.after.kernel_exec),
         "us", 0},
        {"serve.plan_cache_hit_ratio",
         ratio(static_cast<double>(d_hits), static_cast<double>(d_hits + d_misses)),
         "ratio", 0},
        {"serve.plan_cache_evictions",
         static_cast<double>(delta.after.cache.evictions -
                             delta.before.cache.evictions),
         "count", 0},
        {"serve.program_builds",
         static_cast<double>(delta.after.cache.program_builds -
                             delta.before.cache.program_builds),
         "count", 0},
        {"net.tcp_inprocess_ratio", cmp.ratio, "ratio", cmp.pairs_used},
        {"net.connect_us", median(connect_us), "us", connect_us.size()},
        {"net.client_send_us",
         ratio(main.send_syscall_us, static_cast<double>(main.sends)), "us",
         main.sends},
        {"net.rtt_overhead_us", cmp.tcp_p50_us - cmp.service_p50_us, "us",
         cmp.tcp_samples},
        {"net.bytes_per_word",
         ratio(static_cast<double>(d_bytes), static_cast<double>(main.words_ok)),
         "bytes", 0},
        {"net.backpressure_pauses",
         static_cast<double>(delta.net_after.backpressure_pauses -
                             delta.net_before.backpressure_pauses),
         "count", 0},
        {"bench.late_send_p99_us", open.late.percentile(0.99), "us",
         open.late.count()},
        {"bench.late_send_ratio",
         1.0 - open.late.fraction_at_most(kLateSendUs), "ratio",
         open.late.count()},
        {"bench.trace_overhead_ratio", ratio(traced.p50, lat.p50), "ratio", 0},
        {"bench.host_steal_ratio", steal_ratio, "ratio", 0},
    };
  }

  // ------------------------------------------------------------- output --
  ::mkdir(args.out.c_str(), 0755);  // may exist; failures surface at fopen
  const std::string stem =
      args.out + "/" + w.name + "-seed" + std::to_string(args.seed);
  const bool correct = totals.wrong_bits == 0 && totals.mismatches == 0;
  const std::string host = host_json(stats, args.seed);
  std::vector<double> stages_by_rank;
  for (std::size_t f : s.zipf_order) {
    stages_by_rank.push_back(static_cast<double>(s.programs[f].num_stages()));
  }
  const double failed_ratio = ratio(static_cast<double>(totals.failed),
                                    static_cast<double>(totals.attempted));

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", w.name,
              static_cast<unsigned long long>(args.seed), S, args.trace ? 1 : 0);
  std::printf("host %s\n", host.c_str());
  const auto [cpu_min, cpu_max] =
      std::minmax_element(setup_cpu_s.begin(), setup_cpu_s.end());
  std::printf("set-up reps: %zu, CPU s median %.6f (%.6f to %.6f), rep 0 "
              "(from process start) %.6f\n",
              setup_cpu_s.size(), median(setup_cpu_s), *cpu_min, *cpu_max,
              setup_cpu_s[0]);
  std::printf("%-32s %16s  %-8s %s\n", "end-to-end metric", "value", "unit",
              "samples");
  for (const auto& m : end_to_end) {
    std::printf("%-32s %16.6g  %-8s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  // Printed and stored, but no BENCHMARK.json metrics: wall-clock figures
  // move with how much CPU a shared host leaves the process.
  const std::vector<Metric> wall = {
      {"words_per_s", lat.words_per_s, "words/s", lat.windows_used},
      {"latency_p50_us", lat.p50, "us", lat.samples},
      {"latency_p99_us", lat.p99, "us", lat.samples},
      {"setup_wall_s", median(setup_wall_s), "s", setup_wall_s.size()},
      {"cpu_utilisation", lat.cpu_utilisation, "cpus", kMainWindows},
      {"failed_ratio", failed_ratio, "ratio", totals.attempted},
  };
  std::printf("wall clock, not gated:\n");
  for (const auto& m : wall) {
    std::printf("%-32s %16.6g  %-8s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("wall figures from the %zu of %zu windows with the least host "
              "CPU steal (%.2f%% there, %.2f%% over the phase), the smallest "
              "holding %zu samples; p99 over all %zu samples %.2f us, tail "
              "p%.4g = %.2f us\n",
              lat.windows_used, kMainWindows, 100 * lat.steal,
              100 * steal_ratio, lat.min_window_samples, lat.samples,
              lat.p99_all, lat.tail_p * 100, lat.tail);
  if (lat.steal > kStealWarn) {
    std::printf("WARNING: the host stole %.2f%% of the CPU time even in the "
                "quietest windows; this run's wall figures read slow\n",
                100 * lat.steal);
  }
  if (args.trace) {
    std::printf("TCP vs in-process, %zu in flight, %zu of %zu slice pairs "
                "with the least steal (%.2f%%): %.6g vs %.6g words/s (median "
                "pair ratio %.4f), p50 %.2f vs %.2f us\n",
                cmp.inflight, cmp.pairs_used, kMainWindows, 100 * cmp.steal,
                cmp.tcp_words_per_s, cmp.service_words_per_s, cmp.ratio,
                cmp.tcp_p50_us, cmp.service_p50_us);
  }
  // The open loop's latency counts from due times, so a late generator
  // inflates it: flag a phase in which the client, not the server, fell
  // behind.
  const bool generator_behind = open.late.percentile(0.99) > kLateSendUs;
  const double open_rate =
      static_cast<double>(open.attempted) / (kOpenLoopShare * S);
  if (args.trace && w.open_loop_phase) {
    std::printf("open loop, Poisson %.0f req/s over %zu connections: %llu "
                "requests, latency from due time p50 %.2f us, p99 %.2f us; "
                "sends late by > %.0f us %.4f%%, lateness p99 %.1f us%s%s\n",
                kOpenLoopRate, kOpenLoopConnections,
                static_cast<unsigned long long>(open.attempted),
                open.latency.percentile(0.5), open.latency.percentile(0.99),
                kLateSendUs, 100 * (1.0 - open.late.fraction_at_most(kLateSendUs)),
                open.late.percentile(0.99),
                generator_behind ? "  WARNING: the generator fell behind its "
                                   "schedule, so this phase measures the "
                                   "client, not the server"
                                 : "",
                open.overloaded ? "  WARNING: overloaded, the phase stopped "
                                  "sending early"
                                : "");
  }

  std::string detail =
      "{\"workload\": \"" + std::string(w.name) +
      "\", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + json_number(S) +
      ", \"trace\": " + (args.trace ? "1" : "0") + ", \"host\": " + host +
      ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(totals.attempted) +
      ", \"failed\": " + std::to_string(totals.failed) +
      ", \"wrong_bits\": " + std::to_string(totals.wrong_bits) +
      ", \"mismatches\": " + std::to_string(totals.mismatches) +
      ", \"host_steal_ratio\": " + json_number(steal_ratio) +
      ", \"stages_by_zipf_rank\": " + json_list(stages_by_rank) +
      ", \"latency_tail\": {\"percentile\": " + json_number(lat.tail_p) +
      ", \"value_us\": " + json_number(lat.tail) +
      ", \"min_window_samples\": " + std::to_string(lat.min_window_samples) +
      ", \"windows_used\": " + std::to_string(lat.windows_used) +
      ", \"p99_all_us\": " + json_number(lat.p99_all) +
      ", \"steal_in_windows_used\": " + json_number(lat.steal) +
      ", \"window_p99_us\": " + json_list(lat.window_p99) +
      "}, \"window_steal\": " + json_list(main.window_steal) +
      ", \"window_words_per_s\": " + json_list(lat.window_words_per_s) +
      ", \"window_cpu_s\": " + json_list(main.window_cpu_s) +
      ", \"setup_cpu_s\": " + json_list(setup_cpu_s) +
      ", \"setup_wall_s\": " + json_list(setup_wall_s);
  if (args.trace) {
    detail += ", \"comparison\": {\"inflight\": " +
              std::to_string(cmp.inflight) +
              ", \"pairs_used\": " + std::to_string(cmp.pairs_used) +
              ", \"steal\": " + json_number(cmp.steal) +
              ", \"ratio\": " + json_number(cmp.ratio) +
              ", \"tcp_words_per_s\": " + json_number(cmp.tcp_words_per_s) +
              ", \"service_words_per_s\": " +
              json_number(cmp.service_words_per_s) +
              ", \"tcp_p50_us\": " + json_number(cmp.tcp_p50_us) +
              ", \"service_p50_us\": " + json_number(cmp.service_p50_us) +
              ", \"pair_ratio\": " + json_list(cmp.pair_ratio) + "}";
  }
  if (args.trace && w.open_loop_phase) {
    detail += ", \"open_loop\": {\"rate\": " + json_number(kOpenLoopRate) +
              ", \"offered_rate\": " + json_number(open_rate) +
              ", \"connections\": " + std::to_string(kOpenLoopConnections) +
              ", \"attempted\": " + std::to_string(open.attempted) +
              ", \"latency_p50_us\": " +
              json_number(open.latency.percentile(0.5)) +
              ", \"latency_p99_us\": " +
              json_number(open.latency.percentile(0.99)) +
              ", \"late_p99_us\": " + json_number(open.late.percentile(0.99)) +
              ", \"generator_behind\": " + (generator_behind ? "true" : "false") +
              ", \"overloaded\": " + (open.overloaded ? "true" : "false") + "}";
  }
  detail += ", \"end_to_end\": " + json_metrics(end_to_end, true) +
            ", \"wall\": " + json_metrics(wall, true) +
            ", \"per_layer\": " + json_metrics(per_layer, true) + "}\n";
  if (std::FILE* f = std::fopen(
          (stem + "-trace" + (args.trace ? "1" : "0") + ".json").c_str(), "w")) {
    std::fputs(detail.c_str(), f);
    std::fclose(f);
  }

  if (args.trace) {
    std::string text = "layer self time, traced run of " + std::string(w.name) +
                       " seed " + std::to_string(args.seed) + "\n";
    char line[256];
    std::snprintf(line, sizeof line, "%-28s %10s %14s %14s %12s\n", "span",
                  "count", "total_us", "self_us", "self_mean_us");
    text += line;
    for (const auto& [name, row] : spans.layer_table()) {
      std::snprintf(line, sizeof line, "%-28s %10llu %14.1f %14.1f %12.3f\n",
                    name.c_str(), static_cast<unsigned long long>(row.count),
                    row.total_us, row.self_us,
                    row.self_us / static_cast<double>(row.count));
      text += line;
    }
    std::snprintf(line, sizeof line,
                  "spans kept %zu, dropped %llu; tracing overhead (traced / "
                  "untraced p50 latency) %.4f\n",
                  spans.size(), static_cast<unsigned long long>(spans.dropped()),
                  ratio(traced.p50, lat.p50));
    text += line;
    std::fputs(text.c_str(), stdout);
    for (const auto& m : per_layer) {
      std::printf("%-32s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w")) {
      std::fputs(text.c_str(), f);
      std::fclose(f);
    }
    spans.write_trace_json(stem + ".trace.json", process_start_ns,
                           kMaxSpansWritten);
    if (std::FILE* f = std::fopen((stem + ".server-trace.json").c_str(), "w")) {
      std::fputs(s.server->trace_text().c_str(), f);
      std::fclose(f);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              json_metrics(args.trace ? per_layer : end_to_end, false).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start = now_ns();
  try {
    return run(argc, argv, start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swbench: %s\n", e.what());
    return 1;
  }
}

// Long-lived evaluator service: the traffic-serving front end over the
// batch-evaluation subsystem.
//
// One EvaluatorService owns the WaveEngine, a designer, a plan cache and a
// worker pool, and accepts interleaved packed-word batches against
// *arbitrary* targets — single gate layouts or multi-stage ProgramSpecs —
// through one request type (serve::EvalRequest): submit() returns a
// std::future, submit_async() a callback, and admission control bounds the
// request queue and the words in flight (shed or block, caller-visible).
//
// Both target kinds run as one artefact: the plan cache turns a layout
// into a one-stage wavesim::EvalProgram over that very layout and a
// ProgramSpec into its designed cascade, keyed by the target's canonical
// bytes. A worker therefore has one evaluation path — look the program up
// (building it on a cold miss), run its bit-plane evaluate_bits, return
// the last stage's bits — and the steady-state cost of a repeated target
// is just that evaluation. Only a ProgramSpec request's trace splits the
// kernel span into per-stage kStage spans, however many stages it has.
//
// Where a request runs: the submit fast path resolves a cached entry
// without copying the target; a miss hands a copy to a pool worker, where
// construction is serialised per key behind the cache entry. A cached
// request normally queues for a pool worker too. The one exception is a
// request that sets EvalRequest::run_small_hits_inline (the event server
// does): when its program was cached at submit and its batch fits one
// 64-word plane group, the submitting thread runs the same worker body
// itself, so no plan or program is ever built on that thread. Admission,
// stats, histograms, spans (kQueue then closes as it opens) and both hooks
// are the same on either thread.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/model.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/eval_request.h"
#include "serve/plan_cache.h"
#include "util/thread_pool.h"
#include "wavesim/wave_engine.h"

namespace sw::serve {

struct ServiceOptions {
  /// Worker threads consuming the request queue; 0 selects
  /// std::thread::hardware_concurrency(). At least one dedicated worker is
  /// always spawned so submission stays asynchronous on one-core hosts.
  std::size_t num_threads = 0;
  /// Plan-cache capacity in distinct targets (layouts and programs);
  /// 0 = unbounded.
  std::size_t plan_cache_capacity = 32;
  /// Options for the cached programs (precision, frequency tolerance and
  /// word-loop threads). The default single inline thread makes each
  /// evaluation run entirely on the service worker that picked the request
  /// up (parallelism comes from concurrent requests); raise it only for
  /// few-but-huge-batch workloads.
  sw::wavesim::BatchOptions evaluator_options{.num_threads = 1};
  AdmissionOptions admission;
  /// Observability hook: called on the thread that evaluates the request
  /// (a pool worker, or the submitting thread for a request run inline)
  /// right after it leaves the queue, before its evaluation starts. Useful
  /// for metrics and tracing; tests use it to hold workers in place
  /// deterministically and to see which thread ran a request.
  std::function<void(std::uint64_t request_id)> on_request_start;
  /// Completion hook: called on the evaluating thread once a request has
  /// fully settled (accounting released, success or failure alike), with
  /// its submit-to-completion latency. The same latency feeds
  /// ServiceStats::request_latency whether or not a hook is installed.
  std::function<void(std::uint64_t request_id, double latency_seconds)>
      on_request_finish;
  /// Settled traces kept in the service's TraceRecorder ring (what the
  /// trace endpoint answers with).
  std::size_t trace_capacity = 256;
  /// Any settled request whose trace spans cover at least this many
  /// seconds logs a per-phase breakdown to stderr; <= 0 disables.
  double slow_request_threshold_s = 0.0;
};

/// Decoded output of one request: row-major num_words x num_channels logic
/// bits (the evaluate_bits matrix), plus serving metadata.
struct ResultBatch {
  std::uint64_t request_id = 0;
  std::size_t num_words = 0;
  std::size_t num_channels = 0;
  bool cache_hit = false;  ///< plan came from the cache (no build this call)
  /// Evaluation stages behind these bits: 1 for a single-gate layout,
  /// the cascade length for a program (whose bits are the LAST stage's).
  std::size_t num_stages = 1;
  /// Longest stage-to-stage path of the evaluated target (1 for a gate):
  /// the physical cascade latency in stages.
  std::size_t depth = 1;
  /// The request's phase spans (admission, plan lookup/build, queue,
  /// kernel, per-stage), settled. Already recorded into the service's
  /// TraceRecorder unless the request set defer_trace_record.
  sw::obs::TraceContext trace;
  std::vector<std::uint8_t> bits;

  std::uint8_t bit(std::size_t word, std::size_t channel) const {
    return bits[word * num_channels + channel];
  }
};

struct ServiceStats {
  std::uint64_t submitted = 0;  ///< requests admitted and enqueued
  std::uint64_t completed = 0;  ///< requests finished (including failures)
  std::uint64_t shed = 0;       ///< submissions rejected with OverloadError
  std::uint64_t blocked = 0;    ///< submissions that had to wait (kBlock)
  std::size_t queued_requests = 0;  ///< admitted, not yet picked up
  std::size_t inflight_words = 0;   ///< admitted, not yet completed
  /// Evaluation kernel every evaluate_bits dispatches to ("scalar" |
  /// "avx2" | "avx512"; see sw::wavesim::active_kernel_name()).
  std::string kernel;
  /// Requested evaluation precision of this service's plans ("f64" |
  /// "f32"; ServiceOptions::evaluator_options.precision with kAuto
  /// resolved). An f32 service can still serve double or block-f32 plans
  /// per layout: cache.f32_fallbacks counts full margin-aware fallbacks,
  /// cache.block_plans the per-detector mixes, and cache.f32_detectors /
  /// cache.f64_rescue_detectors the detector-granularity split — so
  /// precision == "f32" with f64_rescue_detectors > 0 reads "asked for
  /// f32, some detectors were rescued to f64 lanes".
  std::string precision;
  PlanCacheStats cache;
  /// Since-start distributions (log-bucketed, Prometheus-renderable):
  /// submit-to-settle latency, admission wait, queue wait, kernel
  /// execution — all seconds — plus the admitted batch sizes in words.
  /// request_latency also backs the sw_serve_latency_* percentiles and
  /// what the serving benches print (HistogramSnapshot::quantile / mean).
  sw::obs::HistogramSnapshot request_latency;
  sw::obs::HistogramSnapshot admission_wait;
  sw::obs::HistogramSnapshot queue_wait;
  sw::obs::HistogramSnapshot kernel_exec;
  sw::obs::HistogramSnapshot batch_words;
};

class EvaluatorService {
 public:
  /// Completion callback of submit_async: exactly one of result/error is
  /// meaningful — `error` is null on success. Runs on the thread that
  /// evaluated the request, after the request has fully settled
  /// (accounting released, stats updated), so the callback may safely
  /// re-submit or inspect stats().
  using CompletionFn =
      std::function<void(ResultBatch&& result, std::exception_ptr error)>;

  /// The service designs nothing itself: callers bring layouts (e.g. from
  /// InlineGateDesigner against the same model). `model` must outlive the
  /// service; `alpha` is the Gilbert damping for the owned WaveEngine.
  /// Resolves (and logs to stderr, once per process) the evaluation kernel
  /// and precision requests will run on, so an invalid SW_EVAL_KERNEL or
  /// SW_EVAL_PRECISION override fails here rather than inside the first
  /// request.
  EvaluatorService(const sw::disp::DispersionModel& model, double alpha,
                   ServiceOptions options = {});

  /// Drains every pending request (their futures all complete), then joins
  /// the workers. Blocked submitters on other threads are woken with an
  /// error.
  ~EvaluatorService();

  EvaluatorService(const EvaluatorService&) = delete;
  EvaluatorService& operator=(const EvaluatorService&) = delete;

  /// Submit one EvalRequest (layout- or program-bound, see eval_request.h).
  /// Returns a future carrying the decoded bits — for a program, the LAST
  /// stage's — with stage-count/depth metadata; evaluation errors surface
  /// through the future. Throws OverloadError (kShed) or blocks (kBlock)
  /// per the admission policy, and throws sw::util::Error on a shape
  /// mismatch or a request binding neither (or both) targets.
  std::future<ResultBatch> submit(EvalRequest request);

  /// Callback-style submit for event-driven callers (the epoll serving
  /// core) that must not park a thread in future.get(): same admission,
  /// plan-cache and accounting path as submit(), but completion is
  /// delivered by invoking `done` on the evaluating thread: a pool worker,
  /// or — for a cached small request that set run_small_hits_inline — the
  /// caller itself, before submit_async returns. Exceptions thrown by
  /// `done` itself are swallowed (the request has already settled).
  void submit_async(EvalRequest request, CompletionFn done);

  ServiceStats stats() const;
  const sw::wavesim::WaveEngine& engine() const { return engine_; }
  /// The designer backing program builds (shared with the plan cache).
  const sw::core::InlineGateDesigner& designer() const { return designer_; }
  std::size_t num_threads() const { return pool_.size(); }
  /// ServiceOptions::plan_cache_capacity (0 = unbounded).
  std::size_t plan_cache_capacity() const { return cache_.capacity(); }

  /// The ring of settled request traces: the trace endpoint snapshots it,
  /// transports that defer recording (see EvalRequest::defer_trace_record)
  /// record into it after appending their own spans.
  sw::obs::TraceRecorder& trace_recorder() { return trace_recorder_; }
  const sw::obs::TraceRecorder& trace_recorder() const {
    return trace_recorder_;
  }

 private:
  struct Request;
  void post_request(EvalRequest&& source, std::unique_ptr<Request> request);
  void process(Request* request);  // takes ownership

  ServiceOptions options_;
  sw::wavesim::WaveEngine engine_;
  sw::core::InlineGateDesigner designer_;
  PlanCache cache_;
  AdmissionController admission_;
  sw::obs::TraceRecorder trace_recorder_;
  sw::obs::Histogram request_latency_hist_ = sw::obs::Histogram::for_seconds();
  sw::obs::Histogram admission_wait_hist_ = sw::obs::Histogram::for_seconds();
  sw::obs::Histogram queue_wait_hist_ = sw::obs::Histogram::for_seconds();
  sw::obs::Histogram kernel_exec_hist_ = sw::obs::Histogram::for_seconds();
  sw::obs::Histogram batch_words_hist_ = sw::obs::Histogram::for_words();

  mutable std::mutex stats_mutex_;
  std::uint64_t next_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;

  // Declared last: its destructor runs first and drains the queued
  // requests while every member they touch is still alive.
  sw::util::ThreadPool pool_;
};

}  // namespace sw::serve

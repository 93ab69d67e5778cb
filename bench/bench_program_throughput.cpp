// Experiment E9 — compiled-program evaluation throughput.
//
// The gate-cascade compiler turns an arbitrary truth table into a
// multi-stage EvalProgram whose stage plans are built once and whose
// interconnect gathers are resolved ahead of time. This bench measures
// what that buys over two staged serving shapes, where every stage runs as
// its own one-gate evaluation and its inputs are materialised by hand:
//   * staged: per batch, for every stage, design the gate, build a
//     one-shot BatchEvaluator and gather its input matrix from the
//     primary word / earlier stage outputs (the MajorityCascade-era
//     client loop);
//   * staged over cached stage plans: the same gathers and per-stage
//     byte-matrix evaluations, but over one BatchEvaluator per stage built
//     at set-up — what a caller gets from a plan cache without a program;
//   * fused: one long-lived EvalProgram evaluating the same primary
//     matrix end to end, its stages trading 64-word bit planes.
// The cached-plan row and the fused program run on one thread each, the
// serving shape (the plan cache builds single-threaded programs). All
// paths sweep a synthesized 3-input function (0x1B — an arbitrary
// non-special table, so the cascade is a real multi-gate chain) over the
// paper's 8-channel fabric, are cross-checked bit-exact against each
// other and against the Boolean truth table, and the fused path must
// clear 1.5x each staged one — the CI floors. Against the per-batch
// redesign the margin is an order of magnitude; against cached stage
// plans it is what the bit-plane cascade itself buys over byte matrices.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "compile/lower.h"
#include "compile/synth.h"
#include "compile/truth_table.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/fvmsw.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_program.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace sw;

constexpr std::size_t kChannels = 8;
constexpr std::uint16_t kFunctionBits = 0x1B;
// One serving-sized batch per timed call: small enough that the staged
// path's per-batch design + plan builds do not amortise away (the cost
// the compiled program exists to delete), large enough to keep the SIMD
// word loop out of startup noise.
constexpr std::size_t kNumWords = 512;

struct BenchSetup {
  disp::Waveguide wg = bench::paper_waveguide();
  disp::FvmswDispersion model{wg};
  core::InlineGateDesigner designer{model};
  wavesim::WaveEngine engine{model, wg.material.alpha};
  wavesim::ProgramSpec spec = make_spec();
  // The fused artefact: built once, reused per batch (what PlanCache
  // hands the service on a program hit).
  wavesim::EvalProgram program{spec, designer, engine, {.num_threads = 1}};
  std::vector<std::uint8_t> primary = make_primary(spec);
  // One gate and evaluator per stage, built once: the staged loop over
  // cached stage plans.
  std::vector<std::unique_ptr<core::DataParallelGate>> stage_gates;
  std::vector<std::unique_ptr<wavesim::BatchEvaluator>> stage_evaluators;

  BenchSetup() {
    for (const auto& ss : spec.stages) {
      stage_gates.push_back(std::make_unique<core::DataParallelGate>(
          designer.design(ss.gate), engine));
      stage_evaluators.push_back(std::make_unique<wavesim::BatchEvaluator>(
          *stage_gates.back(), wavesim::BatchOptions{.num_threads = 1}));
    }
  }

  static wavesim::ProgramSpec make_spec() {
    compile::Synthesizer synth;
    const auto circuit =
        synth.compile(compile::TruthTable(3, kFunctionBits));
    core::GateSpec base;
    base.num_inputs = 3;
    base.frequencies = bench::paper_frequencies();
    return compile::lower_to_program(circuit, base);
  }

  static std::vector<std::uint8_t> make_primary(
      const wavesim::ProgramSpec& spec) {
    // Channel ch of word w carries assignment (w + ch) % 8: every channel
    // cycles through all eight input patterns, out of phase with its
    // neighbours.
    const std::size_t cols = spec.primary_slot_count();
    std::vector<std::uint8_t> primary(kNumWords * cols);
    for (std::size_t w = 0; w < kNumWords; ++w) {
      for (std::size_t ch = 0; ch < kChannels; ++ch) {
        const std::size_t a = (w + ch) % 8;
        for (std::size_t i = 0; i < 3; ++i) {
          primary[w * cols + ch * 3 + i] =
              static_cast<std::uint8_t>((a >> i) & 1);
        }
      }
    }
    return primary;
  }
};

const BenchSetup& setup() {
  static const BenchSetup s;
  return s;
}

/// Hand-gathered input matrix of one stage: each slot's bit from a
/// constant, the primary matrix or an earlier stage's decoded bytes.
std::vector<std::uint8_t> gather_stage(
    const BenchSetup& s, const wavesim::StageSpec& ss,
    const std::vector<std::vector<std::uint8_t>>& stage_bits) {
  using wavesim::SlotSource;
  const std::size_t n = s.spec.num_channels();
  const std::size_t m = ss.gate.num_inputs;
  const std::size_t cols = s.spec.primary_slot_count();
  std::vector<std::uint8_t> packed(kNumWords * n * m);
  for (std::size_t w = 0; w < kNumWords; ++w) {
    for (std::size_t ch = 0; ch < n; ++ch) {
      for (std::size_t k = 0; k < m; ++k) {
        const auto& src = ss.sources[ch * m + k];
        bool v = false;
        switch (src.kind) {
          case SlotSource::Kind::kZero: v = false; break;
          case SlotSource::Kind::kOne: v = true; break;
          case SlotSource::Kind::kPrimary:
            v = s.primary[w * cols + src.index] != 0;
            break;
          case SlotSource::Kind::kStage:
            v = stage_bits[src.stage][w * n + src.index] != 0;
            break;
        }
        packed[w * n * m + ch * m + k] =
            static_cast<std::uint8_t>(v != src.negated);
      }
    }
  }
  return packed;
}

/// The pre-compiler client loop: per stage, design + one-shot evaluator +
/// hand-gathered input matrix, intermediates materialised between stages.
std::vector<std::uint8_t> run_staged(const BenchSetup& s) {
  std::vector<std::vector<std::uint8_t>> stage_bits;
  for (const auto& ss : s.spec.stages) {
    const core::DataParallelGate gate(s.designer.design(ss.gate), s.engine);
    const wavesim::BatchEvaluator evaluator(gate);
    stage_bits.push_back(
        evaluator.evaluate_bits(kNumWords, gather_stage(s, ss, stage_bits)));
  }
  return stage_bits.back();
}

/// The same staged loop over the stage evaluators built at set-up.
std::vector<std::uint8_t> run_staged_cached(const BenchSetup& s) {
  std::vector<std::vector<std::uint8_t>> stage_bits;
  for (std::size_t st = 0; st < s.spec.num_stages(); ++st) {
    stage_bits.push_back(s.stage_evaluators[st]->evaluate_bits(
        kNumWords, gather_stage(s, s.spec.stages[st], stage_bits)));
  }
  return stage_bits.back();
}

std::vector<std::uint8_t> run_fused(const BenchSetup& s) {
  return s.program.evaluate_bits(kNumWords, s.primary);
}

void run_experiment(bench::BenchJson& json) {
  const auto& s = setup();
  const double words = static_cast<double>(kNumWords);
  std::printf("compiled cascade for table 0x%02X: %zu stages, depth %zu, "
              "%zu channels, %zu words/batch\n\n",
              kFunctionBits, s.spec.num_stages(), s.spec.depth(), kChannels,
              kNumWords);

  // Best of three per path: the floor checks gate CI, so one scheduler
  // stall must not read as a regression. The cached and fused paths take
  // tens of microseconds per batch, so each of their reps times a window
  // of kWindow batches.
  constexpr int kWindow = 32;
  std::vector<std::uint8_t> staged, cached, fused;
  const double staged_s =
      bench::best_of_three_seconds([&] { staged = run_staged(s); });
  const double cached_s = bench::best_of_three_seconds([&] {
    for (int i = 0; i < kWindow; ++i) cached = run_staged_cached(s);
  }) / kWindow;
  const double fused_s = bench::best_of_three_seconds([&] {
    for (int i = 0; i < kWindow; ++i) fused = run_fused(s);
  }) / kWindow;

  SW_REQUIRE(fused == staged,
             "fused program diverged from the staged per-stage sweep");
  SW_REQUIRE(cached == staged,
             "staged sweep over cached stage plans diverged");
  const compile::TruthTable table(3, kFunctionBits);
  const std::size_t cols = s.spec.primary_slot_count();
  for (std::size_t w = 0; w < kNumWords; ++w) {
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      std::size_t a = 0;
      for (std::size_t i = 0; i < 3; ++i) {
        a |= static_cast<std::size_t>(s.primary[w * cols + ch * 3 + i]) << i;
      }
      SW_REQUIRE(fused[w * kChannels + ch] == (table.value(a) ? 1 : 0),
                 "compiled program diverged from the Boolean reference");
    }
  }

  std::printf("staged per-stage loop: %8.3f ms  (%10.0f words/s)\n",
              staged_s * 1e3, words / staged_s);
  std::printf("staged, cached plans : %8.3f ms  (%10.0f words/s)\n",
              cached_s * 1e3, words / cached_s);
  std::printf("fused EvalProgram    : %8.3f ms  (%10.0f words/s)\n",
              fused_s * 1e3, words / fused_s);
  std::printf("speedup vs staged    : %8.1fx  (CI floor: 1.5x)\n",
              staged_s / fused_s);
  std::printf("speedup vs cached    : %8.1fx  (CI floor: 1.5x)\n\n",
              cached_s / fused_s);
  std::printf("Outputs cross-checked against both staged sweeps and the "
              "Boolean table on all %zu words.\n\n", kNumWords);
  SW_REQUIRE(staged_s / fused_s >= 1.5,
             "fused program below 1.5x the staged per-stage path");
  SW_REQUIRE(cached_s / fused_s >= 1.5,
             "fused program below 1.5x the staged path over cached plans");

  const std::string kernel(wavesim::active_kernel_name());
  const std::string precision(
      wavesim::precision_name(wavesim::active_precision()));
  json.add("staged_per_stage", kernel, precision, words / staged_s);
  json.add("staged_cached_plans", kernel, precision, words / cached_s);
  json.add("fused_program", kernel, precision, words / fused_s);
  json.add_floor("fused_program / staged_per_stage", staged_s / fused_s, 1.5);
  json.add_floor("fused_program / staged_cached_plans", cached_s / fused_s,
                 1.5);
}

void BM_StagedCascadeSweep(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_staged(s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kNumWords));
}
BENCHMARK(BM_StagedCascadeSweep)->Unit(benchmark::kMillisecond);

void BM_StagedCachedPlansSweep(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_staged_cached(s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kNumWords));
}
BENCHMARK(BM_StagedCachedPlansSweep)->Unit(benchmark::kMillisecond);

void BM_FusedProgramSweep(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_fused(s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kNumWords));
}
BENCHMARK(BM_FusedProgramSweep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== E9: compiled-program throughput — staged vs fused ===\n\n");
  sw::bench::BenchJson json("BENCH_program.json");
  run_experiment(json);
  json.write("bench_program_throughput");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

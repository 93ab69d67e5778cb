#include "wavesim/eval_program.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "util/error.h"

namespace sw::wavesim {

namespace {

/// Plane groups per fused sub-block (1024 words): one block's plane bank
/// and gather scratch stay in L1 while each stage's kernel call still
/// covers enough words to amortise its setup.
constexpr std::size_t kBlockGroups = 16;
constexpr std::size_t kPlaneWords = kernels::kPlaneWords;

std::uint64_t stage_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::uint64_t kLowBitOfEachByte = 0x0101010101010101ull;

void store_bytes(std::uint8_t* p, std::uint64_t x, std::size_t width) {
  if constexpr (std::endian::native == std::endian::big) {
    x = __builtin_bswap64(x);
  }
  std::memcpy(p, &x, width);
}

/// The inverse of Kernel::pack_planes: writes rows [0, num_words) of the
/// row-major num_words x cols byte matrix `rows` (one 0/1 byte per bit)
/// from column-major planes. Lanes past num_words are never read.
void unpack_planes(const std::uint64_t* planes, std::size_t num_groups,
                   std::size_t cols, std::size_t num_words,
                   std::uint8_t* rows) {
  for (std::size_t w0 = 0; w0 < num_words; w0 += 8) {
    const std::size_t g = w0 / kPlaneWords;
    const std::size_t shift = w0 % kPlaneWords;
    const std::size_t count = std::min<std::size_t>(8, num_words - w0);
    for (std::size_t c0 = 0; c0 < cols; c0 += 8) {
      const std::size_t width = std::min<std::size_t>(8, cols - c0);
      std::uint64_t tile = 0;
      for (std::size_t j = 0; j < width; ++j) {
        tile |= ((planes[(c0 + j) * num_groups + g] >> shift) & 0xFF)
                << (8 * j);
      }
      for (std::size_t k = 0; k < count; ++k) {
        store_bytes(rows + (w0 + k) * cols + c0,
                    (tile >> k) & kLowBitOfEachByte, width);
      }
    }
  }
}

}  // namespace

std::size_t ProgramSpec::depth() const {
  std::vector<std::size_t> d(stages.size(), 0);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    std::size_t fanin = 0;
    for (const SlotSource& src : stages[s].sources) {
      if (src.kind == SlotSource::Kind::kStage) {
        fanin = std::max(fanin, d[src.stage]);
      }
    }
    d[s] = fanin + 1;
  }
  return d.empty() ? 0 : d.back();
}

void ProgramSpec::validate() const {
  SW_REQUIRE(!stages.empty(), "program needs at least one stage");
  SW_REQUIRE(num_primary_inputs >= 1,
             "program needs at least one primary input");
  const std::size_t n = stages.front().gate.frequencies.size();
  SW_REQUIRE(n >= 1, "program stages need at least one channel");
  const std::size_t primary_slots = num_primary_inputs * n;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const StageSpec& st = stages[s];
    SW_REQUIRE(st.gate.frequencies.size() == n,
               "every stage must share the program's channel count");
    SW_REQUIRE(st.gate.num_inputs >= 1, "stage gate needs inputs");
    SW_REQUIRE(st.sources.size() == st.gate.num_inputs * n,
               "stage sources must cover num_inputs x num_channels slots");
    for (const SlotSource& src : st.sources) {
      switch (src.kind) {
        case SlotSource::Kind::kZero:
        case SlotSource::Kind::kOne:
          break;
        case SlotSource::Kind::kPrimary:
          SW_REQUIRE(src.index < primary_slots,
                     "slot source reads past the primary matrix");
          break;
        case SlotSource::Kind::kStage:
          SW_REQUIRE(src.stage < s,
                     "slot source must reference a strictly earlier stage");
          SW_REQUIRE(src.index < n,
                     "slot source reads past the stage's channels");
          break;
        default:
          throw sw::util::Error("unknown slot source kind");
      }
    }
  }
}

EvalProgram::EvalProgram(ProgramSpec spec,
                         const sw::core::InlineGateDesigner& designer,
                         const WaveEngine& engine, BatchOptions options)
    : spec_(std::move(spec)), pool_(options.num_threads) {
  spec_.validate();
  const Precision precision = resolve_precision(options.precision);
  stages_.reserve(spec_.stages.size());
  for (std::size_t s = 0; s < spec_.stages.size(); ++s) {
    const sw::core::GateSpec& gate_spec = spec_.stages[s].gate;
    // A lowered circuit repeats one GateSpec (up to invert_output), so
    // each distinct gate is designed and planned once and shared.
    const Stage* shared = nullptr;
    for (std::size_t prev = 0; prev < s && shared == nullptr; ++prev) {
      if (spec_.stages[prev].gate == gate_spec) shared = &stages_[prev];
    }
    if (shared != nullptr) {
      add_stage(shared->gate, shared->plan);
      continue;
    }
    auto gate = std::make_shared<const sw::core::DataParallelGate>(
        designer.design(gate_spec), engine);
    auto plan =
        std::make_shared<const EvalPlan>(*gate, options.freq_tol, precision);
    add_stage(std::move(gate), std::move(plan));
    ++num_designs_;
  }
  depth_ = spec_.depth();
}

namespace {

/// The spec of a one-stage program whose slot s reads primary column s.
ProgramSpec identity_spec(const sw::core::GateSpec& gate) {
  ProgramSpec spec;
  spec.num_primary_inputs = gate.num_inputs;
  StageSpec stage{gate, {}};
  const std::size_t slots = gate.num_inputs * gate.frequencies.size();
  for (std::size_t i = 0; i < slots; ++i) {
    stage.sources.push_back(SlotSource{SlotSource::Kind::kPrimary, 0,
                                       static_cast<std::uint32_t>(i), false});
  }
  spec.stages.push_back(std::move(stage));
  return spec;
}

}  // namespace

EvalProgram::EvalProgram(sw::core::GateLayout layout, const WaveEngine& engine,
                         BatchOptions options)
    : spec_(identity_spec(layout.spec)), pool_(options.num_threads) {
  spec_.validate();
  auto gate = std::make_shared<const sw::core::DataParallelGate>(
      std::move(layout), engine);
  auto plan = std::make_shared<const EvalPlan>(
      *gate, options.freq_tol, resolve_precision(options.precision));
  add_stage(std::move(gate), std::move(plan));
  depth_ = 1;
}

void EvalProgram::add_stage(
    std::shared_ptr<const sw::core::DataParallelGate> gate,
    std::shared_ptr<const EvalPlan> plan) {
  const StageSpec& st = spec_.stages[stages_.size()];
  const std::size_t n = spec_.num_channels();
  SW_REQUIRE(plan->slot_count() == st.sources.size() &&
                 plan->num_channels() == n,
             "stage gate does not match its slot sources");
  const std::size_t prim = spec_.primary_slot_count();
  const auto zero_column = static_cast<std::uint32_t>(bank_columns() - 1);
  Stage stage{std::move(gate), std::move(plan), {}};
  stage.sources.reserve(st.sources.size());
  for (const SlotSource& src : st.sources) {
    PlaneSource plane{0, src.negated ? ~std::uint64_t{0} : 0};
    switch (src.kind) {
      case SlotSource::Kind::kZero:
        plane.column = zero_column;
        break;
      case SlotSource::Kind::kOne:
        plane.column = zero_column;
        plane.flip = ~plane.flip;
        break;
      case SlotSource::Kind::kPrimary:
        plane.column = src.index;
        break;
      case SlotSource::Kind::kStage:
        plane.column =
            static_cast<std::uint32_t>(prim + src.stage * n + src.index);
        break;
    }
    stage.sources.push_back(plane);
  }
  max_slots_ = std::max(max_slots_, st.sources.size());
  stages_.push_back(std::move(stage));
}

std::string EvalProgram::precision_label() const {
  std::string first = stages_.front().plan->precision_label();
  bool uniform = true;
  for (const Stage& stage : stages_) {
    if (stage.plan->precision_label() != first) {
      uniform = false;
      break;
    }
  }
  if (uniform) return first;
  std::string label = "mixed(";
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (s > 0) label += ",";
    label += stages_[s].plan->precision_label();
  }
  label += ")";
  return label;
}

void EvalProgram::eval_groups(const kernels::Kernel& kernel,
                              std::span<const std::uint8_t> bits,
                              std::size_t num_words, std::size_t g_begin,
                              std::size_t g_end,
                              std::vector<std::uint64_t>& bank,
                              std::vector<std::uint64_t>& slot_planes,
                              StageTimings* timings) const {
  const std::size_t groups = g_end - g_begin;
  const std::size_t n = num_channels();
  const std::size_t prim = num_primary_slots();
  const std::size_t w_begin = g_begin * kPlaneWords;
  const std::size_t w_end = std::min(g_end * kPlaneWords, num_words);
  kernel.pack_planes(bits.data() + w_begin * prim, prim, w_end - w_begin,
                     groups, bank.data());
  std::fill_n(bank.data() + (bank_columns() - 1) * groups, groups,
              std::uint64_t{0});
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const std::uint64_t stage_start = timings ? stage_clock_ns() : 0;
    const Stage& stage = stages_[s];
    // Gather: each slot plane is a bank column, XOR 0 / ~0 — the physical
    // drive-phase flip costs one word op per 64 words here.
    std::uint64_t* dst = slot_planes.data();
    for (const PlaneSource& src : stage.sources) {
      const std::uint64_t* column = bank.data() + src.column * groups;
      for (std::size_t g = 0; g < groups; ++g) dst[g] = column[g] ^ src.flip;
      dst += groups;
    }
    kernel.eval_planes(*stage.plan, slot_planes.data(), groups,
                       bank.data() + (prim + s * n) * groups);
    if (timings) {
      timings->ns[s].fetch_add(stage_clock_ns() - stage_start,
                               std::memory_order_relaxed);
    }
  }
}

std::vector<std::uint8_t> EvalProgram::evaluate_impl(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    const kernels::Kernel& kernel, bool all_stages,
    StageTimings* timings) const {
  SW_REQUIRE(timings == nullptr || timings->ns.size() == stages_.size(),
             "stage timings must be sized num_stages");
  const std::size_t prim = num_primary_slots();
  const std::size_t n = num_channels();
  const std::size_t num_stages = stages_.size();
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  SW_REQUIRE(prim == 0 || num_words <= kMax / prim,
             "num_words x primary_slot_count overflows size_t");
  SW_REQUIRE(bits.size() == num_words * prim,
             "packed primary matrix must be num_words x primary_slot_count");
  SW_REQUIRE(num_words <= kMax / (num_stages * n),
             "num_words x stage output count overflows size_t");

  // The output columns are a contiguous run of bank columns: every
  // stage's channel planes, or just the last stage's.
  const std::size_t out_cols = all_stages ? num_stages * n : n;
  const std::size_t out_column = prim + num_stages * n - out_cols;
  const std::size_t num_groups =
      num_words / kPlaneWords + (num_words % kPlaneWords != 0 ? 1 : 0);
  std::vector<std::uint8_t> result(num_words * out_cols);
  pool_.parallel_for(num_groups, [&](std::size_t chunk_begin,
                                     std::size_t chunk_end) {
    const std::size_t block = std::min(kBlockGroups, chunk_end - chunk_begin);
    std::vector<std::uint64_t> bank(bank_columns() * block);
    std::vector<std::uint64_t> slot_planes(max_slots_ * block);
    for (std::size_t g = chunk_begin; g < chunk_end; g += kBlockGroups) {
      const std::size_t g_end = std::min(g + kBlockGroups, chunk_end);
      eval_groups(kernel, bits, num_words, g, g_end, bank, slot_planes,
                  timings);
      const std::size_t w_begin = g * kPlaneWords;
      const std::size_t w_end = std::min(g_end * kPlaneWords, num_words);
      unpack_planes(bank.data() + out_column * (g_end - g), g_end - g,
                    out_cols, w_end - w_begin,
                    result.data() + w_begin * out_cols);
    }
  });
  return result;
}

std::vector<std::uint8_t> EvalProgram::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits) const {
  return evaluate_impl(num_words, bits, kernels::active_kernel(), false,
                       nullptr);
}

std::vector<std::uint8_t> EvalProgram::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    const kernels::Kernel& kernel) const {
  return evaluate_impl(num_words, bits, kernel, false, nullptr);
}

std::vector<std::uint8_t> EvalProgram::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    StageTimings* timings) const {
  return evaluate_impl(num_words, bits, kernels::active_kernel(), false,
                       timings);
}

std::vector<std::uint8_t> EvalProgram::evaluate_all_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits) const {
  return evaluate_impl(num_words, bits, kernels::active_kernel(), true,
                       nullptr);
}

std::vector<std::uint8_t> EvalProgram::evaluate_all_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    const kernels::Kernel& kernel) const {
  return evaluate_impl(num_words, bits, kernel, true, nullptr);
}

}  // namespace sw::wavesim

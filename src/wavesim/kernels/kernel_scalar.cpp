// Portable reference kernel: one word at a time, one detector at a time,
// contributions accumulated in plan (= scalar source) order.
//
// eval_bits accumulates only the real parts: complex addition is
// componentwise, so dropping the imaginary lane leaves the real sum bitwise
// unchanged, and the packed-bit decode consumes nothing but sign(Re). This
// alone roughly halves the arithmetic of the PR 1/2 AoS loop, which dragged
// the full complex pair (and the indexing metadata interleaved with it)
// through the accumulator. It runs that loop twice, once per precision
// run: in f32 over the plan's float mirrors for the f32 run, in f64 for
// the rest (either run may be empty). eval_channels keeps the full complex
// pair because phase and amplitude need it, then decodes via decide_phase
// exactly like the scalar gate path.
//
// eval_planes is the same per-word decode over bit planes: word l of a
// group reads bit l of each slot's plane, and its verdict becomes bit l of
// the channel's output plane.
// pack_planes builds those planes from a byte matrix with 8 x 8 SWAR
// tiles.
//
// The bit loops are defined as detector-range helpers (exported through
// kernels::detail) because eval_bits needs them once per precision run
// and the vector kernels need them for their odd-word tails.
#include "wavesim/kernels/kernel.h"

#include <algorithm>
#include <bit>
#include <complex>
#include <cstring>
#include <span>

#include "core/detector.h"
#include "core/encoding.h"
#include "core/gate.h"
#include "wavesim/eval_plan.h"

namespace sw::wavesim::kernels {

void detail::eval_bits_scalar_range(const EvalPlan& plan,
                                    const std::uint8_t* bits,
                                    std::size_t begin, std::size_t end,
                                    std::uint8_t* out, std::size_t d_begin,
                                    std::size_t d_end) {
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto re0 = plan.re0();
  const auto re1 = plan.re1();
  const auto slots = plan.slots();
  const std::size_t stride = plan.slot_count();
  const std::size_t channels = plan.num_channels();

  for (std::size_t w = begin; w < end; ++w) {
    const std::uint8_t* word = bits + w * stride;
    std::uint8_t* row = out + w * channels;
    for (std::size_t d = d_begin; d < d_end; ++d) {
      double acc = 0.0;
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        acc += word[slots[i]] ? re1[i] : re0[i];
      }
      // decide_phase with reference 0: logic 1 iff the phase is closer to
      // pi than to 0, which is exactly Re(acc) < 0.
      row[det_channel[d]] = acc < 0.0 ? 1 : 0;
    }
  }
}

void detail::eval_bits_f32_scalar_range(const EvalPlan& plan,
                                        const std::uint8_t* bits,
                                        std::size_t begin, std::size_t end,
                                        std::uint8_t* out, std::size_t d_begin,
                                        std::size_t d_end) {
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto re0 = plan.re0_f32();
  const auto re1 = plan.re1_f32();
  const auto slots = plan.slots();
  const std::size_t stride = plan.slot_count();
  const std::size_t channels = plan.num_channels();

  for (std::size_t w = begin; w < end; ++w) {
    const std::uint8_t* word = bits + w * stride;
    std::uint8_t* row = out + w * channels;
    for (std::size_t d = d_begin; d < d_end; ++d) {
      // Float accumulation in index order — exactly the sum the plan's
      // build-time validation sweep replayed, so the decode below can
      // never disagree with the double plan on a proved detector.
      float acc = 0.0f;
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        acc += word[slots[i]] ? re1[i] : re0[i];
      }
      row[det_channel[d]] = acc < 0.0f ? 1 : 0;
    }
  }
}

namespace {

/// Bytes [0, width) of p as the low bytes of a word, byte j at bits 8j.
std::uint64_t load_bytes(const std::uint8_t* p, std::size_t width) {
  std::uint64_t x = 0;
  std::memcpy(&x, p, width);
  if constexpr (std::endian::native == std::endian::big) {
    x = __builtin_bswap64(x);
  }
  return x;
}

/// 0x01 in every byte of x that is nonzero, 0x00 elsewhere.
std::uint64_t nonzero_bytes(std::uint64_t x) {
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
  return ((((x & kLow7) + kLow7) | x) >> 7) & 0x0101010101010101ull;
}

void pack_planes_scalar(const std::uint8_t* rows, std::size_t cols,
                        std::size_t num_words, std::size_t num_groups,
                        std::uint64_t* planes) {
  std::fill_n(planes, cols * num_groups, std::uint64_t{0});
  // 8 words x 8 columns at a time: byte j of `tile` collects column
  // c0 + j's bits of the eight words, which is one byte of that plane.
  for (std::size_t w0 = 0; w0 < num_words; w0 += 8) {
    const std::size_t g = w0 / kPlaneWords;
    const std::size_t shift = w0 % kPlaneWords;
    const std::size_t count = std::min<std::size_t>(8, num_words - w0);
    for (std::size_t c0 = 0; c0 < cols; c0 += 8) {
      const std::size_t width = std::min<std::size_t>(8, cols - c0);
      std::uint64_t tile = 0;
      for (std::size_t k = 0; k < count; ++k) {
        tile |= nonzero_bytes(load_bytes(rows + (w0 + k) * cols + c0, width))
                << k;
      }
      for (std::size_t j = 0; j < width; ++j) {
        planes[(c0 + j) * num_groups + g] |= ((tile >> (8 * j)) & 0xFF)
                                             << shift;
      }
    }
  }
}

void eval_bits_scalar(const EvalPlan& plan, const std::uint8_t* bits,
                      std::size_t begin, std::size_t end, std::uint8_t* out) {
  const std::size_t kf = plan.num_f32_detectors();
  detail::eval_bits_f32_scalar_range(plan, bits, begin, end, out, 0, kf);
  detail::eval_bits_scalar_range(plan, bits, begin, end, out, kf,
                                 plan.num_detectors());
}

/// One precision run of eval_planes: detectors [d_begin, d_end) over the
/// constant arrays re0/re1 (float mirrors or doubles), accumulated in T.
template <typename T>
void eval_planes_scalar_run(const EvalPlan& plan, const std::uint64_t* in,
                            std::size_t num_groups, std::uint64_t* out,
                            std::size_t d_begin, std::size_t d_end,
                            std::span<const T> re0, std::span<const T> re1) {
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto slots = plan.slots();
  for (std::size_t g = 0; g < num_groups; ++g) {
    for (std::size_t d = d_begin; d < d_end; ++d) {
      std::uint64_t verdicts = 0;
      // Eight words at a time, contribution-outer: eight independent sums
      // (each still added in plan order) in registers, not one latency
      // chain per word.
      for (std::size_t l0 = 0; l0 < kPlaneWords; l0 += 8) {
        T acc[8] = {};
        for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
          const std::uint64_t bits = in[slots[i] * num_groups + g] >> l0;
          // An indexed load, not a branch: random bits would mispredict.
          const T pick[2] = {re0[i], re1[i]};
          for (std::size_t k = 0; k < 8; ++k) acc[k] += pick[(bits >> k) & 1];
        }
        for (std::size_t k = 0; k < 8; ++k) {
          verdicts |= static_cast<std::uint64_t>(acc[k] < 0) << (l0 + k);
        }
      }
      out[det_channel[d] * num_groups + g] = verdicts;
    }
  }
}

void eval_planes_scalar(const EvalPlan& plan, const std::uint64_t* in,
                        std::size_t num_groups, std::uint64_t* out) {
  const std::size_t kf = plan.num_f32_detectors();
  std::fill_n(out, plan.num_channels() * num_groups, std::uint64_t{0});
  eval_planes_scalar_run<float>(plan, in, num_groups, out, 0, kf,
                                plan.re0_f32(), plan.re1_f32());
  eval_planes_scalar_run<double>(plan, in, num_groups, out, kf,
                                 plan.num_detectors(), plan.re0(),
                                 plan.re1());
}

void eval_channels_scalar(const EvalPlan& plan, const std::uint8_t* bits,
                          std::size_t begin, std::size_t end,
                          sw::core::ChannelResult* out) {
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto results = plan.detector_results();
  const auto re0 = plan.re0();
  const auto im0 = plan.im0();
  const auto re1 = plan.re1();
  const auto im1 = plan.im1();
  const auto slots = plan.slots();
  const std::size_t stride = plan.slot_count();
  const std::size_t detectors = plan.num_detectors();

  for (std::size_t w = begin; w < end; ++w) {
    const std::uint8_t* word = bits + w * stride;
    sw::core::ChannelResult* row = out + w * detectors;
    for (std::size_t d = 0; d < detectors; ++d) {
      std::complex<double> acc{0.0, 0.0};
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        acc += word[slots[i]] ? std::complex<double>(re1[i], im1[i])
                              : std::complex<double>(re0[i], im0[i]);
      }
      const auto decision = sw::core::decide_phase(acc, sw::core::kPhaseZero);
      // Element results[d], not d: a block-f32 plan's detectors are in
      // partitioned plan order, but result rows stay in layout order.
      sw::core::ChannelResult& r = row[results[d]];
      r.channel = det_channel[d];
      r.logic = decision.logic;
      r.phase = decision.phase;
      r.amplitude = decision.amplitude;
      r.margin = decision.margin;
    }
  }
}

}  // namespace

const Kernel& scalar_kernel() {
  static constexpr Kernel kernel{"scalar",
                                 &eval_bits_scalar,
                                 &eval_planes_scalar,
                                 &pack_planes_scalar,
                                 &eval_channels_scalar};
  return kernel;
}

}  // namespace sw::wavesim::kernels

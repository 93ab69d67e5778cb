// AVX2 kernel: four words per __m256d (eight per __m256 in f32), one word
// per lane.
//
// Bit-exactness argument: vectorising *across words* (not across a
// detector's contributions) keeps each lane's accumulation in exactly the
// scalar order — lane l performs the same additions on the same constants
// in the same sequence as the scalar kernel would for word l — so every
// lane's sum is bitwise identical to the scalar sum and no word can decode
// differently, not even one sitting within an ulp of the threshold. The
// per-group cost beyond the adds is one mask transpose of the group's
// input slots and a blend per contribution. The same argument covers every
// entry point.
//
// eval_bits makes one selection on the plan. An f64 plan (no f32 run)
// takes the f64-width pass, 4 x f64 per register. Any plan with an f32
// run takes one fused pass per 8-word group: the f32 run at 8 x f32 —
// twice the words per register and half the constant traffic, which is the
// whole point of the f32 plan — and the f64 rescue run at 4 x f64 over the
// same lane masks (its loop is empty on a fully-proved plan). Odd-word
// tails fall to the scalar range helpers. eval_channels is 4 x f64 complex
// accumulation, then the scalar decide_phase per lane so
// phase/amplitude/margin match the gate path bitwise.
//
// The plane entry builds its lane masks straight from the 64-word slot
// planes: a broadcast plane shifted left by a per-lane count (vpsllvq /
// vpsllvd) lands lane l's bit in that lane's sign bit, which is all the
// blends read — one shift per lane group instead of a byte transpose.
// Its pack_planes entry builds the scalar pack's 8-word tiles 32 columns
// at a time (a byte compare per word) and turns a group's eight tiles into
// planes with the unpack 8/16/32 byte transpose. The AVX-512 kernel's
// table uses this pack_planes and eval_channels too (see kernel.h), so
// both live in `detail` rather than the anonymous namespace.
//
// This translation unit is compiled with -mavx2 (CMake adds the flag only
// for this file when the compiler supports it and the target is x86); every
// other TU stays portable, and nothing in this TU executes — not even the
// candidate getter's would-be static init — unless the CPUID check in
// dispatch.cpp (a portable TU) confirmed the host runs AVX2 first, or the
// getter itself, which is a bare constant return, is called.
#include "wavesim/kernels/kernel.h"

#if defined(SWLOGIC_EVAL_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <complex>
#include <cstdint>

#include "core/detector.h"
#include "core/encoding.h"
#include "core/gate.h"
#include "util/aligned.h"
#include "wavesim/eval_plan.h"

namespace sw::wavesim::kernels {

namespace {

/// Lane-mask scratch for the current word group: one vector register's
/// worth of per-slot select masks, stored as raw bytes (vector<__m256d>
/// trips -Wignored-attributes). Small strides (every gate in the paper:
/// 8 channels x 3 inputs = 24) use the stack so the serving hot path does
/// not pay an aligned heap round-trip per call.
constexpr std::size_t kStackSlots = 64;

/// eval_bits on an f64 plan: four words per __m256d.
void eval_bits_f64_avx2(const EvalPlan& plan, const std::uint8_t* bits,
                        std::size_t begin, std::size_t end,
                        std::uint8_t* out) {
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto re0 = plan.re0();
  const auto re1 = plan.re1();
  const auto slots = plan.slots();
  const std::size_t stride = plan.slot_count();
  const std::size_t channels = plan.num_channels();
  const std::size_t nd = plan.num_detectors();

  // Lane masks, one __m256d (four doubles) per input slot: lane l of mask
  // s has its sign bit set iff word l's bit at slot s is 1 (vblendvpd
  // selects on the sign bit alone). Transposed once per group, reused by
  // every detector.
  alignas(32) double stack_masks[kStackSlots * 4];
  sw::util::AlignedVector<double, 32> heap_masks;
  double* masks_data = stack_masks;
  if (stride > kStackSlots) {
    heap_masks.resize(stride * 4);
    masks_data = heap_masks.data();
  }

  std::size_t w = begin;
  for (; w + 4 <= end; w += 4) {
    const std::uint8_t* w0 = bits + (w + 0) * stride;
    const std::uint8_t* w1 = bits + (w + 1) * stride;
    const std::uint8_t* w2 = bits + (w + 2) * stride;
    const std::uint8_t* w3 = bits + (w + 3) * stride;
    const auto sign_bit = [](std::uint8_t b) {
      // b != 0, not bit 0: the scalar kernel treats any nonzero byte as a
      // set bit, and the kernels must agree on every input. Unsigned
      // shift, then modular conversion (C++20), for the 0x8000.. pattern.
      return static_cast<long long>(static_cast<std::uint64_t>(b != 0) << 63);
    };
    for (std::size_t s = 0; s < stride; ++s) {
      _mm256_store_pd(
          masks_data + 4 * s,
          _mm256_castsi256_pd(_mm256_setr_epi64x(sign_bit(w0[s]),
                                                 sign_bit(w1[s]),
                                                 sign_bit(w2[s]),
                                                 sign_bit(w3[s]))));
    }

    std::uint8_t* r0 = out + (w + 0) * channels;
    std::uint8_t* r1 = out + (w + 1) * channels;
    std::uint8_t* r2 = out + (w + 2) * channels;
    std::uint8_t* r3 = out + (w + 3) * channels;
    for (std::size_t d = 0; d < nd; ++d) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const __m256d zero = _mm256_broadcast_sd(&re0[i]);
        const __m256d one = _mm256_broadcast_sd(&re1[i]);
        const __m256d mask = _mm256_load_pd(masks_data + 4 * slots[i]);
        acc = _mm256_add_pd(acc, _mm256_blendv_pd(zero, one, mask));
      }
      // An ordered < 0.0 compare, not the raw sign bit: a -0.0 sum must
      // decode as 0 exactly like the scalar kernel's `acc < 0.0`.
      const int neg = _mm256_movemask_pd(
          _mm256_cmp_pd(acc, _mm256_setzero_pd(), _CMP_LT_OQ));
      const std::size_t c = det_channel[d];
      r0[c] = static_cast<std::uint8_t>(neg & 1);
      r1[c] = static_cast<std::uint8_t>((neg >> 1) & 1);
      r2[c] = static_cast<std::uint8_t>((neg >> 2) & 1);
      r3[c] = static_cast<std::uint8_t>((neg >> 3) & 1);
    }
  }
  // Remainder tail (< 4 words): the scalar reference, which is what the
  // vector lanes reproduce anyway.
  if (w < end) detail::eval_bits_scalar_range(plan, bits, w, end, out, 0, nd);
}

/// eval_bits on a plan with an f32 run: one fused pass per 8-word group.
void eval_bits_fused_avx2(const EvalPlan& plan, const std::uint8_t* bits,
                          std::size_t begin, std::size_t end,
                          std::uint8_t* out) {
  // The f32-width lane masks are built once and serve BOTH precision runs.
  // The f32 run consumes them whole; the f64 rescue run sign-extends each
  // 4-lane half to doubles on the fly (vpmovsxdq keeps the sign bit, which
  // is all vblendvpd reads). Running one pass per precision instead would
  // re-read the packed words and transpose masks twice — with few rescue
  // detectors that second stride-proportional pass costs more than the f32
  // run saves.
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto re0f = plan.re0_f32();
  const auto re1f = plan.re1_f32();
  const auto re0 = plan.re0();
  const auto re1 = plan.re1();
  const auto slots = plan.slots();
  const std::size_t stride = plan.slot_count();
  const std::size_t channels = plan.num_channels();
  const std::size_t kf = plan.num_f32_detectors();
  const std::size_t nd = plan.num_detectors();

  alignas(32) float stack_masks[kStackSlots * 8];
  sw::util::AlignedVector<float, 32> heap_masks;
  float* masks_data = stack_masks;
  if (stride > kStackSlots) {
    heap_masks.resize(stride * 8);
    masks_data = heap_masks.data();
  }

  const std::uint8_t* words[8];
  std::uint8_t* rows[8];
  std::size_t w = begin;
  for (; w + 8 <= end; w += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      words[l] = bits + (w + l) * stride;
      rows[l] = out + (w + l) * channels;
    }
    const auto sign_bit = [](std::uint8_t b) {
      return static_cast<int>(static_cast<std::uint32_t>(b != 0) << 31);
    };
    for (std::size_t s = 0; s < stride; ++s) {
      _mm256_store_ps(
          masks_data + 8 * s,
          _mm256_castsi256_ps(_mm256_setr_epi32(
              sign_bit(words[0][s]), sign_bit(words[1][s]),
              sign_bit(words[2][s]), sign_bit(words[3][s]),
              sign_bit(words[4][s]), sign_bit(words[5][s]),
              sign_bit(words[6][s]), sign_bit(words[7][s]))));
    }

    for (std::size_t d = 0; d < kf; ++d) {
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const __m256 zero = _mm256_broadcast_ss(&re0f[i]);
        const __m256 one = _mm256_broadcast_ss(&re1f[i]);
        const __m256 mask = _mm256_load_ps(masks_data + 8 * slots[i]);
        acc = _mm256_add_ps(acc, _mm256_blendv_ps(zero, one, mask));
      }
      const int neg = _mm256_movemask_ps(
          _mm256_cmp_ps(acc, _mm256_setzero_ps(), _CMP_LT_OQ));
      const std::size_t c = det_channel[d];
      for (std::size_t l = 0; l < 8; ++l) {
        rows[l][c] = static_cast<std::uint8_t>((neg >> l) & 1);
      }
    }

    for (std::size_t d = kf; d < nd; ++d) {
      const std::size_t c = det_channel[d];
      for (std::size_t half = 0; half < 2; ++half) {
        __m256d acc = _mm256_setzero_pd();
        for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
          const __m256d zero = _mm256_broadcast_sd(&re0[i]);
          const __m256d one = _mm256_broadcast_sd(&re1[i]);
          const __m128i half_mask = _mm_load_si128(reinterpret_cast<
              const __m128i*>(masks_data + 8 * slots[i] + 4 * half));
          const __m256d mask =
              _mm256_castsi256_pd(_mm256_cvtepi32_epi64(half_mask));
          acc = _mm256_add_pd(acc, _mm256_blendv_pd(zero, one, mask));
        }
        const int neg = _mm256_movemask_pd(
            _mm256_cmp_pd(acc, _mm256_setzero_pd(), _CMP_LT_OQ));
        for (std::size_t l = 0; l < 4; ++l) {
          rows[4 * half + l][c] = static_cast<std::uint8_t>((neg >> l) & 1);
        }
      }
    }
  }
  if (w < end) {
    detail::eval_bits_f32_scalar_range(plan, bits, w, end, out, 0, kf);
    detail::eval_bits_scalar_range(plan, bits, w, end, out, kf, nd);
  }
}

void eval_bits_avx2(const EvalPlan& plan, const std::uint8_t* bits,
                    std::size_t begin, std::size_t end, std::uint8_t* out) {
  if (plan.num_f32_detectors() == 0) {
    eval_bits_f64_avx2(plan, bits, begin, end, out);
  } else {
    eval_bits_fused_avx2(plan, bits, begin, end, out);
  }
}

/// Per-lane shift counts that move bit 4k + l of a broadcast 64-bit plane
/// to 64-bit lane l's sign bit (f64 run, lane group k of eight), and bit
/// 8k + l of a broadcast 32-bit half-plane to 32-bit lane l's sign bit
/// (f32 run, lane group k of four).
alignas(32) constexpr std::int64_t kPlaneShift64[8][4] = {
    {63, 62, 61, 60}, {59, 58, 57, 56}, {55, 54, 53, 52}, {51, 50, 49, 48},
    {47, 46, 45, 44}, {43, 42, 41, 40}, {39, 38, 37, 36}, {35, 34, 33, 32}};
alignas(32) constexpr std::int32_t kPlaneShift32[4][8] = {
    {31, 30, 29, 28, 27, 26, 25, 24},
    {23, 22, 21, 20, 19, 18, 17, 16},
    {15, 14, 13, 12, 11, 10, 9, 8},
    {7, 6, 5, 4, 3, 2, 1, 0}};

inline __m256i load_shift(const void* counts) {
  return _mm256_load_si256(static_cast<const __m256i*>(counts));
}

/// f32 run of eval_planes: eight words per __m256, a plane's 64 words as
/// eight accumulators (four per 32-bit half), each summed in plan order.
void eval_planes_f32_avx2(const EvalPlan& plan, const std::uint64_t* in,
                          std::size_t num_groups, std::uint64_t* out,
                          std::size_t d_begin, std::size_t d_end) {
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto re0 = plan.re0_f32();
  const auto re1 = plan.re1_f32();
  const auto slots = plan.slots();
  for (std::size_t g = 0; g < num_groups; ++g) {
    for (std::size_t d = d_begin; d < d_end; ++d) {
      __m256 acc[8];
      for (auto& a : acc) a = _mm256_setzero_ps();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const std::uint64_t plane = in[slots[i] * num_groups + g];
        const __m256 zero = _mm256_broadcast_ss(&re0[i]);
        const __m256 one = _mm256_broadcast_ss(&re1[i]);
        for (std::size_t half = 0; half < 2; ++half) {
          const auto half_plane =
              static_cast<std::uint32_t>(plane >> (32 * half));
          const __m256i bits =
              _mm256_set1_epi32(static_cast<int>(half_plane));
          for (std::size_t k = 0; k < 4; ++k) {
            const __m256 mask = _mm256_castsi256_ps(
                _mm256_sllv_epi32(bits, load_shift(kPlaneShift32[k])));
            acc[4 * half + k] = _mm256_add_ps(
                acc[4 * half + k], _mm256_blendv_ps(zero, one, mask));
          }
        }
      }
      std::uint64_t verdicts = 0;
      for (std::size_t k = 0; k < 8; ++k) {
        const int neg = _mm256_movemask_ps(
            _mm256_cmp_ps(acc[k], _mm256_setzero_ps(), _CMP_LT_OQ));
        verdicts |= static_cast<std::uint64_t>(neg) << (8 * k);
      }
      out[det_channel[d] * num_groups + g] = verdicts;
    }
  }
}

/// f64 run of eval_planes: four words per __m256d, a plane's 64 words as
/// sixteen lane groups taken eight at a time (one 32-bit half-plane per
/// pass) so the accumulators stay in registers.
void eval_planes_f64_avx2(const EvalPlan& plan, const std::uint64_t* in,
                          std::size_t num_groups, std::uint64_t* out,
                          std::size_t d_begin, std::size_t d_end) {
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto re0 = plan.re0();
  const auto re1 = plan.re1();
  const auto slots = plan.slots();
  for (std::size_t g = 0; g < num_groups; ++g) {
    for (std::size_t d = d_begin; d < d_end; ++d) {
      std::uint64_t verdicts = 0;
      for (std::size_t half = 0; half < 2; ++half) {
        __m256d acc[8];
        for (auto& a : acc) a = _mm256_setzero_pd();
        for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
          const __m256i bits = _mm256_set1_epi64x(static_cast<long long>(
              in[slots[i] * num_groups + g] >> (32 * half)));
          const __m256d zero = _mm256_broadcast_sd(&re0[i]);
          const __m256d one = _mm256_broadcast_sd(&re1[i]);
          for (std::size_t k = 0; k < 8; ++k) {
            const __m256d mask = _mm256_castsi256_pd(
                _mm256_sllv_epi64(bits, load_shift(kPlaneShift64[k])));
            acc[k] = _mm256_add_pd(acc[k], _mm256_blendv_pd(zero, one, mask));
          }
        }
        for (std::size_t k = 0; k < 8; ++k) {
          const int neg = _mm256_movemask_pd(
              _mm256_cmp_pd(acc[k], _mm256_setzero_pd(), _CMP_LT_OQ));
          verdicts |= static_cast<std::uint64_t>(neg) << (32 * half + 4 * k);
        }
      }
      out[det_channel[d] * num_groups + g] = verdicts;
    }
  }
}

void eval_planes_avx2(const EvalPlan& plan, const std::uint64_t* in,
                      std::size_t num_groups, std::uint64_t* out) {
  const std::size_t kf = plan.num_f32_detectors();
  std::fill_n(out, plan.num_channels() * num_groups, std::uint64_t{0});
  eval_planes_f32_avx2(plan, in, num_groups, out, 0, kf);
  eval_planes_f64_avx2(plan, in, num_groups, out, kf, plan.num_detectors());
}

}  // namespace

/// pack_planes, per 64-word group and 32-column chunk at c0: byte c of
/// tile b holds column c0 + c's bits of words 8 b .. 8 b + 7 (bit k = word
/// 8 b + k), so plane c0 + c is bytes T0[c] .. T7[c] — an 8 x 32 byte
/// transpose, done within 128-bit lanes by three unpack rounds.
void detail::pack_planes_avx2(const std::uint8_t* rows, std::size_t cols,
                              std::size_t num_words, std::size_t num_groups,
                              std::uint64_t* planes) {
  const std::size_t total = num_words * cols;
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t w0 = g * kPlaneWords;
    const std::size_t count =
        w0 < num_words ? std::min(kPlaneWords, num_words - w0) : 0;
    for (std::size_t c0 = 0; c0 < cols; c0 += 32) {
      const std::size_t width = std::min<std::size_t>(32, cols - c0);
      __m256i t[8];
      for (std::size_t b = 0; b < 8; ++b) {
        __m256i acc = zero;
        for (std::size_t k = 0; 8 * b + k < count && k < 8; ++k) {
          const std::size_t at = (w0 + 8 * b + k) * cols + c0;
          __m256i bytes;
          if (at + 32 <= total) {
            // Columns past c0 + width are the next row's: never stored.
            bytes = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(rows + at));
          } else {
            alignas(32) std::uint8_t last[32] = {};
            std::copy_n(rows + at, width, last);
            bytes = _mm256_load_si256(reinterpret_cast<const __m256i*>(last));
          }
          const __m256i bit = _mm256_set1_epi8(static_cast<char>(1 << k));
          acc = _mm256_or_si256(
              acc, _mm256_andnot_si256(_mm256_cmpeq_epi8(bytes, zero), bit));
        }
        t[b] = acc;
      }
      // Lane h of a vector holds columns 16 h .. 16 h + 15 throughout.
      const __m256i a0 = _mm256_unpacklo_epi8(t[0], t[1]);
      const __m256i a1 = _mm256_unpackhi_epi8(t[0], t[1]);
      const __m256i a2 = _mm256_unpacklo_epi8(t[2], t[3]);
      const __m256i a3 = _mm256_unpackhi_epi8(t[2], t[3]);
      const __m256i a4 = _mm256_unpacklo_epi8(t[4], t[5]);
      const __m256i a5 = _mm256_unpackhi_epi8(t[4], t[5]);
      const __m256i a6 = _mm256_unpacklo_epi8(t[6], t[7]);
      const __m256i a7 = _mm256_unpackhi_epi8(t[6], t[7]);
      const __m256i b0 = _mm256_unpacklo_epi16(a0, a2);
      const __m256i b1 = _mm256_unpackhi_epi16(a0, a2);
      const __m256i b2 = _mm256_unpacklo_epi16(a1, a3);
      const __m256i b3 = _mm256_unpackhi_epi16(a1, a3);
      const __m256i b4 = _mm256_unpacklo_epi16(a4, a6);
      const __m256i b5 = _mm256_unpackhi_epi16(a4, a6);
      const __m256i b6 = _mm256_unpacklo_epi16(a5, a7);
      const __m256i b7 = _mm256_unpackhi_epi16(a5, a7);
      // Vector i's 64-bit element e is column 2 i + (e & 1) + 16 (e >> 1).
      alignas(32) std::uint64_t lanes[32];
      const __m256i out[8] = {
          _mm256_unpacklo_epi32(b0, b4), _mm256_unpackhi_epi32(b0, b4),
          _mm256_unpacklo_epi32(b1, b5), _mm256_unpackhi_epi32(b1, b5),
          _mm256_unpacklo_epi32(b2, b6), _mm256_unpackhi_epi32(b2, b6),
          _mm256_unpacklo_epi32(b3, b7), _mm256_unpackhi_epi32(b3, b7)};
      for (std::size_t i = 0; i < 8; ++i) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4 * i), out[i]);
      }
      for (std::size_t j = 0; j < width; ++j) {
        planes[(c0 + j) * num_groups + g] =
            lanes[4 * ((j & 15) >> 1) + (j & 1) + 2 * (j >> 4)];
      }
    }
  }
}

void detail::eval_channels_avx2(const EvalPlan& plan,
                                const std::uint8_t* bits, std::size_t begin,
                                std::size_t end,
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

  alignas(32) double stack_masks[kStackSlots * 4];
  sw::util::AlignedVector<double, 32> heap_masks;
  double* masks_data = stack_masks;
  if (stride > kStackSlots) {
    heap_masks.resize(stride * 4);
    masks_data = heap_masks.data();
  }

  std::size_t w = begin;
  for (; w + 4 <= end; w += 4) {
    const std::uint8_t* w0 = bits + (w + 0) * stride;
    const std::uint8_t* w1 = bits + (w + 1) * stride;
    const std::uint8_t* w2 = bits + (w + 2) * stride;
    const std::uint8_t* w3 = bits + (w + 3) * stride;
    const auto sign_bit = [](std::uint8_t b) {
      return static_cast<long long>(static_cast<std::uint64_t>(b != 0) << 63);
    };
    for (std::size_t s = 0; s < stride; ++s) {
      _mm256_store_pd(
          masks_data + 4 * s,
          _mm256_castsi256_pd(_mm256_setr_epi64x(sign_bit(w0[s]),
                                                 sign_bit(w1[s]),
                                                 sign_bit(w2[s]),
                                                 sign_bit(w3[s]))));
    }

    for (std::size_t d = 0; d < detectors; ++d) {
      // Both complex components ride the same blend mask: the vector adds
      // are per-lane in plan order, so each lane's (re, im) pair is the
      // scalar kernel's sum bitwise, and decide_phase below sees exactly
      // the phasor the scalar gate path would.
      __m256d acc_re = _mm256_setzero_pd();
      __m256d acc_im = _mm256_setzero_pd();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const __m256d mask = _mm256_load_pd(masks_data + 4 * slots[i]);
        acc_re = _mm256_add_pd(
            acc_re, _mm256_blendv_pd(_mm256_broadcast_sd(&re0[i]),
                                     _mm256_broadcast_sd(&re1[i]), mask));
        acc_im = _mm256_add_pd(
            acc_im, _mm256_blendv_pd(_mm256_broadcast_sd(&im0[i]),
                                     _mm256_broadcast_sd(&im1[i]), mask));
      }
      alignas(32) double lane_re[4];
      alignas(32) double lane_im[4];
      _mm256_store_pd(lane_re, acc_re);
      _mm256_store_pd(lane_im, acc_im);
      for (std::size_t l = 0; l < 4; ++l) {
        const auto decision = sw::core::decide_phase(
            std::complex<double>(lane_re[l], lane_im[l]),
            sw::core::kPhaseZero);
        // Element results[d]: plan order may be the block-f32 partition,
        // result rows stay in layout order.
        sw::core::ChannelResult& r = out[(w + l) * detectors + results[d]];
        r.channel = det_channel[d];
        r.logic = decision.logic;
        r.phase = decision.phase;
        r.amplitude = decision.amplitude;
        r.margin = decision.margin;
      }
    }
  }
  if (w < end) scalar_kernel().eval_channels(plan, bits, w, end, out);
}

const Kernel* detail::avx2_kernel_candidate() {
  // Deliberately no CPUID check and no static-init machinery here: this TU
  // is compiled with -mavx2, so any non-trivial code in it could be
  // VEX-encoded and fault on a pre-AVX2 host. The runtime support check
  // lives in dispatch.cpp (a portable TU); this is a bare constant return.
  static constexpr Kernel kernel{"avx2",
                                 &eval_bits_avx2,
                                 &eval_planes_avx2,
                                 &detail::pack_planes_avx2,
                                 &detail::eval_channels_avx2};
  return &kernel;
}

}  // namespace sw::wavesim::kernels

#else  // no AVX2 codegen in this build or non-x86 target

namespace sw::wavesim::kernels {

const Kernel* detail::avx2_kernel_candidate() { return nullptr; }

}  // namespace sw::wavesim::kernels

#endif

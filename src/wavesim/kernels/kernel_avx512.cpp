// AVX-512 kernel: eight words per __m512d (sixteen per __m512 in f32), one
// word per lane. It implements only the two entries where the width pays:
// eval_bits (about 3x the AVX2 pass) and eval_planes (about 2.5-3x). Its
// table borrows pack_planes and eval_channels from the AVX2 kernel — a
// masked-byte-load pack measured slower than AVX2's tile transpose at the
// 24- and 32-column serving shapes, and the ChannelResult decode is
// dominated by the scalar decide_phase either way (see kernel.h).
//
// Same bit-exactness argument as the AVX2 kernel — vectorise across words,
// never across a detector's contributions, so lane l's accumulation is the
// scalar kernel's for word l, addition for addition — at twice the width.
// Where AVX2 carries per-slot select masks as sign-bit vectors for
// vblendvpd/vblendvps, AVX-512 uses its native mask registers: one
// __mmask8 (f64) or __mmask16 (f32) per input slot, built once per word
// group, consumed by _mm512_mask_blend_pd/ps. That keeps the per-slot
// scratch at one or two bytes instead of a full vector, and the decode is
// a single _mm512_cmp_pd_mask / _mm512_cmp_ps_mask (ordered < 0.0, so a
// -0.0 sum decodes as 0 exactly like the scalar `acc < 0.0`).
//
// eval_bits makes one selection on the plan: an f64 plan (no f32 run)
// takes the 8-word f64 pass over __mmask8s; any plan with an f32 run takes
// one fused 16-word pass whose __mmask16s serve the f32 run whole and the
// f64 rescue run as byte halves (that loop is empty on a fully-proved
// plan). Keeping the 8-word pass for f64 plans keeps their scalar tail
// under 8 words. Odd-word tails fall to the scalar range helpers.
//
// The plane entry needs no mask build at all: a 64-word slot plane already
// IS eight __mmask8s (or four __mmask16s) side by side, so lane group k's
// select mask is just byte (or u16) k of the plane, and the eight (four)
// verdict masks of a detector concatenate back into its channel's plane.
//
// This translation unit is compiled with -mavx512f -mavx512bw -mavx512vl,
// and only in builds that also compile the AVX2 kernel (CMake adds the
// flags only for this file when the compiler supports them and the target
// is x86); nothing in it executes unless the CPUID check in dispatch.cpp
// (a portable TU) confirmed AVX2+AVX512F+BW+VL first, or the candidate
// getter — a bare constant return — is called. The compute below needs
// only AVX512F; BW rides along so the kernel and the AVX-512 wire codec
// (byte-granularity mask ops) advertise one CPU contract.
#include "wavesim/kernels/kernel.h"

#if defined(SWLOGIC_EVAL_AVX512) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <span>
#include <vector>

#include "wavesim/eval_plan.h"

namespace sw::wavesim::kernels {

namespace {

/// Per-slot mask scratch bound for the stack path (matches the AVX2
/// kernel's; the masks here are 1-2 bytes each, so this is tiny either
/// way, but the paper's strides all fit).
constexpr std::size_t kStackSlots = 64;

/// All-ones/prefix __mmask64 for an n-byte chunk tail (n <= 64).
inline __mmask64 chunk_tail_mask(std::size_t n) {
  return n == 64 ? ~static_cast<__mmask64>(0)
                 : static_cast<__mmask64>((std::uint64_t{1} << n) - 1);
}

/// Builds the per-slot __mmask8 array for an 8-word group in vector code:
/// per 64-slot chunk, one masked byte load + byte test per lane ORs lane
/// l's bit into all 64 per-slot masks at once (blend keyed on the
/// nonzero-byte mask — BW ops, which is why the dispatch gate requires
/// AVX512BW). The scalar equivalent is an 8-deep dependent or-shift chain
/// per slot, and at 16 lanes that chain, not the arithmetic, dominated the
/// whole kernel.
inline void build_masks_u8(const std::uint8_t* const words[8],
                           std::size_t stride, std::uint8_t* masks) {
  for (std::size_t base = 0; base < stride; base += 64) {
    const std::size_t n = std::min<std::size_t>(64, stride - base);
    const __mmask64 tail = chunk_tail_mask(n);
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t l = 0; l < 8; ++l) {
      const __m512i v = _mm512_maskz_loadu_epi8(tail, words[l] + base);
      const __mmask64 nz = _mm512_test_epi8_mask(v, v);
      const __m512i bit =
          _mm512_set1_epi8(static_cast<char>(std::uint8_t{1} << l));
      acc = _mm512_mask_blend_epi8(nz, acc, _mm512_or_si512(acc, bit));
    }
    _mm512_mask_storeu_epi8(masks + base, tail, acc);
  }
}

/// The 16-lane flavour: per-slot __mmask16s, two u16 accumulators per
/// 64-slot chunk (the byte test yields one __mmask64 whose halves key the
/// low/high 32 slots' word-granularity blends).
inline void build_masks_u16(const std::uint8_t* const words[16],
                            std::size_t stride, std::uint16_t* masks) {
  for (std::size_t base = 0; base < stride; base += 64) {
    const std::size_t n = std::min<std::size_t>(64, stride - base);
    const __mmask64 tail = chunk_tail_mask(n);
    __m512i lo = _mm512_setzero_si512();  // slots base .. base+31
    __m512i hi = _mm512_setzero_si512();  // slots base+32 .. base+63
    for (std::size_t l = 0; l < 16; ++l) {
      const __m512i v = _mm512_maskz_loadu_epi8(tail, words[l] + base);
      const __mmask64 nz = _mm512_test_epi8_mask(v, v);
      const __m512i bit =
          _mm512_set1_epi16(static_cast<short>(std::uint32_t{1} << l));
      lo = _mm512_mask_blend_epi16(static_cast<__mmask32>(nz), lo,
                                   _mm512_or_si512(lo, bit));
      hi = _mm512_mask_blend_epi16(static_cast<__mmask32>(nz >> 32), hi,
                                   _mm512_or_si512(hi, bit));
    }
    const std::size_t lo_n = std::min<std::size_t>(n, 32);
    _mm512_mask_storeu_epi16(
        masks + base,
        static_cast<__mmask32>((std::uint64_t{1} << lo_n) - 1), lo);
    if (n > 32) {
      _mm512_mask_storeu_epi16(
          masks + base + 32,
          static_cast<__mmask32>((std::uint64_t{1} << (n - 32)) - 1), hi);
    }
  }
}

/// eval_bits on an f64 plan: eight words per __m512d.
void eval_bits_f64_avx512(const EvalPlan& plan, const std::uint8_t* bits,
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

  // One __mmask8 per input slot: bit l set iff word l's bit at that slot
  // is nonzero (the scalar kernel's `word[slot] ?` truthiness, not bit 0).
  std::uint8_t stack_masks[kStackSlots];
  std::vector<std::uint8_t> heap_masks;
  std::uint8_t* masks = stack_masks;
  if (stride > kStackSlots) {
    heap_masks.resize(stride);
    masks = heap_masks.data();
  }

  const std::uint8_t* words[8];
  std::uint8_t* rows[8];
  std::size_t w = begin;
  for (; w + 8 <= end; w += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      words[l] = bits + (w + l) * stride;
      rows[l] = out + (w + l) * channels;
    }
    build_masks_u8(words, stride, masks);

    for (std::size_t d = 0; d < nd; ++d) {
      __m512d acc = _mm512_setzero_pd();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        // blend(k, a, b): lane l reads b where bit l of k is set — so a
        // set input bit selects the phase-one constant, per lane, and the
        // add is the scalar accumulation step in every lane.
        acc = _mm512_add_pd(
            acc, _mm512_mask_blend_pd(static_cast<__mmask8>(masks[slots[i]]),
                                      _mm512_set1_pd(re0[i]),
                                      _mm512_set1_pd(re1[i])));
      }
      const __mmask8 neg =
          _mm512_cmp_pd_mask(acc, _mm512_setzero_pd(), _CMP_LT_OQ);
      const std::size_t c = det_channel[d];
      for (std::size_t l = 0; l < 8; ++l) {
        rows[l][c] = static_cast<std::uint8_t>((neg >> l) & 1);
      }
    }
  }
  if (w < end) detail::eval_bits_scalar_range(plan, bits, w, end, out, 0, nd);
}

/// eval_bits on a plan with an f32 run: one fused pass per 16-word group.
void eval_bits_fused_avx512(const EvalPlan& plan, const std::uint8_t* bits,
                            std::size_t begin, std::size_t end,
                            std::uint8_t* out) {
  // One u16 mask build serves BOTH precision runs — the f32 run consumes
  // whole __mmask16s, the f64 rescue run consumes their byte halves as
  // __mmask8s across two 8-wide passes. One pass per precision instead
  // would re-read the packed words and rebuild masks, and with the
  // arithmetic this cheap the second mask build erases the f32 run's win.
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

  std::uint16_t stack_masks[kStackSlots];
  std::vector<std::uint16_t> heap_masks;
  std::uint16_t* masks = stack_masks;
  if (stride > kStackSlots) {
    heap_masks.resize(stride);
    masks = heap_masks.data();
  }

  // The paper's serving shape (8 detectors over 8 channels) takes a fully
  // vectorised decode: per group each detector's 16 verdict bits become a
  // byte vector, and a 3-level unpack network transposes the 8 channel
  // vectors into 16 contiguous 8-byte output rows — one 16-byte store per
  // two rows instead of 128 dependent scalar byte scatters. Any other
  // shape falls back to the scalar scatter below; both write the same
  // bytes in the same last-writer order.
  const bool dense = (channels == 8 && nd == 8);

  const std::uint8_t* words[16];
  std::uint8_t* rows[16];
  std::size_t w = begin;
  for (; w + 16 <= end; w += 16) {
    for (std::size_t l = 0; l < 16; ++l) {
      words[l] = bits + (w + l) * stride;
      rows[l] = out + (w + l) * channels;
    }
    build_masks_u16(words, stride, masks);

    // Verdict masks, identical accumulation order either way: bit l of
    // f32_neg(d) / bit (8*half + l) of the combined f64 mask is word
    // (w + that lane)'s decoded bit for detector d.
    const auto f32_neg = [&](std::size_t d) -> __mmask16 {
      __m512 acc = _mm512_setzero_ps();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        acc = _mm512_add_ps(
            acc,
            _mm512_mask_blend_ps(static_cast<__mmask16>(masks[slots[i]]),
                                 _mm512_set1_ps(re0f[i]),
                                 _mm512_set1_ps(re1f[i])));
      }
      return _mm512_cmp_ps_mask(acc, _mm512_setzero_ps(), _CMP_LT_OQ);
    };
    const auto f64_neg_half = [&](std::size_t d,
                                  std::size_t half) -> __mmask8 {
      __m512d acc = _mm512_setzero_pd();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const __mmask8 m =
            static_cast<__mmask8>(masks[slots[i]] >> (8 * half));
        acc = _mm512_add_pd(acc,
                            _mm512_mask_blend_pd(m, _mm512_set1_pd(re0[i]),
                                                 _mm512_set1_pd(re1[i])));
      }
      return _mm512_cmp_pd_mask(acc, _mm512_setzero_pd(), _CMP_LT_OQ);
    };

    if (dense) {
      // nb[c]: byte j = word (w+j)'s bit for channel c's detector.
      __m128i nb[8];
      for (std::size_t c = 0; c < 8; ++c) nb[c] = _mm_setzero_si128();
      for (std::size_t d = 0; d < kf; ++d) {
        nb[det_channel[d]] = _mm_maskz_set1_epi8(f32_neg(d), 1);
      }
      for (std::size_t d = kf; d < nd; ++d) {
        const __mmask16 neg = static_cast<__mmask16>(
            static_cast<unsigned>(f64_neg_half(d, 0)) |
            (static_cast<unsigned>(f64_neg_half(d, 1)) << 8));
        nb[det_channel[d]] = _mm_maskz_set1_epi8(neg, 1);
      }
      // Transpose 8 channels x 16 words -> 16 rows x 8 channels.
      __m128i u[8];
      for (std::size_t k = 0; k < 4; ++k) {
        u[2 * k] = _mm_unpacklo_epi8(nb[2 * k], nb[2 * k + 1]);
        u[2 * k + 1] = _mm_unpackhi_epi8(nb[2 * k], nb[2 * k + 1]);
      }
      __m128i v[8];
      v[0] = _mm_unpacklo_epi16(u[0], u[2]);
      v[1] = _mm_unpackhi_epi16(u[0], u[2]);
      v[2] = _mm_unpacklo_epi16(u[1], u[3]);
      v[3] = _mm_unpackhi_epi16(u[1], u[3]);
      v[4] = _mm_unpacklo_epi16(u[4], u[6]);
      v[5] = _mm_unpackhi_epi16(u[4], u[6]);
      v[6] = _mm_unpacklo_epi16(u[5], u[7]);
      v[7] = _mm_unpackhi_epi16(u[5], u[7]);
      std::uint8_t* const base = out + w * channels;
      for (std::size_t k = 0; k < 4; ++k) {
        const __m128i lo = _mm_unpacklo_epi32(v[k], v[k + 4]);
        const __m128i hi = _mm_unpackhi_epi32(v[k], v[k + 4]);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(base + 32 * k), lo);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(base + 32 * k + 16), hi);
      }
    } else {
      for (std::size_t d = 0; d < kf; ++d) {
        const __mmask16 neg = f32_neg(d);
        const std::size_t c = det_channel[d];
        for (std::size_t l = 0; l < 16; ++l) {
          rows[l][c] = static_cast<std::uint8_t>((neg >> l) & 1);
        }
      }
      for (std::size_t d = kf; d < nd; ++d) {
        const std::size_t c = det_channel[d];
        for (std::size_t half = 0; half < 2; ++half) {
          const __mmask8 neg = f64_neg_half(d, half);
          for (std::size_t l = 0; l < 8; ++l) {
            rows[8 * half + l][c] = static_cast<std::uint8_t>((neg >> l) & 1);
          }
        }
      }
    }
  }
  if (w < end) {
    detail::eval_bits_f32_scalar_range(plan, bits, w, end, out, 0, kf);
    detail::eval_bits_scalar_range(plan, bits, w, end, out, kf, nd);
  }
}

void eval_bits_avx512(const EvalPlan& plan, const std::uint8_t* bits,
                      std::size_t begin, std::size_t end, std::uint8_t* out) {
  if (plan.num_f32_detectors() == 0) {
    eval_bits_f64_avx512(plan, bits, begin, end, out);
  } else {
    eval_bits_fused_avx512(plan, bits, begin, end, out);
  }
}

/// One precision run of eval_planes: per 64-word group and detector, all
/// 64 lanes at once — kGroups independent accumulators of kLanes words
/// each, so the adds of one contribution overlap instead of chaining.
/// Lane l of accumulator k is word kLanes * k + l, summed in plan order.
template <typename T>
struct PlaneRun;

template <>
struct PlaneRun<double> {
  static constexpr std::size_t kLanes = 8;
  using Vec = __m512d;
  using Mask = __mmask8;
  static Vec zero() { return _mm512_setzero_pd(); }
  static Vec set1(double x) { return _mm512_set1_pd(x); }
  static Vec add_blend(Vec acc, Mask m, Vec c0, Vec c1) {
    return _mm512_add_pd(acc, _mm512_mask_blend_pd(m, c0, c1));
  }
  static Mask negative(Vec acc) {
    return _mm512_cmp_pd_mask(acc, _mm512_setzero_pd(), _CMP_LT_OQ);
  }
};

template <>
struct PlaneRun<float> {
  static constexpr std::size_t kLanes = 16;
  using Vec = __m512;
  using Mask = __mmask16;
  static Vec zero() { return _mm512_setzero_ps(); }
  static Vec set1(float x) { return _mm512_set1_ps(x); }
  static Vec add_blend(Vec acc, Mask m, Vec c0, Vec c1) {
    return _mm512_add_ps(acc, _mm512_mask_blend_ps(m, c0, c1));
  }
  static Mask negative(Vec acc) {
    return _mm512_cmp_ps_mask(acc, _mm512_setzero_ps(), _CMP_LT_OQ);
  }
};

template <typename T>
void eval_planes_avx512_run(const EvalPlan& plan, const std::uint64_t* in,
                            std::size_t num_groups, std::uint64_t* out,
                            std::size_t d_begin, std::size_t d_end,
                            std::span<const T> re0, std::span<const T> re1) {
  using Run = PlaneRun<T>;
  constexpr std::size_t kLanes = Run::kLanes;
  constexpr std::size_t kGroups = kPlaneWords / kLanes;
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto slots = plan.slots();
  for (std::size_t g = 0; g < num_groups; ++g) {
    for (std::size_t d = d_begin; d < d_end; ++d) {
      typename Run::Vec acc[kGroups];
      for (std::size_t k = 0; k < kGroups; ++k) acc[k] = Run::zero();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const std::uint64_t plane = in[slots[i] * num_groups + g];
        const auto c0 = Run::set1(re0[i]);
        const auto c1 = Run::set1(re1[i]);
        for (std::size_t k = 0; k < kGroups; ++k) {
          acc[k] = Run::add_blend(
              acc[k], static_cast<typename Run::Mask>(plane >> (kLanes * k)),
              c0, c1);
        }
      }
      std::uint64_t verdicts = 0;
      for (std::size_t k = 0; k < kGroups; ++k) {
        verdicts |= static_cast<std::uint64_t>(Run::negative(acc[k]))
                    << (kLanes * k);
      }
      out[det_channel[d] * num_groups + g] = verdicts;
    }
  }
}

void eval_planes_avx512(const EvalPlan& plan, const std::uint64_t* in,
                        std::size_t num_groups, std::uint64_t* out) {
  const std::size_t kf = plan.num_f32_detectors();
  std::fill_n(out, plan.num_channels() * num_groups, std::uint64_t{0});
  eval_planes_avx512_run<float>(plan, in, num_groups, out, 0, kf,
                                plan.re0_f32(), plan.re1_f32());
  eval_planes_avx512_run<double>(plan, in, num_groups, out, kf,
                                 plan.num_detectors(), plan.re0(),
                                 plan.re1());
}

}  // namespace

const Kernel* detail::avx512_kernel_candidate() {
  // No CPUID check here — this TU is compiled with -mavx512f/-mavx512bw,
  // so anything non-trivial in it could fault on an older host. The
  // runtime support check lives in dispatch.cpp; this is a bare constant
  // return. The AVX2 entries it borrows are linked in because CMake only
  // compiles this TU alongside the AVX2 kernel.
  static constexpr Kernel kernel{"avx512",
                                 &eval_bits_avx512,
                                 &eval_planes_avx512,
                                 &detail::pack_planes_avx2,
                                 &detail::eval_channels_avx2};
  return &kernel;
}

}  // namespace sw::wavesim::kernels

#else  // no AVX-512 codegen in this build or non-x86 target

namespace sw::wavesim::kernels {

const Kernel* detail::avx512_kernel_candidate() { return nullptr; }

}  // namespace sw::wavesim::kernels

#endif

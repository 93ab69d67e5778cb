// Runtime-dispatched evaluation kernels over SoA EvalPlans.
//
// A kernel decodes input words against a frozen EvalPlan. Four entry
// points per kernel, in two input representations. The two thresholded
// bit entries (eval_bits, eval_planes) take the plan's precision split as
// data, not as a dispatch: detectors [0, plan.num_f32_detectors()) — the
// f32 run — accumulate in f32 over the plan's float mirrors, then
// detectors [plan.num_f32_detectors(), plan.num_detectors()) — the f64
// run — in f64 over the double arrays. Either run may be empty (an f64
// plan has no f32 run, a fully-proved f32 plan no f64 run), so callers
// never branch on precision.
//
// Byte matrices (BatchEvaluator, the library's direct single-layout
// path): a contiguous range of row-major packed words, one byte per input
// slot.
//
//   * eval_bits — the packed fast path: for each word and detector it
//     accumulates the bit-selected phasor real parts and thresholds (the
//     decide_phase decision with reference 0 is exactly Re < 0). Each
//     vector kernel makes one selection on the plan: with
//     num_f32_detectors() == 0 it runs an f64-width pass (4 words per
//     AVX2 register, 8 per AVX-512 register); otherwise one fused pass at
//     f32 width whose lane masks serve both runs (the f64 run's loop is
//     empty on a fully-proved plan).
//   * eval_channels — the full ChannelResult path (evaluate /
//     evaluate_with): accumulates the complex phasor in double and decodes
//     phase/amplitude/margin via decide_phase, writing rows of
//     num_words x plan.num_detectors() ChannelResults. Always double:
//     phase and amplitude are analog readouts, not thresholded bits.
//
// Bit planes (EvalProgram: every compiled cascade, and every layout the
// serve layer runs, as a one-stage program): words travel in groups of
// kPlaneWords = 64, and one std::uint64_t per input slot (or output
// channel) per group holds the whole group's bits — bit l of a plane is
// word 64 g + l's bit. This is the representation the SIMD kernels compute
// internally anyway (per-slot lane masks in, per-channel verdict masks
// out), so a cascade stage's outputs feed the next stage's inputs without
// a byte round trip, and a negated or constant source is one word-wide
// XOR.
//
//   * pack_planes — the byte-to-plane edge: turns a row-major byte matrix
//     into column planes (any nonzero byte is a 1, as in the byte
//     entry). On a one-stage program it is most of the plane path's
//     overhead over the byte entry, so it is a kernel entry: the scalar
//     kernel packs 8 words x 8 columns per SWAR tile (the reference), and
//     AVX2 builds the same tiles 32 columns wide and byte-transposes eight
//     of them into 64-bit planes.
//
//   * eval_planes — the ONE plane entry: decodes num_groups whole groups
//     over the plan's f32 run [0, plan.num_f32_detectors()) and then its
//     f64 run [plan.num_f32_detectors(), plan.num_detectors()), either of
//     which may be empty. With no precision dispatch at the call site it
//     decodes exactly like eval_bits on every plan. Lane widths
//     (4/8/16) divide 64, so there is no scalar tail: every lane of every
//     group is decoded, and lanes past the caller's last word decode
//     whatever the input planes hold there — callers drop them on unpack.
//
// Three kernels exist, a ladder of identical semantics at increasing
// width: a portable scalar reference, an AVX2 kernel (four words per
// 256-bit register in double, eight in f32) and an AVX-512 kernel (eight
// words per 512-bit register in double, sixteen in f32). The vector code
// evaluates lane-for-lane in the scalar accumulation order, so every entry
// point decodes bit-for-bit identically to its scalar counterpart,
// whichever pass a vector kernel selects.
//
// A wider kernel keeps its own copy of an entry only when that copy is
// faster on a shape a serving workload or a bench floor runs; otherwise
// its table points at the next kernel down. Today:
//
//   entry          scalar   avx2     avx512
//   eval_bits      scalar   avx2     avx512  (~3x avx2)
//   eval_planes    scalar   avx2     avx512  (~2.5-3x avx2)
//   pack_planes    scalar   avx2     avx2    (an AVX-512 pack was slower
//                                            at 24 and 32 columns)
//   eval_channels  scalar   avx2     avx2    (decide_phase dominates; no
//                                            workload or floor runs it)
//
// So the AVX-512 kernel exists only where the AVX2 kernel does, by build
// (CMake compiles its TU only next to the AVX2 one) and by CPUID.
//
// Selection happens once per process on first use: the SW_EVAL_KERNEL
// environment variable overrides (accepted values are exactly the kernel
// names in the dispatch table — currently "scalar", "avx2", "avx512"),
// otherwise the best kernel the build and the CPU support wins
// (CPUID-checked at runtime — an AVX-512-compiled binary still runs, on
// the AVX2 or scalar kernel, on an older host). An unknown or unsupported
// SW_EVAL_KERNEL value fails loudly (the error names the variable and
// regenerates the accepted-values list from the dispatch table) instead of
// silently serving the scalar fallback. Tests and benches bypass the
// cached choice via select_kernel().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sw::core {
struct ChannelResult;
}  // namespace sw::core

namespace sw::wavesim {

class EvalPlan;

namespace kernels {

/// Words per bit plane: bit l of a plane is word l of its 64-word group.
inline constexpr std::size_t kPlaneWords = 64;

struct Kernel {
  const char* name;
  /// Decode words [begin, end): reads rows [begin, end) of the row-major
  /// num_words x plan.slot_count() packed bit matrix `bits` and writes rows
  /// [begin, end) of the num_words x plan.num_channels() decoded-bit matrix
  /// `out`. Both pointers address the full matrices (row 0), not the range.
  /// The f32 run [0, plan.num_f32_detectors()) accumulates in f32 over the
  /// plan's float mirrors, then the f64 run in f64 over the double arrays;
  /// either run may be empty, so this is legal on every plan.
  void (*eval_bits)(const EvalPlan& plan, const std::uint8_t* bits,
                    std::size_t begin, std::size_t end, std::uint8_t* out);
  /// Bit-plane decode of `num_groups` 64-word groups. `in` is slot-major:
  /// in[s * num_groups + g] is input slot s's plane for group g (bit l =
  /// word 64 g + l's bit at that slot). Writes every channel plane of
  /// `out`, channel-major: out[c * num_groups + g], bit l = that word's
  /// decoded bit for channel c. Detectors run in plan order — the f32 run
  /// over the plan's float mirrors, then the f64 run over the double
  /// arrays — each writing its channel's plane whole. A channel without a
  /// detector comes out 0 (like the zeroed rows eval_bits' callers pass), and a channel two detectors write keeps the later one's bits.
  void (*eval_planes)(const EvalPlan& plan, const std::uint64_t* in,
                      std::size_t num_groups, std::uint64_t* out);
  /// Packs rows [0, num_words) of the row-major num_words x cols byte
  /// matrix `rows` into column-major planes: planes[c * num_groups + g]
  /// bit l is 1 iff byte (64 g + l, c) is nonzero. Writes all cols x
  /// num_groups planes (num_groups >= ceil(num_words / 64)); lanes past
  /// num_words come out 0.
  void (*pack_planes)(const std::uint8_t* rows, std::size_t cols,
                      std::size_t num_words, std::size_t num_groups,
                      std::uint64_t* planes);
  /// Full ChannelResult decode of words [begin, end): writes rows
  /// [begin, end) of the row-major num_words x plan.num_detectors() result
  /// matrix `out`, element plan.detector_results()[d] of a row carrying
  /// plan-order detector d's decision (channel field =
  /// plan.detector_channels()[d]) — so rows are always in layout order,
  /// even on a block-f32 plan whose detectors were partitioned at build
  /// time. Accumulation is complex double in plan order and the decision
  /// is core::decide_phase, so results are bit-for-bit the scalar gate
  /// path's.
  void (*eval_channels)(const EvalPlan& plan, const std::uint8_t* bits,
                        std::size_t begin, std::size_t end,
                        sw::core::ChannelResult* out);
};

/// Portable reference kernel; always available.
const Kernel& scalar_kernel();

/// AVX2 kernel, or nullptr when the build lacks AVX2 codegen or the CPU
/// lacks the instructions.
const Kernel* avx2_kernel();

/// AVX-512 kernel, or nullptr when the build lacks AVX-512 codegen or the
/// CPU lacks the instructions (requires AVX2 — whose pack_planes and
/// eval_channels it uses — plus AVX512F, AVX512BW and AVX512VL). Null
/// wherever avx2_kernel() is.
const Kernel* avx512_kernel();

namespace detail {
/// The AVX2 kernel as compiled (nullptr when the build has no AVX2
/// codegen), with NO runtime CPU check: defined in the -mavx2 TU as a bare
/// constant return so the only AVX2-encoded code in the binary is the
/// kernel body itself. Only avx2_kernel() — which performs the CPUID check
/// from a portable TU first — may call this; dereferencing the result's
/// entry points on a pre-AVX2 host is SIGILL.
const Kernel* avx2_kernel_candidate();

/// The AVX-512 kernel as compiled (nullptr when the build has no AVX-512
/// codegen), same contract as avx2_kernel_candidate(): no CPU check, a
/// bare constant return from the -mavx512f/-mavx512bw TU. Only
/// avx512_kernel() may call this.
const Kernel* avx512_kernel_candidate();

/// The AVX2 kernel's pack_planes and eval_channels, named so the AVX-512
/// table can share them (defined only in builds with AVX2 codegen, which
/// every AVX-512 build has). AVX2-encoded: reach them only through a
/// kernel table that passed its CPUID check.
void pack_planes_avx2(const std::uint8_t* rows, std::size_t cols,
                      std::size_t num_words, std::size_t num_groups,
                      std::uint64_t* planes);
void eval_channels_avx2(const EvalPlan& plan, const std::uint8_t* bits,
                        std::size_t begin, std::size_t end,
                        sw::core::ChannelResult* out);

/// Scalar reference loops restricted to the plan-order detector range
/// [d_begin, d_end) — the two runs of the scalar eval_bits and the vector
/// kernels' odd-word tails. Same word-range contract as Kernel::eval_bits;
/// eval_bits_f32_scalar_range reads the plan's float mirrors, so d_end
/// must not exceed plan.num_f32_detectors().
void eval_bits_scalar_range(const EvalPlan& plan, const std::uint8_t* bits,
                            std::size_t begin, std::size_t end,
                            std::uint8_t* out, std::size_t d_begin,
                            std::size_t d_end);
void eval_bits_f32_scalar_range(const EvalPlan& plan,
                                const std::uint8_t* bits, std::size_t begin,
                                std::size_t end, std::uint8_t* out,
                                std::size_t d_begin, std::size_t d_end);
}  // namespace detail

/// Kernel by name (any dispatch-table entry: "scalar" | "avx2" |
/// "avx512"); throws sw::util::Error on an unknown name or an unavailable
/// kernel. Does not consult or mutate the process's cached active choice.
const Kernel& select_kernel(std::string_view name);

/// Resolves a forced SW_EVAL_KERNEL value, wrapping select_kernel errors
/// with the variable name so a typo'd override fails with an actionable
/// message ("SW_EVAL_KERNEL: unknown evaluation kernel ...") instead of a
/// bare unknown-name error — and never falls back to scalar silently.
const Kernel& kernel_from_env(std::string_view value);

/// The process-wide kernel: SW_EVAL_KERNEL when set (unknown/unavailable
/// values throw on first use), else the best supported kernel — the last
/// available dispatch-table entry, avx512 > avx2 > scalar. Cached after
/// the first successful call.
const Kernel& active_kernel();

}  // namespace kernels

/// Name of the kernel evaluate_bits dispatches to ("scalar" | "avx2" |
/// "avx512"); surfaced through sw::serve::ServiceStats and logged by
/// EvaluatorService so operators and benches can tell which path ran.
std::string_view active_kernel_name();

}  // namespace sw::wavesim

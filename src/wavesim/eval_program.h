// Multi-stage fused evaluation: a compiled gate cascade as one program.
//
// EvalPlan freezes ONE gate layout into SoA constants the kernels decode
// at register width. A synthesized circuit (src/compile) is a *cascade* of
// such gates: stage outputs become the next stage's phase inputs — the
// paper's "passed to potential following SW gates", with the regenerating
// transducers between stages flipping drive phases for free complements
// and pinning constants. EvalProgram is the frozen multi-stage artefact:
// one EvalPlan per distinct stage gate plus an interconnect map
// (SlotSource per input slot), evaluated block-wise so a word batch runs
// end to end through every stage inside one pass. A single designed
// layout is the length-one case: EvalProgram(layout, engine) makes a
// one-stage program whose gate is that layout and whose slots read the
// primary columns in order — the form the serve layer runs every layout
// request in, so it caches and evaluates one artefact type.
//
// Between stages the words travel as bit planes, the representation the
// kernels compute in anyway: one std::uint64_t per column per 64-word
// group, bit l = word 64 g + l's bit (kernels::kPlaneWords). Per block the
// primary byte matrix is packed into planes once (the kernel's pack_planes
// entry); each stage then gathers
// its slot planes with word-wide copies (source plane ^ 0 or ~0 for
// negation, a zero plane ^ 0 / ~0 for kZero / kOne — the source table is
// resolved at construction, there is no per-word switch) and runs the
// kernel's single plane entry, which writes the stage's channel planes
// straight into the block's plane bank for later stages to read. Only the
// last stage (every stage, for evaluate_all_bits) is unpacked to bytes.
//
// The plane entry runs a stage plan's f32 run and f64 rescue run in one
// call, so per-stage precision and block-f32 are honoured without a
// dispatch here, and every stage's decode is lane-for-lane bit-exact with
// evaluating that stage's gate alone — which makes the whole program
// bit-exact with the per-stage physics path by induction. Lanes past the
// batch's last word hold don't-care bits that never reach the output.
//
// The ProgramSpec half of this header is the *portable* description —
// per-stage GateSpecs plus the interconnect, no designed geometry — which
// is what the wire format ships (serve/wire.h, v3 frames) and the plan
// cache hashes; an EvalProgram is built from it locally against a
// designer and engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/gate.h"
#include "core/gate_design.h"
#include "util/thread_pool.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_plan.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/precision.h"
#include "wavesim/wave_engine.h"

namespace sw::wavesim {

/// Where one input slot of a stage gets its bit. Negation is free on the
/// fabric (the driving transducer flips phase), so it lives here rather
/// than costing a gate.
struct SlotSource {
  enum class Kind : std::uint8_t {
    kZero = 0,     ///< transducer pinned to phase 0
    kOne = 1,      ///< transducer pinned to phase pi
    kPrimary = 2,  ///< column `index` of the primary packed word
    kStage = 3,    ///< output channel `index` of earlier stage `stage`
  };
  Kind kind = Kind::kZero;
  std::uint32_t stage = 0;  ///< producing stage, kStage only
  std::uint32_t index = 0;  ///< primary column or stage output channel
  bool negated = false;     ///< complement the gathered bit

  friend bool operator==(const SlotSource&, const SlotSource&) = default;
};

/// One stage: the physical design request plus where each of its
/// num_inputs x num_channels slots (slot = channel * num_inputs + input,
/// the EvalPlan packing) reads from.
struct StageSpec {
  sw::core::GateSpec gate;
  std::vector<SlotSource> sources;

  friend bool operator==(const StageSpec&, const StageSpec&) = default;
};

/// A portable multi-stage program: what clients ship over the wire and
/// what the plan cache keys on. The program output is the last stage's
/// decoded bits.
struct ProgramSpec {
  /// Function inputs per channel. The primary packed matrix a program
  /// evaluates is row-major num_words x primary_slot_count(), the bit of
  /// primary input i on channel ch at column ch * num_primary_inputs + i
  /// (the same channel-major packing as a single gate's slots).
  std::size_t num_primary_inputs = 0;
  std::vector<StageSpec> stages;

  std::size_t num_stages() const { return stages.size(); }
  /// Channel count shared by every stage (validate() enforces agreement).
  std::size_t num_channels() const {
    return stages.empty() ? 0 : stages.back().gate.frequencies.size();
  }
  std::size_t primary_slot_count() const {
    return num_primary_inputs * num_channels();
  }
  /// Longest stage-to-stage path feeding the output stage (1 for a single
  /// gate): the physical cascade latency in stages.
  std::size_t depth() const;

  /// Shape and reference checks: at least one stage, uniform channel
  /// count, every stage's source list sized num_inputs x num_channels,
  /// kStage references strictly earlier stages and valid channels,
  /// kPrimary columns within primary_slot_count(). Throws sw::util::Error.
  void validate() const;

  friend bool operator==(const ProgramSpec&, const ProgramSpec&) = default;
};

/// Per-stage accumulated evaluation time, filled by evaluate_bits when the
/// caller passes a collector: ns[s] gains every block's gather+kernel time
/// for stage s. Accumulators are atomic because the word loop may fan out
/// across the program's pool threads; the numbers are therefore summed CPU
/// time per stage, not wall intervals.
struct StageTimings {
  explicit StageTimings(std::size_t num_stages) : ns(num_stages) {}
  std::vector<std::atomic<std::uint64_t>> ns;
};

class EvalProgram {
 public:
  /// Designs each distinct stage gate once with `designer` (stages whose
  /// GateSpecs compare equal share one layout and one plan), builds the
  /// EvalPlans on `engine` at options.precision (kAuto resolved; each
  /// plan's margin analysis decides f32 / block-f32 / f64 independently)
  /// and keeps a worker pool of options.num_threads for the word loop.
  /// Neither designer nor engine needs to outlive the program.
  EvalProgram(ProgramSpec spec, const sw::core::InlineGateDesigner& designer,
              const WaveEngine& engine, BatchOptions options = {});

  /// A one-stage program over an already-designed layout: the serve
  /// layer's form of every layout-bound request. The stage gate is
  /// `layout` itself (nothing is designed, so two geometries sharing one
  /// GateSpec stay two programs) and its sources are the identity kPrimary
  /// columns, so evaluate_bits takes and returns exactly the matrices of
  /// BatchEvaluator::evaluate_bits — bit-exact with it on every kernel and
  /// precision. spec() names the GateSpec the layout was designed from, not
  /// its geometry; num_stage_designs() is 0. The engine need not outlive
  /// the program.
  EvalProgram(sw::core::GateLayout layout, const WaveEngine& engine,
              BatchOptions options = {});

  const ProgramSpec& spec() const { return spec_; }
  std::size_t num_stages() const { return stages_.size(); }
  std::size_t num_channels() const { return spec_.num_channels(); }
  std::size_t num_primary_slots() const {
    return spec_.primary_slot_count();
  }
  std::size_t depth() const { return depth_; }
  /// Distinct stage gates this program designed (at most num_stages(); a
  /// lowered circuit has at most two, with and without inverted outputs;
  /// 0 for a program over a given layout).
  std::size_t num_stage_designs() const { return num_designs_; }

  const EvalPlan& stage_plan(std::size_t stage) const {
    return *stages_[stage].plan;
  }
  const sw::core::DataParallelGate& stage_gate(std::size_t stage) const {
    return *stages_[stage].gate;
  }

  /// Aggregate precision mix: "f64" / "f32" when every stage agrees, else
  /// "mixed(<stage labels>)".
  std::string precision_label() const;

  /// Fused evaluation. `bits` is the row-major num_words x
  /// num_primary_slots() primary matrix (see ProgramSpec); returns the
  /// row-major num_words x num_channels() decoded bits of the LAST stage.
  /// Bit-exact with evaluating each stage's gate separately and re-packing
  /// by hand, for every kernel and per-stage precision.
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits) const;
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits,
      const kernels::Kernel& kernel) const;

  /// evaluate_bits with per-stage time attribution: `timings` must be
  /// sized num_stages() (or null for the plain path — identical cost).
  /// Two steady_clock reads per stage per 1024-word block, so the serving
  /// layer can always leave collection on.
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits,
      StageTimings* timings) const;

  /// Same pass, keeping every stage's outputs: row-major num_words x
  /// (num_stages() * num_channels()), stage s's channel ch at column
  /// s * num_channels() + ch. The cascade-delegation and oracle-test
  /// surface.
  std::vector<std::uint8_t> evaluate_all_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits) const;
  std::vector<std::uint8_t> evaluate_all_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits,
      const kernels::Kernel& kernel) const;

 private:
  /// Where one slot plane comes from: a column of the block's plane bank,
  /// XORed with 0 or ~0 (negation; kOne is the zero column flipped).
  struct PlaneSource {
    std::uint32_t column = 0;
    std::uint64_t flip = 0;
  };
  struct Stage {
    std::shared_ptr<const sw::core::DataParallelGate> gate;  ///< the layout
    std::shared_ptr<const EvalPlan> plan;
    std::vector<PlaneSource> sources;  ///< one per plan slot
  };

  /// Appends the stage for spec_.stages[stages_.size()], resolving its
  /// slot sources to bank columns.
  void add_stage(std::shared_ptr<const sw::core::DataParallelGate> gate,
                 std::shared_ptr<const EvalPlan> plan);

  /// Run the words of plane groups [g_begin, g_end) through every stage.
  /// `bank` holds bank_columns() x (g_end - g_begin) planes, column-major:
  /// the primary columns (packed here), then each stage's channel planes,
  /// then the zero column. `slot_planes` is the gather scratch.
  void eval_groups(const kernels::Kernel& kernel,
                   std::span<const std::uint8_t> bits, std::size_t num_words,
                   std::size_t g_begin, std::size_t g_end,
                   std::vector<std::uint64_t>& bank,
                   std::vector<std::uint64_t>& slot_planes,
                   StageTimings* timings) const;

  std::size_t bank_columns() const {
    return num_primary_slots() + spec_.num_stages() * num_channels() + 1;
  }

  std::vector<std::uint8_t> evaluate_impl(std::size_t num_words,
                                          std::span<const std::uint8_t> bits,
                                          const kernels::Kernel& kernel,
                                          bool all_stages,
                                          StageTimings* timings) const;

  ProgramSpec spec_;
  std::vector<Stage> stages_;
  std::size_t depth_ = 0;
  std::size_t max_slots_ = 0;
  std::size_t num_designs_ = 0;
  mutable sw::util::ThreadPool pool_;
};

}  // namespace sw::wavesim

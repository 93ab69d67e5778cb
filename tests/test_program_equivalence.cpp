// Generated-program equivalence: the fused EvalProgram must decode exactly
// like a staged oracle — each stage's gate through its own BatchEvaluator,
// its inputs re-packed by hand from the primary matrix and the earlier
// stages' decoded bytes — on seeded random ProgramSpecs (every SlotSource
// kind with and without negation, 1-8 channels, 1-12 stages, mixed stage
// shapes) at word counts on and around the 64-word bit-plane boundaries,
// and on the synthesized 4-input functions the serving benchmark's
// program_churn workload draws. Every available kernel runs at f64 and
// f32; the oracle is the scalar kernel's byte path.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "compile/lower.h"
#include "compile/synth.h"
#include "compile/truth_table.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/fvmsw.h"
#include "mag/material.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_program.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace {

using sw::core::GateSpec;
using sw::wavesim::BatchEvaluator;
using sw::wavesim::EvalProgram;
using sw::wavesim::Precision;
using sw::wavesim::ProgramSpec;
using sw::wavesim::SlotSource;
using sw::wavesim::kernels::Kernel;

constexpr std::size_t kWordCounts[] = {0, 1, 7, 63, 64, 65, 129, 512, 1000};
constexpr Precision kPrecisions[] = {Precision::kFloat64, Precision::kFloat32};

sw::disp::Waveguide paper_waveguide() {
  sw::disp::Waveguide wg;
  wg.material = sw::mag::make_fecob();
  wg.width = 50e-9;
  wg.thickness = 1e-9;
  return wg;
}

std::vector<double> channel_frequencies(std::size_t n) {
  std::vector<double> f;
  for (std::size_t i = 1; i <= n; ++i) {
    f.push_back(1e10 * static_cast<double>(i));
  }
  return f;
}

struct Fixture {
  sw::disp::Waveguide wg = paper_waveguide();
  sw::disp::FvmswDispersion model{wg};
  sw::core::InlineGateDesigner designer{model};
  sw::wavesim::WaveEngine engine{model, wg.material.alpha};
};

std::vector<const Kernel*> available_kernels() {
  using namespace sw::wavesim::kernels;
  std::vector<const Kernel*> kernels{&scalar_kernel()};
  if (const Kernel* avx2 = avx2_kernel()) kernels.push_back(avx2);
  if (const Kernel* avx512 = avx512_kernel()) kernels.push_back(avx512);
  return kernels;
}

/// A seeded random program of n channels and `stages` stages: every stage
/// draws its own input count and output inversions, and every slot a
/// random source kind and negation.
ProgramSpec random_program(std::mt19937& rng, std::size_t n,
                           std::size_t stages) {
  ProgramSpec spec;
  spec.num_primary_inputs = 1 + rng() % 4;
  // Two stage shapes per program, like a lowered circuit's (with and
  // without inverted outputs), plus the odd stage of its own.
  GateSpec shapes[2];
  for (GateSpec& shape : shapes) {
    shape.num_inputs = 1 + rng() % 4;
    shape.frequencies = channel_frequencies(n);
  }
  shapes[1].invert_output.assign(n, 1);
  for (std::size_t s = 0; s < stages; ++s) {
    sw::wavesim::StageSpec stage;
    stage.gate = shapes[rng() % 2];
    if (rng() % 4 == 0) {
      stage.gate.num_inputs = 1 + rng() % 5;
      stage.gate.invert_output.resize(n);
      for (auto& inv : stage.gate.invert_output) inv = rng() % 2;
    }
    stage.sources.resize(stage.gate.num_inputs * n);
    for (SlotSource& src : stage.sources) {
      const unsigned kind = rng() % (s == 0 ? 3 : 4);
      src.kind = static_cast<SlotSource::Kind>(kind);
      src.negated = rng() % 2 == 1;
      if (src.kind == SlotSource::Kind::kPrimary) {
        src.index =
            static_cast<std::uint32_t>(rng() % (spec.num_primary_inputs * n));
      } else if (src.kind == SlotSource::Kind::kStage) {
        src.stage = static_cast<std::uint32_t>(rng() % s);
        src.index = static_cast<std::uint32_t>(rng() % n);
      }
    }
    spec.stages.push_back(std::move(stage));
  }
  spec.validate();
  return spec;
}

/// The staged oracle: per stage, design its gate on its own, gather its
/// input matrix by hand and decode through a one-stage BatchEvaluator on
/// the scalar kernel. Returns every stage's outputs, row-major num_words x
/// (num_stages * n) like evaluate_all_bits.
std::vector<std::uint8_t> staged_oracle(
    const Fixture& fix, const ProgramSpec& spec, Precision precision,
    std::size_t num_words, const std::vector<std::uint8_t>& primary) {
  const std::size_t n = spec.num_channels();
  const std::size_t cols = spec.primary_slot_count();
  const std::size_t all_cols = spec.num_stages() * n;
  std::vector<std::vector<std::uint8_t>> stage_bits;
  for (const auto& st : spec.stages) {
    const sw::core::DataParallelGate gate(fix.designer.design(st.gate),
                                          fix.engine);
    const BatchEvaluator evaluator(
        gate, {.num_threads = 1, .precision = precision});
    const std::size_t slots = st.sources.size();
    std::vector<std::uint8_t> packed(num_words * slots);
    for (std::size_t w = 0; w < num_words; ++w) {
      for (std::size_t j = 0; j < slots; ++j) {
        const SlotSource& src = st.sources[j];
        bool v = false;
        switch (src.kind) {
          case SlotSource::Kind::kZero: v = false; break;
          case SlotSource::Kind::kOne: v = true; break;
          case SlotSource::Kind::kPrimary:
            v = primary[w * cols + src.index] != 0;
            break;
          case SlotSource::Kind::kStage:
            v = stage_bits[src.stage][w * n + src.index] != 0;
            break;
        }
        packed[w * slots + j] = static_cast<std::uint8_t>(v != src.negated);
      }
    }
    stage_bits.push_back(evaluator.evaluate_bits(
        num_words, packed, sw::wavesim::kernels::scalar_kernel()));
  }
  std::vector<std::uint8_t> all(num_words * all_cols);
  for (std::size_t w = 0; w < num_words; ++w) {
    for (std::size_t s = 0; s < spec.num_stages(); ++s) {
      for (std::size_t ch = 0; ch < n; ++ch) {
        all[w * all_cols + s * n + ch] = stage_bits[s][w * n + ch];
      }
    }
  }
  return all;
}

/// The last stage's columns of an all-stages matrix.
std::vector<std::uint8_t> last_stage(const std::vector<std::uint8_t>& all,
                                     std::size_t num_words,
                                     std::size_t num_stages, std::size_t n) {
  std::vector<std::uint8_t> out(num_words * n);
  for (std::size_t w = 0; w < num_words; ++w) {
    for (std::size_t ch = 0; ch < n; ++ch) {
      out[w * n + ch] = all[(w * num_stages + num_stages - 1) * n + ch];
    }
  }
  return out;
}

/// Random primary bytes, non-canonical nonzero values included.
std::vector<std::uint8_t> random_primary(std::mt19937& rng,
                                         std::size_t num_words,
                                         std::size_t cols) {
  std::vector<std::uint8_t> bits(num_words * cols);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() % 4);
  return bits;
}

/// Fused vs staged for every kernel at `precision`, both output forms,
/// plus the StageTimings overload on the active kernel.
void expect_program_matches_oracle(const Fixture& fix, const ProgramSpec& spec,
                                   Precision precision, std::size_t num_words,
                                   const std::vector<std::uint8_t>& primary,
                                   const std::string& what) {
  const EvalProgram program(spec, fix.designer, fix.engine,
                            {.num_threads = 1, .precision = precision});
  const std::size_t n = spec.num_channels();
  const auto want_all =
      staged_oracle(fix, spec, precision, num_words, primary);
  const auto want = last_stage(want_all, num_words, spec.num_stages(), n);
  for (const Kernel* k : available_kernels()) {
    ASSERT_EQ(program.evaluate_bits(num_words, primary, *k), want)
        << what << ": evaluate_bits, kernel " << k->name;
    ASSERT_EQ(program.evaluate_all_bits(num_words, primary, *k), want_all)
        << what << ": evaluate_all_bits, kernel " << k->name;
  }
  sw::wavesim::StageTimings timings(program.num_stages());
  ASSERT_EQ(program.evaluate_bits(num_words, primary, &timings), want)
      << what << ": evaluate_bits with stage timings";
  for (std::size_t s = 0; s < program.num_stages(); ++s) {
    const std::uint64_t ns = timings.ns[s].load();
    if (num_words == 0) {
      EXPECT_EQ(ns, 0u) << what << ": stage " << s;
    } else {
      EXPECT_GT(ns, 0u) << what << ": stage " << s << " has no time";
    }
  }
}

TEST(ProgramEquivalence, RandomProgramsMatchTheStagedOracle) {
  const Fixture fix;
  std::mt19937 rng(20260117);
  bool saw_kind[4] = {false, false, false, false};
  bool saw_negated = false;
  // 24 trials walk every channel count 1-8 three times and every stage
  // count 1-12 twice (7 is coprime to 12).
  for (std::size_t trial = 0; trial < 24; ++trial) {
    const ProgramSpec spec =
        random_program(rng, 1 + trial % 8, 1 + (trial * 7) % 12);
    for (const auto& st : spec.stages) {
      for (const SlotSource& src : st.sources) {
        saw_kind[static_cast<int>(src.kind)] = true;
        saw_negated = saw_negated || src.negated;
      }
    }
    for (const std::size_t words : kWordCounts) {
      const auto primary =
          random_primary(rng, words, spec.primary_slot_count());
      for (const Precision p : kPrecisions) {
        expect_program_matches_oracle(
            fix, spec, p, words, primary,
            "trial " + std::to_string(trial) + " (" +
                std::to_string(spec.num_stages()) + " stages, " +
                std::to_string(spec.num_channels()) + " channels, " +
                std::to_string(words) + " words, " +
                std::string(sw::wavesim::precision_name(p)) + ")");
      }
    }
  }
  for (int kind = 0; kind < 4; ++kind) {
    EXPECT_TRUE(saw_kind[kind]) << "no slot source of kind " << kind;
  }
  EXPECT_TRUE(saw_negated);
}

TEST(ProgramEquivalence, PrimarySlotVariantsMatchTheStagedOracle) {
  // A stage whose slots read the primary columns in order, unflipped (the
  // shape of every layout program), and its variants with a negated slot,
  // a swapped pair or a constant all gather to the oracle's inputs.
  // (MAJ is symmetric, so the swap crosses channels to change the bits.)
  const Fixture fix;
  std::mt19937 rng(77);
  const std::size_t n = 4;
  GateSpec gate;
  gate.num_inputs = 3;
  gate.frequencies = channel_frequencies(n);
  std::vector<SlotSource> in_order(gate.num_inputs * n);
  for (std::size_t i = 0; i < in_order.size(); ++i) {
    in_order[i] = {SlotSource::Kind::kPrimary, 0,
                   static_cast<std::uint32_t>(i), false};
  }
  std::vector<std::vector<SlotSource>> first_stages(4, in_order);
  first_stages[1][5].negated = true;
  std::swap(first_stages[2][0], first_stages[2][4]);  // across channels
  first_stages[3][7] = {SlotSource::Kind::kOne, 0, 0, false};
  for (std::size_t v = 0; v < first_stages.size(); ++v) {
    ProgramSpec spec;
    spec.num_primary_inputs = gate.num_inputs;
    spec.stages.push_back({gate, first_stages[v]});
    // A second stage over the first one's outputs and the primaries.
    sw::wavesim::StageSpec second{gate, in_order};
    for (std::size_t ch = 0; ch < n; ++ch) {
      second.sources[ch * gate.num_inputs] = {
          SlotSource::Kind::kStage, 0, static_cast<std::uint32_t>(ch),
          ch % 2 == 1};
    }
    spec.stages.push_back(second);
    for (const std::size_t words : {1ul, 64ul, 65ul, 1000ul}) {
      const auto primary =
          random_primary(rng, words, spec.primary_slot_count());
      for (const Precision p : kPrecisions) {
        expect_program_matches_oracle(
            fix, spec, p, words, primary,
            "variant " + std::to_string(v) + ", " + std::to_string(words) +
                " words, " + std::string(sw::wavesim::precision_name(p)));
      }
    }
  }
}

/// The program_churn function set for one seed: distinct 4-input tables
/// that depend on all four inputs, drawn from std::mt19937_64(seed).
std::vector<std::uint16_t> full_support_tables(std::uint64_t seed,
                                               std::size_t count) {
  const auto depends_on = [](std::uint16_t t, unsigned input) {
    for (unsigned a = 0; a < 16; ++a) {
      if (((a >> input) & 1u) == 0 &&
          ((t >> a) & 1u) != ((t >> (a | (1u << input))) & 1u)) {
        return true;
      }
    }
    return false;
  };
  std::mt19937_64 rng(seed);
  std::vector<std::uint16_t> tables;
  std::vector<bool> seen(1u << 16, false);
  while (tables.size() < count) {
    const auto t = static_cast<std::uint16_t>(rng());
    if (seen[t]) continue;
    bool full = true;
    for (unsigned i = 0; i < 4; ++i) full = full && depends_on(t, i);
    if (!full) continue;
    seen[t] = true;
    tables.push_back(t);
  }
  return tables;
}

TEST(ProgramEquivalence, ProgramChurnFunctionsMatchOracleAndTruthTable) {
  // The 96 seed-1 functions of the serving benchmark's program_churn
  // workload, lowered onto the paper's 8 channels, on 512-word batches.
  const Fixture fix;
  constexpr std::size_t kChannels = 8;
  constexpr std::size_t kWords = 512;
  GateSpec base;
  base.num_inputs = 3;
  base.frequencies = channel_frequencies(kChannels);
  sw::compile::Synthesizer synth;
  std::mt19937 rng(1);
  for (const std::uint16_t table : full_support_tables(1, 96)) {
    const ProgramSpec spec = sw::compile::lower_to_program(
        synth.compile(sw::compile::TruthTable(4, table)), base);
    const auto primary =
        random_primary(rng, kWords, spec.primary_slot_count());
    std::vector<std::uint8_t> reference(kWords * kChannels);
    for (std::size_t w = 0; w < kWords; ++w) {
      for (std::size_t ch = 0; ch < kChannels; ++ch) {
        unsigned a = 0;
        for (std::size_t i = 0; i < 4; ++i) {
          a |= (primary[w * spec.primary_slot_count() + ch * 4 + i] != 0 ? 1u
                                                                         : 0u)
               << i;
        }
        reference[w * kChannels + ch] =
            static_cast<std::uint8_t>((table >> a) & 1u);
      }
    }
    const std::string what = "table " + std::to_string(table);
    for (const Precision p : kPrecisions) {
      expect_program_matches_oracle(fix, spec, p, kWords, primary, what);
      const EvalProgram program(spec, fix.designer, fix.engine,
                                {.num_threads = 1, .precision = p});
      EXPECT_EQ(program.evaluate_bits(kWords, primary), reference) << what;
      // A lowered circuit has at most two distinct stage gates.
      EXPECT_LE(program.num_stage_designs(), 2u) << what;
    }
  }
}

TEST(ProgramEquivalence, EqualStageGatesShareOneDesign) {
  const Fixture fix;
  GateSpec base;
  base.num_inputs = 3;
  base.frequencies = channel_frequencies(4);
  sw::compile::Synthesizer synth;
  // XOR3 lowers to several stages, some with inverted outputs.
  const ProgramSpec spec = sw::compile::lower_to_program(
      synth.compile(sw::compile::TruthTable(3, 0x96)), base);
  ASSERT_GT(spec.num_stages(), 2u);
  std::vector<GateSpec> distinct;
  for (const auto& st : spec.stages) {
    bool seen = false;
    for (const GateSpec& g : distinct) seen = seen || g == st.gate;
    if (!seen) distinct.push_back(st.gate);
  }
  const EvalProgram program(spec, fix.designer, fix.engine);
  EXPECT_EQ(program.num_stage_designs(), distinct.size());
  for (std::size_t s = 0; s < spec.num_stages(); ++s) {
    for (std::size_t t = 0; t < s; ++t) {
      const bool same = spec.stages[s].gate == spec.stages[t].gate;
      EXPECT_EQ(&program.stage_plan(s) == &program.stage_plan(t), same);
      EXPECT_EQ(&program.stage_gate(s) == &program.stage_gate(t), same);
    }
    EXPECT_EQ(program.stage_gate(s).layout().spec, spec.stages[s].gate);
  }
}

}  // namespace

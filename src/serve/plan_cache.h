// LRU cache of ready-to-run evaluation programs, keyed by the target's
// canonical bytes *plus the evaluation precision*, with collision-safe
// full-key comparison.
//
// Every entry is one artefact, a fused wavesim::EvalProgram, whatever the
// request named:
//   * a designed GateLayout becomes a one-stage program over that layout
//     (its gate is the layout, its sources the identity primary columns),
//     keyed by LayoutKey::from(layout) — so two geometries that share one
//     GateSpec never alias;
//   * a ProgramSpec becomes the program its stages design (one design per
//     distinct stage GateSpec), keyed by its canonical program bytes.
// The two key forms carry distinct format tags, so they never compare
// equal, and one lookup path, one build path and one future per slot
// serve both. The expensive part of a build is the SoA EvalPlan per stage
// gate (dispersion lookups plus one steady-phasor solve per (detector,
// source, launch-phase) triple); the cache makes it amortise across every
// request that reuses the target. A plan requested at kFloat32 may come out
// effectively double or block-f32 (the margin-aware fallback, see
// EvalPlan); the cache counts that per stage plan in its stats but still
// files the entry under the f32 key — the verdict is a property of that
// (target, precision) pair, decided once.
//
// Construction for one key is serialised *behind the cache entry*: the
// first caller inserts a pending slot and builds, concurrent callers for
// the same key wait on the slot's shared future instead of racing a second
// build. Distinct targets build concurrently.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/gate_design.h"
#include "serve/layout_hash.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_program.h"
#include "wavesim/precision.h"
#include "wavesim/wave_engine.h"

namespace sw::serve {

struct PlanCacheStats {
  std::uint64_t hits = 0;       ///< lookups served from a cached entry
  std::uint64_t misses = 0;     ///< lookups that triggered a build
  std::uint64_t evictions = 0;  ///< LRU entries dropped to respect capacity
  /// The next three count the stage plans of kFloat32 builds (one per
  /// layout build, one per stage of a program build), each in exactly one
  /// of them. Plans that got f32 everywhere (every detector passed the
  /// margin analysis):
  std::uint64_t f32_plans = 0;
  /// Plans that fell back to the double plan entirely (no detector
  /// passed).
  std::uint64_t f32_fallbacks = 0;
  /// Plans that came out block-f32: a genuine per-detector mix of f32 and
  /// f64 rescue lanes.
  std::uint64_t block_plans = 0;
  /// Detector-granularity mix, accumulated across every f32-requested
  /// build: how many detectors were proved for f32 accumulation vs rescued
  /// to f64 lanes. f32_detectors / (f32_detectors + f64_rescue_detectors)
  /// is the fleet-visible f32 ratio the metrics endpoint exports.
  std::uint64_t f32_detectors = 0;
  std::uint64_t f64_rescue_detectors = 0;
  /// Entries built from a ProgramSpec (layout builds, although one-stage
  /// programs too, leave the four program counters untouched; lookups of
  /// both kinds count into hits/misses/evictions above).
  std::uint64_t program_builds = 0;
  /// Stages across every program built: program_stages / program_builds is
  /// the mean cascade length the service compiles.
  std::uint64_t program_stages = 0;
  /// Deepest stage-to-stage path among built programs (physical cascade
  /// latency in stages).
  std::uint64_t max_program_depth = 0;
  /// Stage gates actually designed across every program built: stages
  /// with equal GateSpecs share one design, so this stays at or below
  /// program_stages (a lowered circuit designs at most two).
  std::uint64_t program_stage_designs = 0;
};

class PlanCache {
 public:
  using ProgramPtr = std::shared_ptr<const sw::wavesim::EvalProgram>;

  /// What an entry is built from, borrowed for the call: a designed layout
  /// (built as a one-stage program) or a ProgramSpec (designed here).
  /// Converts implicitly from either.
  struct Target {
    Target(const sw::core::GateLayout& l) : layout(&l) {}
    Target(const sw::wavesim::ProgramSpec& p) : program(&p) {}
    const sw::core::GateLayout* layout = nullptr;
    const sw::wavesim::ProgramSpec* program = nullptr;
  };

  /// `capacity == 0` means unbounded. The engine must outlive the cache.
  /// evaluator_options.precision (kAuto resolved at construction) is the
  /// default precision for lookups that do not pass one, and
  /// evaluator_options.num_threads sizes each entry's word-loop pool
  /// (default: one inline thread, so evaluation runs on the calling service
  /// worker and cached entries do not each own idle threads). `designer`
  /// enables ProgramSpec targets (they carry design requests, not finished
  /// layouts); when null, program lookups throw. The designer must outlive
  /// the cache.
  PlanCache(const sw::wavesim::WaveEngine& engine, std::size_t capacity,
            sw::wavesim::BatchOptions evaluator_options = {.num_threads = 1},
            const sw::core::InlineGateDesigner* designer = nullptr);

  /// Fast-path lookup: returns the entry when it is cached *and ready*,
  /// nullptr otherwise (counts a hit only when it returns one). Never
  /// blocks and never copies the target beyond its canonical bytes. An
  /// unset precision means default_precision().
  ProgramPtr try_get(Target target,
                     std::optional<sw::wavesim::Precision> precision = {});

  struct Lookup {
    ProgramPtr program;
    bool hit = false;  ///< false when this call performed the build
  };

  /// Returns the cached entry, building it on a miss. One builder per key:
  /// concurrent callers for the same (target, precision) wait on the first
  /// builder's future. A build failure propagates to every waiter and
  /// removes the entry so a later call can retry. A ProgramSpec target is
  /// validated before it can occupy a slot.
  Lookup get_or_build(Target target,
                      std::optional<sw::wavesim::Precision> precision = {});

  PlanCacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// The resolved default precision of this cache's entries.
  sw::wavesim::Precision default_precision() const {
    return evaluator_options_.precision;
  }

 private:
  struct Slot {
    LayoutKey key;
    sw::wavesim::Precision precision = sw::wavesim::Precision::kFloat64;
    std::shared_future<ProgramPtr> program;
    std::uint64_t last_used = 0;
  };

  LayoutKey key_of(const Target& target) const;
  sw::wavesim::Precision resolve(
      std::optional<sw::wavesim::Precision> precision) const;
  static std::uint64_t bucket_hash(const LayoutKey& key,
                                   sw::wavesim::Precision precision);
  Slot* find_locked(const LayoutKey& key, sw::wavesim::Precision precision);
  void evict_for_insert_locked();
  void erase_locked(const LayoutKey& key, sw::wavesim::Precision precision);
  void count_build_locked(const Target& target,
                          const sw::wavesim::EvalProgram& built,
                          sw::wavesim::Precision precision);

  const sw::wavesim::WaveEngine* engine_;
  std::size_t capacity_;
  sw::wavesim::BatchOptions evaluator_options_;
  const sw::core::InlineGateDesigner* designer_ = nullptr;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<Slot>> slots_;
  std::size_t size_ = 0;
  std::uint64_t tick_ = 0;
  PlanCacheStats stats_;
};

}  // namespace sw::serve

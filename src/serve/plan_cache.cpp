#include "serve/plan_cache.h"

#include <chrono>
#include <utility>

#include "util/error.h"

namespace sw::serve {

namespace {

bool ready(const std::shared_future<PlanCache::ProgramPtr>& fut) {
  return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

}  // namespace

PlanCache::PlanCache(const sw::wavesim::WaveEngine& engine,
                     std::size_t capacity,
                     sw::wavesim::BatchOptions evaluator_options,
                     const sw::core::InlineGateDesigner* designer)
    : engine_(&engine),
      capacity_(capacity),
      evaluator_options_(evaluator_options),
      designer_(designer) {
  // Resolve kAuto once so every entry, key and stat of this cache agrees
  // on the precision even if the environment changes mid-run.
  evaluator_options_.precision =
      sw::wavesim::resolve_precision(evaluator_options_.precision);
}

LayoutKey PlanCache::key_of(const Target& target) const {
  if (target.layout != nullptr) return LayoutKey::from(*target.layout);
  SW_REQUIRE(designer_ != nullptr,
             "plan cache was built without a designer; cannot serve programs");
  return LayoutKey::from(*target.program);
}

sw::wavesim::Precision PlanCache::resolve(
    std::optional<sw::wavesim::Precision> precision) const {
  return precision ? sw::wavesim::resolve_precision(*precision)
                   : evaluator_options_.precision;
}

std::uint64_t PlanCache::bucket_hash(const LayoutKey& key,
                                     sw::wavesim::Precision precision) {
  // The precision bit is part of the cache key: an f32 and an f64 entry for
  // one target are distinct artefacts (different arrays, different margin
  // verdicts) and must never alias. Golden-ratio mixing keeps the two
  // variants in unrelated buckets instead of chaining in one.
  return precision == sw::wavesim::Precision::kFloat32
             ? key.hash() ^ 0x9e3779b97f4a7c15ull
             : key.hash();
}

PlanCache::Slot* PlanCache::find_locked(const LayoutKey& key,
                                        sw::wavesim::Precision precision) {
  const auto bucket = slots_.find(bucket_hash(key, precision));
  if (bucket == slots_.end()) return nullptr;
  for (auto& slot : bucket->second) {
    if (slot.precision == precision && slot.key == key) return &slot;
  }
  return nullptr;
}

void PlanCache::evict_for_insert_locked() {
  while (capacity_ > 0 && size_ >= capacity_) {
    // Evict the least-recently-used *ready* slot; a slot still building is
    // pinned (its builder and waiters are live). If every slot is
    // building, temporarily exceed capacity rather than stall the insert.
    std::unordered_map<std::uint64_t, std::vector<Slot>>::iterator
        victim_bucket = slots_.end();
    std::size_t victim_index = 0;
    std::uint64_t oldest = 0;
    bool found = false;
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        const Slot& slot = it->second[i];
        if (!ready(slot.program)) continue;
        if (!found || slot.last_used < oldest) {
          found = true;
          oldest = slot.last_used;
          victim_bucket = it;
          victim_index = i;
        }
      }
    }
    if (!found) return;
    auto& vec = victim_bucket->second;
    vec.erase(vec.begin() + static_cast<std::ptrdiff_t>(victim_index));
    if (vec.empty()) slots_.erase(victim_bucket);
    --size_;
    ++stats_.evictions;
  }
}

void PlanCache::erase_locked(const LayoutKey& key,
                             sw::wavesim::Precision precision) {
  const auto bucket = slots_.find(bucket_hash(key, precision));
  if (bucket == slots_.end()) return;
  auto& vec = bucket->second;
  for (std::size_t i = 0; i < vec.size(); ++i) {
    if (vec[i].precision == precision && vec[i].key == key) {
      vec.erase(vec.begin() + static_cast<std::ptrdiff_t>(i));
      if (vec.empty()) slots_.erase(bucket);
      --size_;
      return;
    }
  }
}

PlanCache::ProgramPtr PlanCache::try_get(
    Target target, std::optional<sw::wavesim::Precision> precision) {
  const sw::wavesim::Precision p = resolve(precision);
  const LayoutKey key = key_of(target);
  std::shared_future<ProgramPtr> fut;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Slot* slot = find_locked(key, p);
    if (slot == nullptr || !ready(slot->program)) return nullptr;
    ++stats_.hits;
    slot->last_used = ++tick_;
    fut = slot->program;
  }
  // A ready slot always carries a value: failed builds erase their slot
  // before publishing the exception, so they are never observable here.
  return fut.get();
}

void PlanCache::count_build_locked(const Target& target,
                                   const sw::wavesim::EvalProgram& built,
                                   sw::wavesim::Precision precision) {
  if (target.program != nullptr) {
    ++stats_.program_builds;
    stats_.program_stages += built.num_stages();
    stats_.program_stage_designs += built.num_stage_designs();
    if (built.depth() > stats_.max_program_depth) {
      stats_.max_program_depth = built.depth();
    }
  }
  if (precision != sw::wavesim::Precision::kFloat32) return;
  // Per stage plan: exactly one of the three per-build counters, plus the
  // detector-granularity mix either way.
  for (std::size_t s = 0; s < built.num_stages(); ++s) {
    const auto& plan = built.stage_plan(s);
    if (plan.has_f32()) {
      ++stats_.f32_plans;
    } else if (plan.is_block()) {
      ++stats_.block_plans;
    } else {
      ++stats_.f32_fallbacks;
    }
    stats_.f32_detectors += plan.num_f32_detectors();
    stats_.f64_rescue_detectors += plan.num_f64_rescue_detectors();
  }
}

PlanCache::Lookup PlanCache::get_or_build(
    Target target, std::optional<sw::wavesim::Precision> precision) {
  const LayoutKey key = key_of(target);
  // Reject malformed specs before touching the cache: a spec that cannot
  // validate must not occupy a slot (its build would fail every time).
  if (target.program != nullptr) target.program->validate();
  const sw::wavesim::Precision p = resolve(precision);
  std::promise<ProgramPtr> builder;
  std::shared_future<ProgramPtr> fut;
  bool build_here = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Slot* slot = find_locked(key, p)) {
      ++stats_.hits;
      slot->last_used = ++tick_;
      fut = slot->program;
    } else {
      ++stats_.misses;
      evict_for_insert_locked();
      Slot fresh;
      fresh.key = key;
      fresh.precision = p;
      fresh.program = builder.get_future().share();
      fresh.last_used = ++tick_;
      fut = fresh.program;
      slots_[bucket_hash(key, p)].push_back(std::move(fresh));
      ++size_;
      build_here = true;
    }
  }
  if (build_here) {
    try {
      sw::wavesim::BatchOptions options = evaluator_options_;
      options.precision = p;
      auto built =
          target.layout != nullptr
              ? std::make_shared<const sw::wavesim::EvalProgram>(
                    *target.layout, *engine_, options)
              : std::make_shared<const sw::wavesim::EvalProgram>(
                    *target.program, *designer_, *engine_, options);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        count_build_locked(target, *built, p);
      }
      builder.set_value(std::move(built));
    } catch (...) {
      // Drop the poisoned entry first so no new lookup can ever observe a
      // ready-with-exception slot, then wake the waiters with the error.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        erase_locked(key, p);
      }
      builder.set_exception(std::current_exception());
    }
  }
  return {fut.get(), !build_here};
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

}  // namespace sw::serve

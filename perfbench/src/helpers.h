// Pure helpers of the serving benchmark: seeded input generation, arrival
// schedules, percentile selection and the Boolean reference every reply is
// checked against. Header-only and free of I/O so tests/test_helpers.cpp
// can pin their behaviour.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// The generator behind every seeded draw: the same seed gives the same
/// inputs on every host (std::mt19937_64's sequence is fixed by the
/// standard; the distributions below are hand-rolled for the same reason,
/// since std::*_distribution output is implementation-defined).
using Rng = std::mt19937_64;

/// Uniform double in [0, 1) from the top 53 bits.
inline double uniform01(Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Uniform integer in [lo, hi] (inclusive; modulo bias is negligible for
/// the small ranges drawn here).
inline std::uint64_t uniform_int(Rng& rng, std::uint64_t lo,
                                 std::uint64_t hi) {
  return lo + rng() % (hi - lo + 1);
}

/// Row-major num_words x num_cols matrix of random 0/1 bytes.
inline std::vector<std::uint8_t> random_bits(Rng& rng, std::size_t num_words,
                                             std::size_t num_cols) {
  std::vector<std::uint8_t> bits(num_words * num_cols);
  std::size_t i = 0;
  while (i < bits.size()) {
    std::uint64_t word = rng();
    for (int b = 0; b < 64 && i < bits.size(); ++b, ++i) {
      bits[i] = static_cast<std::uint8_t>((word >> b) & 1u);
    }
  }
  return bits;
}

/// Open-loop arrival schedule: Poisson arrivals at `rate_per_s` over
/// `duration_s`, as due offsets in nanoseconds from the schedule start.
/// Deterministic per seed.
inline std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                                  double rate_per_s,
                                                  double duration_s) {
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0)) {
    throw std::invalid_argument("poisson_schedule needs rate, duration > 0");
  }
  Rng rng(seed);
  std::vector<std::int64_t> due;
  due.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // Exponential gap by inversion; 1 - u is in (0, 1], so log is finite.
    t += -std::log(1.0 - uniform01(rng)) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return due;
}

/// Nearest-rank percentile (p in [0, 1]) of an ascending-sorted sample.
inline double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// The highest percentile on the ladder 50, 90, 99, 99.9, 99.99 that keeps
/// at least `min_beyond` samples above it; 0 when not even the median
/// does. A tail figure is only as good as the samples behind it.
inline double supported_tail_percentile(std::size_t samples,
                                        std::size_t min_beyond = 10) {
  constexpr double kLadder[] = {0.5, 0.9, 0.99, 0.999, 0.9999};
  double best = 0.0;
  for (double p : kLadder) {
    // Samples strictly beyond the nearest-rank index of p.
    const double rank = std::ceil(p * static_cast<double>(samples));
    const double beyond = static_cast<double>(samples) - rank;
    if (samples > 0 && beyond >= static_cast<double>(min_beyond)) best = p;
  }
  return best;
}

/// Boolean reference of the paper's gate: per word and channel, the
/// majority of the channel's `num_inputs` input bits (slot = channel *
/// num_inputs + input, the packed layout of evaluate_bits). Odd fan-in
/// only, as on the fabric.
inline std::vector<std::uint8_t> majority_reference(
    std::span<const std::uint8_t> packed, std::size_t num_words,
    std::size_t num_channels, std::size_t num_inputs) {
  if (num_inputs % 2 == 0 ||
      packed.size() != num_words * num_channels * num_inputs) {
    throw std::invalid_argument("majority_reference: bad shape");
  }
  std::vector<std::uint8_t> out(num_words * num_channels);
  for (std::size_t w = 0; w < num_words; ++w) {
    for (std::size_t ch = 0; ch < num_channels; ++ch) {
      const std::uint8_t* in = &packed[(w * num_channels + ch) * num_inputs];
      std::size_t ones = 0;
      for (std::size_t i = 0; i < num_inputs; ++i) ones += in[i] != 0;
      out[w * num_channels + ch] = ones * 2 > num_inputs ? 1 : 0;
    }
  }
  return out;
}

/// Boolean reference of a compiled function: per word and channel, bit
/// `a` of `table_bits` where assignment bit i of `a` is the channel's
/// primary input i (column ch * num_inputs + i, the ProgramSpec packing).
inline std::vector<std::uint8_t> truth_table_reference(
    std::uint16_t table_bits, std::span<const std::uint8_t> packed,
    std::size_t num_words, std::size_t num_channels,
    std::size_t num_inputs) {
  if (num_inputs == 0 || num_inputs > 4 ||
      packed.size() != num_words * num_channels * num_inputs) {
    throw std::invalid_argument("truth_table_reference: bad shape");
  }
  std::vector<std::uint8_t> out(num_words * num_channels);
  for (std::size_t w = 0; w < num_words; ++w) {
    for (std::size_t ch = 0; ch < num_channels; ++ch) {
      const std::uint8_t* in = &packed[(w * num_channels + ch) * num_inputs];
      unsigned a = 0;
      for (std::size_t i = 0; i < num_inputs; ++i) {
        a |= (in[i] != 0 ? 1u : 0u) << i;
      }
      out[w * num_channels + ch] =
          static_cast<std::uint8_t>((table_bits >> a) & 1u);
    }
  }
  return out;
}

/// Distinct 4-input truth tables that depend on all four inputs (so each
/// compiles to a real cascade), drawn uniformly per seed.
inline std::vector<std::uint16_t> random_full_support_tables(
    std::uint64_t seed, std::size_t count) {
  const auto depends_on = [](std::uint16_t t, unsigned input) {
    for (unsigned a = 0; a < 16; ++a) {
      if (((a >> input) & 1u) == 0 &&
          ((t >> a) & 1u) != ((t >> (a | (1u << input))) & 1u)) {
        return true;
      }
    }
    return false;
  };
  Rng rng(seed);
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

/// Zipf-like draw over keys [0, n): P(k) proportional to 1 / (k + 1)^s.
/// Key 0 is the hottest.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    if (n == 0) throw std::invalid_argument("ZipfSampler needs n > 0");
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (auto& c : cdf_) c /= sum;
    cdf_.back() = 1.0;
  }

  std::size_t size() const { return cdf_.size(); }

  std::size_t operator()(Rng& rng) const {
    const double u = uniform01(rng);
    return static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Log-bucketed histogram with 1% wide buckets from 0.1 up to 1e8 (in
/// whatever unit is recorded, microseconds here), plus an overflow bucket
/// that also takes +inf (a failed request). Memory is fixed, so the
/// benchmark's own bookkeeping does not grow with throughput and leaves
/// the peak RSS to the program. Percentiles interpolate within a bucket,
/// so they are within 1% of the exact order statistic.
class LogHistogram {
 public:
  static constexpr double kLow = 0.1;
  static constexpr double kRatio = 1.01;
  static constexpr std::size_t kBuckets = 2084;  ///< ln(1e9)/ln(1.01)

  LogHistogram() : counts_(kBuckets + 1, 0) {}

  void record(double v) {
    ++counts_[index(v)];
    ++count_;
  }

  void merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  /// Nearest-rank percentile (p in [0, 1]), interpolated linearly inside
  /// its bucket; +inf when the rank falls in the overflow bucket, 0 when
  /// empty.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = std::max(1.0, std::ceil(p * static_cast<double>(count_)));
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(below + counts_[i]) >= rank) {
        if (i == kBuckets) return std::numeric_limits<double>::infinity();
        const double hi = upper_bound(i);
        const double lo = i == 0 ? 0.0 : upper_bound(i - 1);
        const double frac = (rank - static_cast<double>(below)) /
                            static_cast<double>(counts_[i]);
        return lo + frac * (hi - lo);
      }
      below += counts_[i];
    }
    return std::numeric_limits<double>::infinity();
  }

  /// Share of records at or below `v` (bucket resolution).
  double fraction_at_most(double v) const {
    if (count_ == 0) return 1.0;
    std::uint64_t n = 0;
    for (std::size_t i = 0; i <= index(v) && i < counts_.size(); ++i) n += counts_[i];
    return static_cast<double>(n) / static_cast<double>(count_);
  }

  static double upper_bound(std::size_t i) {
    return kLow * std::pow(kRatio, static_cast<double>(i));
  }

 private:
  static std::size_t index(double v) {
    if (!(v > kLow)) return 0;  // also NaN
    if (!std::isfinite(v)) return kBuckets;
    const double i = std::ceil(std::log(v / kLow) / std::log(kRatio));
    return i >= static_cast<double>(kBuckets) ? kBuckets
                                               : static_cast<std::size_t>(i);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// Median of a sample (mean of the middle two for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace perfbench

// Tests of the serving benchmark's own helpers: the open-loop arrival
// schedule, percentile choice, the Boolean references replies are checked against, the Zipf draw of
// program_churn and the span log's self-time table.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "helpers.h"
#include "spans.h"

namespace perfbench {
namespace {

TEST(PoissonSchedule, SameSeedSameScheduleOtherSeedOther) {
  const auto a = poisson_schedule(7, 20000.0, 0.5);
  const auto b = poisson_schedule(7, 20000.0, 0.5);
  const auto c = poisson_schedule(8, 20000.0, 0.5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonSchedule, AscendingWithinDurationAtTheOfferedRate) {
  const double rate = 50000.0, seconds = 2.0;
  const auto due = poisson_schedule(11, rate, seconds);
  ASSERT_FALSE(due.empty());
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_GE(due.front(), 0);
  EXPECT_LT(due.back(), static_cast<std::int64_t>(seconds * 1e9));
  // 100k expected arrivals: the count's standard deviation is ~316.
  EXPECT_NEAR(static_cast<double>(due.size()), rate * seconds, 2000.0);
  EXPECT_THROW(poisson_schedule(1, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(poisson_schedule(1, 10.0, -1.0), std::invalid_argument);
}

TEST(Percentiles, HighestPercentileWithTenSamplesBeyondIt) {
  EXPECT_EQ(supported_tail_percentile(0), 0.0);
  EXPECT_EQ(supported_tail_percentile(19), 0.0);
  EXPECT_EQ(supported_tail_percentile(20), 0.5);
  EXPECT_EQ(supported_tail_percentile(99), 0.5);
  EXPECT_EQ(supported_tail_percentile(100), 0.9);
  EXPECT_EQ(supported_tail_percentile(999), 0.9);
  EXPECT_EQ(supported_tail_percentile(1000), 0.99);
  EXPECT_EQ(supported_tail_percentile(10000), 0.999);
  EXPECT_EQ(supported_tail_percentile(100000), 0.9999);
  EXPECT_EQ(supported_tail_percentile(1000, 11), 0.9);
}

TEST(Percentiles, NearestRankOnSortedSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile_sorted(v, 0.5), 50.0);
  EXPECT_EQ(percentile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(percentile_sorted(v, 1.0), 100.0);
  EXPECT_EQ(percentile_sorted(v, 0.0), 1.0);
  EXPECT_EQ(percentile_sorted({}, 0.5), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(LogHistogram, PercentilesWithinOnePercentOfExact) {
  Rng rng(5);
  LogHistogram h;
  std::vector<double> exact;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over 10 us .. 100 ms, the span the latencies cover.
    const double v = 10.0 * std::pow(1e4, uniform01(rng));
    h.record(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  ASSERT_EQ(h.count(), exact.size());
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    const double want = percentile_sorted(exact, p);
    EXPECT_NEAR(h.percentile(p), want, 0.011 * want) << "p=" << p;
  }
  EXPECT_NEAR(h.fraction_at_most(100.0), 0.25, 0.02);
}

TEST(LogHistogram, FailuresLandInTheOverflowBucket) {
  LogHistogram h;
  for (int i = 0; i < 98; ++i) h.record(100.0);
  h.record(std::numeric_limits<double>::infinity());
  h.record(std::numeric_limits<double>::infinity());
  EXPECT_NEAR(h.percentile(0.98), 100.0, 1.0);
  EXPECT_TRUE(std::isinf(h.percentile(0.99)));
  LogHistogram other;
  other.record(0.0);
  h.merge(other);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_EQ(LogHistogram().percentile(0.5), 0.0);
}

TEST(BooleanReference, MajorityOfEachChannelsInputs) {
  // Two channels, every 3-input pattern on channel 0, its complement on 1.
  std::vector<std::uint8_t> packed;
  for (unsigned a = 0; a < 8; ++a) {
    for (unsigned i = 0; i < 3; ++i) packed.push_back((a >> i) & 1u);
    for (unsigned i = 0; i < 3; ++i) packed.push_back(((a >> i) & 1u) ^ 1u);
  }
  const auto out = majority_reference(packed, 8, 2, 3);
  const std::array<std::uint8_t, 8> maj = {0, 0, 0, 1, 0, 1, 1, 1};
  for (unsigned a = 0; a < 8; ++a) {
    EXPECT_EQ(out[a * 2], maj[a]) << a;
    EXPECT_EQ(out[a * 2 + 1], maj[a] ^ 1u) << a;
  }
  EXPECT_THROW(majority_reference(packed, 8, 2, 2), std::invalid_argument);
  EXPECT_THROW(majority_reference(packed, 9, 2, 3), std::invalid_argument);
}

TEST(BooleanReference, TruthTableMatchesMajorityAndArbitraryTables) {
  Rng rng(3);
  const auto packed = random_bits(rng, 64, 8 * 3);
  // 0xE8 is MAJ3 as a table (bit a = f(a), input i = bit i of a).
  EXPECT_EQ(truth_table_reference(0xE8, packed, 64, 8, 3),
            majority_reference(packed, 64, 8, 3));
  const std::uint16_t table = 0x6F1B;
  const auto in4 = random_bits(rng, 32, 2 * 4);
  const auto out = truth_table_reference(table, in4, 32, 2, 4);
  for (std::size_t w = 0; w < 32; ++w) {
    for (std::size_t ch = 0; ch < 2; ++ch) {
      unsigned a = 0;
      for (unsigned i = 0; i < 4; ++i) a |= in4[(w * 2 + ch) * 4 + i] << i;
      EXPECT_EQ(out[w * 2 + ch], (table >> a) & 1u);
    }
  }
  EXPECT_THROW(truth_table_reference(table, in4, 32, 2, 5),
               std::invalid_argument);
}

TEST(ZipfSampler, DrawCoversTheKeySetWithKeyZeroHottest) {
  ZipfSampler zipf(96, 1.0);
  Rng rng(42);
  std::vector<std::size_t> hits(96, 0);
  for (int i = 0; i < 200000; ++i) {
    const std::size_t k = zipf(rng);
    ASSERT_LT(k, 96u);
    ++hits[k];
  }
  for (std::size_t k = 0; k < 96; ++k) EXPECT_GT(hits[k], 0u) << k;
  EXPECT_EQ(std::max_element(hits.begin(), hits.end()) - hits.begin(), 0);
  // P(0) / P(95) = 96 for s = 1.
  EXPECT_NEAR(static_cast<double>(hits[0]) / static_cast<double>(hits[95]),
              96.0, 25.0);
  Rng a(9), b(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf(a), zipf(b));
}

TEST(FunctionSet, DistinctFullSupportTablesPerSeed) {
  const auto tables = random_full_support_tables(1, 96);
  ASSERT_EQ(tables.size(), 96u);
  EXPECT_EQ(tables, random_full_support_tables(1, 96));
  EXPECT_NE(tables, random_full_support_tables(2, 96));
  auto sorted = tables;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  for (std::uint16_t t : tables) {
    for (unsigned i = 0; i < 4; ++i) {
      bool depends = false;
      for (unsigned a = 0; a < 16; ++a) {
        depends = depends || (((t >> a) ^ (t >> (a ^ (1u << i)))) & 1u);
      }
      EXPECT_TRUE(depends) << t << " ignores input " << i;
    }
  }
}

TEST(SpanLog, SelfTimeSubtractsTheUnionOfClippedChildren) {
  SpanLog log(true);
  const auto root = log.add("root", 0, 100'000);
  log.add("child", 10'000, 30'000, root);
  log.add("child", 20'000, 25'000, root);   // overlaps the first child
  log.add("child", 90'000, 120'000, root);  // clipped to the parent at 100
  const auto table = log.layer_table();
  EXPECT_EQ(table.at("root").count, 1u);
  EXPECT_DOUBLE_EQ(table.at("root").total_us, 100.0);
  EXPECT_DOUBLE_EQ(table.at("root").self_us, 70.0);
  EXPECT_EQ(table.at("child").count, 3u);
  EXPECT_DOUBLE_EQ(table.at("child").self_us, 55.0);
  SpanLog off(false);
  EXPECT_EQ(off.add("x", 0, 1), -1);
  EXPECT_EQ(off.size(), 0u);
}

}  // namespace
}  // namespace perfbench

// Unit tests for src/common: Status/Result, Rng determinism and
// distribution sanity, statistics, and formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace rstore {
namespace {

// ---------------------------------------------------------------- Status --
TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s(ErrorCode::kNotFound, "region 'x'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "region 'x'");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: region 'x'");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ToString(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.status().code(), ErrorCode::kOk);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(ErrorCode::kOutOfRange, "offset past end");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// ------------------------------------------------------------------- Rng --
TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(RngTest, NextBelowCoversSmallRangeUniformly) {
  Rng rng(99);
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBelow(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 8, kDraws / 8 * 0.1);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, FillWritesAllBytes) {
  Rng rng(3);
  std::vector<unsigned char> buf(37, 0);
  rng.Fill(buf.data(), buf.size());
  // Chance of any byte staying zero is small but nonzero; count zeros.
  int zeros = static_cast<int>(std::count(buf.begin(), buf.end(), 0));
  EXPECT_LT(zeros, 5);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(42);
  Rng child = parent.Fork();
  Rng parent2(42);
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.Next(), child2.Next());
  // Child stream differs from parent stream.
  Rng p(42);
  (void)p.Next();  // advance past the fork draw
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (p.Next() == child.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, StableHashIsStable) {
  EXPECT_EQ(StableHash64("rstore"), StableHash64("rstore"));
  EXPECT_NE(StableHash64("rstore"), StableHash64("rstorf"));
  EXPECT_NE(StableHash64(""), StableHash64("a"));
}

// ----------------------------------------------------------------- Stats --
TEST(SummaryStatsTest, Empty) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryStatsTest, KnownMoments) {
  SummaryStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(LatencyHistogramTest, QuantilesApproximateTruth) {
  LatencyHistogram h;
  Rng rng(17);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = 100 + rng.NextBelow(100000);
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const uint64_t truth = values[static_cast<size_t>(q * (values.size() - 1))];
    const uint64_t approx = h.Quantile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(truth),
                static_cast<double>(truth) * 0.08)
        << "q=" << q;
  }
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());
}

TEST(LatencyHistogramTest, MergeEqualsCombinedStream) {
  LatencyHistogram a, b, both;
  Rng rng(23);
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = 1 + rng.NextBelow(1u << 20);
    ((i % 2) ? a : b).Add(v);
    both.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_EQ(a.Quantile(0.5), both.Quantile(0.5));
  EXPECT_EQ(a.Quantile(0.99), both.Quantile(0.99));
}

TEST(LatencyHistogramTest, MergeAcrossGrowthFactorsPreservesMoments) {
  LatencyHistogram fine(1.02), coarse(1.5);
  Rng rng(41);
  std::vector<uint64_t> values;
  for (int i = 0; i < 4000; ++i) {
    uint64_t v = 10 + rng.NextBelow(1u << 18);
    values.push_back(v);
    ((i % 2) ? fine : coarse).Add(v);
  }
  std::sort(values.begin(), values.end());
  const uint64_t n = values.size();
  double sum = 0;
  for (uint64_t v : values) sum += static_cast<double>(v);

  fine.Merge(coarse);
  // Count, extremes, and mean survive re-bucketing exactly.
  EXPECT_EQ(fine.count(), n);
  EXPECT_EQ(fine.min(), values.front());
  EXPECT_EQ(fine.max(), values.back());
  EXPECT_NEAR(fine.mean(), sum / static_cast<double>(n),
              sum / static_cast<double>(n) * 1e-12);
  // Quantiles stay within the coarser histogram's relative error band.
  for (double q : {0.5, 0.9, 0.99}) {
    const uint64_t truth = values[static_cast<size_t>(q * (n - 1))];
    EXPECT_NEAR(static_cast<double>(fine.Quantile(q)),
                static_cast<double>(truth),
                static_cast<double>(truth) * 0.5)
        << "q=" << q;
  }
}

TEST(LatencyHistogramTest, QuantileInterpolatesWithinBucket) {
  // One coarse bucket ([1024, 4096) at growth 4) holding a uniform
  // spread: without in-bucket interpolation every quantile would
  // collapse to one point.
  LatencyHistogram h(4.0);
  for (uint64_t v = 1024; v < 4096; v += 3) h.Add(v);
  const uint64_t p10 = h.Quantile(0.1);
  const uint64_t p50 = h.Quantile(0.5);
  const uint64_t p90 = h.Quantile(0.9);
  EXPECT_LT(p10, p50);
  EXPECT_LT(p50, p90);
  // Interpolated results track the uniform spread, not the bucket edge.
  EXPECT_NEAR(static_cast<double>(p50), 2560.0, 320.0);
  // All results stay inside the observed range.
  EXPECT_GE(p10, h.min());
  EXPECT_LE(p90, h.max());
  // A single-sample histogram pins every quantile to that sample.
  LatencyHistogram one(4.0);
  one.Add(777);
  EXPECT_EQ(one.Quantile(0.0), 777u);
  EXPECT_EQ(one.Quantile(0.5), 777u);
  EXPECT_EQ(one.Quantile(1.0), 777u);
}

// Far-tail accuracy: p999 and p9999 of a heavy-tailed stream must land
// within one bucket of the exact order statistic — i.e. within the
// histogram's growth factor relative error. The fan-in experiment (E13)
// reports p999 under coordinated-omission-safe timing, so tail fidelity
// of the histogram itself has to be pinned.
TEST(LatencyHistogramTest, FarTailQuantilesWithinOneBucket) {
  LatencyHistogram h;
  Rng rng(99);
  std::vector<uint64_t> values;
  values.reserve(200000);
  for (int i = 0; i < 200000; ++i) {
    // Log-uniform spread over [1us, ~1s): exercises many buckets and
    // puts real mass in the far tail.
    const double u = rng.NextDouble();
    const uint64_t v =
        static_cast<uint64_t>(1000.0 * std::pow(1.0e6, u));
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.999, 0.9999}) {
    const uint64_t truth = values[static_cast<size_t>(q * (values.size() - 1))];
    const double approx = static_cast<double>(h.Quantile(q));
    // One bucket of slack on either side of the exact value.
    EXPECT_GE(approx, static_cast<double>(truth) / h.growth()) << "q=" << q;
    EXPECT_LE(approx, static_cast<double>(truth) * h.growth()) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}


TEST(ZipfTest, DistributionIsSkewedAndComplete) {
  ZipfGenerator zipf(100, 0.99, 7);
  std::vector<int> counts(100, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t k = zipf.Next();
    ASSERT_LT(k, 100u);
    ++counts[k];
  }
  // Head dominates: item 0 drawn far more than item 50.
  EXPECT_GT(counts[0], 10 * std::max(counts[50], 1));
  // Monotone-ish head.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
  // Theoretical head mass for theta=0.99, n=100 is ~19%.
  EXPECT_NEAR(static_cast<double>(counts[0]) / kDraws, 0.19, 0.03);
}

TEST(ZipfTest, DeterministicPerSeed) {
  ZipfGenerator a(64, 0.99, 3), b(64, 0.99, 3), c(64, 0.99, 4);
  bool all_same = true;
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    all_same = all_same && (x == c.Next());
  }
  EXPECT_FALSE(all_same);
}

TEST(ZipfTest, ThetaZeroIsUniformish) {
  ZipfGenerator zipf(10, 0.0, 9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Next()];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

// Goodness of fit against the analytic Zipf pmf across the skew range the
// load engine exposes (--skew): Pearson chi-square over n=50 categories.
// With fixed seeds the statistic is deterministic; the bound is the
// chi-square 99.9th percentile for 49 degrees of freedom (~85.4) with
// headroom, so it fails only if the sampler's distribution is wrong, not
// from unlucky draws.
TEST(ZipfTest, ChiSquareMatchesAnalyticPmf) {
  constexpr uint64_t kN = 50;
  constexpr int kDraws = 200000;
  for (double theta : {0.5, 0.99, 1.2}) {
    double harmonic = 0;
    for (uint64_t i = 0; i < kN; ++i) {
      harmonic += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    }
    ZipfGenerator zipf(kN, theta, 1234);
    std::vector<int> counts(kN, 0);
    for (int i = 0; i < kDraws; ++i) ++counts[zipf.Next()];
    double chi2 = 0;
    for (uint64_t i = 0; i < kN; ++i) {
      const double expected =
          kDraws / (std::pow(static_cast<double>(i + 1), theta) * harmonic);
      const double d = counts[i] - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 100.0) << "theta=" << theta;
  }
}

// Pins the exact first draws for a fixed seed. The E13 fan-in benchmark's
// bit-identical reruns rest on every stochastic input being a pure
// function of the seed; a change to the sampler's
// consumption of Rng bits would silently invalidate recorded baselines.
TEST(ZipfTest, FirstDrawsArePinnedForSeed42) {
  ZipfGenerator zipf(1024, 0.99, 42);
  const uint64_t expected[16] = {0,   9, 97,  592, 964, 190, 131, 343,
                                 179, 47, 99, 4,   239, 6,   123, 420};
  for (uint64_t e : expected) EXPECT_EQ(zipf.Next(), e);
}

// ------------------------------------------------------------- Formatting --
TEST(FormatTest, Bytes) {
  EXPECT_EQ(FormatBytes(17), "17 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatBytes(3ULL << 20), "3.0 MiB");
  EXPECT_EQ(FormatBytes(5ULL << 30), "5.0 GiB");
}

TEST(FormatTest, Duration) {
  EXPECT_EQ(FormatDuration(999), "999 ns");
  EXPECT_EQ(FormatDuration(1500), "1.50 us");
  EXPECT_EQ(FormatDuration(2'500'000), "2.50 ms");
  EXPECT_EQ(FormatDuration(31'700'000'000ULL), "31.70 s");
}

TEST(FormatTest, Gbps) { EXPECT_EQ(FormatGbps(705e9), "705.00 Gb/s"); }

}  // namespace
}  // namespace rstore

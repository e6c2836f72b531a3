// Tests for histogram binning: per-strategy behaviour plus parameterized
// invariants shared by all strategies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "src/stats/discretizer.h"
#include "src/stats/histogram.h"
#include "src/util/rng.h"

namespace dbx {
namespace {

std::vector<double> UniformValues(size_t n, double lo, double hi,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.NextUniform(lo, hi);
  return v;
}

TEST(CompactNumberTest, Formats) {
  EXPECT_EQ(CompactNumber(20000), "20K");
  EXPECT_EQ(CompactNumber(25500), "25.5K");
  EXPECT_EQ(CompactNumber(1500000), "1.5M");
  EXPECT_EQ(CompactNumber(2000000), "2M");
  EXPECT_EQ(CompactNumber(37.5), "37.5");
  EXPECT_EQ(CompactNumber(12), "12");
}

TEST(BinsTest, BinOfClampsAndHandlesNan) {
  Bins b;
  b.edges = {0.0, 10.0, 20.0};
  EXPECT_EQ(b.BinOf(-5.0), 0);
  EXPECT_EQ(b.BinOf(0.0), 0);
  EXPECT_EQ(b.BinOf(9.99), 0);
  EXPECT_EQ(b.BinOf(10.0), 1);
  EXPECT_EQ(b.BinOf(20.0), 1);
  EXPECT_EQ(b.BinOf(25.0), 1);
  EXPECT_EQ(b.BinOf(std::nan("")), -1);
}

TEST(BinsTest, LabelUsesCompactForm) {
  Bins b;
  b.edges = {10000.0, 20000.0, 30000.0};
  EXPECT_EQ(b.LabelOf(0), "10K-20K");
  EXPECT_EQ(b.LabelOf(1), "20K-30K");
}

TEST(BuildBinsTest, EquiWidthEdgesAreUniform) {
  auto bins = BuildBins({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5,
                        BinStrategy::kEquiWidth);
  ASSERT_TRUE(bins.ok());
  ASSERT_EQ(bins->num_bins(), 5u);
  for (size_t i = 0; i + 1 < bins->edges.size(); ++i) {
    EXPECT_NEAR(bins->edges[i + 1] - bins->edges[i], 2.0, 1e-12);
  }
}

TEST(BuildBinsTest, EquiDepthBalancesCounts) {
  std::vector<double> v = UniformValues(10000, 0, 100, 3);
  auto bins = BuildBins(v, 4, BinStrategy::kEquiDepth);
  ASSERT_TRUE(bins.ok());
  ASSERT_EQ(bins->num_bins(), 4u);
  std::vector<size_t> counts(4, 0);
  for (double x : v) ++counts[bins->BinOf(x)];
  for (size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 2500.0, 250.0);
  }
}

TEST(BuildBinsTest, VOptimalSeparatesClusters) {
  // Three well-separated value clusters: V-optimal with 3 bins must cut
  // exactly between them (SSE ~ within-cluster only).
  std::vector<double> v;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) v.push_back(rng.NextGaussian(0.0, 0.5));
  for (int i = 0; i < 200; ++i) v.push_back(rng.NextGaussian(50.0, 0.5));
  for (int i = 0; i < 200; ++i) v.push_back(rng.NextGaussian(100.0, 0.5));
  auto bins = BuildBins(v, 3, BinStrategy::kVOptimal);
  ASSERT_TRUE(bins.ok());
  ASSERT_EQ(bins->num_bins(), 3u);
  // Cluster centers land in distinct bins.
  EXPECT_EQ(bins->BinOf(0.0), 0);
  EXPECT_EQ(bins->BinOf(50.0), 1);
  EXPECT_EQ(bins->BinOf(100.0), 2);
}

TEST(BuildBinsTest, VOptimalBeatsEquiWidthOnSkewedData) {
  // Heavy skew: V-optimal should achieve lower SSE than equi-width.
  std::vector<double> v;
  Rng rng(17);
  for (int i = 0; i < 900; ++i) v.push_back(rng.NextUniform(0, 1));
  for (int i = 0; i < 100; ++i) v.push_back(rng.NextUniform(900, 1000));
  auto sse_of = [&](const Bins& b) {
    std::vector<double> sum(b.num_bins(), 0), cnt(b.num_bins(), 0);
    for (double x : v) {
      int32_t bin = b.BinOf(x);
      sum[bin] += x;
      cnt[bin] += 1;
    }
    double sse = 0;
    for (double x : v) {
      int32_t bin = b.BinOf(x);
      double mean = sum[bin] / cnt[bin];
      sse += (x - mean) * (x - mean);
    }
    return sse;
  };
  auto vo = BuildBins(v, 4, BinStrategy::kVOptimal);
  auto ew = BuildBins(v, 4, BinStrategy::kEquiWidth);
  ASSERT_TRUE(vo.ok());
  ASSERT_TRUE(ew.ok());
  EXPECT_LE(sse_of(*vo), sse_of(*ew) + 1e-9);
}

TEST(BuildBinsTest, ErrorsAndDegenerateInputs) {
  EXPECT_TRUE(BuildBins({}, 4, BinStrategy::kEquiWidth).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(BuildBins({1.0}, 0, BinStrategy::kEquiWidth).status()
                  .IsInvalidArgument());
  auto all_nan = BuildBins({std::nan(""), std::nan("")}, 4,
                           BinStrategy::kEquiDepth);
  EXPECT_FALSE(all_nan.ok());

  auto constant = BuildBins({5, 5, 5, 5}, 4, BinStrategy::kEquiDepth);
  ASSERT_TRUE(constant.ok());
  EXPECT_EQ(constant->num_bins(), 1u);
  EXPECT_EQ(constant->BinOf(5.0), 0);
}

// IEEE-754 totalOrder on non-NaN doubles: -0.0 sorts before +0.0.
bool TotalOrderLess(double a, double b) {
  return a < b || (a == b && std::signbit(a) && !std::signbit(b));
}

// Sort-based reference for the equi-width and equi-depth edges: sort every
// non-NaN value in totalOrder, then read the minimum, maximum and ranks
// i*n/max_bins.
std::vector<double> SortedReferenceEdges(const std::vector<double>& values,
                                         size_t max_bins,
                                         BinStrategy strategy) {
  std::vector<double> v;
  for (double x : values) {
    if (!std::isnan(x)) v.push_back(x);
  }
  std::sort(v.begin(), v.end(), TotalOrderLess);
  if (v.front() == v.back() || max_bins == 1) return {v.front(), v.back()};
  std::vector<double> edges;
  if (strategy == BinStrategy::kEquiWidth) {
    for (size_t i = 0; i <= max_bins; ++i) {
      edges.push_back(v.front() + (v.back() - v.front()) *
                                      static_cast<double>(i) /
                                      static_cast<double>(max_bins));
    }
    return edges;
  }
  size_t n = v.size();
  edges.push_back(v.front());
  for (size_t i = 1; i < max_bins; ++i) {
    double e = v[std::min(i * n / max_bins, n - 1)];
    if (e > edges.back()) edges.push_back(e);
  }
  edges.push_back(v.back() > edges.back() ? v.back() : edges.back());
  if (edges.front() == edges.back()) return {v.front(), v.back()};
  return edges;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST(BuildBinsTest, SelectedEdgesMatchSortedReferenceBitForBit) {
  Rng rng(23);
  for (size_t n : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 16u, 100u, 1000u}) {
    for (int shape = 0; shape < 5; ++shape) {
      for (int trial = 0; trial < 5; ++trial) {
        std::vector<double> v;
        for (size_t i = 0; i < n; ++i) {
          switch (shape) {
            case 0: v.push_back(rng.NextUniform(-1e3, 1e3)); break;
            case 1:  // heavy duplicates, negative values
              v.push_back(static_cast<double>(rng.NextBounded(5)) - 3.5);
              break;
            case 2: v.push_back(-42.25); break;  // all values equal
            case 3:  // both signed zeros among a few small values
              v.push_back(rng.NextBool() ? (rng.NextBool() ? -0.0 : 0.0)
                                         : static_cast<double>(
                                               rng.NextInt(-2, 2)));
              break;
            default:  // NaNs among skewed values
              v.push_back(rng.NextBounded(4) == 0
                              ? std::nan("")
                              : std::exp(rng.NextUniform(-5.0, 5.0)));
          }
        }
        if (shape == 4) v.push_back(0.5);  // at least one non-NaN value
        for (BinStrategy strategy :
             {BinStrategy::kEquiWidth, BinStrategy::kEquiDepth}) {
          for (size_t max_bins : {1u, 2u, 3u, 5u, 8u, 16u}) {
            std::vector<double> want =
                SortedReferenceEdges(v, max_bins, strategy);
            auto got = BuildBins(v, max_bins, strategy);
            ASSERT_TRUE(got.ok());
            ASSERT_EQ(got->edges.size(), want.size())
                << BinStrategyName(strategy) << " n=" << n
                << " shape=" << shape << " max_bins=" << max_bins;
            for (size_t e = 0; e < want.size(); ++e) {
              EXPECT_EQ(Bits(got->edges[e]), Bits(want[e]))
                  << BinStrategyName(strategy) << " n=" << n
                  << " shape=" << shape << " max_bins=" << max_bins
                  << " edge " << e;
            }
          }
        }
      }
    }
  }
}

TEST(NumericDomainTest, SortedDistinctValuesAndRanks) {
  const double nan = std::nan("");
  NumericDomain d = NumericDomain::Build({3.5, 0.0, nan, -1.0, -0.0, 3.5, 0.0});
  ASSERT_EQ(d.values.size(), 4u);
  EXPECT_EQ(Bits(d.values[0]), Bits(-1.0));
  EXPECT_EQ(Bits(d.values[1]), Bits(-0.0));  // -0.0 precedes +0.0
  EXPECT_EQ(Bits(d.values[2]), Bits(0.0));
  EXPECT_EQ(Bits(d.values[3]), Bits(3.5));
  EXPECT_EQ(d.ranks, (std::vector<int32_t>{3, 2, kNullCode, 0, 1, 3, 2}));
  EXPECT_TRUE(NumericDomain::Build({}).values.empty());
}

// --- DiscretizeColumn against the sort-based reference ---------------------

// What DiscretizeColumn must produce for a numeric column over `rows`:
// today's algorithm, independent of the domain and the counts. Equi-width
// and equi-depth edges come from SortedReferenceEdges over the fragment;
// V-optimal's from BuildBins over the fragment. Every row is binned by
// BinOf.
struct ReferenceColumn {
  std::vector<double> edges;
  std::vector<std::string> labels;
  std::vector<int32_t> codes;
};

ReferenceColumn ReferenceDiscretize(const std::vector<double>& column,
                                    const RowSet& rows, size_t max_bins,
                                    BinStrategy strategy) {
  std::vector<double> fragment;
  for (uint32_t r : rows) fragment.push_back(column[r]);
  ReferenceColumn ref;
  if (std::all_of(fragment.begin(), fragment.end(),
                  [](double x) { return std::isnan(x); })) {
    ref.codes.assign(rows.size(), -1);
    return ref;
  }
  if (strategy == BinStrategy::kVOptimal) {
    ref.edges = BuildBins(fragment, max_bins, strategy)->edges;
  } else {
    ref.edges = SortedReferenceEdges(fragment, max_bins, strategy);
  }
  Bins bins{ref.edges};
  for (size_t b = 0; b < bins.num_bins(); ++b) {
    ref.labels.push_back(bins.LabelOf(b));
  }
  for (double x : fragment) ref.codes.push_back(bins.BinOf(x));
  return ref;
}

// Random column of one of several shapes the oracle must get right.
std::vector<double> RandomColumn(Rng& rng, size_t n, int shape) {
  std::vector<double> v(n);
  for (double& x : v) {
    switch (shape) {
      case 0:  // heavy duplicates, both signed zeros, some NaNs
        switch (rng.NextBounded(8)) {
          case 0: x = std::nan(""); break;
          case 1: x = -0.0; break;
          case 2: x = 0.0; break;
          default: x = static_cast<double>(rng.NextInt(-4, 4)) * 1.5;
        }
        break;
      case 1: x = rng.NextUniform(-1e4, 1e4); break;  // mostly distinct
      case 2: x = 7.25; break;                         // all values equal
      case 3:  // a few skewed values, rounded into duplicates
        x = std::round(std::exp(rng.NextUniform(0.0, 6.0)));
        break;
      default: x = rng.NextBool() ? -0.0 : 0.0;  // only signed zeros
    }
  }
  return v;
}

// Ascending subset: each row kept with a random probability, or one row.
RowSet RandomRows(Rng& rng, size_t n) {
  RowSet rows;
  if (rng.NextBounded(6) == 0) {
    rows.push_back(static_cast<uint32_t>(rng.NextBounded(n)));
    return rows;
  }
  const double keep = rng.NextUniform(0.05, 1.0);
  for (size_t r = 0; r < n; ++r) {
    if (rng.NextBool(keep)) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

DiscreteAttr DiscretizeNumbers(const std::vector<double>& column,
                               const RowSet& rows, size_t max_bins,
                               BinStrategy strategy) {
  DiscretizerOptions options;
  options.max_numeric_bins = max_bins;
  options.strategy = strategy;
  auto got = DiscretizeColumn(AttributeDef{"x", AttrType::kNumeric}, {}, {},
                              NumericDomain::Build(column), rows, options);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  return got.ok() ? *got : DiscreteAttr{};
}

std::vector<uint64_t> EdgeBits(const std::vector<double>& edges) {
  std::vector<uint64_t> bits;
  for (double e : edges) bits.push_back(Bits(e));
  return bits;
}

constexpr BinStrategy kStrategies[] = {
    BinStrategy::kEquiWidth, BinStrategy::kEquiDepth, BinStrategy::kVOptimal};

TEST(DiscretizeColumnTest, MatchesSortedReference) {
  Rng rng(29);
  for (int trial = 0; trial < 60; ++trial) {
    // Every third table is smaller than most max_bins values.
    const size_t n = 1 + rng.NextBounded(trial % 3 == 0 ? 8 : 150);
    const int shape = trial % 5;
    const std::vector<double> column = RandomColumn(rng, n, shape);
    const RowSet rows = RandomRows(rng, n);
    for (BinStrategy strategy : kStrategies) {
      for (size_t max_bins = 1; max_bins <= 12; ++max_bins) {
        const DiscreteAttr got =
            DiscretizeNumbers(column, rows, max_bins, strategy);
        const ReferenceColumn want =
            ReferenceDiscretize(column, rows, max_bins, strategy);
        const std::string where = std::string(BinStrategyName(strategy)) +
                                  " shape=" + std::to_string(shape) +
                                  " n=" + std::to_string(n) + " rows=" +
                                  std::to_string(rows.size()) +
                                  " max_bins=" + std::to_string(max_bins);
        EXPECT_EQ(EdgeBits(got.bins.edges), EdgeBits(want.edges)) << where;
        EXPECT_EQ(got.labels, want.labels) << where;
        EXPECT_EQ(got.codes, want.codes) << where;
      }
    }
  }
}

TEST(DiscretizeColumnTest, RowPermutationAndDuplicationLeaveBinsUnchanged) {
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + rng.NextBounded(120);
    const std::vector<double> column = RandomColumn(rng, n, trial % 5);
    const RowSet rows = RandomRows(rng, n);

    // Row r of `column` is row perm[r] of `permuted`.
    std::vector<uint32_t> perm(n);
    for (size_t r = 0; r < n; ++r) perm[r] = static_cast<uint32_t>(r);
    for (size_t r = n; r > 1; --r) std::swap(perm[r - 1], perm[rng.NextBounded(r)]);
    std::vector<double> permuted(n);
    for (size_t r = 0; r < n; ++r) permuted[perm[r]] = column[r];
    RowSet permuted_rows;
    for (uint32_t r : rows) permuted_rows.push_back(perm[r]);
    std::sort(permuted_rows.begin(), permuted_rows.end());

    // Every row twice: rows r and r + n hold the same value.
    std::vector<double> doubled = column;
    doubled.insert(doubled.end(), column.begin(), column.end());
    RowSet doubled_rows = rows;
    for (uint32_t r : rows) doubled_rows.push_back(r + static_cast<uint32_t>(n));

    for (BinStrategy strategy : kStrategies) {
      for (size_t max_bins = 1; max_bins <= 12; ++max_bins) {
        const std::string where = std::string(BinStrategyName(strategy)) +
                                  " trial=" + std::to_string(trial) +
                                  " max_bins=" + std::to_string(max_bins);
        const DiscreteAttr base =
            DiscretizeNumbers(column, rows, max_bins, strategy);
        const DiscreteAttr p =
            DiscretizeNumbers(permuted, permuted_rows, max_bins, strategy);
        EXPECT_EQ(EdgeBits(p.bins.edges), EdgeBits(base.bins.edges)) << where;
        EXPECT_EQ(p.labels, base.labels) << where;
        for (size_t i = 0; i < rows.size(); ++i) {
          const size_t j = static_cast<size_t>(
              std::lower_bound(permuted_rows.begin(), permuted_rows.end(),
                               perm[rows[i]]) -
              permuted_rows.begin());
          EXPECT_EQ(p.codes[j], base.codes[i]) << where << " row " << rows[i];
        }
        const DiscreteAttr d =
            DiscretizeNumbers(doubled, doubled_rows, max_bins, strategy);
        EXPECT_EQ(EdgeBits(d.bins.edges), EdgeBits(base.bins.edges)) << where;
        EXPECT_EQ(d.labels, base.labels) << where;
      }
    }
  }
}

// Shared invariants, parameterized over (strategy, max_bins).
class BinInvariantTest
    : public ::testing::TestWithParam<std::tuple<BinStrategy, size_t>> {};

TEST_P(BinInvariantTest, EdgesSortedAndCoverEveryValue) {
  auto [strategy, max_bins] = GetParam();
  std::vector<double> v = UniformValues(3000, -50, 200, 11);
  v.push_back(std::nan(""));  // NaNs must be ignored
  auto bins = BuildBins(v, max_bins, strategy);
  ASSERT_TRUE(bins.ok()) << BinStrategyName(strategy);
  EXPECT_GE(bins->num_bins(), 1u);
  EXPECT_LE(bins->num_bins(), max_bins);
  for (size_t i = 0; i + 1 < bins->edges.size(); ++i) {
    EXPECT_LT(bins->edges[i], bins->edges[i + 1]);
  }
  for (double x : v) {
    if (std::isnan(x)) continue;
    int32_t b = bins->BinOf(x);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, static_cast<int32_t>(bins->num_bins()));
  }
  // Every bin has a printable label.
  for (size_t b = 0; b < bins->num_bins(); ++b) {
    EXPECT_FALSE(bins->LabelOf(b).empty());
    EXPECT_NE(bins->LabelOf(b), "?");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, BinInvariantTest,
    ::testing::Combine(::testing::Values(BinStrategy::kEquiWidth,
                                         BinStrategy::kEquiDepth,
                                         BinStrategy::kVOptimal),
                       ::testing::Values(1u, 2u, 5u, 8u, 16u)));

}  // namespace
}  // namespace dbx

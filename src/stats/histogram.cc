#include "src/stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/relation/column.h"
#include "src/util/string_util.h"

namespace dbx {

const char* BinStrategyName(BinStrategy s) {
  switch (s) {
    case BinStrategy::kEquiWidth: return "equi-width";
    case BinStrategy::kEquiDepth: return "equi-depth";
    case BinStrategy::kVOptimal: return "v-optimal";
  }
  return "?";
}

int32_t Bins::BinOf(double x) const {
  if (std::isnan(x) || edges.size() < 2) return -1;
  if (x <= edges.front()) return 0;
  if (x >= edges.back()) return static_cast<int32_t>(num_bins()) - 1;
  // upper_bound over interior edges.
  auto it = std::upper_bound(edges.begin(), edges.end(), x);
  return static_cast<int32_t>(it - edges.begin()) - 1;
}

std::string CompactNumber(double x) {
  double ax = std::fabs(x);
  if (ax >= 1e6) {
    double m = x / 1e6;
    std::string s = FormatDouble(m, m == std::floor(m) ? 0 : 1);
    return s + "M";
  }
  if (ax >= 1e3) {
    double k = x / 1e3;
    std::string s = FormatDouble(k, k == std::floor(k) ? 0 : 1);
    return s + "K";
  }
  if (x == std::floor(x)) return FormatDouble(x, 0);
  return FormatDouble(x, 1);
}

std::string Bins::LabelOf(size_t i) const {
  if (i + 1 >= edges.size()) return "?";
  return CompactNumber(edges[i]) + "-" + CompactNumber(edges[i + 1]);
}

namespace {

Bins SingleBin(double lo, double hi) {
  Bins b;
  b.edges = {lo, hi};
  return b;
}

Bins EquiWidth(double lo, double hi, size_t max_bins) {
  Bins b;
  b.edges.reserve(max_bins + 1);
  for (size_t i = 0; i <= max_bins; ++i) {
    b.edges.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(max_bins));
  }
  return b;
}

// Edges at the lowest present value, the values of rank i*n/max_bins in the
// sorted multiset, and the highest present value. The value of rank t is the
// first one whose running count exceeds t.
Bins EquiDepth(const std::vector<double>& values,
               const std::vector<uint32_t>& counts, size_t first, double hi,
               size_t max_bins) {
  size_t n = 0;
  for (uint32_t c : counts) n += c;
  Bins b;
  b.edges.push_back(values[first]);
  size_t r = first;
  size_t cum = counts[first];  // rows at ranks <= r
  for (size_t i = 1; i < max_bins; ++i) {
    const size_t t = i * n / max_bins;
    while (cum <= t) cum += counts[++r];
    if (values[r] > b.edges.back()) b.edges.push_back(values[r]);
  }
  // When the highest value is already an edge, the last bin has zero width.
  b.edges.push_back(hi > b.edges.back() ? hi : b.edges.back());
  return b;
}

// V-optimal histogram via dynamic programming on distinct values, minimizing
// total within-bucket SSE (Jagadish et al., VLDB'98 flavor).
Bins VOptimal(const std::vector<double>& values,
              const std::vector<uint32_t>& counts, size_t max_bins) {
  // Present values with multiplicities; -0.0 and +0.0 compare equal, so they
  // are one value here.
  std::vector<double> vals;
  std::vector<double> weights;
  for (size_t r = 0; r < values.size(); ++r) {
    if (counts[r] == 0) continue;
    if (vals.empty() || values[r] != vals.back()) {
      vals.push_back(values[r]);
      weights.push_back(counts[r]);
    } else {
      weights.back() += counts[r];
    }
  }
  // The caller ruled out one value and max_bins == 1, so b >= 2.
  size_t n = vals.size();
  size_t b = std::min(max_bins, n);

  // Prefix sums of weight, weighted value, weighted value^2.
  std::vector<double> w(n + 1, 0), s1(n + 1, 0), s2(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    w[i + 1] = w[i] + weights[i];
    s1[i + 1] = s1[i] + weights[i] * vals[i];
    s2[i + 1] = s2[i] + weights[i] * vals[i] * vals[i];
  }
  auto sse = [&](size_t i, size_t j) {  // values [i, j), i < j
    double cw = w[j] - w[i];
    double cs = s1[j] - s1[i];
    double cq = s2[j] - s2[i];
    return cq - cs * cs / cw;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // dp[k][j]: min SSE of first j distinct values using k buckets.
  std::vector<std::vector<double>> dp(b + 1, std::vector<double>(n + 1, kInf));
  std::vector<std::vector<size_t>> cut(b + 1, std::vector<size_t>(n + 1, 0));
  dp[0][0] = 0.0;
  for (size_t k = 1; k <= b; ++k) {
    for (size_t j = k; j <= n; ++j) {
      for (size_t i = k - 1; i < j; ++i) {
        if (dp[k - 1][i] == kInf) continue;
        double cost = dp[k - 1][i] + sse(i, j);
        if (cost < dp[k][j]) {
          dp[k][j] = cost;
          cut[k][j] = i;
        }
      }
    }
  }

  // Recover cut points (indices into distinct values).
  std::vector<size_t> cuts;  // descending
  size_t j = n;
  for (size_t k = b; k >= 1; --k) {
    cuts.push_back(j);
    j = cut[k][j];
  }
  cuts.push_back(0);
  std::reverse(cuts.begin(), cuts.end());

  Bins bins;
  bins.edges.reserve(cuts.size());
  for (size_t c = 0; c < cuts.size(); ++c) {
    if (c == 0) {
      bins.edges.push_back(vals.front());
    } else if (cuts[c] >= n) {
      bins.edges.push_back(vals.back());
    } else {
      // Edge halfway between the last value of this bucket and the first of
      // the next, so BinOf assigns values unambiguously.
      bins.edges.push_back(0.5 * (vals[cuts[c] - 1] + vals[cuts[c]]));
    }
  }
  // Deduplicate any equal edges created by halfway collisions.
  bins.edges.erase(std::unique(bins.edges.begin(), bins.edges.end()),
                   bins.edges.end());
  return bins;
}

}  // namespace

Result<Bins> DeriveBins(const std::vector<double>& values,
                        const std::vector<uint32_t>& counts, size_t max_bins,
                        BinStrategy strategy) {
  if (max_bins == 0) return Status::InvalidArgument("max_bins must be >= 1");
  size_t first = 0;
  while (first < counts.size() && counts[first] == 0) ++first;
  if (first == counts.size()) {
    return Status::InvalidArgument("no non-null values to bin");
  }
  size_t last = counts.size() - 1;
  while (counts[last] == 0) --last;
  const double lo = values[first], hi = values[last];
  if (lo == hi || max_bins == 1) return SingleBin(lo, hi);
  switch (strategy) {
    case BinStrategy::kEquiWidth: return EquiWidth(lo, hi, max_bins);
    case BinStrategy::kEquiDepth:
      return EquiDepth(values, counts, first, hi, max_bins);
    case BinStrategy::kVOptimal: return VOptimal(values, counts, max_bins);
  }
  return Status::InvalidArgument("unknown bin strategy");
}

Result<Bins> BuildBins(const std::vector<double>& values, size_t max_bins,
                       BinStrategy strategy) {
  const NumericDomain domain = NumericDomain::Build(values);
  std::vector<uint32_t> counts(domain.values.size(), 0);
  for (int32_t rank : domain.ranks) {
    if (rank != kNullCode) ++counts[rank];
  }
  return DeriveBins(domain.values, counts, max_bins, strategy);
}

}  // namespace dbx

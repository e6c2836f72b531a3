#include "src/stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

// Puts at each index in `ranks` (ascending, distinct, all in [lo, hi)) the
// value a full sort of v[lo, hi) would put there: selects the middle rank,
// then recurses into each side.
void SelectRanks(std::vector<double>* v, size_t lo, size_t hi,
                 const size_t* ranks, size_t count) {
  if (count == 0) return;
  size_t mid = count / 2;
  size_t r = ranks[mid];
  std::nth_element(v->begin() + static_cast<std::ptrdiff_t>(lo),
                   v->begin() + static_cast<std::ptrdiff_t>(r),
                   v->begin() + static_cast<std::ptrdiff_t>(hi));
  SelectRanks(v, lo, r, ranks, mid);
  SelectRanks(v, r + 1, hi, ranks + mid + 1, count - mid - 1);
}

// Edges at the minimum, the values of rank i*n/max_bins, and the maximum.
Bins EquiDepth(std::vector<double>* values, double lo, double hi,
               size_t max_bins) {
  size_t n = values->size();
  auto rank = [&](size_t i) { return std::min(i * n / max_bins, n - 1); };
  std::vector<size_t> ranks;
  for (size_t i = 1; i < max_bins; ++i) ranks.push_back(rank(i));
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  SelectRanks(values, 0, n, ranks.data(), ranks.size());
  Bins b;
  b.edges.push_back(lo);
  for (size_t i = 1; i < max_bins; ++i) {
    double e = (*values)[rank(i)];
    if (e > b.edges.back()) b.edges.push_back(e);
  }
  if (hi > b.edges.back()) {
    b.edges.push_back(hi);
  } else {
    // All values equal past some point; widen the last edge slightly so the
    // bin is non-degenerate.
    b.edges.push_back(b.edges.back());
  }
  // Collapse a fully degenerate result into one bin.
  if (b.edges.size() < 2 || b.edges.front() == b.edges.back()) {
    return SingleBin(lo, hi);
  }
  return b;
}

// V-optimal histogram via dynamic programming on distinct values, minimizing
// total within-bucket SSE (Jagadish et al., VLDB'98 flavor).
Bins VOptimal(const std::vector<double>& sorted, size_t max_bins) {
  // Distinct values with multiplicities.
  std::vector<double> vals;
  std::vector<double> counts;
  for (double x : sorted) {
    if (vals.empty() || x != vals.back()) {
      vals.push_back(x);
      counts.push_back(1);
    } else {
      counts.back() += 1;
    }
  }
  size_t n = vals.size();
  size_t b = std::min(max_bins, n);
  if (b <= 1 || n <= 1) return SingleBin(sorted.front(), sorted.back());

  // Prefix sums of weight, weighted value, weighted value^2.
  std::vector<double> w(n + 1, 0), s1(n + 1, 0), s2(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    w[i + 1] = w[i] + counts[i];
    s1[i + 1] = s1[i] + counts[i] * vals[i];
    s2[i + 1] = s2[i] + counts[i] * vals[i] * vals[i];
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
  if (bins.edges.size() < 2) return SingleBin(sorted.front(), sorted.back());
  return bins;
}

}  // namespace

Result<Bins> BuildBins(std::vector<double>&& values, size_t max_bins,
                       BinStrategy strategy) {
  if (max_bins == 0) return Status::InvalidArgument("max_bins must be >= 1");
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double x) { return std::isnan(x); }),
               values.end());
  if (values.empty()) {
    return Status::InvalidArgument("no non-null values to bin");
  }
  auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  const double lo = *min_it, hi = *max_it;
  if (lo == hi || max_bins == 1) return SingleBin(lo, hi);
  switch (strategy) {
    case BinStrategy::kEquiWidth: return EquiWidth(lo, hi, max_bins);
    case BinStrategy::kEquiDepth: return EquiDepth(&values, lo, hi, max_bins);
    case BinStrategy::kVOptimal:
      std::sort(values.begin(), values.end());
      return VOptimal(values, max_bins);
  }
  return Status::InvalidArgument("unknown bin strategy");
}

Result<Bins> BuildBins(const std::vector<double>& values, size_t max_bins,
                       BinStrategy strategy) {
  return BuildBins(std::vector<double>(values), max_bins, strategy);
}

}  // namespace dbx

// Copyright (c) DBExplorer reproduction authors.
// Histogram construction for numeric-attribute cardinality reduction (paper
// §2.2.1, citing Jagadish & Suel's optimal-histogram work [17]). Three
// strategies: equi-width, equi-depth, and V-optimal (dynamic programming,
// minimizing within-bucket sum of squared error).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/util/result.h"

namespace dbx {

/// How numeric domains are carved into buckets.
enum class BinStrategy {
  kEquiWidth,
  kEquiDepth,
  kVOptimal,
};

const char* BinStrategyName(BinStrategy s);

/// A binning of a numeric domain: `edges` has num_bins+1 ascending entries;
/// bin i covers [edges[i], edges[i+1]) except the last, which is closed.
struct Bins {
  std::vector<double> edges;

  size_t num_bins() const { return edges.empty() ? 0 : edges.size() - 1; }

  /// Bin index for `x`, clamping to the first/last bin; -1 for NaN.
  int32_t BinOf(double x) const;

  /// Human label for bin i, e.g. "20K-25K" or "2.5-3.1".
  std::string LabelOf(size_t i) const;
};

/// Builds bins over `values` (NaNs ignored). `max_bins` >= 1. Degenerate
/// inputs (empty, or all-equal values) yield a single bin.
/// Equi-width reads only the minimum and maximum, and equi-depth selects its
/// max_bins - 1 quantiles in O(n log max_bins) without sorting. V-optimal
/// sorts, then runs an O(n'^2 * b) DP over the distinct values n' — use
/// equi-depth when the domain is large and latency matters.
[[nodiscard]]
Result<Bins> BuildBins(const std::vector<double>& values, size_t max_bins,
                       BinStrategy strategy);

/// The same, reordering `values` in place instead of copying it first.
[[nodiscard]]
Result<Bins> BuildBins(std::vector<double>&& values, size_t max_bins,
                       BinStrategy strategy);

/// Formats a numeric bound compactly: 20000 -> "20K", 1500000 -> "1.5M",
/// 37.5 -> "37.5".
std::string CompactNumber(double x);

}  // namespace dbx

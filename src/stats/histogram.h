// Copyright (c) DBExplorer reproduction authors.
// Histogram construction for numeric-attribute cardinality reduction (paper
// §2.2.1, citing Jagadish & Suel's optimal-histogram work [17]). Three
// strategies: equi-width, equi-depth, and V-optimal (dynamic programming,
// minimizing within-bucket sum of squared error).

#pragma once

#include <cstddef>
#include <cstdint>
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

/// The one binning step. The multiset to bin is given as its distinct
/// `values` (ascending in IEEE-754 totalOrder, no NaN: a NumericDomain's
/// values) and each value's count (0 = absent). The bins are the ones read
/// off the multiset sorted in totalOrder, where -0.0 precedes +0.0.
/// `max_bins` >= 1. Values that all compare equal, or max_bins == 1, yield a
/// single bin; all counts zero is InvalidArgument.
/// Equi-width reads only the lowest and highest present values, equi-depth
/// walks the running counts once, and V-optimal runs an O(n'^2 * b) DP over
/// the n' present values — use equi-depth when the domain is large and
/// latency matters.
[[nodiscard]]
Result<Bins> DeriveBins(const std::vector<double>& values,
                        const std::vector<uint32_t>& counts, size_t max_bins,
                        BinStrategy strategy);

/// DeriveBins over `values` (NaNs ignored), counted through their own
/// NumericDomain.
[[nodiscard]]
Result<Bins> BuildBins(const std::vector<double>& values, size_t max_bins,
                       BinStrategy strategy);

/// Formats a numeric bound compactly: 20000 -> "20K", 1500000 -> "1.5M",
/// 37.5 -> "37.5".
std::string CompactNumber(double x);

}  // namespace dbx

// Copyright (c) DBExplorer reproduction authors.
// Compare-Attribute selection (paper Problem 1.1, §3.1.1): rank candidate
// attributes by how sharply they contrast the Pivot Attribute's values. The
// paper uses Weka's ChiSquare ranker with a p-value relevance threshold; we
// also provide mutual-information and Cramer's-V rankers for the ablation
// benches called out in DESIGN.md §6.

#pragma once

#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/stats/discretizer.h"
#include "src/util/result.h"

namespace dbx {

/// Ranking criteria for Compare-Attribute selection.
enum class FeatureRanker {
  kChiSquare,        // the paper's choice
  kMutualInformation,
  kCramersV,
};

const char* FeatureRankerName(FeatureRanker r);

/// Relevance of one candidate attribute to the pivot classes.
struct FeatureScore {
  size_t attr_index = 0;  // into the DiscretizedTable
  std::string name;
  double score = 0.0;     // ranker-specific (chi2 statistic, MI bits, V)
  double chi2 = 0.0;
  double df = 0.0;
  double p_value = 1.0;
  bool significant = false;
};

struct FeatureSelectionOptions {
  FeatureRanker ranker = FeatureRanker::kChiSquare;
  /// Significance level for the relevance threshold (paper suggests 0.01,
  /// 0.05, or 0.10).
  double significance = 0.05;
  /// Rank candidate attributes concurrently on the shared thread pool
  /// (1 = serial). The ranking is identical for any value: scores land in
  /// per-candidate slots and are sorted afterwards.
  size_t num_threads = 1;
  /// Observability knobs: like num_threads they never change the ranking, so
  /// the cache fingerprint excludes them. Never null — default is the no-op
  /// tracer.
  Tracer* tracer = Tracer::Disabled();
  uint64_t trace_parent = 0;
};

/// Ranks `candidates` (attribute indices into `dt`) by decreasing relevance
/// to the pivot coding `pivot_codes` (one class code per row of `dt`, -1 =
/// excluded row). `pivot_cardinality` is the number of classes.
///
/// Returns every candidate, ranked; callers take the top `c` significant
/// ones. Fails when dimensions mismatch.
[[nodiscard]] Result<std::vector<FeatureScore>> RankFeatures(
    const DiscretizedTable& dt, const std::vector<int32_t>& pivot_codes,
    size_t pivot_cardinality, const std::vector<size_t>& candidates,
    const FeatureSelectionOptions& options);

}  // namespace dbx

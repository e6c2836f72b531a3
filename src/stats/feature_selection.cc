#include "src/stats/feature_selection.h"

#include <algorithm>
#include <cmath>

#include "src/stats/contingency.h"
#include "src/util/thread_pool.h"

namespace dbx {

const char* FeatureRankerName(FeatureRanker r) {
  switch (r) {
    case FeatureRanker::kChiSquare: return "chi-square";
    case FeatureRanker::kMutualInformation: return "mutual-information";
    case FeatureRanker::kCramersV: return "cramers-v";
  }
  return "?";
}

Result<std::vector<FeatureScore>> RankFeatures(
    const DiscretizedTable& dt, const std::vector<int32_t>& pivot_codes,
    size_t pivot_cardinality, const std::vector<size_t>& candidates,
    const FeatureSelectionOptions& options) {
  if (pivot_codes.size() != dt.num_rows()) {
    return Status::InvalidArgument("pivot coding length != table rows");
  }
  if (pivot_cardinality < 1) {
    return Status::InvalidArgument("pivot cardinality must be >= 1");
  }
  ScopedSpan span(options.tracer, "chi_square", options.trace_parent);
  span.AddArg("ranker", FeatureRankerName(options.ranker));
  span.AddArg("candidates", static_cast<uint64_t>(candidates.size()));
  span.AddArg("rows", static_cast<uint64_t>(dt.num_rows()));
  for (size_t idx : candidates) {
    if (idx >= dt.num_attrs()) {
      return Status::OutOfRange("candidate attribute index out of range");
    }
  }
  // One contingency table per candidate, each counted and scored in its own
  // task into its own slot; the sort afterwards makes the ranking independent
  // of the thread count.
  std::vector<FeatureScore> scores(candidates.size());
  DBX_RETURN_IF_ERROR(ParallelFor(
      options.num_threads, 0, candidates.size(), 1, [&](size_t c) -> Status {
        const DiscreteAttr& a = dt.attr(candidates[c]);
        const ContingencyTable ct = ContingencyTable::FromCodes(
            pivot_codes, pivot_cardinality, a.codes, a.cardinality());
        const ChiSquareResult chi = ChiSquareTest(ct);
        FeatureScore& fs = scores[c];
        fs.attr_index = candidates[c];
        fs.name = a.name;
        fs.chi2 = chi.statistic;
        fs.df = chi.df;
        fs.p_value = chi.p_value;
        fs.significant = chi.p_value <= options.significance && chi.df > 0;
        switch (options.ranker) {
          case FeatureRanker::kChiSquare:
            fs.score = chi.statistic;
            break;
          case FeatureRanker::kMutualInformation:
            fs.score = MutualInformationBits(ct);
            break;
          case FeatureRanker::kCramersV:
            fs.score = CramersV(ct);
            break;
        }
        return Status::OK();
      }));
  std::stable_sort(scores.begin(), scores.end(),
                   [](const FeatureScore& a, const FeatureScore& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.attr_index < b.attr_index;
                   });
  return scores;
}

}  // namespace dbx

#include "src/stats/feature_selection.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/stats/contingency.h"
#include "src/util/shard.h"
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
  size_t shards = EffectiveShardCount(
      dt.num_rows(), std::max<size_t>(1, options.num_shards), 1);
  ScopedSpan span(options.tracer, "chi_square", options.trace_parent);
  span.AddArg("ranker", FeatureRankerName(options.ranker));
  span.AddArg("candidates", static_cast<uint64_t>(candidates.size()));
  span.AddArg("rows", static_cast<uint64_t>(dt.num_rows()));
  span.AddArg("shards", static_cast<uint64_t>(shards));
  for (size_t idx : candidates) {
    if (idx >= dt.num_attrs()) {
      return Status::OutOfRange("candidate attribute index out of range");
    }
  }
  // One task per (candidate, shard) pair counts its rows into its own
  // contingency table (DESIGN.md §13); each candidate's shard tables then
  // merge in shard order and are scored — with one shard there is nothing
  // to merge. Count addition is exact, so the merged table, and every score
  // derived from it, is the same for any shard or thread count.
  std::vector<ShardRange> ranges = MakeShardRanges(dt.num_rows(), shards);
  std::vector<std::optional<ContingencyTable>> cells(candidates.size() *
                                                     shards);
  DBX_RETURN_IF_ERROR(ParallelFor(
      options.num_threads, 0, cells.size(), 1, [&](size_t t) -> Status {
        const DiscreteAttr& a = dt.attr(candidates[t / shards]);
        const ShardRange& range = ranges[t % shards];
        cells[t].emplace(ContingencyTable::FromCodesRange(
            pivot_codes, pivot_cardinality, a.codes, a.cardinality(),
            range.begin, range.end));
        return Status::OK();
      }));
  std::vector<FeatureScore> scores(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    ContingencyTable& ct = *cells[c * shards];
    for (size_t s = 1; s < shards; ++s) {
      DBX_RETURN_IF_ERROR(ct.MergeFrom(*cells[c * shards + s]));
    }
    const ChiSquareResult chi = ChiSquareTest(ct);
    FeatureScore& fs = scores[c];
    fs.attr_index = candidates[c];
    fs.name = dt.attr(candidates[c]).name;
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
  }
  std::stable_sort(scores.begin(), scores.end(),
                   [](const FeatureScore& a, const FeatureScore& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.attr_index < b.attr_index;
                   });
  return scores;
}

}  // namespace dbx

#include "src/core/sharded.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/util/thread_pool.h"

namespace dbx {

PartitionSketch ScanPartitionSketch(const std::vector<int32_t>& pivot_codes,
                                    size_t cardinality, ShardRange range) {
  PartitionSketch sketch;
  sketch.range = range;
  sketch.members.resize(cardinality);
  size_t end = std::min(range.end, pivot_codes.size());
  for (size_t i = range.begin; i < end; ++i) {
    int32_t c = pivot_codes[i];
    if (c >= 0 && static_cast<size_t>(c) < cardinality) {
      sketch.members[static_cast<size_t>(c)].push_back(i);
    }
  }
  return sketch;
}

Status MergePartitionSketch(PartitionSketch* into,
                            const PartitionSketch& from) {
  if (into->members.size() != from.members.size()) {
    return Status::InvalidArgument("partition sketch cardinality mismatch");
  }
  for (size_t c = 0; c < into->members.size(); ++c) {
    if (from.members[c].empty()) continue;
    if (into->members[c].empty()) {
      into->members[c] = from.members[c];
      continue;
    }
    std::vector<size_t> merged;
    merged.reserve(into->members[c].size() + from.members[c].size());
    std::merge(into->members[c].begin(), into->members[c].end(),
               from.members[c].begin(), from.members[c].end(),
               std::back_inserter(merged));
    into->members[c] = std::move(merged);
  }
  into->range.begin = std::min(into->range.begin, from.range.begin);
  into->range.end = std::max(into->range.end, from.range.end);
  return Status::OK();
}

PartitionSeed SeedFromSketch(PartitionSketch sketch) {
  PartitionSeed seed;
  for (size_t c = 0; c < sketch.members.size(); ++c) {
    if (!sketch.members[c].empty()) {
      seed.members_by_code.emplace_back(static_cast<int32_t>(c),
                                        std::move(sketch.members[c]));
    }
  }
  return seed;
}

Result<PartitionSeed> BuildShardedPartitionSeed(const DiscretizedTable& dt,
                                                size_t pivot_attr_index,
                                                const ShardOptions& sharding,
                                                size_t num_threads) {
  if (pivot_attr_index >= dt.num_attrs()) {
    return Status::OutOfRange("pivot attribute index out of range");
  }
  const DiscreteAttr& pivot = dt.attr(pivot_attr_index);
  size_t shards = EffectiveShardCount(dt.num_rows(), sharding.num_shards,
                                      sharding.min_rows_per_shard);
  std::vector<ShardRange> ranges = MakeShardRanges(dt.num_rows(), shards);
  // Each shard fills its own slot; the sequential merge below runs in shard
  // order, though MergePartitionSketch is order-insensitive anyway.
  std::vector<PartitionSketch> sketches(ranges.size());
  DBX_RETURN_IF_ERROR(ParallelFor(
      num_threads, 0, ranges.size(), 1, [&](size_t s) -> Status {
        sketches[s] =
            ScanPartitionSketch(pivot.codes, pivot.cardinality(), ranges[s]);
        return Status::OK();
      }));
  PartitionSketch merged = std::move(sketches[0]);
  for (size_t s = 1; s < sketches.size(); ++s) {
    DBX_RETURN_IF_ERROR(MergePartitionSketch(&merged, sketches[s]));
  }
  return SeedFromSketch(std::move(merged));
}

}  // namespace dbx

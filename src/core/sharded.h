// Copyright (c) DBExplorer reproduction authors.
// Pivot partitioning for CAD View builds (DESIGN.md §13). The table's rows
// are split into contiguous ranges; each shard scans its range into a
// PartitionSketch (per-pivot-code member lists), and the sketches merge
// associatively into the exact PartitionSeed a single-pass scan would
// produce — one shard is that single pass. Every build partitions through
// such a seed (or a caller's), so the finished view's bytes are independent
// of the shard count, exactly as they are independent of the thread count.

#pragma once

#include <cstdint>
#include <vector>

#include "src/core/cad_view_builder.h"
#include "src/stats/discretizer.h"
#include "src/util/result.h"
#include "src/util/shard.h"

namespace dbx {

/// One shard's view of the pivot column: for each pivot code, the member row
/// positions inside `range`, ascending. `members[c]` indexes code c over the
/// pivot's full discretized cardinality (empty for codes absent from the
/// shard).
struct PartitionSketch {
  ShardRange range;
  std::vector<std::vector<size_t>> members;
};

/// Scans `pivot_codes[range.begin, range.end)` into a sketch. Negative codes
/// (nulls) are skipped, matching the unsharded partition scan.
PartitionSketch ScanPartitionSketch(const std::vector<int32_t>& pivot_codes,
                                    size_t cardinality, ShardRange range);

/// Folds `from` into `into` with a per-code sorted merge. For sketches over
/// disjoint row ranges the result depends only on the union of the ranges —
/// order-insensitive and associative — and equals a single scan of the
/// combined range. Fails when the cardinalities differ.
[[nodiscard]] Status MergePartitionSketch(PartitionSketch* into,
                                          const PartitionSketch& from);

/// The sketch as a PartitionSeed: codes ascending, non-empty members only —
/// the member lists move out of `sketch`.
PartitionSeed SeedFromSketch(PartitionSketch sketch);

/// Scans the pivot column of `dt` shard-parallel (one task per shard on the
/// shared pool) and merges the per-shard sketches in shard order. The result
/// is identical to a single-pass scan for any shard or thread count; with
/// one shard it is that scan. BuildCadViewFromDiscretized partitions every
/// unseeded build through it.
[[nodiscard]] Result<PartitionSeed> BuildShardedPartitionSeed(
    const DiscretizedTable& dt, size_t pivot_attr_index,
    const ShardOptions& sharding, size_t num_threads);

}  // namespace dbx

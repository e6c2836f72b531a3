// Copyright (c) DBExplorer reproduction authors.
// Contiguous row-range decomposition for the streaming scaled-data generator
// (src/data/synthetic.h), which scans one range per task.
//
// Determinism contract: MakeShardRanges is a pure function of (rows, count),
// and concatenating per-range results in range order reproduces a single
// left-to-right pass exactly.

#pragma once

#include <cstddef>
#include <vector>

namespace dbx {

/// One contiguous row range [begin, end).
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// Splits [0, rows) into `count` contiguous ranges covering every row
/// exactly once, sized as evenly as possible (earlier ranges take the
/// remainder). `count` is clamped to [1, rows]; rows == 0 yields a single
/// empty range.
std::vector<ShardRange> MakeShardRanges(size_t rows, size_t count);

}  // namespace dbx

// Copyright (c) DBExplorer reproduction authors.
// One-hot encoding of discretized attributes into dense vectors for k-means
// (the Weka SimpleKMeans treatment of nominal attributes). Every attribute
// contributes one unit-norm block, so no attribute dominates the distance.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/stats/discretizer.h"
#include "src/util/result.h"

namespace dbx {

/// Encoded rows, each distinct code tuple stored once as a dense vector. Row
/// i encodes to point(i) == distinct(point_of[i]). Every coordinate is 0 or
/// 1, so adding `weight[p] * x` once per distinct point gives exactly the sum
/// of `x` over its rows.
struct EncodedMatrix {
  size_t num_points = 0;    // encoded rows
  size_t num_distinct = 0;  // distinct code tuples among them
  size_t dims = 0;
  std::vector<double> data;        // num_distinct * dims, row-major
  std::vector<uint32_t> point_of;  // per row: its distinct point
  std::vector<size_t> weight;      // per distinct point: rows encoding to it

  const double* distinct(size_t p) const { return data.data() + p * dims; }
  const double* point(size_t i) const { return distinct(point_of[i]); }
};

/// One-hot encoder over a chosen subset of a DiscretizedTable's attributes.
class OneHotEncoder {
 public:
  /// Plans the encoding for `attr_indices` of `dt`. Attributes with zero
  /// cardinality (all-null) are skipped.
  [[nodiscard]] static Result<OneHotEncoder> Plan(const DiscretizedTable& dt,
                                    const std::vector<size_t>& attr_indices);

  /// Encodes the rows of `dt` at positions `row_positions` (indices into the
  /// discretized rows, NOT base-table row ids). Null cells encode to a zero
  /// block. Distinct points are numbered in order of first appearance.
  EncodedMatrix Encode(const DiscretizedTable& dt,
                       const std::vector<size_t>& row_positions) const;

  size_t dims() const { return dims_; }
  const std::vector<size_t>& attr_indices() const { return attrs_; }

  /// Column offset of attribute block `i` (parallel to attr_indices()).
  size_t BlockOffset(size_t i) const { return offsets_[i]; }

 private:
  std::vector<size_t> attrs_;    // attribute indices included
  std::vector<size_t> offsets_;  // starting dim of each attribute block
  std::vector<size_t> cards_;    // cardinality of each block
  size_t dims_ = 0;
  // Dedup key of a row: mixed-radix words where block i adds digit
  // (code + 1, or 0 for null) times key_scale_[i] to word key_word_[i]. A
  // word packs blocks while the product of their (cardinality + 1) fits in
  // 64 bits, so the key identifies the tuple exactly at any width.
  std::vector<size_t> key_word_;
  std::vector<uint64_t> key_scale_;
  size_t key_words_ = 0;
};

}  // namespace dbx

// Copyright (c) DBExplorer reproduction authors.
// Frequency tables over discrete codes: the facet engine's summary digest and
// the IUnit labeler are both built on these.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dbx {

/// (value label, count) with counts sorted descending for display.
struct FrequencyEntry {
  int32_t code = -1;
  std::string label;
  uint64_t count = 0;
};

/// Counts of each discrete code in a code vector.
class FrequencyTable {
 public:
  /// Counts codes in [0, cardinality); negatives (nulls) are tallied
  /// separately.
  static FrequencyTable FromCodes(const std::vector<int32_t>& codes,
                                  size_t cardinality,
                                  const std::vector<std::string>& labels);

  /// Entries sorted by descending count (ties broken by code for
  /// determinism). Zero-count codes are included — digests need the full
  /// domain vector.
  const std::vector<FrequencyEntry>& sorted() const { return sorted_; }

  /// Raw count per code (index = code).
  const std::vector<uint64_t>& counts() const { return counts_; }

  uint64_t total() const { return total_; }
  uint64_t null_count() const { return null_count_; }

  /// Count vector as doubles (for cosine similarity).
  std::vector<double> AsVector() const;

 private:
  std::vector<uint64_t> counts_;
  std::vector<FrequencyEntry> sorted_;
  uint64_t total_ = 0;
  uint64_t null_count_ = 0;
};

}  // namespace dbx

// Copyright (c) DBExplorer reproduction authors.
// Contingency tables and the chi-square statistic over them — the machinery
// behind Compare Attribute selection (paper §3.1.1, Weka's ChiSquare).

#pragma once

#include <cstdint>
#include <vector>

#include "src/util/result.h"

namespace dbx {

/// An r x c table of co-occurrence counts between two discrete codings.
class ContingencyTable {
 public:
  ContingencyTable(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), cells_(rows * cols, 0),
        row_totals_(rows, 0), col_totals_(cols, 0) {}

  /// Builds from two parallel code vectors; pairs with a negative code on
  /// either side (nulls) are skipped. `a` codes index rows, `b` codes columns.
  static ContingencyTable FromCodes(const std::vector<int32_t>& a, size_t a_card,
                                    const std::vector<int32_t>& b, size_t b_card);

  void Add(size_t r, size_t c, uint64_t n = 1) {
    cells_[r * cols_ + c] += n;
    row_totals_[r] += n;
    col_totals_[c] += n;
    grand_total_ += n;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  uint64_t at(size_t r, size_t c) const { return cells_[r * cols_ + c]; }
  uint64_t row_total(size_t r) const { return row_totals_[r]; }
  uint64_t col_total(size_t c) const { return col_totals_[c]; }
  uint64_t grand_total() const { return grand_total_; }

 private:
  size_t rows_, cols_;
  std::vector<uint64_t> cells_;
  std::vector<uint64_t> row_totals_;
  std::vector<uint64_t> col_totals_;
  uint64_t grand_total_ = 0;
};

/// Result of a chi-square test of independence.
struct ChiSquareResult {
  double statistic = 0.0;
  double df = 0.0;
  double p_value = 1.0;
};

/// Pearson chi-square over `t`, skipping empty rows/columns when computing
/// degrees of freedom. A table with < 2 effective rows or columns yields a
/// zero statistic and p-value 1.
ChiSquareResult ChiSquareTest(const ContingencyTable& t);

/// Cramer's V effect size in [0,1]; 0 for degenerate tables.
double CramersV(const ContingencyTable& t);

/// Mutual information between the table's two margins, in bits. 0 for
/// degenerate/empty tables.
double MutualInformationBits(const ContingencyTable& t);

}  // namespace dbx

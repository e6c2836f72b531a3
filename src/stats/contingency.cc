#include "src/stats/contingency.h"

#include <algorithm>
#include <cmath>

#include "src/stats/gamma.h"

namespace dbx {

ContingencyTable ContingencyTable::FromCodes(const std::vector<int32_t>& a,
                                             size_t a_card,
                                             const std::vector<int32_t>& b,
                                             size_t b_card) {
  ContingencyTable t(a_card, b_card);
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < 0 || b[i] < 0) continue;
    t.Add(static_cast<size_t>(a[i]), static_cast<size_t>(b[i]));
  }
  return t;
}

ChiSquareResult ChiSquareTest(const ContingencyTable& t) {
  ChiSquareResult res;
  if (t.grand_total() == 0) return res;

  size_t eff_rows = 0, eff_cols = 0;
  for (size_t r = 0; r < t.rows(); ++r) {
    if (t.row_total(r) > 0) ++eff_rows;
  }
  for (size_t c = 0; c < t.cols(); ++c) {
    if (t.col_total(c) > 0) ++eff_cols;
  }
  if (eff_rows < 2 || eff_cols < 2) return res;

  double n = static_cast<double>(t.grand_total());
  double stat = 0.0;
  for (size_t r = 0; r < t.rows(); ++r) {
    if (t.row_total(r) == 0) continue;
    for (size_t c = 0; c < t.cols(); ++c) {
      if (t.col_total(c) == 0) continue;
      double expected = static_cast<double>(t.row_total(r)) *
                        static_cast<double>(t.col_total(c)) / n;
      double diff = static_cast<double>(t.at(r, c)) - expected;
      stat += diff * diff / expected;
    }
  }
  res.statistic = stat;
  res.df = static_cast<double>((eff_rows - 1) * (eff_cols - 1));
  res.p_value = ChiSquareSf(stat, res.df);
  return res;
}

double MutualInformationBits(const ContingencyTable& t) {
  double n = static_cast<double>(t.grand_total());
  if (n == 0.0) return 0.0;
  double mi = 0.0;
  for (size_t r = 0; r < t.rows(); ++r) {
    if (t.row_total(r) == 0) continue;
    for (size_t c = 0; c < t.cols(); ++c) {
      uint64_t o = t.at(r, c);
      if (o == 0 || t.col_total(c) == 0) continue;
      double pxy = static_cast<double>(o) / n;
      double px = static_cast<double>(t.row_total(r)) / n;
      double py = static_cast<double>(t.col_total(c)) / n;
      mi += pxy * std::log2(pxy / (px * py));
    }
  }
  return mi;
}

double CramersV(const ContingencyTable& t) {
  ChiSquareResult r = ChiSquareTest(t);
  if (r.statistic <= 0.0 || t.grand_total() == 0) return 0.0;
  size_t eff_rows = 0, eff_cols = 0;
  for (size_t i = 0; i < t.rows(); ++i) {
    if (t.row_total(i) > 0) ++eff_rows;
  }
  for (size_t c = 0; c < t.cols(); ++c) {
    if (t.col_total(c) > 0) ++eff_cols;
  }
  size_t k = std::min(eff_rows, eff_cols);
  if (k < 2) return 0.0;
  double v = std::sqrt(r.statistic /
                       (static_cast<double>(t.grand_total()) *
                        static_cast<double>(k - 1)));
  return std::min(v, 1.0);
}

}  // namespace dbx

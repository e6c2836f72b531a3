#include "src/stats/discretizer.h"

#include <memory>
#include <utility>

namespace dbx {

Result<DiscreteAttr> DiscretizeColumn(const AttributeDef& def,
                                      const std::vector<int32_t>& codes,
                                      const std::vector<std::string>& dict,
                                      const NumericDomain& numbers,
                                      const RowSet& rows,
                                      const DiscretizerOptions& options) {
  DiscreteAttr da;
  da.name = def.name;
  da.original_type = def.type;
  da.queriable = def.queriable;
  da.codes.resize(rows.size(), -1);

  // Every cell is a code into the column's domain: a dictionary code, or a
  // numeric value's rank among the column's distinct values.
  const bool categorical = def.type == AttrType::kCategorical;
  const std::vector<int32_t>& cell = categorical ? codes : numbers.ranks;
  const size_t domain_size = categorical ? dict.size() : numbers.values.size();

  // 1. Count the fragment's codes, noting the order of first appearance.
  std::vector<uint32_t> counts(domain_size, 0);
  std::vector<int32_t> appearance;
  for (uint32_t r : rows) {
    const int32_t code = cell[r];
    if (code != kNullCode && counts[code]++ == 0) appearance.push_back(code);
  }
  if (appearance.empty()) return da;

  // 2. Derive code -> fragment code. Categorical values are re-compacted in
  //    first-appearance order, so downstream contingency tables stay dense;
  //    numeric values map to their bin, one BinOf per present value.
  std::vector<int32_t> fragment_code(domain_size, -1);
  if (categorical) {
    for (int32_t code : appearance) {
      fragment_code[code] = static_cast<int32_t>(da.labels.size());
      da.labels.push_back(dict[code]);
    }
  } else {
    DBX_ASSIGN_OR_RETURN(da.bins,
                         DeriveBins(numbers.values, counts,
                                    options.max_numeric_bins, options.strategy));
    da.labels.reserve(da.bins.num_bins());
    for (size_t b = 0; b < da.bins.num_bins(); ++b) {
      da.labels.push_back(da.bins.LabelOf(b));
    }
    for (int32_t rank : appearance) {
      fragment_code[rank] = da.bins.BinOf(numbers.values[rank]);
    }
  }

  // 3. Map each row through the table.
  for (size_t i = 0; i < rows.size(); ++i) {
    const int32_t code = cell[rows[i]];
    if (code != kNullCode) da.codes[i] = fragment_code[code];
  }
  return da;
}

Result<DiscretizedTable> DiscretizedTable::Build(
    const TableSlice& slice, const DiscretizerOptions& options) {
  if (slice.table == nullptr) {
    return Status::InvalidArgument("null table in slice");
  }
  if (options.max_numeric_bins == 0) {
    return Status::InvalidArgument("max_numeric_bins must be >= 1");
  }
  const Table& t = *slice.table;
  DiscretizedTable out;
  out.rows_ = slice.rows;
  out.num_rows_ = slice.rows.size();
  out.attrs_.reserve(t.num_cols());
  for (size_t a = 0; a < t.num_cols(); ++a) {
    const Column& col = t.col(a);
    const std::shared_ptr<const NumericDomain> domain = col.Domain();
    DBX_ASSIGN_OR_RETURN(
        DiscreteAttr da,
        DiscretizeColumn(t.schema().attr(a), col.codes(), col.dict(), *domain,
                         slice.rows, options));
    out.attrs_.push_back(std::move(da));
  }
  return out;
}

Result<DiscretizedTable> DiscretizedTable::FromParts(
    std::vector<DiscreteAttr> attrs, RowSet rows) {
  for (const DiscreteAttr& a : attrs) {
    if (a.codes.size() != rows.size()) {
      return Status::InvalidArgument("attribute '" + a.name +
                                     "' codes not parallel to rows");
    }
  }
  DiscretizedTable out;
  out.num_rows_ = rows.size();
  out.rows_ = std::move(rows);
  out.attrs_ = std::move(attrs);
  return out;
}

DiscretizedTable DiscretizedTable::Project(const RowSet& rows) const {
  DiscretizedTable out;
  out.num_rows_ = rows.size();
  out.rows_.reserve(rows.size());
  for (uint32_t pos : rows) {
    out.rows_.push_back(pos < rows_.size() ? rows_[pos] : pos);
  }
  out.attrs_.reserve(attrs_.size());
  for (const DiscreteAttr& a : attrs_) {
    DiscreteAttr pa;
    pa.name = a.name;
    pa.original_type = a.original_type;
    pa.queriable = a.queriable;
    pa.labels = a.labels;
    pa.bins = a.bins;
    pa.codes.reserve(rows.size());
    for (uint32_t pos : rows) {
      pa.codes.push_back(pos < a.codes.size() ? a.codes[pos] : -1);
    }
    out.attrs_.push_back(std::move(pa));
  }
  return out;
}

std::optional<size_t> DiscretizedTable::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return i;
  }
  return std::nullopt;
}

}  // namespace dbx

// Copyright (c) DBExplorer reproduction authors.
// Attribute-value cardinality reduction (paper §2.2.1): every attribute of a
// selected fragment is mapped to a small discrete domain — categorical values
// pass through (dictionary codes re-compacted to the slice), numeric values
// are binned with a histogram strategy. The resulting DiscretizedTable is the
// common input to feature selection, clustering, IUnit labeling, and the
// similarity algorithms, so the whole pipeline runs on small integer codes.

#pragma once

#include <string>
#include <vector>

#include "src/relation/table.h"
#include "src/stats/histogram.h"
#include "src/util/result.h"

namespace dbx {

/// Tuning for discretization.
struct DiscretizerOptions {
  /// Max bins for numeric attributes.
  size_t max_numeric_bins = 8;
  BinStrategy strategy = BinStrategy::kEquiDepth;
};

/// One attribute of the discretized fragment.
struct DiscreteAttr {
  std::string name;
  AttrType original_type = AttrType::kCategorical;
  bool queriable = true;

  /// Discrete-domain labels; labels.size() is the attribute's cardinality.
  /// For numeric attributes these are bin labels like "20K-25K"; for
  /// categorical attributes, the values present in the slice.
  std::vector<std::string> labels;

  /// For numeric attributes, the bin edges (empty for categorical).
  Bins bins;

  /// Code per slice row (parallel to the originating slice's RowSet);
  /// -1 for nulls, otherwise in [0, labels.size()).
  std::vector<int32_t> codes;

  size_t cardinality() const { return labels.size(); }
};

/// Discretizes one column over `rows` (positions into the column): the
/// per-attribute step of DiscretizedTable::Build, which DbxcTableFile
/// also runs on decoded pages. A categorical column passes its per-row
/// dictionary `codes` (kNullCode = null) and the `dict` they index — labels
/// are the values present in `rows`, in first-appearance order; a numeric
/// column passes its `numbers` domain (Column::Domain), binned per
/// `options`. The payload of the other type is ignored. Either way the
/// fragment's codes are counted, a code -> fragment-code table is derived
/// from the counts, and each row is mapped through it. Null cells get -1.
[[nodiscard]] Result<DiscreteAttr> DiscretizeColumn(
    const AttributeDef& def, const std::vector<int32_t>& codes,
    const std::vector<std::string>& dict, const NumericDomain& numbers,
    const RowSet& rows, const DiscretizerOptions& options);

/// A table slice with every attribute reduced to a small discrete domain.
class DiscretizedTable {
 public:
  /// Discretizes every attribute of `slice`. Attributes whose slice is
  /// entirely null get cardinality 0 and all-null codes.
  [[nodiscard]] static Result<DiscretizedTable> Build(const TableSlice& slice,
                                        const DiscretizerOptions& options);

  /// Assembles a discretization directly from per-attribute parts (e.g.
  /// DiscretizeColumn results). The streaming generators (ScaledUsedCars in
  /// src/data/synthetic.h) compute codes range-parallel without ever
  /// materializing a Value table; `rows` indexes the virtual base table and
  /// every attribute's codes must be parallel to it. Fails on a length
  /// mismatch.
  [[nodiscard]] static Result<DiscretizedTable> FromParts(
      std::vector<DiscreteAttr> attrs, RowSet rows);

  size_t num_rows() const { return num_rows_; }
  size_t num_attrs() const { return attrs_.size(); }
  const DiscreteAttr& attr(size_t i) const { return attrs_[i]; }
  const std::vector<DiscreteAttr>& attrs() const { return attrs_; }

  /// Index of attribute `name`, or nullopt.
  std::optional<size_t> IndexOf(const std::string& name) const;

  /// The rows (into the base table) this discretization covers.
  const RowSet& rows() const { return rows_; }

  /// Projects a full-table discretization onto a subset of its rows, reusing
  /// the full-table domains (bins and label order stay identical across
  /// interactions — the stable-facet-labels behaviour of the TPFacet query
  /// panel, and the fast path for interactive re-builds: no re-binning).
  ///
  /// `rows` must index rows of THIS discretization's row order. Values absent
  /// from the subset keep their codes, so cardinalities do not shrink.
  DiscretizedTable Project(const RowSet& rows) const;

 private:
  std::vector<DiscreteAttr> attrs_;
  RowSet rows_;
  size_t num_rows_ = 0;
};

}  // namespace dbx

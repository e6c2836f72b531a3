// Copyright (c) DBExplorer reproduction authors.
// Columnar storage: dictionary-encoded categorical columns and dense numeric
// columns. Dictionary codes — and, for numeric columns, ranks into the
// column's sorted distinct values — are what the statistics and clustering
// layers operate on, which keeps the hot loops integer-only.

#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/relation/value.h"
#include "src/util/mutex.h"

namespace dbx {

/// Sentinel code for a null categorical cell (and a NaN cell's rank).
inline constexpr int32_t kNullCode = -1;

/// A numeric column's dictionary in value order: its distinct values and
/// each row's rank among them. Discretization counts a fragment's ranks
/// instead of sorting its values (src/stats/discretizer.h).
struct NumericDomain {
  /// Distinct non-NaN values, ascending in IEEE-754 totalOrder: -0.0 and
  /// +0.0 are two entries, -0.0 first.
  std::vector<double> values;
  /// Per row, the index of its value in `values`; kNullCode for NaN.
  std::vector<int32_t> ranks;

  /// The domain of `nums`: first-appearance ids from a hash on each value's
  /// bit pattern, one sort of the distinct values, then ids remapped to
  /// ranks. O(n + d log d) for n rows holding d distinct values.
  static NumericDomain Build(const std::vector<double>& nums);
};

/// A single typed column. Categorical cells are stored as int32 codes into a
/// per-column dictionary; numeric cells as doubles (NaN encodes null).
class Column {
 public:
  explicit Column(AttrType type) : type_(type) {}

  AttrType type() const { return type_; }
  size_t size() const {
    return type_ == AttrType::kCategorical ? codes_.size() : nums_.size();
  }

  // --- Appending -----------------------------------------------------------

  /// Appends a categorical value, interning it in the dictionary.
  /// Requires type() == kCategorical.
  void AppendString(const std::string& s) {
    codes_.push_back(Intern(s));
  }

  /// Appends a numeric value. Requires type() == kNumeric.
  void AppendNumber(double d) { nums_.push_back(d); }

  /// Appends a null of the column's type.
  void AppendNull() {
    if (type_ == AttrType::kCategorical) {
      codes_.push_back(kNullCode);
    } else {
      nums_.push_back(std::numeric_limits<double>::quiet_NaN());
    }
  }

  /// Appends a generic Value (must match the column type or be null).
  /// Returns false on a type mismatch.
  bool AppendValue(const Value& v) {
    if (v.is_null()) {
      AppendNull();
      return true;
    }
    if (type_ == AttrType::kCategorical) {
      if (!v.is_string()) return false;
      AppendString(v.AsString());
      return true;
    }
    if (!v.is_number()) return false;
    AppendNumber(v.AsNumber());
    return true;
  }

  // --- Cell access ---------------------------------------------------------

  /// Dictionary code at `row` (categorical columns only).
  int32_t CodeAt(size_t row) const { return codes_[row]; }

  /// Numeric value at `row` (numeric columns only). NaN means null.
  double NumberAt(size_t row) const { return nums_[row]; }

  bool IsNullAt(size_t row) const {
    return type_ == AttrType::kCategorical ? codes_[row] == kNullCode
                                           : std::isnan(nums_[row]);
  }

  /// Generic cell access (allocates for categorical cells).
  Value ValueAt(size_t row) const {
    if (IsNullAt(row)) return Value::Null();
    if (type_ == AttrType::kCategorical) return Value(dict_[codes_[row]]);
    return Value(nums_[row]);
  }

  // --- Dictionary ----------------------------------------------------------

  /// Number of distinct non-null categorical values seen so far.
  size_t DictSize() const { return dict_.size(); }

  /// The string for dictionary code `code` (0 <= code < DictSize()).
  const std::string& DictString(int32_t code) const { return dict_[code]; }

  /// Code for `s`, or kNullCode when `s` was never interned.
  int32_t CodeOf(const std::string& s) const {
    auto it = dict_index_.find(s);
    return it == dict_index_.end() ? kNullCode : it->second;
  }

  /// Interns `s` (idempotent) and returns its code.
  int32_t Intern(const std::string& s) {
    auto it = dict_index_.find(s);
    if (it != dict_index_.end()) return it->second;
    int32_t code = static_cast<int32_t>(dict_.size());
    dict_.push_back(s);
    dict_index_[s] = code;
    return code;
  }

  /// Raw code vector (categorical columns; size() entries).
  const std::vector<int32_t>& codes() const { return codes_; }
  /// The dictionary, indexed by code (categorical columns).
  const std::vector<std::string>& dict() const { return dict_; }

  /// The numeric domain (empty for a categorical column), built on first
  /// use and rebuilt when rows were appended since. Concurrent callers share
  /// one build; appending still needs exclusive access to the column.
  std::shared_ptr<const NumericDomain> Domain() const;

 private:
  AttrType type_;
  std::vector<int32_t> codes_;   // kCategorical payload
  std::vector<double> nums_;     // kNumeric payload
  std::vector<std::string> dict_;
  std::unordered_map<std::string, int32_t> dict_index_;
  mutable Mutex domain_mu_;
  mutable std::shared_ptr<const NumericDomain> domain_
      DBX_GUARDED_BY(domain_mu_);
};

}  // namespace dbx

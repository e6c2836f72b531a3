#include "src/relation/predicate.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/util/string_util.h"

namespace dbx {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

namespace {

class CmpPredicate : public Predicate {
 public:
  CmpPredicate(std::string attr, CmpOp op, Value value)
      : attr_(std::move(attr)), op_(op), value_(std::move(value)) {}

  Status Bind(const Schema& schema) override {
    auto idx = schema.IndexOf(attr_);
    if (!idx) return Status::NotFound("no attribute named '" + attr_ + "'");
    col_ = *idx;
    type_ = schema.attr(col_).type;
    if (type_ == AttrType::kCategorical) {
      if (!value_.is_string()) {
        return Status::InvalidArgument(
            "categorical attribute '" + attr_ + "' compared to non-string");
      }
      if (op_ != CmpOp::kEq && op_ != CmpOp::kNe) {
        return Status::NotSupported(
            "only =/!= supported on categorical attribute '" + attr_ + "'");
      }
    } else if (!value_.is_number()) {
      return Status::InvalidArgument(
          "numeric attribute '" + attr_ + "' compared to non-number");
    }
    bound_ = true;
    return Status::OK();
  }

  bool Matches(const Table& table, uint32_t row) const override {
    const Column& c = table.col(col_);
    if (c.IsNullAt(row)) return false;
    if (type_ == AttrType::kCategorical) {
      // Compare via dictionary code; CodeOf is O(1) hashing but we cache the
      // string — codes differ across tables so we cannot cache the code here.
      bool eq = c.DictString(c.CodeAt(row)) == value_.AsString();
      return op_ == CmpOp::kEq ? eq : !eq;
    }
    double x = c.NumberAt(row);
    double y = value_.AsNumber();
    switch (op_) {
      case CmpOp::kEq: return x == y;
      case CmpOp::kNe: return x != y;
      case CmpOp::kLt: return x < y;
      case CmpOp::kLe: return x <= y;
      case CmpOp::kGt: return x > y;
      case CmpOp::kGe: return x >= y;
    }
    return false;
  }

  std::string ToString() const override {
    return attr_ + " " + CmpOpName(op_) + " " +
           (value_.is_string()   ? QuoteSqlString(value_.AsString())
            : value_.is_number() ? FormatShortest(value_.AsNumber())
                                 : value_.ToDisplay());
  }

 private:
  std::string attr_;
  CmpOp op_;
  Value value_;
  size_t col_ = 0;
  AttrType type_ = AttrType::kCategorical;
  bool bound_ = false;
};

class BetweenPredicate : public Predicate {
 public:
  BetweenPredicate(std::string attr, double lo, double hi)
      : attr_(std::move(attr)), lo_(lo), hi_(hi) {}

  Status Bind(const Schema& schema) override {
    auto idx = schema.IndexOf(attr_);
    if (!idx) return Status::NotFound("no attribute named '" + attr_ + "'");
    col_ = *idx;
    if (schema.attr(col_).type != AttrType::kNumeric) {
      return Status::InvalidArgument("BETWEEN on non-numeric attribute '" +
                                     attr_ + "'");
    }
    return Status::OK();
  }

  bool Matches(const Table& table, uint32_t row) const override {
    const Column& c = table.col(col_);
    if (c.IsNullAt(row)) return false;
    double x = c.NumberAt(row);
    return x >= lo_ && x <= hi_;
  }

  std::string ToString() const override {
    return attr_ + " BETWEEN " + FormatShortest(lo_) + " AND " +
           FormatShortest(hi_);
  }

 private:
  std::string attr_;
  double lo_, hi_;
  size_t col_ = 0;
};

class InPredicate : public Predicate {
 public:
  InPredicate(std::string attr, std::vector<std::string> values)
      : attr_(std::move(attr)), values_(std::move(values)) {}

  Status Bind(const Schema& schema) override {
    auto idx = schema.IndexOf(attr_);
    if (!idx) return Status::NotFound("no attribute named '" + attr_ + "'");
    col_ = *idx;
    if (schema.attr(col_).type != AttrType::kCategorical) {
      return Status::InvalidArgument("IN on non-categorical attribute '" +
                                     attr_ + "'");
    }
    set_ = std::unordered_set<std::string>(values_.begin(), values_.end());
    return Status::OK();
  }

  bool Matches(const Table& table, uint32_t row) const override {
    const Column& c = table.col(col_);
    if (c.IsNullAt(row)) return false;
    return set_.count(c.DictString(c.CodeAt(row))) > 0;
  }

  std::string ToString() const override {
    std::vector<std::string> quoted;
    quoted.reserve(values_.size());
    for (const auto& v : values_) quoted.push_back(QuoteSqlString(v));
    return attr_ + " IN (" + Join(quoted, ", ") + ")";
  }

 private:
  std::string attr_;
  std::vector<std::string> values_;
  std::unordered_set<std::string> set_;
  size_t col_ = 0;
};

class AndPredicate : public Predicate {
 public:
  explicit AndPredicate(std::vector<PredicatePtr> children)
      : children_(std::move(children)) {}

  Status Bind(const Schema& schema) override {
    for (auto& c : children_) DBX_RETURN_IF_ERROR(c->Bind(schema));
    return Status::OK();
  }

  bool Matches(const Table& table, uint32_t row) const override {
    for (const auto& c : children_) {
      if (!c->Matches(table, row)) return false;
    }
    return true;
  }

  std::string ToString() const override {
    if (children_.empty()) return "TRUE";
    std::vector<std::string> parts;
    parts.reserve(children_.size());
    for (const auto& c : children_) parts.push_back(c->ToString());
    return "(" + Join(parts, " AND ") + ")";
  }

 private:
  std::vector<PredicatePtr> children_;
};

class OrPredicate : public Predicate {
 public:
  explicit OrPredicate(std::vector<PredicatePtr> children)
      : children_(std::move(children)) {}

  Status Bind(const Schema& schema) override {
    for (auto& c : children_) DBX_RETURN_IF_ERROR(c->Bind(schema));
    return Status::OK();
  }

  bool Matches(const Table& table, uint32_t row) const override {
    for (const auto& c : children_) {
      if (c->Matches(table, row)) return true;
    }
    return false;
  }

  std::string ToString() const override {
    if (children_.empty()) return "FALSE";
    std::vector<std::string> parts;
    parts.reserve(children_.size());
    for (const auto& c : children_) parts.push_back(c->ToString());
    return "(" + Join(parts, " OR ") + ")";
  }

 private:
  std::vector<PredicatePtr> children_;
};

class NotPredicate : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr child) : child_(std::move(child)) {}

  Status Bind(const Schema& schema) override { return child_->Bind(schema); }

  bool Matches(const Table& table, uint32_t row) const override {
    return !child_->Matches(table, row);
  }

  std::string ToString() const override {
    return "NOT " + child_->ToString();
  }

 private:
  PredicatePtr child_;
};

}  // namespace

Result<RowSet> Predicate::Evaluate(Predicate* pred, const TableSlice& slice) {
  if (pred == nullptr || slice.table == nullptr) {
    return Status::InvalidArgument("null predicate or table");
  }
  DBX_RETURN_IF_ERROR(pred->Bind(slice.table->schema()));
  RowSet out;
  out.reserve(slice.rows.size() / 4 + 1);
  for (uint32_t r : slice.rows) {
    if (pred->Matches(*slice.table, r)) out.push_back(r);
  }
  return out;
}

PredicatePtr MakeCmp(std::string attr, CmpOp op, Value value) {
  return std::make_unique<CmpPredicate>(std::move(attr), op, std::move(value));
}

PredicatePtr MakeBetween(std::string attr, double lo, double hi) {
  return std::make_unique<BetweenPredicate>(std::move(attr), lo, hi);
}

PredicatePtr MakeIn(std::string attr, std::vector<std::string> values) {
  return std::make_unique<InPredicate>(std::move(attr), std::move(values));
}

PredicatePtr MakeAnd(std::vector<PredicatePtr> children) {
  return std::make_unique<AndPredicate>(std::move(children));
}

PredicatePtr MakeOr(std::vector<PredicatePtr> children) {
  return std::make_unique<OrPredicate>(std::move(children));
}

PredicatePtr MakeNot(PredicatePtr child) {
  return std::make_unique<NotPredicate>(std::move(child));
}

PredicatePtr MakeTrue() {
  return std::make_unique<AndPredicate>(std::vector<PredicatePtr>{});
}

}  // namespace dbx

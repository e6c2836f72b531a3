#include "src/facet/facet_engine.h"

#include <algorithm>


namespace dbx {

Result<FacetEngine> FacetEngine::Create(const Table* table,
                                        const DiscretizerOptions& options) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  FacetEngine e;
  e.table_ = table;
  auto dt = DiscretizedTable::Build(TableSlice::All(*table), options);
  if (!dt.ok()) return dt.status();
  e.dt_ = std::move(*dt);
  e.index_ = FacetIndex::Build(e.dt_);
  e.Recompute();
  return e;
}

Result<std::pair<size_t, int32_t>> FacetEngine::ResolveValue(
    const std::string& attr, const std::string& label,
    bool must_be_queriable) const {
  auto idx = dt_.IndexOf(attr);
  if (!idx) return Status::NotFound("no attribute named '" + attr + "'");
  const DiscreteAttr& a = dt_.attr(*idx);
  if (must_be_queriable && !a.queriable) {
    return Status::FailedPrecondition("attribute '" + attr +
                                      "' is not queriable in this interface");
  }
  for (size_t c = 0; c < a.labels.size(); ++c) {
    if (a.labels[c] == label) {
      return std::make_pair(*idx, static_cast<int32_t>(c));
    }
  }
  return Status::NotFound("attribute '" + attr + "' has no value '" + label +
                          "'");
}

Status FacetEngine::SelectValue(const std::string& attr,
                                const std::string& label) {
  auto rv = ResolveValue(attr, label, /*must_be_queriable=*/true);
  if (!rv.ok()) return rv.status();
  selections_[rv->first].codes.insert(rv->second);
  ++operation_count_;
  Recompute();
  return Status::OK();
}

Status FacetEngine::DeselectValue(const std::string& attr,
                                  const std::string& label) {
  auto rv = ResolveValue(attr, label, /*must_be_queriable=*/true);
  if (!rv.ok()) return rv.status();
  auto it = selections_.find(rv->first);
  if (it != selections_.end()) {
    it->second.codes.erase(rv->second);
    if (it->second.codes.empty()) selections_.erase(it);
  }
  ++operation_count_;
  Recompute();
  return Status::OK();
}

Status FacetEngine::ClearAttribute(const std::string& attr) {
  auto idx = dt_.IndexOf(attr);
  if (!idx) return Status::NotFound("no attribute named '" + attr + "'");
  selections_.erase(*idx);
  ++operation_count_;
  Recompute();
  return Status::OK();
}

void FacetEngine::RestoreSelections(
    std::map<size_t, FacetSelection> selections) {
  selections_ = std::move(selections);
  ++operation_count_;
  Recompute();
}

void FacetEngine::Reset() {
  selections_.clear();
  ++operation_count_;
  Recompute();
}

std::vector<std::vector<int32_t>> FacetEngine::SelectionVectors() const {
  std::vector<std::vector<int32_t>> v(dt_.num_attrs());
  for (const auto& [attr_idx, sel] : selections_) {
    v[attr_idx].assign(sel.codes.begin(), sel.codes.end());
  }
  return v;
}

void FacetEngine::Recompute() {
  ScopedSpan span(tracer_, "facet_recompute", trace_parent_);
  span.AddArg("selected_attrs", static_cast<uint64_t>(selections_.size()));
  result_rows_ = index_.EvaluateSelections(SelectionVectors()).ToRowSet();
  span.AddArg("result_rows", static_cast<uint64_t>(result_rows_.size()));
}

Result<AttributeDigest> FacetEngine::PanelCounts(const std::string& attr) const {
  auto idx = dt_.IndexOf(attr);
  if (!idx) return Status::NotFound("no attribute named '" + attr + "'");
  AttributeDigest d;
  d.attr_name = attr;
  d.labels = dt_.attr(*idx).labels;
  d.counts = index_.MultiSelectCounts(SelectionVectors(), *idx);
  return d;
}

SummaryDigest FacetEngine::Digest() const {
  std::vector<size_t> positions(result_rows_.begin(), result_rows_.end());
  return BuildDigest(dt_, positions);
}

Result<SummaryDigest> FacetEngine::DigestForValue(
    const std::string& attr, const std::string& label) const {
  auto rv = ResolveValue(attr, label, /*must_be_queriable=*/false);
  if (!rv.ok()) return rv.status();
  const DiscreteAttr& a = dt_.attr(rv->first);
  std::vector<size_t> positions;
  for (uint32_t row : result_rows_) {
    if (a.codes[row] == rv->second) positions.push_back(row);
  }
  return BuildDigest(dt_, positions);
}

}  // namespace dbx

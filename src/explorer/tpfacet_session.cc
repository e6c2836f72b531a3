#include "src/explorer/tpfacet_session.h"

#include "src/obs/explain.h"
#include "src/util/ascii_table.h"
#include "src/util/string_util.h"

namespace dbx {

Result<TpFacetSession> TpFacetSession::Create(
    const Table* table, const DiscretizerOptions& disc_options,
    CadViewOptions cad_defaults) {
  TpFacetSession s;
  auto facets = FacetEngine::Create(table, disc_options);
  if (!facets.ok()) return facets.status();
  s.facets_ = std::move(*facets);
  s.cad_defaults_ = std::move(cad_defaults);
  s.cad_defaults_.discretizer = disc_options;
  return s;
}

Result<TpFacetSession> TpFacetSession::Create(
    std::shared_ptr<const Table> table, const DiscretizerOptions& disc_options,
    CadViewOptions cad_defaults) {
  auto session = Create(table.get(), disc_options, std::move(cad_defaults));
  if (!session.ok()) return session.status();
  session->owned_table_ = std::move(table);
  return session;
}

Result<std::string> TpFacetSession::RenderResultPage(
    size_t offset, size_t limit,
    const std::vector<std::string>& columns) const {
  const Table& table = facets_.table();
  std::vector<size_t> col_indices;
  std::vector<std::string> header;
  if (columns.empty()) {
    for (size_t c = 0; c < table.num_cols(); ++c) {
      col_indices.push_back(c);
      header.push_back(table.schema().attr(c).name);
    }
  } else {
    for (const std::string& name : columns) {
      auto idx = table.schema().IndexOf(name);
      if (!idx) return Status::NotFound("no attribute named '" + name + "'");
      col_indices.push_back(*idx);
      header.push_back(name);
    }
  }
  const RowSet& rows = facets_.result_rows();
  AsciiTable render;
  render.SetHeader(std::move(header));
  size_t end = std::min(rows.size(), offset + limit);
  for (size_t i = offset; i < end; ++i) {
    std::vector<std::string> cells;
    cells.reserve(col_indices.size());
    for (size_t c : col_indices) {
      cells.push_back(table.At(rows[i], c).ToDisplay());
    }
    render.AddRow(std::move(cells));
  }
  return StringPrintf("results %zu-%zu of %zu\n",
                      rows.empty() ? 0 : std::min(offset + 1, rows.size()),
                      end, rows.size()) +
         render.Render();
}

Status TpFacetSession::SetPivot(const std::string& attr) {
  auto idx = facets_.discretized().IndexOf(attr);
  if (!idx) return Status::NotFound("no attribute named '" + attr + "'");
  Checkpoint();
  pivot_attr_ = attr;
  ++operation_count_;
  InvalidateView();
  return Status::OK();
}

void TpFacetSession::SetPivotValues(std::vector<std::string> values) {
  Checkpoint();
  pivot_values_ = std::move(values);
  ++operation_count_;
  InvalidateView();
}

void TpFacetSession::Checkpoint() {
  ExplorationState state;
  state.selections = facets_.selections();
  state.pivot_attr = pivot_attr_;
  state.pivot_values = pivot_values_;
  history_.push_back(std::move(state));
  // Bound memory for very long sessions.
  constexpr size_t kMaxHistory = 256;
  if (history_.size() > kMaxHistory) {
    history_.erase(history_.begin());
  }
}

Status TpFacetSession::Undo() {
  if (history_.empty()) {
    return Status::FailedPrecondition("nothing to undo");
  }
  ExplorationState state = std::move(history_.back());
  history_.pop_back();
  facets_.RestoreSelections(std::move(state.selections));
  pivot_attr_ = std::move(state.pivot_attr);
  pivot_values_ = std::move(state.pivot_values);
  ++operation_count_;
  InvalidateView();
  return Status::OK();
}

void TpFacetSession::SetViewCache(std::shared_ptr<ViewCache> cache,
                                  std::string dataset_id, std::string owner) {
  cache_ = std::move(cache);
  dataset_id_ = std::move(dataset_id);
  cache_owner_ = std::move(owner);
}

void TpFacetSession::SetTracer(Tracer* tracer, uint64_t trace_parent) {
  tracer_ = tracer == nullptr ? Tracer::Disabled() : tracer;
  trace_parent_ = trace_parent;
  facets_.SetTracer(tracer_, trace_parent_);
}

Status TpFacetSession::DumpTrace(const std::string& path) const {
  if (tracer_ == nullptr || !tracer_->enabled()) {
    return Status::FailedPrecondition(
        "no enabled tracer attached (call SetTracer first)");
  }
  return tracer_->WriteChromeJson(path);
}

Result<std::string> TpFacetSession::ExplainAnalyze() {
  if (pivot_attr_.empty()) {
    return Status::FailedPrecondition("no pivot attribute selected");
  }
  // A rebuild under a one-shot collector: the session keeps its current
  // tracer/cached view afterwards, only the in-memory view_ is refreshed.
  InvalidateView();
  Tracer tracer;
  Tracer* saved_tracer = tracer_;
  const uint64_t saved_parent = trace_parent_;
  Status view_status;
  size_t view_rows = 0;
  {
    ScopedSpan root(&tracer, "tpfacet_view");
    root.AddArg("pivot", pivot_attr_);
    SetTracer(&tracer, root.id());
    auto view = View();
    if (!view.ok()) {
      view_status = view.status();
      root.AddArg("error", view_status.message());
    } else {
      view_rows = (*view)->rows.size();
      root.AddArg("rows", static_cast<uint64_t>(view_rows));
    }
  }
  SetTracer(saved_tracer, saved_parent);
  DBX_RETURN_IF_ERROR(view_status);

  std::string text =
      "EXPLAIN ANALYZE tpfacet view (pivot=" + pivot_attr_ + ")\n\n";
  text += RenderSpanTree(tracer.Events());
  if (cache_ != nullptr) {
    text += "cache: " + CacheStatsLine(cache_->stats()) + "\n";
  }
  return text;
}

std::vector<std::string> TpFacetSession::SelectionPredicates() const {
  const DiscretizedTable& dt = facets_.discretized();
  std::vector<std::string> predicates;
  predicates.reserve(facets_.selections().size());
  for (const auto& [attr_idx, sel] : facets_.selections()) {
    if (sel.codes.empty()) continue;
    const DiscreteAttr& attr = dt.attr(attr_idx);
    std::string pred = attr.name + " IN (";
    bool first = true;
    for (int32_t code : sel.codes) {  // std::set: ascending, deterministic
      if (!first) pred += ", ";
      first = false;
      if (code >= 0 && static_cast<size_t>(code) < attr.labels.size()) {
        pred += QuoteSqlString(attr.labels[static_cast<size_t>(code)]);
      } else {
        pred += "''";
      }
    }
    pred += ")";
    predicates.push_back(std::move(pred));
  }
  return predicates;
}

Result<const CadView*> TpFacetSession::View() {
  if (view_.has_value()) return const_cast<const CadView*>(&*view_);
  if (pivot_attr_.empty()) {
    return Status::FailedPrecondition("no pivot attribute selected");
  }
  CadViewOptions options = cad_defaults_;
  options.pivot_attr = pivot_attr_;
  options.pivot_values = pivot_values_;
  options.tracer = tracer_;
  options.trace_parent = trace_parent_;

  // The domain mode is part of the params: global-domain bins produce
  // different bytes than the per-fragment bins of an engine build.
  auto make_key = [&](const std::string& fingerprint) {
    return ViewCacheKey::Make(dataset_id_, SelectionPredicates(), pivot_attr_,
                              pivot_values_, fingerprint + "|global_domain=1");
  };
  // Project the engine's full-table discretization onto the current result
  // set (row ids coincide with discretized positions because the engine
  // discretizes the whole table).
  auto build = [&] {
    return BuildCadViewFromDiscretized(
        facets_.discretized().Project(facets_.result_rows()), options);
  };
  DBX_ASSIGN_OR_RETURN(CachedBuild built,
                       GetOrBuildCadView(cache_.get(), options, make_key,
                                         build, cache_owner_));
  last_timings_ = built.view.timings;
  view_ = std::move(built.view);
  return const_cast<const CadView*>(&*view_);
}

Result<std::vector<IUnitRef>> TpFacetSession::ClickIUnit(
    const std::string& pivot_value, size_t iunit_rank) {
  ScopedSpan span(tracer_, "click_iunit", trace_parent_);
  span.AddArg("pivot_value", pivot_value);
  DBX_ASSIGN_OR_RETURN(const CadView* v, View());
  ++operation_count_;
  return v->FindSimilarIUnits(pivot_value, iunit_rank, v->tau);
}

Result<std::vector<std::pair<std::string, double>>>
TpFacetSession::ClickPivotValue(const std::string& pivot_value) {
  ScopedSpan span(tracer_, "click_pivot_value", trace_parent_);
  span.AddArg("pivot_value", pivot_value);
  DBX_ASSIGN_OR_RETURN(const CadView* v, View());
  ++operation_count_;
  auto ranked = v->RankRowsBySimilarity(pivot_value);
  if (!ranked.ok()) return ranked.status();
  // Mirror the UI: the stored view's rows adopt the new order.
  DBX_RETURN_IF_ERROR(view_->ReorderRowsBySimilarity(pivot_value));
  return ranked;
}

}  // namespace dbx

// Copyright (c) DBExplorer reproduction authors.
// TPFacet (paper §5): the two-phased faceted interface integrating the CAD
// View. One phase shows the result panel (tuples), the other the CAD View;
// the user toggles, selects a pivot with a radio button, clicks IUnits to
// highlight similar ones, and clicks pivot values to reorder rows. This class
// is that interface as a programmatic session — the user study's simulated
// users drive exactly these entry points.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cad_view.h"
#include "src/core/cad_view_builder.h"
#include "src/core/view_cache.h"
#include "src/facet/facet_engine.h"
#include "src/obs/trace.h"
#include "src/util/result.h"

namespace dbx {

/// Which panel currently occupies the screen (the paper's two phases).
enum class TpFacetPhase {
  kResults,        // result-set phase: browse tuples
  kQueryRevision,  // query-revision phase: the CAD View
};

/// An interactive TPFacet session over one table.
class TpFacetSession {
 public:
  /// `cad_defaults.pivot_attr`/`pivot_values` are ignored; they come from
  /// interaction.
  [[nodiscard]] static Result<TpFacetSession> Create(const Table* table,
                                       const DiscretizerOptions& disc_options,
                                       CadViewOptions cad_defaults);

  /// As above over a backend-owned snapshot (storage::TableSnapshot::table):
  /// the session shares ownership, so the backend can be closed while the
  /// exploration continues.
  [[nodiscard]] static Result<TpFacetSession> Create(
      std::shared_ptr<const Table> table,
      const DiscretizerOptions& disc_options, CadViewOptions cad_defaults);

  // --- Query panel (shared by both phases) ---------------------------------

  [[nodiscard]]
  Status SelectValue(const std::string& attr, const std::string& label) {
    Checkpoint();
    InvalidateView();
    Status st = facets_.SelectValue(attr, label);
    if (!st.ok()) DropCheckpoint();
    return st;
  }
  [[nodiscard]]
  Status DeselectValue(const std::string& attr, const std::string& label) {
    Checkpoint();
    InvalidateView();
    Status st = facets_.DeselectValue(attr, label);
    if (!st.ok()) DropCheckpoint();
    return st;
  }
  [[nodiscard]] Status ClearAttribute(const std::string& attr) {
    Checkpoint();
    InvalidateView();
    Status st = facets_.ClearAttribute(attr);
    if (!st.ok()) DropCheckpoint();
    return st;
  }
  void ResetSelections() {
    Checkpoint();
    InvalidateView();
    facets_.Reset();
  }

  // --- Backtracking (paper §1: "choices in sequence, with some backtracking
  // where needed") --------------------------------------------------------

  /// True when Undo() has a state to restore.
  bool CanUndo() const { return !history_.empty(); }

  /// Restores the query panel and pivot to the state before the most recent
  /// selection change / pivot change. Fails when there is nothing to undo.
  [[nodiscard]] Status Undo();

  /// Number of exploration states recorded.
  size_t history_depth() const { return history_.size(); }

  // --- Results phase ---------------------------------------------------------

  /// Renders one page of the current result set as an ASCII table (the
  /// paper's results panel). `columns` empty = all attributes. Offsets past
  /// the end yield an empty page, not an error.
  [[nodiscard]]
  Result<std::string> RenderResultPage(size_t offset, size_t limit,
                                       const std::vector<std::string>& columns
                                       = {}) const;

  const FacetEngine& facets() const { return facets_; }
  const RowSet& result_rows() const { return facets_.result_rows(); }

  // --- Phase toggle ---------------------------------------------------------

  TpFacetPhase phase() const { return phase_; }
  void TogglePhase() {
    phase_ = phase_ == TpFacetPhase::kResults ? TpFacetPhase::kQueryRevision
                                              : TpFacetPhase::kResults;
    ++operation_count_;
  }

  // --- CAD View interactions (query-revision phase) -------------------------

  /// Radio-button pivot selection. Rebuilds the view lazily on next access.
  [[nodiscard]] Status SetPivot(const std::string& attr);

  /// Restricts the view to specific pivot values (empty = all).
  void SetPivotValues(std::vector<std::string> values);

  /// The current CAD View, building it if stale over a projection of the
  /// engine's full-table discretization: facet labels stay identical across
  /// interactions and re-builds skip re-binning. Requires SetPivot.
  [[nodiscard]] Result<const CadView*> View();

  /// Click on an IUnit: returns similar IUnits across the view (threshold
  /// tau from the build options), mirroring the paper's highlight effect.
  [[nodiscard]]
  Result<std::vector<IUnitRef>> ClickIUnit(const std::string& pivot_value,
                                           size_t iunit_rank);

  /// Click on a pivot value: reorders the view's rows by Algorithm-2
  /// similarity and returns the new order with distances.
  [[nodiscard]]
  Result<std::vector<std::pair<std::string, double>>> ClickPivotValue(
      const std::string& pivot_value);

  /// Total interface operations (facet ops + toggles + CAD clicks); the
  /// user-study cost model converts these into task time.
  size_t operation_count() const {
    return operation_count_ + facets_.operation_count();
  }

  /// Timings of the last view build (Fig 8 decomposition), if any.
  std::optional<CadViewTimings> last_build_timings() const {
    return last_timings_;
  }

  /// Attaches a (possibly shared) view cache. Subsequent View() calls look up
  /// the current (selections, pivot, options) context before building, and
  /// misses insert the finished view. `dataset_id` names the table
  /// *registration* for keying — use a MakeSnapshotDatasetId value when the
  /// cache is shared, so sessions over different registrations of one name
  /// can never collide. `owner` attributes this session's inserts
  /// for per-owner byte budgeting in a shared cache ("" = unattributed).
  /// Output is byte-identical with or without a cache. nullptr detaches.
  void SetViewCache(std::shared_ptr<ViewCache> cache, std::string dataset_id,
                    std::string owner = "");

  /// Canonical predicate strings of the current query panel, one per selected
  /// attribute ("attr IN ('a', 'b')", values by ascending code) — the
  /// conjunctive selection context the cache keys on.
  std::vector<std::string> SelectionPredicates() const;

  // --- Observability --------------------------------------------------------

  /// Attaches a span collector: View() and the click entry points emit spans
  /// under `trace_parent`, and the facet engine's recomputes follow along.
  /// Tracing never changes the bytes of any view. nullptr detaches.
  void SetTracer(Tracer* tracer, uint64_t trace_parent = 0);
  Tracer* tracer() const { return tracer_; }

  /// Writes the attached tracer's spans as Chrome trace_event JSON (load via
  /// chrome://tracing or https://ui.perfetto.dev). FailedPrecondition when no
  /// enabled tracer is attached.
  [[nodiscard]] Status DumpTrace(const std::string& path) const;

  /// Rebuilds the current view under a one-shot tracer and renders the
  /// per-stage span tree plus the cache snapshot — the session-level
  /// EXPLAIN ANALYZE. Call twice to see the cold build and then the
  /// cache-hit path. Requires SetPivot; does not count as an operation.
  [[nodiscard]] Result<std::string> ExplainAnalyze();

  /// Point-in-time aggregate + per-entry picture of the attached cache
  /// (empty snapshot when none is attached).
  ViewCacheSnapshot CacheSnapshot() const {
    return cache_ != nullptr ? cache_->Snapshot() : ViewCacheSnapshot{};
  }

 private:
  TpFacetSession() = default;
  void InvalidateView() { view_.reset(); }

  /// Snapshot of the undoable exploration state.
  struct ExplorationState {
    std::map<size_t, FacetSelection> selections;
    std::string pivot_attr;
    std::vector<std::string> pivot_values;
  };
  void Checkpoint();
  void DropCheckpoint() {
    if (!history_.empty()) history_.pop_back();
  }

  std::vector<ExplorationState> history_;
  /// Set by the snapshot Create overload; keeps the explored table alive.
  std::shared_ptr<const Table> owned_table_;
  FacetEngine facets_;
  CadViewOptions cad_defaults_;
  std::string pivot_attr_;
  std::vector<std::string> pivot_values_;
  std::optional<CadView> view_;
  std::optional<CadViewTimings> last_timings_;
  TpFacetPhase phase_ = TpFacetPhase::kResults;
  size_t operation_count_ = 0;
  std::shared_ptr<ViewCache> cache_;
  std::string dataset_id_;
  std::string cache_owner_;
  Tracer* tracer_ = Tracer::Disabled();
  uint64_t trace_parent_ = 0;
};

}  // namespace dbx

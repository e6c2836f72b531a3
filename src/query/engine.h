// Copyright (c) DBExplorer reproduction authors.
// Statement execution: a catalog of registered tables, named CAD Views, and
// the bridge from parsed statements to the core builder. This is the
// programmatic equivalent of the paper's extended-SQL examples in §2.1.2.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cad_view.h"
#include "src/core/cad_view_builder.h"
#include "src/core/view_cache.h"
#include "src/obs/trace.h"
#include "src/query/ast.h"
#include "src/util/result.h"

namespace dbx {

/// What a statement produced.
struct ExecOutcome {
  /// In the order of Statement's alternatives.
  enum class Kind { kSelection, kCadView, kHighlight, kReorder, kDescribe,
                    kShow, kDrop, kExplain };
  Kind kind = Kind::kSelection;

  // kSelection
  const Table* table = nullptr;
  RowSet rows;
  std::vector<std::string> projected_columns;
  /// For aggregate (GROUP BY) queries: the materialized result table that
  /// `table` points at. Null for plain selections.
  std::shared_ptr<Table> derived;

  // kCadView / kHighlight / kReorder
  std::string view_name;
  const CadView* view = nullptr;

  // kHighlight
  std::vector<IUnitRef> highlights;

  /// Pre-rendered text (CAD View table, highlight summary, ...) for REPLs.
  std::string rendered;

  /// Canonical form of the executed statement (set by ExecuteSql; empty for
  /// pre-parsed statements) — what the query log records.
  std::string canonical_sql;

  /// View-cache probe outcome for CREATE CADVIEW statements:
  /// "hit" / "miss" / "uncacheable" / "no-cache"; "none" for every other
  /// statement kind.
  std::string cache_result = "none";
};

/// The label of a statement kind in metric names and EXPLAIN root spans,
/// e.g. "select" or "create_cadview".
const char* StatementKindName(ExecOutcome::Kind kind);

/// One catalog entry: an immutable table and the snapshot dataset id that
/// keys its cached views.
struct TableRegistration {
  std::shared_ptr<const Table> table;
  std::string dataset_id;
};

/// A shared_ptr that does not own `table` — the form a table registered by
/// raw pointer takes in a catalog (its caller owns it).
inline std::shared_ptr<const Table> BorrowedTable(const Table* table) {
  return std::shared_ptr<const Table>(std::shared_ptr<const Table>(), table);
}

/// The exploratory-search engine: executes dialect statements against
/// registered tables and keeps created CAD Views by name.
class Engine {
 public:
  /// Registers `table` under `name`; the table must outlive the engine.
  /// Re-registering a name replaces it. Each registration mints a fresh
  /// snapshot dataset id (see MakeSnapshotDatasetId) that keys any attached
  /// cache, so views built over a superseded registration can never be
  /// served for the new one — even by a cache shared with other engines.
  void RegisterTable(const std::string& name, const Table* table);

  /// Registers `table` under `name` with a caller-owned snapshot dataset id.
  /// Several engines registering the *same* immutable snapshot under the
  /// same id share cache entries (the multi-session server's sessions); the
  /// caller owns invalidation for the id's lifecycle.
  void RegisterTableSnapshot(const std::string& name, const Table* table,
                             std::string dataset_id);

  /// As above, but the engine shares ownership of the snapshot — the form a
  /// storage backend hands out (LoadTable returns shared_ptr<const Table> +
  /// content-addressed id). The snapshot outlives any re-registration of the
  /// name for as long as this engine does.
  void RegisterTableSnapshot(const std::string& name,
                             std::shared_ptr<const Table> table,
                             std::string dataset_id);

  /// Attributes this engine's cache inserts to `owner` for per-session byte
  /// budgeting in a shared ViewCache ("" = unattributed).
  void SetCacheOwner(std::string owner) { cache_owner_ = std::move(owner); }

  /// Default options applied to every CREATE CADVIEW (seed, discretizer,
  /// optimizations); statement clauses override M/K/pivot/attrs.
  void SetDefaultCadViewOptions(CadViewOptions options) {
    defaults_ = std::move(options);
  }

  /// Attaches a (possibly shared) view cache: repeated CREATE CADVIEW
  /// statements over an unchanged table short-circuit to the cached build.
  /// Re-registering a table invalidates its entries. nullptr detaches.
  void SetViewCache(std::shared_ptr<ViewCache> cache) {
    cache_ = std::move(cache);
  }

  /// Attaches a span collector: CREATE CADVIEW statements emit cache_probe
  /// and pipeline-stage spans under `trace_parent`. EXPLAIN [ANALYZE]
  /// temporarily installs its own tracer regardless of this setting.
  void SetTracer(Tracer* tracer, uint64_t trace_parent = 0) {
    tracer_ = tracer == nullptr ? Tracer::Disabled() : tracer;
    trace_parent_ = trace_parent;
  }

  /// Parses and executes one statement.
  [[nodiscard]] Result<ExecOutcome> ExecuteSql(const std::string& sql);

  /// Executes an already-parsed statement.
  [[nodiscard]] Result<ExecOutcome> Execute(Statement statement);

  /// Fetches a stored view; Status::NotFound for unknown names.
  [[nodiscard]] Result<const CadView*> GetView(const std::string& name) const;

 private:
  [[nodiscard]] Result<ExecOutcome> ExecuteSelect(SelectStmt stmt);
  [[nodiscard]]
  Result<ExecOutcome> ExecuteAggregate(const Table& table, SelectStmt stmt);
  [[nodiscard]]
  Result<ExecOutcome> ExecuteCreateCadView(CreateCadViewStmt stmt);
  [[nodiscard]] Result<ExecOutcome> ExecuteHighlight(const HighlightStmt& stmt);
  [[nodiscard]] Result<ExecOutcome> ExecuteReorder(const ReorderStmt& stmt);
  [[nodiscard]] Result<ExecOutcome> ExecuteDescribe(const DescribeStmt& stmt);
  [[nodiscard]] Result<ExecOutcome> ExecuteShow(const ShowStmt& stmt);
  [[nodiscard]] Result<ExecOutcome> ExecuteDrop(const DropCadViewStmt& stmt);
  [[nodiscard]]
  Result<ExecOutcome> ExecuteExplain(ExplainStmt stmt, uint64_t parse_ns);

  std::map<std::string, TableRegistration> tables_;
  std::map<std::string, std::unique_ptr<CadView>> views_;
  CadViewOptions defaults_;
  std::shared_ptr<ViewCache> cache_;
  std::string cache_owner_;
  Tracer* tracer_ = Tracer::Disabled();
  uint64_t trace_parent_ = 0;
  /// Parse time of the statement ExecuteSql just handed to Execute — the
  /// "parse" span of an EXPLAIN ANALYZE (0 for pre-parsed statements).
  uint64_t last_parse_ns_ = 0;
};

}  // namespace dbx

#include "src/query/engine.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>

#include "src/core/cad_view_renderer.h"
#include "src/obs/explain.h"
#include "src/query/canonical.h"
#include "src/query/parser.h"
#include "src/util/ascii_table.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace dbx {
namespace {

// Indexed by ExecOutcome::Kind, whose order is that of Statement.
constexpr const char* kStatementKindNames[] = {
    "select", "create_cadview", "highlight", "reorder",
    "describe", "show", "drop", "explain"};
static_assert(std::size(kStatementKindNames) == std::variant_size_v<Statement>);

// One ORDER BY key: stable-sorts `rows` by their cells in `col`. Null cells
// sort last under ASC, first under DESC.
void StableSortRowsBy(const Column& col, bool ascending, RowSet* rows) {
  std::stable_sort(rows->begin(), rows->end(), [&](uint32_t a, uint32_t b) {
    bool na = col.IsNullAt(a), nb = col.IsNullAt(b);
    if (na || nb) return ascending ? (!na && nb) : (na && !nb);
    if (col.type() == AttrType::kNumeric) {
      double x = col.NumberAt(a), y = col.NumberAt(b);
      return ascending ? x < y : x > y;
    }
    const std::string& x = col.DictString(col.CodeAt(a));
    const std::string& y = col.DictString(col.CodeAt(b));
    return ascending ? x < y : x > y;
  });
}

}  // namespace

void Engine::RegisterTable(const std::string& name, const Table* table) {
  // A (re-)registration means the data under `name` may have changed. The
  // fresh snapshot id keeps the new registration's cache keys disjoint from
  // every prior one (correctness, even across engines sharing the cache);
  // invalidating the superseded id just reclaims budget promptly.
  auto it = tables_.find(name);
  if (cache_ != nullptr && it != tables_.end()) {
    cache_->InvalidateDataset(it->second.dataset_id);
  }
  RegisterTableSnapshot(name, table, MakeSnapshotDatasetId(name));
}

void Engine::RegisterTableSnapshot(const std::string& name, const Table* table,
                                   std::string dataset_id) {
  RegisterTableSnapshot(name, BorrowedTable(table), std::move(dataset_id));
}

void Engine::RegisterTableSnapshot(const std::string& name,
                                   std::shared_ptr<const Table> table,
                                   std::string dataset_id) {
  tables_[name] = {std::move(table), std::move(dataset_id)};
}

const char* StatementKindName(ExecOutcome::Kind kind) {
  return kStatementKindNames[static_cast<size_t>(kind)];
}

Result<ExecOutcome> Engine::ExecuteSql(const std::string& sql) {
  Stopwatch parse_timer;
  DBX_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  last_parse_ns_ = parse_timer.ElapsedNanos();
  std::string canonical = StatementToSql(stmt);
  auto result = Execute(std::move(stmt));
  if (result.ok()) result->canonical_sql = std::move(canonical);
  return result;
}

Result<ExecOutcome> Engine::Execute(Statement statement) {
  const uint64_t parse_ns = last_parse_ns_;
  last_parse_ns_ = 0;
  if (auto* s = std::get_if<ExplainStmt>(&statement)) {
    return ExecuteExplain(std::move(*s), parse_ns);
  }
  if (auto* s = std::get_if<SelectStmt>(&statement)) {
    return ExecuteSelect(std::move(*s));
  }
  if (auto* s = std::get_if<CreateCadViewStmt>(&statement)) {
    return ExecuteCreateCadView(std::move(*s));
  }
  if (auto* s = std::get_if<HighlightStmt>(&statement)) {
    return ExecuteHighlight(*s);
  }
  if (auto* s = std::get_if<ReorderStmt>(&statement)) {
    return ExecuteReorder(*s);
  }
  if (auto* s = std::get_if<DescribeStmt>(&statement)) {
    return ExecuteDescribe(*s);
  }
  if (auto* s = std::get_if<ShowStmt>(&statement)) {
    return ExecuteShow(*s);
  }
  if (auto* s = std::get_if<DropCadViewStmt>(&statement)) {
    return ExecuteDrop(*s);
  }
  return Status::Internal("unhandled statement kind");
}

Result<const CadView*> Engine::GetView(const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("no CAD View named '" + name + "'");
  }
  return const_cast<const CadView*>(it->second.get());
}

Result<ExecOutcome> Engine::ExecuteSelect(SelectStmt stmt) {
  auto it = tables_.find(stmt.table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + stmt.table + "'");
  }
  const Table& table = *it->second.table;
  if (stmt.is_aggregate()) return ExecuteAggregate(table, std::move(stmt));

  // Validate projection.
  ExecOutcome out;
  out.kind = ExecOutcome::Kind::kSelection;
  out.table = &table;
  if (stmt.star) {
    for (const auto& a : table.schema().attrs()) {
      out.projected_columns.push_back(a.name);
    }
  } else {
    for (const std::string& c : stmt.columns) {
      if (!table.schema().Contains(c)) {
        return Status::NotFound("no attribute named '" + c + "'");
      }
      out.projected_columns.push_back(c);
    }
  }

  TableSlice slice = TableSlice::All(table);
  if (stmt.where) {
    auto rows = Predicate::Evaluate(stmt.where.get(), slice);
    if (!rows.ok()) return rows.status();
    out.rows = std::move(*rows);
  } else {
    out.rows = std::move(slice.rows);
  }
  // ORDER BY: stable multi-key sort (rightmost key applied first).
  for (auto rit = stmt.order_by.rbegin(); rit != stmt.order_by.rend(); ++rit) {
    const auto& [attr_name, ascending] = *rit;
    auto idx = table.schema().IndexOf(attr_name);
    if (!idx) return Status::NotFound("no attribute named '" + attr_name + "'");
    StableSortRowsBy(table.col(*idx), ascending, &out.rows);
  }
  if (stmt.limit && out.rows.size() > *stmt.limit) {
    out.rows.resize(*stmt.limit);
  }
  out.rendered = StringPrintf("%zu row(s)", out.rows.size());
  return out;
}

namespace {

std::string AggColumnName(const SelectItem& item) {
  if (!item.fn.has_value()) return item.attr;
  const char* prefix = "";
  switch (*item.fn) {
    case AggFn::kCount: return item.attr.empty() ? "count" : "count_" + item.attr;
    case AggFn::kAvg: prefix = "avg_"; break;
    case AggFn::kSum: prefix = "sum_"; break;
    case AggFn::kMin: prefix = "min_"; break;
    case AggFn::kMax: prefix = "max_"; break;
  }
  return prefix + item.attr;
}

}  // namespace

Result<ExecOutcome> Engine::ExecuteAggregate(const Table& table,
                                             SelectStmt stmt) {
  // Resolve inputs. Aggregated attributes must be numeric (COUNT excepted).
  struct Resolved {
    SelectItem item;
    std::optional<size_t> col;  // source column (nullopt for COUNT(*))
  };
  std::vector<Resolved> items;
  for (SelectItem& it : stmt.items) {
    Resolved r;
    if (!it.attr.empty()) {
      auto idx = table.schema().IndexOf(it.attr);
      if (!idx) return Status::NotFound("no attribute named '" + it.attr + "'");
      if (it.fn.has_value() && *it.fn != AggFn::kCount &&
          table.schema().attr(*idx).type != AttrType::kNumeric) {
        return Status::InvalidArgument("aggregate over non-numeric attribute '" +
                                       it.attr + "'");
      }
      r.col = *idx;
    }
    r.item = std::move(it);
    items.push_back(std::move(r));
  }
  std::vector<size_t> group_cols;
  for (const std::string& g : stmt.group_by) {
    auto idx = table.schema().IndexOf(g);
    if (!idx) return Status::NotFound("no attribute named '" + g + "'");
    group_cols.push_back(*idx);
  }

  // WHERE.
  TableSlice slice = TableSlice::All(table);
  if (stmt.where) {
    auto rows = Predicate::Evaluate(stmt.where.get(), slice);
    if (!rows.ok()) return rows.status();
    slice.rows = std::move(*rows);
  }

  // Accumulate per group (key = display strings of the grouping columns).
  struct Acc {
    std::vector<Value> group_values;
    uint64_t count_star = 0;
    std::vector<uint64_t> non_null;  // per item
    std::vector<double> sum, min, max;
    explicit Acc(size_t n_items)
        : non_null(n_items, 0), sum(n_items, 0.0),
          min(n_items, std::numeric_limits<double>::infinity()),
          max(n_items, -std::numeric_limits<double>::infinity()) {}
  };
  std::map<std::vector<std::string>, Acc> groups;
  for (uint32_t row : slice.rows) {
    std::vector<std::string> key;
    key.reserve(group_cols.size());
    for (size_t g : group_cols) key.push_back(table.At(row, g).ToDisplay());
    auto [it2, inserted] = groups.try_emplace(key, items.size());
    Acc& acc = it2->second;
    if (inserted) {
      for (size_t g : group_cols) acc.group_values.push_back(table.At(row, g));
    }
    ++acc.count_star;
    for (size_t i = 0; i < items.size(); ++i) {
      if (!items[i].item.fn.has_value() || !items[i].col.has_value()) continue;
      const Column& col = table.col(*items[i].col);
      if (col.IsNullAt(row)) continue;
      ++acc.non_null[i];
      if (col.type() == AttrType::kNumeric) {
        double v = col.NumberAt(row);
        acc.sum[i] += v;
        acc.min[i] = std::min(acc.min[i], v);
        acc.max[i] = std::max(acc.max[i], v);
      }
    }
  }

  // Output schema: one column per SELECT item, in order.
  std::vector<AttributeDef> out_attrs;
  for (const Resolved& r : items) {
    AttributeDef def;
    def.name = AggColumnName(r.item);
    def.type = r.item.fn.has_value()
                   ? AttrType::kNumeric
                   : table.schema().attr(*r.col).type;
    out_attrs.push_back(std::move(def));
  }
  auto out_schema = Schema::Make(std::move(out_attrs));
  if (!out_schema.ok()) {
    return Status::InvalidArgument("duplicate output column in SELECT list");
  }
  auto derived = std::make_shared<Table>(std::move(*out_schema));
  std::vector<Value> out_row(items.size());
  for (const auto& [key, acc] : groups) {
    for (size_t i = 0; i < items.size(); ++i) {
      const Resolved& r = items[i];
      if (!r.item.fn.has_value()) {
        // Find this group column's value (items may repeat/group order).
        size_t slot = 0;
        for (size_t g = 0; g < group_cols.size(); ++g) {
          if (table.schema().attr(group_cols[g]).name == r.item.attr) slot = g;
        }
        out_row[i] = acc.group_values[slot];
        continue;
      }
      switch (*r.item.fn) {
        case AggFn::kCount:
          out_row[i] = Value(static_cast<double>(
              r.item.attr.empty() ? acc.count_star : acc.non_null[i]));
          break;
        case AggFn::kSum:
          out_row[i] = Value(acc.sum[i]);
          break;
        case AggFn::kAvg:
          out_row[i] = acc.non_null[i] == 0
                           ? Value::Null()
                           : Value(acc.sum[i] /
                                   static_cast<double>(acc.non_null[i]));
          break;
        case AggFn::kMin:
          out_row[i] = acc.non_null[i] == 0 ? Value::Null() : Value(acc.min[i]);
          break;
        case AggFn::kMax:
          out_row[i] = acc.non_null[i] == 0 ? Value::Null() : Value(acc.max[i]);
          break;
      }
    }
    DBX_RETURN_IF_ERROR(derived->AppendRow(out_row));
  }

  ExecOutcome out;
  out.kind = ExecOutcome::Kind::kSelection;
  out.derived = derived;
  out.table = derived.get();
  out.rows = derived->AllRows();
  for (const auto& a : derived->schema().attrs()) {
    out.projected_columns.push_back(a.name);
  }

  // ORDER BY over the derived table's columns.
  for (auto rit = stmt.order_by.rbegin(); rit != stmt.order_by.rend(); ++rit) {
    const auto& [attr_name, ascending] = *rit;
    auto idx = derived->schema().IndexOf(attr_name);
    if (!idx) {
      return Status::NotFound("no output column named '" + attr_name + "'");
    }
    StableSortRowsBy(derived->col(*idx), ascending, &out.rows);
  }
  if (stmt.limit && out.rows.size() > *stmt.limit) {
    out.rows.resize(*stmt.limit);
  }

  // Render the aggregate result as a small table.
  AsciiTable render;
  render.SetHeader(out.projected_columns);
  size_t shown = std::min<size_t>(out.rows.size(), 25);
  for (size_t i = 0; i < shown; ++i) {
    std::vector<std::string> cells;
    for (size_t c = 0; c < derived->num_cols(); ++c) {
      cells.push_back(derived->At(out.rows[i], c).ToDisplay());
    }
    render.AddRow(std::move(cells));
  }
  out.rendered = StringPrintf("%zu group(s)\n", out.rows.size()) +
                 render.Render();
  return out;
}

Result<ExecOutcome> Engine::ExecuteCreateCadView(CreateCadViewStmt stmt) {
  auto it = tables_.find(stmt.table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + stmt.table + "'");
  }
  const TableRegistration& registration = it->second;

  CadViewOptions options = defaults_;
  options.pivot_attr = stmt.pivot_attr;
  options.user_compare_attrs = stmt.compare_attrs;
  if (stmt.limit_columns) options.max_compare_attrs = *stmt.limit_columns;
  if (stmt.iunits) options.iunits_per_value = *stmt.iunits;
  options.pivot_values.clear();  // derive from data below when restricted
  options.tracer = tracer_;
  options.trace_parent = trace_parent_;

  // Cache key for this statement: the WHERE clause (canonical text) is the
  // selection context; ORDER BY joins the params because the cached view is
  // the post-ORDER-BY result.
  auto make_key = [&](const std::string& fingerprint) {
    std::string params = fingerprint + "|ob=";
    for (const auto& [attr_name, ascending] : stmt.order_by) {
      params += attr_name + (ascending ? ":1," : ":0,");
    }
    std::vector<std::string> predicates;
    if (stmt.where) predicates.push_back(stmt.where->ToString());
    return ViewCacheKey::Make(registration.dataset_id, std::move(predicates),
                              stmt.pivot_attr, {}, std::move(params));
  };
  // When the WHERE clause pins the pivot attribute to an explicit OR/IN set,
  // the paper's example keeps exactly those values as the view's rows. We
  // keep the simpler rule: rows = pivot values present in the fragment
  // (identical outcome for such queries since other values were filtered out).
  auto build = [&]() -> Result<CadView> {
    TableSlice slice = TableSlice::All(*registration.table);
    if (stmt.where) {
      auto rows = Predicate::Evaluate(stmt.where.get(), slice);
      if (!rows.ok()) return rows.status();
      slice.rows = std::move(*rows);
    }
    auto view = BuildCadView(slice, options);
    if (!view.ok()) return view.status();

    // ORDER BY: sort each row's IUnits by a compare attribute's top value.
    for (auto rit = stmt.order_by.rbegin(); rit != stmt.order_by.rend();
         ++rit) {
      const auto& [attr_name, ascending] = *rit;
      size_t ci = view->compare_attrs.size();
      for (size_t i = 0; i < view->compare_attrs.size(); ++i) {
        if (view->compare_attrs[i].name == attr_name) {
          ci = i;
          break;
        }
      }
      if (ci == view->compare_attrs.size()) {
        return Status::InvalidArgument("ORDER BY attribute '" + attr_name +
                                       "' is not a compare attribute");
      }
      for (CadViewRow& row : view->rows) {
        std::stable_sort(row.iunits.begin(), row.iunits.end(),
                         [&](const IUnit& a, const IUnit& b) {
                           int32_t ka = a.cells[ci].codes.empty()
                                            ? INT32_MAX
                                            : a.cells[ci].codes.front();
                           int32_t kb = b.cells[ci].codes.empty()
                                            ? INT32_MAX
                                            : b.cells[ci].codes.front();
                           return ascending ? ka < kb : ka > kb;
                         });
      }
    }
    return view;
  };
  DBX_ASSIGN_OR_RETURN(CachedBuild built,
                       GetOrBuildCadView(cache_.get(), options, make_key,
                                         build, cache_owner_));

  // A hit is a copy: REORDER mutates stored views in place.
  auto stored = std::make_unique<CadView>(std::move(built.view));
  const CadView* ptr = stored.get();
  views_[stmt.view_name] = std::move(stored);

  ExecOutcome out;
  out.kind = ExecOutcome::Kind::kCadView;
  out.view_name = stmt.view_name;
  out.view = ptr;
  out.rendered = RenderCadView(*ptr);
  out.cache_result = built.probe;
  return out;
}

Result<ExecOutcome> Engine::ExecuteDescribe(const DescribeStmt& stmt) {
  auto it = tables_.find(stmt.table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + stmt.table + "'");
  }
  const Table& table = *it->second.table;

  AsciiTable render;
  render.SetHeader({"attribute", "type", "queriable", "distinct", "nulls",
                    "min", "max"});
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const AttributeDef& def = table.schema().attr(c);
    const Column& col = table.col(c);
    size_t nulls = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      nulls += col.IsNullAt(r);
    }
    std::string distinct, mn, mx;
    if (def.type == AttrType::kCategorical) {
      distinct = std::to_string(col.DictSize());
    } else {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (col.IsNullAt(r)) continue;
        lo = std::min(lo, col.NumberAt(r));
        hi = std::max(hi, col.NumberAt(r));
      }
      if (lo <= hi) {
        mn = Value(lo).ToDisplay();
        mx = Value(hi).ToDisplay();
      }
    }
    render.AddRow({def.name, AttrTypeName(def.type),
                   def.queriable ? "yes" : "no", distinct,
                   std::to_string(nulls), mn, mx});
  }

  ExecOutcome out;
  out.kind = ExecOutcome::Kind::kDescribe;
  out.table = &table;
  out.rendered = StringPrintf("%zu rows x %zu attributes\n", table.num_rows(),
                              table.num_cols()) +
                 render.Render();
  return out;
}

Result<ExecOutcome> Engine::ExecuteShow(const ShowStmt& stmt) {
  ExecOutcome out;
  out.kind = ExecOutcome::Kind::kShow;
  AsciiTable render;
  if (stmt.what == ShowStmt::What::kTables) {
    render.SetHeader({"table", "rows", "attributes"});
    for (const auto& [name, reg] : tables_) {
      render.AddRow({name, std::to_string(reg.table->num_rows()),
                     std::to_string(reg.table->num_cols())});
    }
  } else {
    render.SetHeader({"cadview", "pivot", "rows", "compare attrs"});
    for (const auto& [name, view] : views_) {
      render.AddRow({name, view->pivot_attr,
                     std::to_string(view->rows.size()),
                     std::to_string(view->compare_attrs.size())});
    }
  }
  out.rendered = render.row_count() == 0 ? "(none)\n" : render.Render();
  return out;
}

Result<ExecOutcome> Engine::ExecuteDrop(const DropCadViewStmt& stmt) {
  auto it = views_.find(stmt.view_name);
  if (it == views_.end()) {
    return Status::NotFound("no CAD View named '" + stmt.view_name + "'");
  }
  views_.erase(it);
  ExecOutcome out;
  out.kind = ExecOutcome::Kind::kDrop;
  out.view_name = stmt.view_name;
  out.rendered = "dropped " + stmt.view_name + "\n";
  return out;
}

Result<ExecOutcome> Engine::ExecuteHighlight(const HighlightStmt& stmt) {
  auto it = views_.find(stmt.view_name);
  if (it == views_.end()) {
    return Status::NotFound("no CAD View named '" + stmt.view_name + "'");
  }
  const CadView& view = *it->second;
  auto matches = view.FindSimilarIUnits(stmt.pivot_value, stmt.iunit_rank - 1,
                                        stmt.threshold);
  if (!matches.ok()) return matches.status();

  ExecOutcome out;
  out.kind = ExecOutcome::Kind::kHighlight;
  out.view_name = stmt.view_name;
  out.view = &view;
  out.highlights = std::move(*matches);

  RenderOptions ro;
  ro.highlights = out.highlights;
  std::string summary;
  for (const IUnitRef& h : out.highlights) {
    summary += StringPrintf("similar: %s IUnit %zu (similarity %.2f)\n",
                            view.rows[h.row].pivot_value.c_str(), h.iunit + 1,
                            h.similarity);
  }
  out.rendered = RenderCadView(view, ro) + summary;
  return out;
}

Result<ExecOutcome> Engine::ExecuteExplain(ExplainStmt stmt, uint64_t parse_ns) {
  if (stmt.inner == nullptr) {
    return Status::InvalidArgument("EXPLAIN requires a statement to explain");
  }
  // Predicates are move-only, so take the inner statement out of its box
  // rather than copying.
  Statement inner = std::move(stmt.inner->get());
  const std::string inner_sql = StatementToSql(inner);
  const std::string root_name =
      std::string("execute:") + kStatementKindNames[inner.index()];

  // A fresh collector per EXPLAIN keeps the rendered tree scoped to this one
  // statement even when a session-wide tracer is also attached.
  Tracer tracer;
  if (parse_ns > 0) tracer.Emit("parse", 0, 0, parse_ns);

  Tracer* saved_tracer = tracer_;
  const uint64_t saved_parent = trace_parent_;
  std::optional<Result<ExecOutcome>> inner_result;
  {
    ScopedSpan root(&tracer, root_name);
    root.AddArg("sql", inner_sql);
    SetTracer(&tracer, root.id());
    inner_result.emplace(Execute(std::move(inner)));
    if (!inner_result->ok()) {
      root.AddArg("error", inner_result->status().message());
    }
  }
  tracer_ = saved_tracer;
  trace_parent_ = saved_parent;
  DBX_RETURN_IF_ERROR(inner_result->status());

  std::string text = "EXPLAIN ANALYZE " + inner_sql + "\n\n";
  text += RenderSpanTree(tracer.Events());
  if (cache_ != nullptr) {
    text += "cache: " + CacheStatsLine(cache_->stats()) + "\n";
  }
  text += ThreadPoolStatsLine(ThreadPool::Shared().GetStats()) + "\n";

  ExecOutcome out = std::move(**inner_result);
  out.kind = ExecOutcome::Kind::kExplain;
  out.rendered = std::move(text);
  return out;
}

Result<ExecOutcome> Engine::ExecuteReorder(const ReorderStmt& stmt) {
  auto it = views_.find(stmt.view_name);
  if (it == views_.end()) {
    return Status::NotFound("no CAD View named '" + stmt.view_name + "'");
  }
  CadView& view = *it->second;
  DBX_RETURN_IF_ERROR(view.ReorderRowsBySimilarity(stmt.pivot_value));
  if (!stmt.descending) {
    // ORDER BY SIMILARITY(...) ASC: least similar first.
    std::reverse(view.rows.begin(), view.rows.end());
  }
  ExecOutcome out;
  out.kind = ExecOutcome::Kind::kReorder;
  out.view_name = stmt.view_name;
  out.view = &view;
  out.rendered = RenderCadView(view);
  return out;
}

}  // namespace dbx

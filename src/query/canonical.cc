#include "src/query/canonical.h"

#include "src/util/string_util.h"

namespace dbx {
namespace {

void AppendWhere(std::string* out, const PredicatePtr& where) {
  if (where != nullptr) {
    *out += " WHERE " + where->ToString();
  }
}

void AppendOrderBy(std::string* out,
                   const std::vector<std::pair<std::string, bool>>& order_by) {
  if (order_by.empty()) return;
  *out += " ORDER BY ";
  for (size_t i = 0; i < order_by.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += order_by[i].first + (order_by[i].second ? " ASC" : " DESC");
  }
}

std::string SelectItemToSql(const SelectItem& item) {
  if (!item.fn.has_value()) return item.attr;
  const char* fn = "";
  switch (*item.fn) {
    case AggFn::kCount: fn = "COUNT"; break;
    case AggFn::kAvg: fn = "AVG"; break;
    case AggFn::kSum: fn = "SUM"; break;
    case AggFn::kMin: fn = "MIN"; break;
    case AggFn::kMax: fn = "MAX"; break;
  }
  return std::string(fn) + "(" + (item.attr.empty() ? "*" : item.attr) + ")";
}

std::string ToSql(const SelectStmt& stmt) {
  std::string sql = "SELECT ";
  if (stmt.is_aggregate()) {
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += SelectItemToSql(stmt.items[i]);
    }
  } else if (stmt.star) {
    sql += "*";
  } else {
    sql += Join(stmt.columns, ", ");
  }
  sql += " FROM " + stmt.table;
  AppendWhere(&sql, stmt.where);
  if (!stmt.group_by.empty()) {
    sql += " GROUP BY " + Join(stmt.group_by, ", ");
  }
  AppendOrderBy(&sql, stmt.order_by);
  if (stmt.limit.has_value()) {
    sql += " LIMIT " + std::to_string(*stmt.limit);
  }
  return sql;
}

std::string ToSql(const CreateCadViewStmt& stmt) {
  std::string sql = "CREATE CADVIEW " + stmt.view_name + " AS SET PIVOT = " +
                    stmt.pivot_attr + " SELECT ";
  sql += stmt.compare_attrs.empty() ? "*" : Join(stmt.compare_attrs, ", ");
  sql += " FROM " + stmt.table;
  AppendWhere(&sql, stmt.where);
  if (stmt.limit_columns.has_value()) {
    sql += " LIMIT COLUMNS " + std::to_string(*stmt.limit_columns);
  }
  if (stmt.iunits.has_value()) {
    sql += " IUNITS " + std::to_string(*stmt.iunits);
  }
  AppendOrderBy(&sql, stmt.order_by);
  return sql;
}

std::string ToSql(const HighlightStmt& stmt) {
  return "HIGHLIGHT SIMILAR IUNITS IN " + stmt.view_name +
         " WHERE SIMILARITY(" + QuoteSqlString(stmt.pivot_value) + ", " +
         std::to_string(stmt.iunit_rank) + ") > " +
         FormatShortest(stmt.threshold);
}

std::string ToSql(const ReorderStmt& stmt) {
  return "REORDER ROWS IN " + stmt.view_name + " ORDER BY SIMILARITY(" +
         QuoteSqlString(stmt.pivot_value) + ")" +
         (stmt.descending ? " DESC" : " ASC");
}

std::string ToSql(const DescribeStmt& stmt) { return "DESCRIBE " + stmt.table; }

std::string ToSql(const ShowStmt& stmt) {
  return stmt.what == ShowStmt::What::kTables ? "SHOW TABLES"
                                              : "SHOW CADVIEWS";
}

std::string ToSql(const DropCadViewStmt& stmt) {
  return "DROP CADVIEW " + stmt.view_name;
}

std::string ToSql(const ExplainStmt& stmt) {
  std::string sql = stmt.analyze ? "EXPLAIN ANALYZE" : "EXPLAIN";
  if (stmt.inner != nullptr) sql += " " + StatementToSql(stmt.inner->get());
  return sql;
}

}  // namespace

std::string StatementToSql(const Statement& statement) {
  return std::visit([](const auto& stmt) { return ToSql(stmt); }, statement);
}

}  // namespace dbx

#include "query/ast.hpp"

#include <sstream>
#include <unordered_set>

#include "common/error.hpp"

namespace cq::qry {

void SpjQuery::validate() const {
  if (from.empty()) {
    throw common::InvalidArgument("query must reference at least one table");
  }
  std::unordered_set<std::string> aliases;
  for (const auto& ref : from) {
    if (ref.table.empty()) throw common::InvalidArgument("empty table name in FROM");
    if (!aliases.insert(ref.effective_alias()).second) {
      throw common::InvalidArgument("duplicate alias '" + ref.effective_alias() +
                                    "' in FROM");
    }
  }
  if (is_aggregate()) {
    // Plain projection columns alongside aggregates must be group keys.
    for (const auto& col : projection) {
      bool grouped = false;
      for (const auto& g : group_by) grouped = grouped || g == col;
      if (!grouped) {
        throw common::InvalidArgument("column '" + col +
                                      "' must appear in GROUP BY when aggregating");
      }
    }
  } else if (!group_by.empty()) {
    throw common::InvalidArgument("GROUP BY requires at least one aggregate");
  }
  if (having && !is_aggregate()) {
    throw common::InvalidArgument("HAVING requires an aggregate query");
  }
}

SpjQuery SpjQuery::spj_core() const {
  SpjQuery core = *this;
  core.distinct = false;
  core.order_by.clear();
  if (core.is_aggregate()) {
    core.projection.clear();
    core.aggregates.clear();
    core.group_by.clear();
    core.having = nullptr;
  }
  return core;
}

std::string SpjQuery::to_string() const {
  std::ostringstream os;
  os << "SELECT ";
  if (distinct) os << "DISTINCT ";
  bool first = true;
  for (const auto& col : projection) {
    if (!first) os << ", ";
    os << col;
    first = false;
  }
  for (const auto& agg : aggregates) {
    if (!first) os << ", ";
    os << alg::to_string(agg.kind) << "(" << (agg.column.empty() ? "*" : agg.column)
       << ")";
    if (!agg.alias.empty()) os << " AS " << agg.alias;
    first = false;
  }
  if (first) os << "*";
  os << " FROM ";
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (i > 0) os << ", ";
    os << from[i].table;
    if (!from[i].alias.empty() && from[i].alias != from[i].table) {
      os << " AS " << from[i].alias;
    }
  }
  if (where && !(where->kind() == alg::Expr::Kind::kLiteral &&
                 where->literal().type() == rel::ValueType::kBool &&
                 where->literal().as_bool())) {
    os << " WHERE " << where->to_string();
  }
  if (!group_by.empty()) {
    os << " GROUP BY ";
    for (std::size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << group_by[i];
    }
  }
  if (having) os << " HAVING " << having->to_string();
  if (!order_by.empty()) {
    os << " ORDER BY ";
    for (std::size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << order_by[i].column;
      if (order_by[i].descending) os << " DESC";
    }
  }
  return os.str();
}

}  // namespace cq::qry

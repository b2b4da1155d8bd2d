// The query AST: SPJ expressions π_X(σ_F(R1 ⋈ ... ⋈ Rn)) — exactly the
// class the DRA handles (Section 4.3, Algorithm 1) — plus optional
// aggregation on top (the epsilon-query examples of Sections 3.2 / 5.3).
#pragma once

#include <string>
#include <vector>

#include "algebra/aggregate.hpp"
#include "algebra/expr.hpp"

namespace cq::qry {

/// One FROM entry. `alias` is the name used to qualify columns; it defaults
/// to the table name.
struct TableRef {
  std::string table;
  std::string alias;

  [[nodiscard]] const std::string& effective_alias() const noexcept {
    return alias.empty() ? table : alias;
  }
};

/// A parsed SELECT statement.
struct SpjQuery {
  std::vector<TableRef> from;

  /// Selection predicate F over the qualified join schema; always_true()
  /// when absent.
  alg::ExprPtr where;

  /// Projection list X (column names, possibly qualified). Empty = SELECT *.
  std::vector<std::string> projection;

  /// SELECT DISTINCT?
  bool distinct = false;

  /// Aggregates; when non-empty this is an aggregate query and `projection`
  /// is unused (group keys come from `group_by`).
  std::vector<alg::AggSpec> aggregates;
  std::vector<std::string> group_by;

  /// HAVING predicate over the aggregate output schema (group columns and
  /// aggregate aliases); nullptr when absent. Requires is_aggregate().
  alg::ExprPtr having;

  /// Presentation ordering, applied by evaluate() to the final rows.
  /// Column names refer to the output schema.
  struct OrderKey {
    std::string column;
    bool descending = false;
  };
  std::vector<OrderKey> order_by;

  [[nodiscard]] bool is_aggregate() const noexcept { return !aggregates.empty(); }

  /// The SPJ core: no DISTINCT and no ORDER BY, and for an aggregate query
  /// no aggregation either, with every joined column kept for the
  /// aggregates to read. The DRA maintains ΔQ of this core; DISTINCT and
  /// the aggregates are maintained on top of it.
  [[nodiscard]] SpjQuery spj_core() const;

  /// True when the SPJ shape is valid: at least one table, no duplicate
  /// aliases. Throws InvalidArgument otherwise.
  void validate() const;

  /// Render back to SQL-ish text (not necessarily the original input).
  [[nodiscard]] std::string to_string() const;
};

}  // namespace cq::qry

// Heuristic planner (Section 5.2): decomposes the WHERE clause into
// per-table filters ("Select before Join"), orders the per-table filter
// conjuncts cheapest-first, greedily orders joins smallest-estimate first,
// preferring equi-connected tables, and assigns each join conjunct to the
// first join step that can evaluate it. Recompute (evaluate_spj_over), each
// DRA term and EXPLAIN all run this one plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "algebra/expr.hpp"
#include "query/ast.hpp"
#include "relation/relation.hpp"
#include "relation/schema.hpp"

namespace cq::cat {
class Database;
}  // namespace cq::cat

namespace cq::qry {

struct PlannedQuery {
  /// One entry per FROM table (same order as SpjQuery::from): the conjuncts
  /// that reference only that table, cheapest-first. May be empty.
  std::vector<std::vector<alg::ExprPtr>> table_filters;

  /// Conjuncts spanning two or more tables, applied during joins.
  std::vector<alg::ExprPtr> join_conjuncts;

  /// FROM indexes in the order tables should be joined.
  std::vector<std::size_t> join_order;

  /// Per join step (join_order[1..]): the join conjuncts that first resolve
  /// in the schema joined so far, in join_conjuncts order.
  std::vector<std::vector<alg::ExprPtr>> step_conjuncts;

  /// Join conjuncts that resolve at no step (they name unknown columns):
  /// a filter above the last join, where evaluating them reports the error.
  std::vector<alg::ExprPtr> residual;

  /// Estimated post-filter cardinality per FROM entry (same order as
  /// SpjQuery::from) — the numbers the greedy join ordering ranked by.
  std::vector<double> scan_estimates;

  /// Filter for table i AND-combined (always_true() when none).
  [[nodiscard]] alg::ExprPtr filter(std::size_t i) const {
    return alg::conjoin(table_filters.at(i));
  }

  /// Human-readable plan, for EXPLAIN-style output.
  [[nodiscard]] std::string to_string(const SpjQuery& query) const;
};

/// One operator of the chosen plan tree, for EXPLAIN: the planner's row
/// estimate next to the count actually observed when the plan ran.
struct ExplainNode {
  std::string label;
  double estimated_rows = -1;     // < 0: no estimate available
  std::int64_t actual_rows = -1;  // < 0: not executed
  std::vector<ExplainNode> children;
};

/// Per-operator row counts observed while evaluate_spj_over ran a plan;
/// indexes mirror PlannedQuery (FROM order for scans, join order for join
/// steps). Filled when a trace pointer is passed to evaluate_spj_over.
struct SpjExecTrace {
  std::vector<std::size_t> input_rows;  // per FROM entry, before filters
  std::vector<std::size_t> scan_rows;   // per FROM entry, after pushed filters
  std::vector<std::size_t> join_rows;   // per join step (join_order[1..])
  bool has_residual = false;            // a leftover-conjunct Filter ran
  std::size_t residual_rows = 0;
  std::size_t output_rows = 0;  // after projection / distinct
  PlannedQuery plan;            // the plan actually used
};

/// Build the left-deep operator tree the planner chose: scans (with
/// pushed-down filters) joined in plan order, topped by the projection.
/// When `trace` is given (from an execution), actual_rows is filled from
/// it; otherwise actual_rows stays unset (see qry::explain_query in
/// evaluate.hpp for the end-to-end path).
[[nodiscard]] ExplainNode build_plan_tree(const SpjQuery& query,
                                          const PlannedQuery& planned,
                                          const SpjExecTrace* trace = nullptr);

/// Render `node` and its subtree with indentation, one operator per line:
///   Project [sym, price]  (est~12, actual=15)
///     Join [s.sym = n.sym]  ...
[[nodiscard]] std::string render_plan_tree(const ExplainNode& node);

/// Plan `query` given the alias-qualified schema of each FROM table and an
/// estimate of each table's current cardinality. When `samples` is
/// provided (one relation per FROM entry, alias-qualified), per-table
/// filter selectivities are *measured* on a bounded row sample instead of
/// guessed from predicate shape, which materially improves join ordering
/// on skewed data.
[[nodiscard]] PlannedQuery plan(const SpjQuery& query,
                                const std::vector<rel::Schema>& qualified_schemas,
                                const std::vector<std::size_t>& cardinalities,
                                const std::vector<const rel::Relation*>* samples =
                                    nullptr);

/// Number of rows the sampling estimator inspects per table.
inline constexpr std::size_t kPlannerSampleSize = 100;

/// The alias-qualified schema of one FROM entry.
[[nodiscard]] rel::Schema qualify(const rel::Schema& table_schema, const TableRef& ref);

/// The FROM entries of a query bound to a database: each entry's
/// alias-qualified schema and its table's current cardinality, FROM order.
struct BoundFrom {
  std::vector<rel::Schema> schemas;
  std::vector<std::size_t> cardinalities;
};
[[nodiscard]] BoundFrom bind_from(const SpjQuery& query, const cat::Database& db);

/// The columns of SELECT * over a join: every entry's qualified columns in
/// FROM order, whatever order the plan joined them in.
[[nodiscard]] std::vector<std::string> canonical_columns(
    const std::vector<rel::Schema>& qualified_schemas);

}  // namespace cq::qry

#include "query/evaluate.hpp"

#include "algebra/ops.hpp"
#include "algebra/predicate.hpp"
#include "common/error.hpp"

namespace cq::qry {

using alg::ExprPtr;
using common::Metrics;
using rel::Relation;

Relation qualified_copy(const Relation& input, const TableRef& ref) {
  Relation out = input;
  out.set_schema(qualify(input.schema(), ref));
  return out;
}

namespace {
/// The schemas and cardinalities of already-qualified inputs, FROM order.
BoundFrom bound_over(const std::vector<const Relation*>& inputs) {
  BoundFrom out;
  out.schemas.reserve(inputs.size());
  out.cardinalities.reserve(inputs.size());
  for (const Relation* r : inputs) {
    out.schemas.push_back(r->schema());
    out.cardinalities.push_back(r->size());
  }
  return out;
}

/// Alias-qualified copies of the query's FROM tables, stored in
/// `qualified`; returns pointers to them in FROM order.
std::vector<const Relation*> qualified_inputs(const SpjQuery& query, const cat::Database& db,
                                              std::vector<Relation>& qualified) {
  std::vector<const Relation*> inputs;
  qualified.reserve(query.from.size());
  for (const auto& ref : query.from) {
    inputs.push_back(&qualified.emplace_back(qualified_copy(db.table(ref.table), ref)));
  }
  return inputs;
}
}  // namespace

Relation evaluate_spj_over(const SpjQuery& query,
                           const std::vector<const Relation*>& inputs,
                           Metrics* metrics, SpjExecTrace* trace) {
  query.validate();
  if (inputs.size() != query.from.size()) {
    throw common::InvalidArgument("evaluate_spj_over: expected " +
                                  std::to_string(query.from.size()) + " inputs, got " +
                                  std::to_string(inputs.size()));
  }
  const std::size_t n = inputs.size();

  const BoundFrom from = bound_over(inputs);
  const PlannedQuery planned = plan(query, from.schemas, from.cardinalities, &inputs);
  if (trace != nullptr) {
    *trace = SpjExecTrace{};
    trace->plan = planned;
    trace->input_rows = from.cardinalities;
    trace->scan_rows.resize(n);
  }

  // Select before join (Section 5.2): filter each input first.
  std::vector<Relation> filtered(n);
  std::vector<const Relation*> bound(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ExprPtr f = planned.filter(i);
    if (alg::is_always_true(f)) {
      bound[i] = inputs[i];
    } else {
      filtered[i] = alg::select(*inputs[i], *f, metrics);
      bound[i] = &filtered[i];
    }
    if (trace != nullptr) trace->scan_rows[i] = bound[i]->size();
  }

  // Join in planner order; each step applies the conjuncts the plan gave it.
  Relation acc = *bound[planned.join_order[0]];
  for (std::size_t step = 1; step < n; ++step) {
    acc = alg::join(acc, *bound[planned.join_order[step]],
                    alg::conjoin(planned.step_conjuncts[step - 1]), metrics);
    if (trace != nullptr) trace->join_rows.push_back(acc.size());
  }
  if (!planned.residual.empty()) {
    acc = alg::select(acc, *alg::conjoin(planned.residual), metrics);
    if (trace != nullptr) {
      trace->has_residual = true;
      trace->residual_rows = acc.size();
    }
  }

  // Projection.
  if (!query.projection.empty()) {
    acc = alg::project(acc, query.projection, query.distinct, metrics);
  } else {
    // SELECT * over a join: restore the canonical FROM-order column layout
    // (the DRA and the Propagate oracle rely on both producing it).
    if (n > 1) acc = alg::project(acc, canonical_columns(from.schemas), false, metrics);
    if (query.distinct) acc = alg::distinct(acc);
  }
  if (trace != nullptr) trace->output_rows = acc.size();
  return acc;
}

Relation evaluate_spj(const SpjQuery& query, const cat::Database& db, Metrics* metrics,
                      SpjExecTrace* trace) {
  query.validate();
  std::vector<Relation> qualified;
  return evaluate_spj_over(query, qualified_inputs(query, db, qualified), metrics, trace);
}

Relation apply_aggregates(const SpjQuery& query, const Relation& spj_result,
                          Metrics* metrics) {
  if (!query.is_aggregate()) return spj_result;
  Relation out =
      alg::group_aggregate(spj_result, query.group_by, query.aggregates, metrics);
  if (query.having) out = alg::select(out, *query.having, metrics);
  return out;
}

Relation apply_order_by(const SpjQuery& query, Relation input) {
  if (query.order_by.empty()) return input;
  std::vector<std::size_t> keys;
  keys.reserve(query.order_by.size());
  for (const auto& k : query.order_by) keys.push_back(input.schema().index_of(k.column));

  std::vector<rel::Tuple> rows = input.rows();
  std::stable_sort(rows.begin(), rows.end(), [&](const rel::Tuple& a, const rel::Tuple& b) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto c = a.at(keys[i]).compare(b.at(keys[i]));
      if (c == std::strong_ordering::equal) continue;
      const bool less = c == std::strong_ordering::less;
      return query.order_by[i].descending ? !less : less;
    }
    return false;
  });
  Relation out(input.schema());
  for (auto& row : rows) out.append(std::move(row));
  return out;
}

Relation evaluate(const SpjQuery& query, const cat::Database& db, Metrics* metrics) {
  if (query.is_aggregate()) {
    Relation spj = evaluate_spj(query.spj_core(), db, metrics);
    return apply_order_by(query, apply_aggregates(query, spj, metrics));
  }
  return apply_order_by(query, evaluate_spj(query, db, metrics));
}

namespace {
std::string aggregate_label(const SpjQuery& query) {
  std::string label = "Aggregate [";
  for (std::size_t i = 0; i < query.aggregates.size(); ++i) {
    const alg::AggSpec& a = query.aggregates[i];
    if (i > 0) label += ", ";
    label += std::string(alg::to_string(a.kind)) + "(" +
             (a.column.empty() ? "*" : a.column) + ")";
  }
  label += "]";
  if (!query.group_by.empty()) {
    label += " GROUP BY [";
    for (std::size_t i = 0; i < query.group_by.size(); ++i) {
      if (i > 0) label += ", ";
      label += query.group_by[i];
    }
    label += "]";
  }
  if (query.having) label += " HAVING [" + query.having->to_string() + "]";
  return label;
}

std::string sort_label(const SpjQuery& query) {
  std::string label = "Sort [";
  for (std::size_t i = 0; i < query.order_by.size(); ++i) {
    if (i > 0) label += ", ";
    label += query.order_by[i].column;
    if (query.order_by[i].descending) label += " DESC";
  }
  return label + "]";
}
}  // namespace

QueryExplain explain_query(const SpjQuery& query, const cat::Database& db,
                           bool execute) {
  query.validate();
  const bool aggregate = query.is_aggregate();
  const SpjQuery core = aggregate ? query.spj_core() : query;

  std::vector<Relation> qualified;
  const std::vector<const Relation*> inputs = qualified_inputs(core, db, qualified);

  QueryExplain out;
  SpjExecTrace trace;
  if (execute) {
    Relation spj = evaluate_spj_over(core, inputs, nullptr, &trace);
    out.result = aggregate ? apply_order_by(query, apply_aggregates(query, spj))
                           : apply_order_by(query, std::move(spj));
    out.executed = true;
    out.plan = trace.plan;
  } else {
    const BoundFrom from = bound_over(inputs);
    out.plan = plan(core, from.schemas, from.cardinalities, &inputs);
  }
  out.root = build_plan_tree(core, out.plan, execute ? &trace : nullptr);

  if (aggregate) {
    ExplainNode agg;
    agg.label = aggregate_label(query);
    if (out.executed) agg.actual_rows = static_cast<std::int64_t>(out.result.size());
    agg.children.push_back(std::move(out.root));
    out.root = std::move(agg);
  }
  if (!query.order_by.empty()) {
    ExplainNode sort;
    sort.label = sort_label(query);
    sort.estimated_rows = out.root.estimated_rows;
    if (out.executed) sort.actual_rows = static_cast<std::int64_t>(out.result.size());
    sort.children.push_back(std::move(out.root));
    out.root = std::move(sort);
  }
  return out;
}

}  // namespace cq::qry

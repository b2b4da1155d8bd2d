#include "query/planner.hpp"

#include <algorithm>
#include <sstream>

#include "algebra/predicate.hpp"
#include "algebra/simplify.hpp"
#include "catalog/database.hpp"
#include "common/error.hpp"

namespace cq::qry {

using alg::ExprPtr;

rel::Schema qualify(const rel::Schema& table_schema, const TableRef& ref) {
  return table_schema.qualified(ref.effective_alias());
}

BoundFrom bind_from(const SpjQuery& query, const cat::Database& db) {
  BoundFrom out;
  out.schemas.reserve(query.from.size());
  out.cardinalities.reserve(query.from.size());
  for (const auto& ref : query.from) {
    const rel::Relation& table = db.table(ref.table);
    out.schemas.push_back(qualify(table.schema(), ref));
    out.cardinalities.push_back(table.size());
  }
  return out;
}

std::vector<std::string> canonical_columns(const std::vector<rel::Schema>& qualified_schemas) {
  std::vector<std::string> names;
  for (const auto& s : qualified_schemas) {
    for (const auto& a : s.attributes()) names.push_back(a.name);
  }
  return names;
}

namespace {
/// Fraction of up to kPlannerSampleSize leading rows satisfying `filter`,
/// clamped away from 0 so downstream estimates never hit exact zero.
double sampled_selectivity(const rel::Relation& input, const alg::ExprPtr& filter) {
  const std::size_t n = std::min(input.size(), kPlannerSampleSize);
  if (n == 0) return 1.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (filter->eval_bool(input.row(i), input.schema())) ++hits;
  }
  return std::max(0.5 / static_cast<double>(n),
                  static_cast<double>(hits) / static_cast<double>(n));
}
}  // namespace

PlannedQuery plan(const SpjQuery& query, const std::vector<rel::Schema>& qualified_schemas,
                  const std::vector<std::size_t>& cardinalities,
                  const std::vector<const rel::Relation*>* samples) {
  if (qualified_schemas.size() != query.from.size() ||
      cardinalities.size() != query.from.size()) {
    throw common::InvalidArgument("plan: schema/cardinality count mismatch");
  }
  if (samples != nullptr && samples->size() != query.from.size()) {
    throw common::InvalidArgument("plan: sample count mismatch");
  }
  const std::size_t n = query.from.size();
  PlannedQuery out;
  out.table_filters.resize(n);

  // 1. Simplify, then classify each conjunct: single-table conjuncts become
  //    filters (constant folding can also prune entire branches here).
  for (const auto& conjunct : alg::split_conjuncts(alg::simplify(query.where))) {
    std::size_t owner = n;  // n = spans multiple / none
    std::size_t owners = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (conjunct->resolves_in(qualified_schemas[i])) {
        owner = i;
        ++owners;
      }
    }
    if (owners == 1) {
      out.table_filters[owner].push_back(conjunct);
    } else {
      out.join_conjuncts.push_back(conjunct);
    }
  }

  // 2. Cheapest predicates first within each table filter (Section 5.2).
  for (auto& filters : out.table_filters) {
    std::stable_sort(filters.begin(), filters.end(),
                     [](const ExprPtr& a, const ExprPtr& b) {
                       return alg::predicate_cost_rank(a) < alg::predicate_cost_rank(b);
                     });
  }

  // 3. Join order: greedy by estimated post-filter cardinality, preferring
  //    tables connected to the already-joined set by some join conjunct.
  std::vector<double> estimate(n);
  for (std::size_t i = 0; i < n; ++i) {
    double e = static_cast<double>(cardinalities[i]);
    if (!out.table_filters[i].empty()) {
      const alg::ExprPtr filter = alg::conjoin(out.table_filters[i]);
      if (samples != nullptr && (*samples)[i] != nullptr) {
        e *= sampled_selectivity(*(*samples)[i], filter);
      } else {
        for (const auto& f : out.table_filters[i]) e *= alg::estimate_selectivity(f);
      }
    }
    estimate[i] = e;
  }
  out.scan_estimates = estimate;

  auto connected = [&](std::size_t candidate, const std::vector<bool>& joined) {
    // A conjunct connects `candidate` when it references candidate's schema
    // and at least one already-joined schema.
    for (const auto& c : out.join_conjuncts) {
      bool touches_candidate = false;
      bool touches_joined = false;
      for (const auto& col : c->columns()) {
        if (qualified_schemas[candidate].contains(col)) touches_candidate = true;
        for (std::size_t j = 0; j < n; ++j) {
          if (joined[j] && qualified_schemas[j].contains(col)) touches_joined = true;
        }
      }
      if (touches_candidate && touches_joined) return true;
    }
    return false;
  };

  std::vector<bool> joined(n, false);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (joined[i]) continue;
      const bool i_connected = step > 0 && connected(i, joined);
      if (best == n) {
        best = i;
        continue;
      }
      const bool best_connected = step > 0 && connected(best, joined);
      if (i_connected != best_connected) {
        if (i_connected) best = i;
        continue;
      }
      if (estimate[i] < estimate[best]) best = i;
    }
    joined[best] = true;
    out.join_order.push_back(best);
  }

  // 4. Each join conjunct applies at the first join step whose combined
  //    schema resolves it; what never resolves is the residual.
  if (n > 1) out.step_conjuncts.resize(n - 1);
  std::vector<ExprPtr> pending = out.join_conjuncts;
  rel::Schema combined;
  for (std::size_t step = 0; step < n && !pending.empty(); ++step) {
    combined = combined.concat(qualified_schemas[out.join_order[step]]);
    if (step == 0) continue;
    std::vector<ExprPtr> still_pending;
    for (const auto& c : pending) {
      (c->resolves_in(combined) ? out.step_conjuncts[step - 1] : still_pending).push_back(c);
    }
    pending = std::move(still_pending);
  }
  out.residual = std::move(pending);
  return out;
}

namespace {
/// "12" for whole numbers, "12.3" otherwise — keeps EXPLAIN lines tidy.
std::string format_estimate(double rows) {
  std::ostringstream os;
  if (rows == static_cast<double>(static_cast<long long>(rows))) {
    os << static_cast<long long>(rows);
  } else {
    os.precision(1);
    os << std::fixed << rows;
  }
  return os.str();
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

void render_node(const ExplainNode& node, std::size_t depth, std::ostringstream& os) {
  os << std::string(depth * 2, ' ') << node.label << "  (est~";
  if (node.estimated_rows >= 0) {
    os << format_estimate(node.estimated_rows);
  } else {
    os << "?";
  }
  os << ", actual=";
  if (node.actual_rows >= 0) {
    os << node.actual_rows;
  } else {
    os << "?";
  }
  os << ")\n";
  for (const auto& child : node.children) render_node(child, depth + 1, os);
}
}  // namespace

ExplainNode build_plan_tree(const SpjQuery& query, const PlannedQuery& planned,
                            const SpjExecTrace* trace) {
  const std::size_t n = query.from.size();
  if (planned.join_order.size() != n) {
    throw common::InvalidArgument("build_plan_tree: plan/query count mismatch");
  }

  auto scan_node = [&](std::size_t idx) {
    ExplainNode node;
    const TableRef& ref = query.from[idx];
    node.label = "Scan " + ref.table;
    if (ref.effective_alias() != ref.table) {
      node.label += " AS " + ref.effective_alias();
    }
    const ExprPtr filter = planned.filter(idx);
    if (!alg::is_always_true(filter)) {
      node.label += " [" + filter->to_string() + "]";
    }
    if (idx < planned.scan_estimates.size()) {
      node.estimated_rows = planned.scan_estimates[idx];
    }
    if (trace != nullptr && idx < trace->scan_rows.size()) {
      node.actual_rows = static_cast<std::int64_t>(trace->scan_rows[idx]);
    }
    return node;
  };

  // Left-deep spine: each join step applies the conjuncts the plan gave it.
  ExplainNode acc = scan_node(planned.join_order[0]);
  double est = acc.estimated_rows;
  for (std::size_t step = 1; step < n; ++step) {
    ExplainNode right = scan_node(planned.join_order[step]);
    const std::vector<ExprPtr>& applicable = planned.step_conjuncts[step - 1];

    ExplainNode join;
    join.label = applicable.empty()
                     ? "Join (cross)"
                     : "Join [" + alg::conjoin(applicable)->to_string() + "]";
    if (est >= 0 && right.estimated_rows >= 0) {
      double e = est * right.estimated_rows;
      for (const auto& c : applicable) e *= alg::estimate_selectivity(c);
      join.estimated_rows = e;
    }
    if (trace != nullptr && step - 1 < trace->join_rows.size()) {
      join.actual_rows = static_cast<std::int64_t>(trace->join_rows[step - 1]);
    }
    est = join.estimated_rows;
    join.children.push_back(std::move(acc));
    join.children.push_back(std::move(right));
    acc = std::move(join);
  }

  if (!planned.residual.empty()) {
    ExplainNode filter;
    filter.label = "Filter [" + alg::conjoin(planned.residual)->to_string() + "]";
    if (est >= 0) {
      double e = est;
      for (const auto& c : planned.residual) e *= alg::estimate_selectivity(c);
      filter.estimated_rows = e;
      est = e;
    }
    if (trace != nullptr && trace->has_residual) {
      filter.actual_rows = static_cast<std::int64_t>(trace->residual_rows);
    }
    filter.children.push_back(std::move(acc));
    acc = std::move(filter);
  }

  // The output operator, when one materially exists: an explicit projection,
  // the canonical SELECT-* reordering over a join, or a distinct pass.
  if (!query.projection.empty() || n > 1 || query.distinct) {
    ExplainNode proj;
    if (!query.projection.empty()) {
      proj.label = std::string(query.distinct ? "Project DISTINCT [" : "Project [") +
                   join_names(query.projection) + "]";
    } else if (n > 1) {
      proj.label = query.distinct ? "Project DISTINCT *" : "Project *";
    } else {
      proj.label = "Distinct";
    }
    // Projection preserves cardinality; distinct makes it unknowable here.
    proj.estimated_rows = query.distinct ? -1 : est;
    if (trace != nullptr) {
      proj.actual_rows = static_cast<std::int64_t>(trace->output_rows);
    }
    proj.children.push_back(std::move(acc));
    acc = std::move(proj);
  }
  return acc;
}

std::string render_plan_tree(const ExplainNode& node) {
  std::ostringstream os;
  render_node(node, 0, os);
  return os.str();
}

std::string PlannedQuery::to_string(const SpjQuery& query) const {
  std::ostringstream os;
  os << "Plan for " << query.to_string() << "\n";
  os << "  join order:";
  for (auto i : join_order) os << " " << query.from[i].effective_alias();
  os << "\n";
  for (std::size_t i = 0; i < table_filters.size(); ++i) {
    if (table_filters[i].empty()) continue;
    os << "  filter[" << query.from[i].effective_alias()
       << "]: " << alg::conjoin(table_filters[i])->to_string() << "\n";
  }
  if (!join_conjuncts.empty()) {
    os << "  join predicate: " << alg::conjoin(join_conjuncts)->to_string() << "\n";
  }
  return os.str();
}

}  // namespace cq::qry

#include "cq/dra.hpp"

#include <algorithm>

#include "algebra/ops.hpp"
#include "algebra/predicate.hpp"
#include "common/error.hpp"
#include "common/observability.hpp"
#include "query/evaluate.hpp"
#include "query/planner.hpp"

namespace obs = cq::common::obs;

namespace cq::core {

using alg::ExprPtr;
using common::Metrics;
using common::Timestamp;
using rel::Relation;

namespace {

/// alg::join, except that an empty input yields the empty result without
/// touching the other side.
Relation join_plain(const Relation& a, const Relation& b, const ExprPtr& predicate,
                    bool use_hash, Metrics* metrics) {
  if (a.empty() || b.empty()) {
    return Relation(a.schema().concat(b.schema()));
  }
  return alg::join(a, b, predicate, metrics, use_hash);
}

/// (a ⋈ b) with sign bookkeeping, reading a DiffResult as a signed
/// relation (rows in `inserted` carry weight +1, rows in `deleted` −1,
/// multiset semantics): (a⁺−a⁻) ⋈ (b⁺−b⁻) = a⁺⋈b⁺ + a⁻⋈b⁻ − (a⁺⋈b⁻ + a⁻⋈b⁺).
DiffResult signed_join(const DiffResult& a, const DiffResult& b, const ExprPtr& predicate,
                       bool use_hash, Metrics* metrics) {
  auto j = [&](const Relation& x, const Relation& y) {
    return join_plain(x, y, predicate, use_hash, metrics);
  };
  DiffResult out;
  out.inserted = alg::union_all(j(a.inserted, b.inserted), j(a.deleted, b.deleted));
  out.deleted = alg::union_all(j(a.inserted, b.deleted), j(a.deleted, b.inserted));
  return out;
}

}  // namespace

BoundDelta filtered_delta(const cat::Database& db, const std::string& table,
                          const rel::Schema& schema, const ExprPtr& filter, Timestamp since,
                          Metrics* metrics) {
  BoundDelta out;
  const auto& d = db.delta(table);
  // Pin before reading ΔR: GC must not truncate the window between
  // changed_since and the insertions/deletions copies.
  const auto pin = d.pin_reads();
  if (!d.changed_since(since)) return out;
  out.rows.inserted = d.insertions(since);
  out.rows.deleted = d.deletions(since);
  out.rows_read = out.rows.size();
  if (out.rows_read == 0) return out;  // e.g. insert+delete collapsed
  out.rows.inserted.set_schema(schema);
  out.rows.deleted.set_schema(schema);
  if (!alg::is_always_true(filter)) {
    out.rows.inserted = alg::select(out.rows.inserted, *filter, metrics);
    out.rows.deleted = alg::select(out.rows.deleted, *filter, metrics);
  }
  return out;
}

DiffResult dra_differential(const qry::SpjQuery& query, const cat::Database& db,
                            Timestamp since, Metrics* metrics, const DraOptions& options,
                            DraStats* stats) {
  query.validate();
  if (query.is_aggregate() || query.distinct) {
    throw common::InvalidArgument(
        "dra_differential handles the SPJ core only; strip aggregates/DISTINCT "
        "(ContinualQuery maintains those on top of ΔQ)");
  }
  const std::size_t n = query.from.size();
  DraStats local_stats;
  DraStats& st = stats != nullptr ? *stats : local_stats;
  st = DraStats{};

  // One branch when tracing is off; with it on, the whole invocation is a
  // span and its latency feeds the dra_exec_us histogram.
  static obs::Histogram* const dra_hist =
      &obs::global().histogram(obs::hist::kDraExecUs);
  obs::Span span("dra.differential", dra_hist);
  if (metrics != nullptr) metrics->add(common::metric::kDraInvocations, 1);

  const qry::BoundFrom from = qry::bind_from(query, db);
  const std::vector<rel::Schema>& schemas = from.schemas;

  // Output schema for (possibly empty) results.
  const std::vector<std::string> canon = qry::canonical_columns(schemas);
  rel::Schema joined_schema;
  for (const auto& s : schemas) joined_schema = joined_schema.concat(s);
  const rel::Schema out_schema =
      query.projection.empty() ? joined_schema : joined_schema.project(query.projection);

  DiffResult result;
  result.inserted = Relation(out_schema);
  result.deleted = Relation(out_schema);

  // An empty window needs no plan.
  const bool any_changed =
      std::any_of(query.from.begin(), query.from.end(), [&](const qry::TableRef& ref) {
        const auto& d = db.delta(ref.table);
        const auto pin = d.pin_reads();  // GC may truncate the log meanwhile
        return d.changed_since(since);
      });
  if (!any_changed) return result;

  // ---- plan once: per-table filters (Section 5.2) ----
  const qry::PlannedQuery planned = qry::plan(query, schemas, from.cardinalities);

  std::vector<DiffResult> delta(n);  // filtered, qualified ΔRi (signed)
  std::vector<std::size_t> changed;  // indexes of changed FROM entries
  for (std::size_t i = 0; i < n; ++i) {
    BoundDelta d =
        filtered_delta(db, query.from[i].table, schemas[i], planned.filter(i), since, metrics);
    st.delta_rows_read += d.rows_read;
    if (metrics != nullptr) {
      metrics->add(common::metric::kDeltaRowsScanned, static_cast<std::int64_t>(d.rows_read));
    }
    if (d.rows_read == 0) continue;
    delta[i] = std::move(d.rows);
    changed.push_back(i);
  }
  st.changed_relations = changed.size();
  if (changed.empty()) return result;
  if (options.irrelevance_check) {
    // Section 5.2 refinement: updates whose filtered delta is empty cannot
    // affect the result — drop them from the truth table, and skip the
    // whole re-evaluation when nothing relevant remains. Without the flag
    // the DRA machinery below runs regardless (empty terms still enumerate
    // and unchanged-side base states still get bound).
    changed.erase(std::remove_if(changed.begin(), changed.end(),
                                 [&](std::size_t i) { return delta[i].empty(); }),
                  changed.end());
    if (changed.empty()) {
      st.skipped_irrelevant = true;
      if (metrics != nullptr) metrics->add(common::metric::kDraSkippedIrrelevant, 1);
      return result;
    }
    st.changed_relations = changed.size();
  }

  // Filtered, qualified current base state, built lazily and shared by all
  // terms. Position i is ever bound to its base only when it is unchanged
  // (then every term binds it) or when k >= 2 (terms substituting a
  // *different* relation's delta bind i's base). In particular the common
  // single-relation CQ never touches the base at all — the heart of the
  // paper's efficiency claim.
  const std::size_t k = changed.size();
  std::vector<Relation> base(n);
  std::vector<bool> base_built(n, false);
  auto base_of = [&](std::size_t i) -> const Relation& {
    if (!base_built[i]) {
      base[i] = qry::qualified_copy(db.table(query.from[i].table), query.from[i]);
      const ExprPtr f = planned.filter(i);
      if (!alg::is_always_true(f)) base[i] = alg::select(base[i], *f, metrics);
      if (metrics != nullptr) {
        metrics->add(common::metric::kBaseRowsScanned,
                     static_cast<std::int64_t>(from.cardinalities[i]));
      }
      base_built[i] = true;
    }
    return base[i];
  };

  // ---- truth table: one signed SPJ term per non-zero row (step 2) ----
  if (k > 20) throw common::InvalidArgument("dra: too many changed relations");
  DiffResult sum{Relation(joined_schema), Relation(joined_schema)};

  // Probe an unchanged position's *persistent index* (when one covers an
  // equi conjunct against the already-joined accumulator) instead of
  // materializing and hashing its filtered base: O(|acc| · fanout) per term
  // rather than O(|base|). Returns false when no usable index exists.
  auto try_index_join = [&](const DiffResult& acc, std::size_t p,
                            const std::vector<ExprPtr>& applicable,
                            DiffResult& out) -> bool {
    const rel::Relation& base_table = db.table(query.from[p].table);
    // Equi pairs (acc column, base column) among the applicable conjuncts;
    // positions in schemas[p] equal positions in the base schema.
    const ExprPtr residual = alg::conjoin(applicable);
    const auto pairs = alg::analyze_join(residual, acc.inserted.schema(), schemas[p]).equi_pairs;
    if (pairs.empty()) return false;

    // Prefer an index covering all equi columns, else any single one.
    const rel::MaintainedIndex* index = nullptr;
    {
      std::vector<std::size_t> base_cols;
      for (const auto& [ac, bc] : pairs) base_cols.push_back(bc);
      index = db.index_on(query.from[p].table, base_cols);
      if (index == nullptr) {
        for (const auto& [ac, bc] : pairs) {
          index = db.index_on(query.from[p].table, {bc});
          if (index != nullptr) break;
        }
      }
    }
    if (index == nullptr) return false;

    // Map each index key column to the accumulator column feeding it.
    std::vector<std::size_t> acc_cols;
    for (auto index_col : index->columns()) {
      bool found = false;
      for (const auto& [ac, bc] : pairs) {
        if (bc == index_col) {
          acc_cols.push_back(ac);
          found = true;
          break;
        }
      }
      if (!found) return false;
    }

    const rel::Schema combined = acc.inserted.schema().concat(schemas[p]);
    // The base table's own pushed-down filter runs on the matched base row
    // (schemas[p] has the base table's column positions), so a row it
    // rejects is never concatenated. The applicable conjuncts, equi pairs
    // included (the index groups NULL keys together, the conjunct rejects
    // them), run on the joined row.
    const ExprPtr base_filter = planned.filter(p);
    const bool check_base = !alg::is_always_true(base_filter);
    const bool check_residual = !alg::is_always_true(residual);

    auto probe_side = [&](const Relation& side, Relation& result) {
      for (const auto& row : side.rows()) {
        std::vector<rel::Value> key;
        key.reserve(acc_cols.size());
        for (auto c : acc_cols) key.push_back(row.at(c));
        for (const rel::TupleId tid : index->probe(key)) {
          const rel::Tuple* match = base_table.find(tid);
          CQ_ASSERT(match != nullptr);
          if (metrics != nullptr) metrics->add(common::metric::kTuplesCompared, 1);
          if (check_base && !base_filter->eval_bool(*match, schemas[p])) continue;
          rel::Tuple joined = row.concat(*match);
          if (!check_residual || residual->eval_bool(joined, combined)) {
            result.append(std::move(joined));
          }
        }
      }
    };
    out.inserted = Relation(combined);
    out.deleted = Relation(combined);
    probe_side(acc.inserted, out.inserted);
    probe_side(acc.deleted, out.deleted);
    st.index_probes += acc.size();
    return true;
  };

  for (std::size_t bits = 1; bits < (static_cast<std::size_t>(1) << k); ++bits) {
    // Bind each FROM position for this term: a changed position in b gets
    // its (signed, filtered) delta; the rest bind the current base state,
    // materialized lazily only if a join step actually needs it.
    std::vector<const DiffResult*> bound(n, nullptr);
    bool term_zero = false;
    std::size_t popcount = 0;
    for (std::size_t c = 0; c < k; ++c) {
      if ((bits >> c) & 1U) {
        bound[changed[c]] = &delta[changed[c]];
        ++popcount;
      }
    }
    for (std::size_t i = 0; i < n && !term_zero; ++i) {
      if (bound[i] != nullptr) {
        if (bound[i]->empty()) term_zero = true;
      } else if (from.cardinalities[i] == 0) {
        term_zero = true;
      }
    }
    if (term_zero) continue;
    ++st.terms_evaluated;
    obs::Span term_span("dra.term");

    // Join order for this term: plan with the term's own cardinalities so
    // the (tiny) delta sides are joined first.
    std::vector<std::size_t> term_cards;
    std::vector<const Relation*> term_samples(n, nullptr);
    term_cards.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (bound[i] != nullptr) {
        term_cards.push_back(bound[i]->size());
        // Delta sides are qualified and already filter-reduced; sampling
        // them stops the planner double-counting the filter's selectivity.
        term_samples[i] = &bound[i]->inserted;
      } else {
        term_cards.push_back(from.cardinalities[i]);
      }
    }
    const qry::PlannedQuery term_plan =
        qry::plan(query, schemas, term_cards, &term_samples);

    std::vector<DiffResult> materialized(n);
    auto bind_base = [&](std::size_t p) -> const DiffResult& {
      if (materialized[p].inserted.schema().empty()) {
        materialized[p] = DiffResult{base_of(p), Relation(schemas[p])};
      }
      return materialized[p];
    };

    const std::size_t first = term_plan.join_order[0];
    DiffResult acc = bound[first] != nullptr ? *bound[first] : bind_base(first);
    for (std::size_t step = 1; step < n && !acc.empty(); ++step) {
      const std::size_t p = term_plan.join_order[step];
      const std::vector<ExprPtr>& applicable = term_plan.step_conjuncts[step - 1];
      DiffResult via_index;
      if (bound[p] == nullptr && options.use_persistent_indexes &&
          try_index_join(acc, p, applicable, via_index)) {
        acc = std::move(via_index);
        continue;
      }
      const DiffResult& next = bound[p] != nullptr ? *bound[p] : bind_base(p);
      acc = signed_join(acc, next, alg::conjoin(applicable), options.use_hash_join,
                        metrics);
    }
    if (acc.empty()) continue;
    if (!term_plan.residual.empty()) {
      const ExprPtr rest = alg::conjoin(term_plan.residual);
      acc.inserted = alg::select(acc.inserted, *rest, metrics);
      acc.deleted = alg::select(acc.deleted, *rest, metrics);
    }

    // Canonical column order so all terms line up.
    if (n > 1) {
      acc.inserted = alg::project(acc.inserted, canon, false, metrics);
      acc.deleted = alg::project(acc.deleted, canon, false, metrics);
    }

    // Term sign: unchanged positions bind the *current* state, so the term
    // carries (−1)^(|b|+1).
    const bool positive = (popcount % 2) == 1;
    sum.inserted = alg::union_all(sum.inserted, positive ? acc.inserted : acc.deleted);
    sum.deleted = alg::union_all(sum.deleted, positive ? acc.deleted : acc.inserted);
  }

  // ---- projection (DiffProj: linear, keeps signs), then consolidation ----
  if (!query.projection.empty()) {
    sum.inserted = alg::project(sum.inserted, query.projection, false, metrics);
    sum.deleted = alg::project(sum.deleted, query.projection, false, metrics);
  }
  if (metrics != nullptr) {
    metrics->add(common::metric::kDraTermsEvaluated,
                 static_cast<std::int64_t>(st.terms_evaluated));
    metrics->add(common::metric::kIndexProbes,
                 static_cast<std::int64_t>(st.index_probes));
  }
  return sum.consolidated();
}

}  // namespace cq::core

// The Differential Re-evaluation Algorithm (Section 4.3, Algorithm 1).
//
// For an SPJ continual query Q = π_X(σ_F(R1 ⋈ ... ⋈ Rn)), after its last
// execution at time t_i, the DRA computes ΔQ — the rows entering and
// leaving the result — from the differential relations alone plus the
// current base tables, without recomputing Q from scratch:
//
//   1. Identify the k operand relations changed since t_i (their ΔR has a
//      non-empty net effect with ts > t_i — the timestamp predicate of
//      Section 4.2 input (iv)).
//   2. Enumerate the 2^k − 1 non-zero truth-table rows. Each row b yields
//      one SPJ term in which ΔRi is substituted for Ri wherever b_i = 1.
//      ΔRi is a *signed* relation: insertions(ΔRi) carry weight +1 and
//      deletions(ΔRi) weight −1 (a modification contributes one of each).
//   3. Evaluate each term differentially (DiffSelect/DiffProj/DiffJoin):
//      selections push below joins, joins multiply signs, and the term's
//      overall sign is (−1)^(|b|+1) because unchanged positions bind the
//      *current* base state R'i = Ri ∪ ΔRi rather than the old state —
//      algebraically equivalent to the paper's formulation, but it avoids
//      materializing pre-update base snapshots.
//   4. Sum the terms and consolidate: net-positive rows are ΔQ insertions,
//      net-negative rows are ΔQ deletions.
//
// The result is functionally equivalent to Propagate (propagate.hpp); the
// property tests in tests/dra_oracle_test.cpp check exactly this.
#pragma once

#include <string>

#include "algebra/expr.hpp"
#include "catalog/database.hpp"
#include "common/metrics.hpp"
#include "common/timestamp.hpp"
#include "cq/diff.hpp"
#include "query/ast.hpp"

namespace cq::core {

struct DraOptions {
  /// Section 5.2 refinement: first test each changed relation's delta
  /// against that relation's pushed-down selection; when every filtered
  /// delta is empty the whole re-evaluation is skipped.
  bool irrelevance_check = true;

  /// Use hash joins for equi-join conjuncts inside DiffJoin terms
  /// (nested-loop otherwise). Ablation A1.
  bool use_hash_join = true;

  /// Probe persistent indexes (Database::create_index) for unchanged-side
  /// join inputs instead of scanning/materializing the filtered base. Makes
  /// differential join terms O(|Δ| · fanout) instead of O(|base|).
  bool use_persistent_indexes = true;
};

/// Statistics of one DRA invocation (for benchmarks and EXPLAIN output).
struct DraStats {
  std::size_t changed_relations = 0;  // k
  std::size_t terms_evaluated = 0;    // ≤ 2^k − 1
  std::size_t delta_rows_read = 0;    // total net-effect rows consumed
  std::size_t index_probes = 0;       // accumulator rows probed into indexes
  bool skipped_irrelevant = false;    // irrelevance check short-circuited
};

/// One FROM entry's ΔR as the DRA binds it (see filtered_delta).
struct BoundDelta {
  /// Insertions (weight +1) and deletions (weight −1), filtered.
  DiffResult rows;
  /// Net-effect rows read before the filter.
  std::size_t rows_read = 0;
};

/// ΔR of `table` for the updates committed after `since`, alias-qualified
/// to `schema` and reduced by the entry's pushed-down selection `filter`.
/// Selection commutes with the DRA's substitution, so this is both the
/// Section 5.2 irrelevance check and the delta every term binds. Holds the
/// delta log's GC pin for the read.
[[nodiscard]] BoundDelta filtered_delta(const cat::Database& db, const std::string& table,
                                        const rel::Schema& schema,
                                        const alg::ExprPtr& filter,
                                        common::Timestamp since,
                                        common::Metrics* metrics = nullptr);

/// Compute ΔQ of the SPJ core of `query` for all updates committed after
/// `since`. Aggregates/DISTINCT must be handled by the caller (the
/// ContinualQuery layer maintains them incrementally on top of ΔQ).
///
/// Delta and base-table reads both hit the live catalog: commits to the
/// CQ's relations are serialized with dispatch, so neither can move
/// underneath an evaluation, and each ΔRi read holds its own GC pin.
[[nodiscard]] DiffResult dra_differential(const qry::SpjQuery& query,
                                          const cat::Database& db,
                                          common::Timestamp since,
                                          common::Metrics* metrics = nullptr,
                                          const DraOptions& options = {},
                                          DraStats* stats = nullptr);

}  // namespace cq::core

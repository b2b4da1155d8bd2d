// In-memory relations. A Relation serves two roles:
//   * base table: rows carry valid, unique tids; insert/erase/update by tid;
//   * derived result (query output): rows may be tid-less and duplicated,
//     with multiset semantics for equality and difference (Section 4.2 Diff).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/schema.hpp"
#include "relation/tid_map.hpp"
#include "relation/tuple.hpp"

namespace cq::rel {

class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Tuple> rows);

  [[nodiscard]] const Schema& schema() const noexcept { return schema_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }
  [[nodiscard]] const std::vector<Tuple>& rows() const noexcept { return rows_; }
  [[nodiscard]] const Tuple& row(std::size_t i) const;

  /// Mutable row access for in-place annotation (e.g. lineage attachment).
  /// Callers must not change values or tids through this — the tid index
  /// and multiset semantics assume rows are immutable once added.
  [[nodiscard]] std::vector<Tuple>& mutable_rows() noexcept { return rows_; }

  /// Replace the schema qualifier view without touching rows. Used by the
  /// planner when a table is aliased (FROM Stocks AS s).
  void set_schema(Schema schema);

  // ---- base-table mutations (tid-keyed) ----

  /// Insert a row with a caller-chosen tid (must be valid and fresh).
  void insert(Tuple tuple);

  /// Insert values, assigning the next tid from this relation's counter.
  TupleId insert_values(std::vector<Value> values);

  /// Claim the next tid without inserting (transactions reserve tids at
  /// op-queue time so later ops in the same transaction can reference
  /// them). Not synchronized — under multi-writer commits, go through
  /// Database, which serializes reservation on the table's shard lock.
  TupleId reserve_tid() noexcept { return TupleId(next_tid_++); }

  /// Best-effort return of a reserved-but-unused tid (transaction abort):
  /// succeeds only while `tid` is still the newest reservation, so an
  /// abort leaves the tids of subsequent commits undisturbed. Returns
  /// false — the tid is simply consumed — when later reservations
  /// already built on top of it.
  bool unreserve_tid(TupleId tid) noexcept {
    if (next_tid_ != tid.raw() + 1) return false;
    next_tid_ = tid.raw();
    return true;
  }

  /// Remove the row with this tid. Returns the removed tuple.
  Tuple erase(TupleId tid);

  /// Replace the values of the row with this tid. Returns the old tuple.
  Tuple update(TupleId tid, std::vector<Value> values);

  [[nodiscard]] bool contains(TupleId tid) const noexcept;
  [[nodiscard]] const Tuple* find(TupleId tid) const noexcept;

  // ---- derived-result mutations (multiset) ----

  /// Append a row without tid bookkeeping (duplicates allowed).
  void append(Tuple tuple);

  /// Remove one occurrence of a row with exactly these values (any tid).
  /// Returns false when no such row exists.
  bool remove_one_by_value(const Tuple& values);

  /// Remove one occurrence matching both values and tid (tid-aware variant
  /// used when maintaining complete CQ results). Falls back to value-only
  /// matching when tid is invalid.
  bool remove_one(const Tuple& tuple);

  // ---- multiset comparisons ----

  /// Multiset equality on values (tids ignored). Schemas must be
  /// union-compatible; otherwise returns false.
  [[nodiscard]] bool equal_multiset(const Relation& other) const;

  /// Number of rows whose values equal the given tuple.
  [[nodiscard]] std::size_t count_value(const Tuple& values) const;

  /// Render as an aligned ASCII table (column header + rows).
  [[nodiscard]] std::string to_string(std::size_t max_rows = 50) const;

  /// Total serialized size under the wire cost model.
  [[nodiscard]] std::size_t byte_size() const noexcept;

  /// Deterministically ordered copy of the rows (sorted by values then tid);
  /// handy for tests and stable output.
  [[nodiscard]] std::vector<Tuple> sorted_rows() const;

 private:
  void check_arity(const Tuple& t) const;

  Schema schema_;
  std::vector<Tuple> rows_;
  TidMap by_tid_;
  TupleId::rep next_tid_ = 1;
};

/// Multiset counting map from value-rows to multiplicities.
class TupleBag {
 public:
  void add(const Tuple& t, std::ptrdiff_t count = 1);
  [[nodiscard]] std::ptrdiff_t count(const Tuple& t) const;
  /// True when every multiplicity is zero.
  [[nodiscard]] bool all_zero() const;
  /// Number of distinct value-rows with non-zero multiplicity.
  [[nodiscard]] std::size_t distinct_size() const noexcept { return counts_.size(); }
  /// Visit every (tuple, multiplicity) pair (unspecified order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [tuple, count] : counts_) fn(tuple, count);
  }

 private:
  struct Hash {
    std::size_t operator()(const Tuple& t) const noexcept { return t.value_hash(); }
  };
  struct Eq {
    bool operator()(const Tuple& a, const Tuple& b) const noexcept {
      return a.same_values(b);
    }
  };
  std::unordered_map<Tuple, std::ptrdiff_t, Hash, Eq> counts_;
};

}  // namespace cq::rel

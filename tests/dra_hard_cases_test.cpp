// Adversarial DRA cases beyond the randomized sweep: self-joins (the same
// changed table bound at two FROM positions), NULL-bearing data, disjunctive
// and negated predicates, empty tables, cross products, and windows whose
// net effect is empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/transaction.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "cq/dra.hpp"
#include "cq/propagate.hpp"
#include "query/parser.hpp"
#include "testing/random_db.hpp"

namespace cq {
namespace {

using common::Timestamp;
using core::DiffResult;
using rel::Relation;
using rel::Value;
using rel::ValueType;

void expect_dra_equals_oracle(const qry::SpjQuery& query, cat::Database& db,
                              const std::function<void()>& mutate) {
  const Relation before = core::recompute(query, db);
  const Timestamp t0 = db.clock().now();
  mutate();
  const DiffResult via_dra = core::dra_differential(query, db, t0);
  const DiffResult via_oracle = core::propagate(query, db, before);
  EXPECT_TRUE(via_dra.equivalent(via_oracle))
      << "query: " << query.to_string() << "\ndra: " << via_dra.to_string()
      << "\noracle: " << via_oracle.to_string();
}

TEST(DraHardCases, SelfJoinBothPositionsChange) {
  // The same table appears twice; one update stream changes *both* FROM
  // positions, exercising the positional independence of the expansion.
  common::Rng rng(51);
  cat::Database db;
  testing::make_stock_table(db, "S", 80, rng);
  const auto query = qry::parse_query(
      "SELECT a.id, b.id FROM S a, S b "
      "WHERE a.category = b.category AND a.price < b.price AND a.price > 700");
  expect_dra_equals_oracle(query, db, [&] {
    testing::random_updates(db, "S", 40,
                            {.modify_fraction = 0.4, .delete_fraction = 0.3}, rng);
  });
}

TEST(DraHardCases, SelfJoinWithIndex) {
  common::Rng rng(52);
  cat::Database db;
  testing::make_stock_table(db, "S", 80, rng);
  db.create_index("S", "by_cat", {"category"});
  const auto query = qry::parse_query(
      "SELECT a.id, b.id FROM S a, S b WHERE a.category = b.category "
      "AND a.price > 800 AND b.price < 200");
  expect_dra_equals_oracle(query, db, [&] {
    testing::random_updates(db, "S", 30,
                            {.modify_fraction = 0.3, .delete_fraction = 0.3}, rng);
  });
}

TEST(DraHardCases, NullBearingData) {
  cat::Database db;
  db.create_table("T", rel::Schema::of({{"k", ValueType::kInt},
                                        {"v", ValueType::kInt}}));
  common::Rng rng(53);
  auto insert_maybe_null = [&](auto& txn) {
    txn.insert("T", {Value(rng.uniform_int(0, 100)),
                     rng.chance(0.3) ? Value::null()
                                     : Value(rng.uniform_int(0, 100))});
  };
  {
    auto txn = db.begin();
    for (int i = 0; i < 50; ++i) insert_maybe_null(txn);
    txn.commit();
  }
  for (const char* sql :
       {"SELECT * FROM T WHERE v > 50", "SELECT * FROM T WHERE v IS NULL",
        "SELECT * FROM T WHERE v IS NOT NULL AND k < 40",
        "SELECT * FROM T WHERE NOT v > 50"}) {
    const auto query = qry::parse_query(sql);
    expect_dra_equals_oracle(query, db, [&] {
      auto txn = db.begin();
      for (int i = 0; i < 15; ++i) insert_maybe_null(txn);
      txn.commit();
      // Also null-out some existing values.
      auto tids = testing::live_tids(db, "T");
      auto txn2 = db.begin();
      for (int i = 0; i < 5 && i < static_cast<int>(tids.size()); ++i) {
        txn2.modify("T", tids[static_cast<std::size_t>(i)],
                    {Value(rng.uniform_int(0, 100)), Value::null()});
      }
      txn2.commit();
    });
  }
}

TEST(DraHardCases, DisjunctivePredicate) {
  // OR across tables cannot be pushed down; lands in the residual.
  common::Rng rng(54);
  cat::Database db;
  testing::make_stock_table(db, "A", 40, rng);
  testing::make_stock_table(db, "B", 40, rng);
  const auto query = qry::parse_query(
      "SELECT a.id, b.id FROM A a, B b "
      "WHERE a.category = b.category AND (a.price > 900 OR b.price < 100)");
  expect_dra_equals_oracle(query, db, [&] {
    testing::random_updates(db, "A", 25,
                            {.modify_fraction = 0.4, .delete_fraction = 0.2}, rng);
    testing::random_updates(db, "B", 25,
                            {.modify_fraction = 0.4, .delete_fraction = 0.2}, rng);
  });
}

TEST(DraHardCases, CrossProductNoJoinPredicate) {
  common::Rng rng(55);
  cat::Database db;
  testing::make_stock_table(db, "A", 15, rng);
  testing::make_stock_table(db, "B", 15, rng);
  const auto query = qry::parse_query(
      "SELECT a.id, b.id FROM A a, B b WHERE a.price > 500 AND b.price > 500");
  expect_dra_equals_oracle(query, db, [&] {
    testing::random_updates(db, "A", 10,
                            {.modify_fraction = 0.3, .delete_fraction = 0.3}, rng);
    testing::random_updates(db, "B", 10,
                            {.modify_fraction = 0.3, .delete_fraction = 0.3}, rng);
  });
}

TEST(DraHardCases, TableEmptiedCompletely) {
  common::Rng rng(56);
  cat::Database db;
  testing::make_stock_table(db, "S", 20, rng);
  const auto query = qry::parse_query("SELECT * FROM S WHERE price >= 0");
  expect_dra_equals_oracle(query, db, [&] {
    auto txn = db.begin();
    for (const auto tid : testing::live_tids(db, "S")) txn.erase("S", tid);
    txn.commit();
  });
  EXPECT_TRUE(db.table("S").empty());
}

TEST(DraHardCases, EmptyTableFilled) {
  cat::Database db;
  db.create_table("S", rel::Schema::of({{"x", ValueType::kInt}}));
  const auto query = qry::parse_query("SELECT * FROM S WHERE x > 5");
  expect_dra_equals_oracle(query, db, [&] {
    auto txn = db.begin();
    for (int i = 0; i < 20; ++i) txn.insert("S", {Value(i)});
    txn.commit();
  });
}

TEST(DraHardCases, JoinAgainstEmptyTable) {
  common::Rng rng(57);
  cat::Database db;
  testing::make_stock_table(db, "A", 30, rng);
  db.create_table("B", rel::Schema::of({{"category", ValueType::kString}}));
  const auto query =
      qry::parse_query("SELECT a.id FROM A a, B b WHERE a.category = b.category");
  expect_dra_equals_oracle(query, db, [&] {
    testing::random_updates(db, "A", 10, {}, rng);  // B stays empty
  });
  // Then B gets rows (the previously-empty side changes).
  const auto query2 =
      qry::parse_query("SELECT a.id FROM A a, B b WHERE a.category = b.category");
  expect_dra_equals_oracle(query2, db, [&] {
    db.insert("B", {Value("tech")});
    db.insert("B", {Value("bank")});
  });
}

TEST(DraHardCases, NetZeroWindowProducesEmptyDiff) {
  common::Rng rng(58);
  cat::Database db;
  testing::make_stock_table(db, "S", 30, rng);
  const auto query = qry::parse_query("SELECT * FROM S WHERE price >= 0");
  const Relation before = core::recompute(query, db);
  const Timestamp t0 = db.clock().now();
  // Modify a row and modify it right back (separate transactions).
  const auto tid = db.table("S").rows().front().tid();
  const auto original = db.table("S").find(tid)->values();
  auto changed = original;
  changed[2] = Value(original[2].as_int() + 7);
  db.modify("S", tid, changed);
  db.modify("S", tid, original);
  const DiffResult d = core::dra_differential(query, db, t0);
  EXPECT_TRUE(d.empty());
  EXPECT_TRUE(core::propagate(query, db, before).empty());
}

TEST(DraHardCases, InAndLikeAndBetweenPredicates) {
  common::Rng rng(59);
  cat::Database db;
  testing::make_stock_table(db, "S", 60, rng);
  for (const char* sql :
       {"SELECT * FROM S WHERE category IN ('tech', 'bank') AND price > 400",
        "SELECT * FROM S WHERE category LIKE 'te%'",
        "SELECT id FROM S WHERE price BETWEEN 250 AND 750 AND qty NOT IN (1, 2)"}) {
    const auto query = qry::parse_query(sql);
    expect_dra_equals_oracle(query, db, [&] {
      testing::random_updates(db, "S", 20,
                              {.modify_fraction = 0.4, .delete_fraction = 0.3}, rng);
    });
  }
}

TEST(DraHardCases, ArithmeticInPredicate) {
  common::Rng rng(60);
  cat::Database db;
  testing::make_stock_table(db, "S", 60, rng);
  const auto query =
      qry::parse_query("SELECT * FROM S WHERE price * qty > 20000 AND price + 10 < 900");
  expect_dra_equals_oracle(query, db, [&] {
    testing::random_updates(db, "S", 25,
                            {.modify_fraction = 0.5, .delete_fraction = 0.2}, rng);
  });
}

TEST(DraHardCases, RepeatedWindowsAreIdempotent) {
  // Running the DRA twice over the same window gives identical results
  // (it must not consume the log).
  common::Rng rng(61);
  cat::Database db;
  testing::make_stock_table(db, "S", 50, rng);
  const auto query = qry::parse_query("SELECT * FROM S WHERE price > 300");
  const Timestamp t0 = db.clock().now();
  testing::random_updates(db, "S", 20,
                          {.modify_fraction = 0.3, .delete_fraction = 0.3}, rng);
  const DiffResult first = core::dra_differential(query, db, t0);
  const DiffResult second = core::dra_differential(query, db, t0);
  EXPECT_TRUE(first.equivalent(second));
}

// ---- index-probe join: the probed side's own filter runs before concat ----

/// Table (id, k, v): k is the join key, v the filtered column; both are
/// NULL about a quarter of the time.
void make_nullable_table(cat::Database& db, const std::string& name, int rows,
                         common::Rng& rng) {
  db.create_table(name, rel::Schema::of({{"id", ValueType::kInt},
                                         {"k", ValueType::kInt},
                                         {"v", ValueType::kInt}}));
  auto txn = db.begin();
  for (int i = 0; i < rows; ++i) {
    txn.insert(name, {Value(i),
                      rng.chance(0.25) ? Value::null() : Value(rng.uniform_int(0, 7)),
                      rng.chance(0.25) ? Value::null() : Value(rng.uniform_int(0, 99))});
  }
  txn.commit();
}

/// Inserts, deletes and modifications, some of which null out k or v.
void churn_nullable(cat::Database& db, const std::string& name, common::Rng& rng) {
  auto tids = testing::live_tids(db, name);
  auto txn = db.begin();
  for (int i = 0; i < 12; ++i) {
    txn.insert(name, {Value(1000 + i),
                      rng.chance(0.3) ? Value::null() : Value(rng.uniform_int(0, 7)),
                      rng.chance(0.3) ? Value::null() : Value(rng.uniform_int(0, 99))});
  }
  for (std::size_t i = 0; i < 8 && i < tids.size(); ++i) txn.erase(name, tids[i]);
  for (std::size_t i = 8; i < 20 && i < tids.size(); ++i) {
    txn.modify(name, tids[i],
               {Value(static_cast<std::int64_t>(2000 + i)),
                i % 3 == 0 ? Value::null() : Value(rng.uniform_int(0, 7)),
                i % 4 == 0 ? Value::null() : Value(rng.uniform_int(0, 99))});
  }
  txn.commit();
}

/// Rows of one diff side as "values | lineage ids", sorted, so two diffs can
/// be compared with their lineage.
std::vector<std::string> rows_with_lineage(const Relation& r) {
  std::vector<std::string> out;
  for (const auto& row : r.rows()) {
    std::ostringstream os;
    os << row.to_string() << " |";
    if (row.prov()) {
      for (const auto& id : *row.prov()) os << ' ' << id.txn << '/' << id.rel << '/' << id.seq;
    }
    out.push_back(os.str());
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct IndexJoinCounters {
  std::int64_t tuples_compared = 0;
  std::size_t index_probes = 0;
};

/// DRA with and without persistent indexes both equal Propagate; returns
/// the counters of the index-probing run.
IndexJoinCounters expect_index_join_matches_oracle(const qry::SpjQuery& query,
                                                   cat::Database& db,
                                                   const std::function<void()>& mutate) {
  const Relation before = core::recompute(query, db);
  const Timestamp t0 = db.clock().now();
  mutate();
  common::Metrics metrics;
  core::DraStats stats;
  const DiffResult via_index = core::dra_differential(
      query, db, t0, &metrics, {.use_persistent_indexes = true}, &stats);
  const DiffResult via_scan =
      core::dra_differential(query, db, t0, nullptr, {.use_persistent_indexes = false});
  const DiffResult via_oracle = core::propagate(query, db, before);
  EXPECT_TRUE(via_index.equivalent(via_oracle))
      << "query: " << query.to_string() << "\ndra: " << via_index.to_string()
      << "\noracle: " << via_oracle.to_string();
  EXPECT_TRUE(via_scan.equivalent(via_oracle)) << "query: " << query.to_string();
  // Both paths concatenate the same (delta row, base row) pairs, so their
  // rows carry the same lineage too.
  EXPECT_EQ(rows_with_lineage(via_index.inserted), rows_with_lineage(via_scan.inserted));
  EXPECT_EQ(rows_with_lineage(via_index.deleted), rows_with_lineage(via_scan.deleted));
  return {metrics.get(common::metric::kTuplesCompared), stats.index_probes};
}

// The counters pinned below are those of the join that concatenated every
// index match and filtered the joined row: tuples_compared counts index
// matches, before the probed side's filter.

TEST(DraIndexJoinFilter, ProbedSideFilterWithNullKeysAndValues) {
  common::Rng rng(61);
  cat::Database db;
  make_nullable_table(db, "A", 60, rng);
  make_nullable_table(db, "B", 300, rng);
  db.create_index("B", "by_k", {"k"});
  const auto query = qry::parse_query(
      "SELECT a.id, b.id, b.v FROM A a, B b WHERE a.k = b.k AND b.v < 50");
  const auto counters =
      expect_index_join_matches_oracle(query, db, [&] { churn_nullable(db, "A", rng); });
  EXPECT_EQ(counters.tuples_compared, 1602);
  EXPECT_EQ(counters.index_probes, 44u);
}

TEST(DraIndexJoinFilter, NullTestsInTheProbedSideFilter) {
  common::Rng rng(62);
  cat::Database db;
  make_nullable_table(db, "A", 60, rng);
  make_nullable_table(db, "B", 60, rng);
  db.create_index("B", "by_k", {"k"});
  for (const char* sql :
       {"SELECT a.id, b.id FROM A a, B b WHERE a.k = b.k AND b.v IS NULL",
        "SELECT a.id, b.id FROM A a, B b WHERE a.k = b.k AND NOT b.v > 30",
        "SELECT a.id, b.id FROM A a, B b WHERE a.k = b.k AND b.v IS NOT NULL AND "
        "a.v < b.v"}) {
    expect_index_join_matches_oracle(qry::parse_query(sql), db,
                                     [&] { churn_nullable(db, "A", rng); });
  }
}

TEST(DraIndexJoinFilter, SelfJoinThroughTwoAliases) {
  // Both positions change; each single-delta term probes the other alias's
  // index and filters with that alias's own predicate.
  common::Rng rng(63);
  cat::Database db;
  make_nullable_table(db, "T", 80, rng);
  db.create_index("T", "by_k", {"k"});
  const auto query = qry::parse_query(
      "SELECT a.id, b.id FROM T a, T b WHERE a.k = b.k AND a.v > 60 AND b.v < 40");
  const auto counters =
      expect_index_join_matches_oracle(query, db, [&] { churn_nullable(db, "T", rng); });
  EXPECT_EQ(counters.tuples_compared, 255);
  EXPECT_EQ(counters.index_probes, 22u);
}

TEST(DraIndexJoinFilter, LineageOnThreeWayJoin) {
  rel::prov::set_enabled(true);
  common::Rng rng(64);
  cat::Database db;
  make_nullable_table(db, "A", 50, rng);
  make_nullable_table(db, "B", 50, rng);
  make_nullable_table(db, "C", 50, rng);
  db.create_index("B", "by_k", {"k"});
  db.create_index("C", "by_k", {"k"});
  const auto query = qry::parse_query(
      "SELECT a.id, b.id, c.id FROM A a, B b, C c "
      "WHERE a.k = b.k AND b.k = c.k AND b.v < 70 AND c.v > 20");
  const auto counters = expect_index_join_matches_oracle(query, db, [&] {
    churn_nullable(db, "A", rng);
    churn_nullable(db, "C", rng);
  });
  rel::prov::set_enabled(false);
  EXPECT_EQ(counters.tuples_compared, 1103);
  EXPECT_EQ(counters.index_probes, 30u);
}

}  // namespace
}  // namespace cq

// Staleness/divergence accounting (the ESR-inspired measure behind the
// paper's epsilon specifications) and EXPLAIN output.
#include <gtest/gtest.h>

#include "catalog/transaction.hpp"
#include "cq/continual_query.hpp"
#include "cq/manager.hpp"

namespace cq::core {
namespace {

using common::Duration;
using rel::Value;
using rel::ValueType;

struct Fixture {
  cat::Database db;

  Fixture() {
    db.create_table("Stocks", rel::Schema::of({{"name", ValueType::kString},
                                               {"price", ValueType::kInt}}));
    db.insert("Stocks", {Value("DEC"), Value(150)});
    db.insert("Stocks", {Value("IBM"), Value(80)});
  }

  ContinualQuery make_cq(const std::string& sql) {
    ContinualQuery cq(CqSpec::from_sql("q", sql, triggers::manual()), db);
    (void)cq.execute_initial(db);
    return cq;
  }
};

TEST(Staleness, FreshCqHasNone) {
  Fixture f;
  ContinualQuery cq = f.make_cq("SELECT * FROM Stocks WHERE price > 120");
  const auto s = cq.staleness(f.db);
  EXPECT_EQ(s.pending_changes, 0u);
  EXPECT_EQ(s.relevant_changes, 0u);
  EXPECT_EQ(s.age.ticks(), 0);
}

TEST(Staleness, CountsPendingAndRelevantSeparately) {
  Fixture f;
  ContinualQuery cq = f.make_cq("SELECT * FROM Stocks WHERE price > 120");
  f.db.insert("Stocks", {Value("MAC"), Value(130)});  // relevant
  f.db.insert("Stocks", {Value("SUN"), Value(50)});   // filtered out
  const auto s = cq.staleness(f.db);
  EXPECT_EQ(s.pending_changes, 2u);
  EXPECT_EQ(s.relevant_changes, 1u);
  EXPECT_GT(s.age.ticks(), 0);
}

TEST(Staleness, ModificationCountsBothSides) {
  Fixture f;
  ContinualQuery cq = f.make_cq("SELECT * FROM Stocks WHERE price > 120");
  const auto tid = f.db.table("Stocks").rows().front().tid();
  f.db.modify("Stocks", tid, {Value("DEC"), Value(149)});
  const auto s = cq.staleness(f.db);
  // One modification = one insertion view row + one deletion view row.
  EXPECT_EQ(s.pending_changes, 2u);
  EXPECT_EQ(s.relevant_changes, 2u);  // both sides above the threshold
}

TEST(Staleness, ResetsAfterExecution) {
  Fixture f;
  ContinualQuery cq = f.make_cq("SELECT * FROM Stocks WHERE price > 120");
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_GT(cq.staleness(f.db).pending_changes, 0u);
  (void)cq.execute(f.db);
  EXPECT_EQ(cq.staleness(f.db).pending_changes, 0u);
}

TEST(Explain, MentionsAllTheParts) {
  Fixture f;
  f.db.create_index("Stocks", "by_name", {"name"});
  ContinualQuery cq = f.make_cq("SELECT name FROM Stocks WHERE price > 120");
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  const std::string text = cq.explain(f.db);
  EXPECT_NE(text.find("trigger: manual"), std::string::npos);
  EXPECT_NE(text.find("strategy: DRA"), std::string::npos);
  EXPECT_NE(text.find("ΔStocks: 1 pending"), std::string::npos);
  EXPECT_NE(text.find("by_name"), std::string::npos);
  EXPECT_NE(text.find("staleness"), std::string::npos);
  EXPECT_NE(text.find("price > 120"), std::string::npos);
}

TEST(Explain, JoinQueryShowsPlan) {
  Fixture f;
  f.db.create_table("Notes", rel::Schema::of({{"sym", ValueType::kString},
                                              {"rating", ValueType::kInt}}));
  ContinualQuery cq(
      CqSpec::from_sql("j",
                       "SELECT s.name FROM Stocks s, Notes n "
                       "WHERE s.name = n.sym AND n.rating > 5",
                       triggers::manual()),
      f.db);
  (void)cq.execute_initial(f.db);
  const std::string text = cq.explain(f.db);
  EXPECT_NE(text.find("join order"), std::string::npos);
  EXPECT_NE(text.find("ΔNotes"), std::string::npos);
}

TEST(Explain, ThreeWayJoinPlanAndStaleness) {
  cat::Database db;
  db.create_table("A", rel::Schema::of({{"k", ValueType::kInt}, {"x", ValueType::kInt}}));
  db.create_table("B", rel::Schema::of({{"k", ValueType::kInt}, {"j", ValueType::kInt}}));
  db.create_table("C", rel::Schema::of({{"j", ValueType::kInt}, {"z", ValueType::kInt}}));
  for (int k = 1; k <= 4; ++k) db.insert("A", {Value(k), Value(2 * k)});
  for (int k = 1; k <= 4; ++k) db.insert("B", {Value(k), Value(10 * k)});
  for (int j = 1; j <= 4; ++j) db.insert("C", {Value(10 * j), Value(j)});
  db.create_index("B", "b_by_k", {"k"});
  ContinualQuery cq(CqSpec::from_sql("chain",
                                     "SELECT a.x, COUNT(*) AS n FROM A a, B b, C c "
                                     "WHERE a.k = b.k AND b.j = c.j AND a.x + c.z > 5 "
                                     "AND b.j > 10 AND c.z < 4 GROUP BY a.x ORDER BY n",
                                     triggers::manual()),
                    db);
  (void)cq.execute_initial(db);

  db.insert("B", {Value(5), Value(50)});  // passes b.j > 10
  db.insert("B", {Value(6), Value(5)});   // filtered out by b.j > 10
  db.insert("C", {Value(50), Value(9)});  // filtered out by c.z < 4
  db.modify("A", db.table("A").rows().front().tid(), {Value(1), Value(7)});
  const auto s = cq.staleness(db);
  EXPECT_EQ(s.pending_changes, 5u);
  EXPECT_EQ(s.relevant_changes, 3u);
  EXPECT_EQ(cq.explain(db),
            "CQ 'chain': SELECT a.x, COUNT(*) AS n FROM A AS a, B AS b, C AS c WHERE "
            "(((((a.k = b.k) AND (b.j = c.j)) AND ((a.x + c.z) > 5)) AND (b.j > 10)) AND "
            "(c.z < 4)) GROUP BY a.x ORDER BY n\n"
            "  trigger: manual\n"
            "  stop: never\n"
            "  mode: differential, strategy: DRA\n"
            "  executions: 1, last at t=12\n"
            "  Plan for SELECT * FROM A AS a, B AS b, C AS c WHERE (((((a.k = b.k) AND "
            "(b.j = c.j)) AND ((a.x + c.z) > 5)) AND (b.j > 10)) AND (c.z < 4))\n"
            "  join order: c b a\n"
            "  filter[b]: (b.j > 10)\n"
            "  filter[c]: (c.z < 4)\n"
            "  join predicate: (((a.k = b.k) AND (b.j = c.j)) AND ((a.x + c.z) > 5))\n"
            "  ΔA: 1 pending net rows\n"
            "  ΔB: 2 pending net rows (indexes: b_by_k)\n"
            "  ΔC: 1 pending net rows\n"
            "  staleness: 5 pending / 3 relevant changes, age 4 ticks\n");
}

}  // namespace
}  // namespace cq::core

#include <gtest/gtest.h>

#include "catalog/database.hpp"
#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "query/evaluate.hpp"
#include "query/parser.hpp"
#include "query/planner.hpp"

namespace cq::qry {
namespace {

using rel::Relation;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

cat::Database company_db() {
  cat::Database db;
  db.create_table("Emp", rel::Schema::of({{"name", ValueType::kString},
                                          {"dept", ValueType::kInt},
                                          {"salary", ValueType::kInt}}));
  db.create_table("Dept", rel::Schema::of({{"id", ValueType::kInt},
                                           {"label", ValueType::kString}}));
  auto txn = db.begin();
  txn.insert("Emp", {Value("ann"), Value(1), Value(100)});
  txn.insert("Emp", {Value("bob"), Value(2), Value(200)});
  txn.insert("Emp", {Value("cat"), Value(1), Value(300)});
  txn.insert("Emp", {Value("dan"), Value(3), Value(400)});
  txn.insert("Dept", {Value(1), Value("eng")});
  txn.insert("Dept", {Value(2), Value("ops")});
  txn.commit();
  return db;
}

TEST(Planner, PushesSingleTableConjunctsDown) {
  const SpjQuery q = parse_query(
      "SELECT * FROM Emp e, Dept d WHERE e.dept = d.id AND e.salary > 150 AND "
      "d.label = 'eng'");
  const std::vector<rel::Schema> schemas = {
      qualify(rel::Schema::of({{"name", ValueType::kString},
                               {"dept", ValueType::kInt},
                               {"salary", ValueType::kInt}}),
              q.from[0]),
      qualify(rel::Schema::of({{"id", ValueType::kInt}, {"label", ValueType::kString}}),
              q.from[1])};
  const PlannedQuery plan_result = plan(q, schemas, {100, 10});
  EXPECT_EQ(plan_result.table_filters[0].size(), 1u);  // e.salary > 150
  EXPECT_EQ(plan_result.table_filters[1].size(), 1u);  // d.label = 'eng'
  EXPECT_EQ(plan_result.join_conjuncts.size(), 1u);    // e.dept = d.id
  EXPECT_EQ(plan_result.join_order.size(), 2u);
}

TEST(Planner, JoinOrderPrefersSmallerEstimate) {
  SpjQuery q = parse_query("SELECT * FROM Big b, Small s WHERE b.k = s.k");
  const std::vector<rel::Schema> schemas = {
      qualify(rel::Schema::of({{"k", ValueType::kInt}}), q.from[0]),
      qualify(rel::Schema::of({{"k", ValueType::kInt}}), q.from[1])};
  const PlannedQuery p = plan(q, schemas, {1000000, 3});
  EXPECT_EQ(p.join_order[0], 1u);  // Small first
}

TEST(Evaluate, SingleTableSelection) {
  const cat::Database db = company_db();
  const Relation out =
      evaluate(parse_query("SELECT name FROM Emp WHERE salary > 150"), db);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out.schema().at(0).name, "Emp.name");
}

TEST(Evaluate, JoinWithQualifiedColumns) {
  const cat::Database db = company_db();
  const Relation out = evaluate(
      parse_query("SELECT e.name, d.label FROM Emp e, Dept d WHERE e.dept = d.id"),
      db);
  EXPECT_EQ(out.size(), 3u);  // dan's dept 3 has no match
}

TEST(Evaluate, SelectStarJoinHasCanonicalColumnOrder) {
  const cat::Database db = company_db();
  const Relation out = evaluate(
      parse_query("SELECT * FROM Emp e, Dept d WHERE e.dept = d.id"), db);
  ASSERT_EQ(out.schema().size(), 5u);
  EXPECT_EQ(out.schema().at(0).name, "e.name");
  EXPECT_EQ(out.schema().at(3).name, "d.id");
}

TEST(Evaluate, CrossProductWhenNoJoinPredicate) {
  const cat::Database db = company_db();
  const Relation out = evaluate(parse_query("SELECT * FROM Emp e, Dept d"), db);
  EXPECT_EQ(out.size(), 8u);
}

TEST(Evaluate, SelfJoinWithAliases) {
  const cat::Database db = company_db();
  const Relation out = evaluate(
      parse_query("SELECT a.name, b.name FROM Emp a, Emp b "
                  "WHERE a.dept = b.dept AND a.salary < b.salary"),
      db);
  EXPECT_EQ(out.size(), 1u);  // (ann, cat)
  EXPECT_EQ(out.row(0).at(0), Value("ann"));
}

TEST(Evaluate, Distinct) {
  const cat::Database db = company_db();
  const Relation all = evaluate(parse_query("SELECT dept FROM Emp"), db);
  EXPECT_EQ(all.size(), 4u);
  const Relation unique = evaluate(parse_query("SELECT DISTINCT dept FROM Emp"), db);
  EXPECT_EQ(unique.size(), 3u);
}

TEST(Evaluate, ScalarAggregate) {
  const cat::Database db = company_db();
  const Relation out = evaluate(parse_query("SELECT SUM(salary) FROM Emp"), db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).at(0), Value(1000));
}

TEST(Evaluate, GroupedAggregate) {
  const cat::Database db = company_db();
  const Relation out = evaluate(
      parse_query("SELECT dept, SUM(salary) AS total FROM Emp GROUP BY dept"), db);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.row(0).at(0), Value(1));
  EXPECT_EQ(out.row(0).at(1), Value(400));
}

TEST(Evaluate, AggregateOverJoin) {
  const cat::Database db = company_db();
  const Relation out = evaluate(
      parse_query("SELECT SUM(e.salary) FROM Emp e, Dept d WHERE e.dept = d.id"), db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).at(0), Value(600));
}

TEST(Evaluate, UnknownColumnThrows) {
  const cat::Database db = company_db();
  EXPECT_THROW(evaluate(parse_query("SELECT * FROM Emp WHERE bogus > 1"), db),
               common::NotFound);
}

TEST(Evaluate, UnknownTableThrows) {
  const cat::Database db = company_db();
  EXPECT_THROW(evaluate(parse_query("SELECT * FROM Nope"), db), common::NotFound);
}

TEST(Evaluate, InputCountMismatchThrows) {
  const SpjQuery q = parse_query("SELECT * FROM A, B");
  EXPECT_THROW(evaluate_spj_over(q, {}), common::InvalidArgument);
}

TEST(Evaluate, BareColumnResolvesAgainstAlias) {
  const cat::Database db = company_db();
  // "salary" is unambiguous even though the schema is qualified "Emp.salary".
  const Relation out =
      evaluate(parse_query("SELECT salary FROM Emp WHERE name = 'ann'"), db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).at(0), Value(100));
}

// ---- EXPLAIN over a three-way join ----
//
// B is the smallest input after its pushed-down filter, C is the cheaper
// table connected to it, so the plan joins B, C, then A: `b.j = c.j`
// applies at the first join step, `a.k = b.k` and `a.x + c.z > 5` first
// resolve at the second.

cat::Database chain_db() {
  cat::Database db;
  db.create_table("A", rel::Schema::of({{"k", ValueType::kInt}, {"x", ValueType::kInt}}));
  db.create_table("B", rel::Schema::of({{"k", ValueType::kInt}, {"j", ValueType::kInt}}));
  db.create_table("C", rel::Schema::of({{"j", ValueType::kInt}, {"z", ValueType::kInt}}));
  auto txn = db.begin();
  for (const auto& [k, x] : {std::pair{1, 1}, {2, 5}, {3, 9}, {4, 2}}) {
    txn.insert("A", {Value(k), Value(x)});
  }
  for (const auto& [k, j] : {std::pair{1, 10}, {2, 20}, {3, 30}, {3, 10}, {5, 20}}) {
    txn.insert("B", {Value(k), Value(j)});
  }
  for (const auto& [j, z] : {std::pair{10, 1}, {20, 7}, {30, 3}}) {
    txn.insert("C", {Value(j), Value(z)});
  }
  txn.commit();
  return db;
}

constexpr const char* kChainWhere =
    "WHERE a.k = b.k AND b.j = c.j AND a.x + c.z > 5 AND b.j > 10";

TEST(ExplainQuery, ThreeWayJoinEstimatesOnly) {
  const cat::Database db = chain_db();
  const QueryExplain ex = explain_query(
      parse_query(std::string("SELECT a.x, c.z FROM A a, B b, C c ") + kChainWhere), db,
      /*execute=*/false);
  EXPECT_FALSE(ex.executed);
  EXPECT_EQ(ex.to_string(),
            "Project [a.x, c.z]  (est~0.1, actual=?)\n"
            "  Join [((a.k = b.k) AND ((a.x + c.z) > 5))]  (est~0.1, actual=?)\n"
            "    Join [(b.j = c.j)]  (est~0.9, actual=?)\n"
            "      Scan B AS b [(b.j > 10)]  (est~3, actual=?)\n"
            "      Scan C AS c  (est~3, actual=?)\n"
            "    Scan A AS a  (est~4, actual=?)\n");
}

TEST(ExplainQuery, ThreeWayJoinExecuted) {
  const cat::Database db = chain_db();
  const QueryExplain ex = explain_query(
      parse_query(std::string("SELECT a.x, c.z FROM A a, B b, C c ") + kChainWhere), db);
  EXPECT_TRUE(ex.executed);
  EXPECT_EQ(ex.result.size(), 2u);
  EXPECT_EQ(render_plan_tree(ex.root),
            "Project [a.x, c.z]  (est~0.1, actual=2)\n"
            "  Join [((a.k = b.k) AND ((a.x + c.z) > 5))]  (est~0.1, actual=2)\n"
            "    Join [(b.j = c.j)]  (est~0.9, actual=3)\n"
            "      Scan B AS b [(b.j > 10)]  (est~3, actual=3)\n"
            "      Scan C AS c  (est~3, actual=3)\n"
            "    Scan A AS a  (est~4, actual=4)\n");
}

TEST(ExplainQuery, ResidualThatNeverResolves) {
  // `b.missing` names no column, so the conjunct never resolves and runs
  // as a Filter above the last join; C's filter empties the join first, so
  // the executed plan never evaluates it.
  const cat::Database db = chain_db();
  const SpjQuery q = parse_query(std::string("SELECT * FROM A a, B b, C c ") +
                                 kChainWhere + " AND c.z > 100 AND b.missing = 0");
  EXPECT_EQ(explain_query(q, db, /*execute=*/false).to_string(),
            "Project *  (est~0.0, actual=?)\n"
            "  Filter [(b.missing = 0)]  (est~0.0, actual=?)\n"
            "    Join [((a.k = b.k) AND ((a.x + c.z) > 5))]  (est~0.0, actual=?)\n"
            "      Join [(b.j = c.j)]  (est~0.2, actual=?)\n"
            "        Scan C AS c [(c.z > 100)]  (est~0.5, actual=?)\n"
            "        Scan B AS b [(b.j > 10)]  (est~3, actual=?)\n"
            "      Scan A AS a  (est~4, actual=?)\n");
  const QueryExplain ex = explain_query(q, db);
  EXPECT_TRUE(ex.result.empty());
  EXPECT_EQ(ex.to_string(),
            "Project *  (est~0.0, actual=0)\n"
            "  Filter [(b.missing = 0)]  (est~0.0, actual=0)\n"
            "    Join [((a.k = b.k) AND ((a.x + c.z) > 5))]  (est~0.0, actual=0)\n"
            "      Join [(b.j = c.j)]  (est~0.2, actual=0)\n"
            "        Scan C AS c [(c.z > 100)]  (est~0.5, actual=0)\n"
            "        Scan B AS b [(b.j > 10)]  (est~3, actual=3)\n"
            "      Scan A AS a  (est~4, actual=4)\n");
}

TEST(ExplainQuery, AggregateWithOrderBy) {
  const cat::Database db = chain_db();
  const SpjQuery q =
      parse_query(std::string("SELECT c.z, COUNT(*) AS n, SUM(a.x) AS sx "
                              "FROM A a, B b, C c ") +
                  kChainWhere + " GROUP BY c.z HAVING n > 0 ORDER BY sx DESC");
  EXPECT_EQ(explain_query(q, db, /*execute=*/false).to_string(),
            "Sort [sx DESC]  (est~?, actual=?)\n"
            "  Aggregate [COUNT(*), SUM(a.x)] GROUP BY [c.z] HAVING [(n > 0)]  (est~?, actual=?)\n"
            "    Project *  (est~0.1, actual=?)\n"
            "      Join [((a.k = b.k) AND ((a.x + c.z) > 5))]  (est~0.1, actual=?)\n"
            "        Join [(b.j = c.j)]  (est~0.9, actual=?)\n"
            "          Scan B AS b [(b.j > 10)]  (est~3, actual=?)\n"
            "          Scan C AS c  (est~3, actual=?)\n"
            "        Scan A AS a  (est~4, actual=?)\n");
  const QueryExplain ex = explain_query(q, db);
  EXPECT_EQ(ex.result.size(), 2u);
  EXPECT_EQ(ex.to_string(),
            "Sort [sx DESC]  (est~?, actual=2)\n"
            "  Aggregate [COUNT(*), SUM(a.x)] GROUP BY [c.z] HAVING [(n > 0)]  (est~?, actual=2)\n"
            "    Project *  (est~0.1, actual=2)\n"
            "      Join [((a.k = b.k) AND ((a.x + c.z) > 5))]  (est~0.1, actual=2)\n"
            "        Join [(b.j = c.j)]  (est~0.9, actual=3)\n"
            "          Scan B AS b [(b.j > 10)]  (est~3, actual=3)\n"
            "          Scan C AS c  (est~3, actual=3)\n"
            "        Scan A AS a  (est~4, actual=4)\n");
}

TEST(ExplainQuery, OrderByOverJoin) {
  const cat::Database db = chain_db();
  const QueryExplain ex = explain_query(
      parse_query(std::string("SELECT DISTINCT a.x FROM A a, B b, C c ") + kChainWhere +
                  " ORDER BY a.x"),
      db);
  EXPECT_EQ(ex.to_string(),
            "Sort [a.x]  (est~?, actual=2)\n"
            "  Project DISTINCT [a.x]  (est~?, actual=2)\n"
            "    Join [((a.k = b.k) AND ((a.x + c.z) > 5))]  (est~0.1, actual=2)\n"
            "      Join [(b.j = c.j)]  (est~0.9, actual=3)\n"
            "        Scan B AS b [(b.j > 10)]  (est~3, actual=3)\n"
            "        Scan C AS c  (est~3, actual=3)\n"
            "      Scan A AS a  (est~4, actual=4)\n");
}

}  // namespace
}  // namespace cq::qry

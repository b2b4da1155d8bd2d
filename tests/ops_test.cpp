#include "algebra/ops.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace cq::alg {
namespace {

using common::Metrics;
using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

Relation people() {
  Relation r(Schema::of({{"p.name", ValueType::kString}, {"p.dept", ValueType::kInt}}));
  r.insert_values({Value("ann"), Value(1)});
  r.insert_values({Value("bob"), Value(2)});
  r.insert_values({Value("cat"), Value(1)});
  return r;
}

Relation depts() {
  Relation r(Schema::of({{"d.id", ValueType::kInt}, {"d.label", ValueType::kString}}));
  r.insert_values({Value(1), Value("eng")});
  r.insert_values({Value(2), Value("ops")});
  r.insert_values({Value(3), Value("hr")});
  return r;
}

TEST(Select, FiltersAndKeepsTids) {
  const Relation r = people();
  const Relation out = select(r, *Expr::col_cmp("p.dept", CmpOp::kEq, Value(1)));
  EXPECT_EQ(out.size(), 2u);
  for (const auto& row : out.rows()) EXPECT_TRUE(row.tid().valid());
}

TEST(Select, CountsMetrics) {
  Metrics m;
  const Relation out = select(people(), *Expr::always_true(), &m);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(m.get(common::metric::kRowsScanned), 3);
  EXPECT_EQ(m.get(common::metric::kRowsOutput), 3);
}

TEST(Project, KeepsMultiplicityWithoutDedup) {
  const Relation out = project(people(), {"p.dept"}, /*dedup=*/false);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out.schema().size(), 1u);
}

TEST(Project, DedupProducesSet) {
  const Relation out = project(people(), {"p.dept"}, /*dedup=*/true);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Project, ReordersColumns) {
  const Relation out = project(people(), {"p.dept", "p.name"}, false);
  EXPECT_EQ(out.schema().at(0).name, "p.dept");
  EXPECT_EQ(out.row(0).at(0).type(), ValueType::kInt);
}

TEST(NestedLoopJoin, CrossProductWithoutPredicate) {
  const Relation out = nested_loop_join(people(), depts(), nullptr);
  EXPECT_EQ(out.size(), 9u);
  EXPECT_EQ(out.schema().size(), 4u);
}

TEST(NestedLoopJoin, ThetaJoin) {
  const auto pred = Expr::cmp(CmpOp::kEq, Expr::col("p.dept"), Expr::col("d.id"));
  const Relation out = nested_loop_join(people(), depts(), pred.get());
  EXPECT_EQ(out.size(), 3u);
}

TEST(HashJoin, MatchesNestedLoop) {
  const auto pred = Expr::cmp(CmpOp::kEq, Expr::col("p.dept"), Expr::col("d.id"));
  const Relation nl = nested_loop_join(people(), depts(), pred.get());
  const Relation hj = hash_join(people(), depts(), {{1, 0}}, nullptr);
  EXPECT_TRUE(nl.equal_multiset(hj));
}

TEST(HashJoin, NullKeysMatchNothingAsInNestedLoop) {
  // NULL = NULL is false in a predicate, so neither join pairs NULL keys,
  // whichever side the hash join builds on (the smaller one).
  const auto pred = Expr::cmp(CmpOp::kEq, Expr::col("p.dept"), Expr::col("d.id"));
  for (const int extra_people : {0, 2}) {
    Relation left = people();
    left.append(Tuple{Value("dan"), Value::null()});
    for (int i = 0; i < extra_people; ++i) left.append(Tuple{Value("eve"), Value::null()});
    Relation right = depts();
    right.append(Tuple{Value::null(), Value("tbd")});
    const Relation nl = nested_loop_join(left, right, pred.get());
    const Relation hj = hash_join(left, right, {{1, 0}}, nullptr);
    EXPECT_EQ(nl.size(), 3u);
    EXPECT_TRUE(nl.equal_multiset(hj)) << hj.to_string();
  }
}

TEST(HashJoin, ResidualPredicate) {
  const auto residual = Expr::col_cmp("d.label", CmpOp::kEq, Value("eng"));
  const Relation out = hash_join(people(), depts(), {{1, 0}}, residual.get());
  EXPECT_EQ(out.size(), 2u);  // ann and cat
}

TEST(HashJoin, RequiresEquiPairs) {
  EXPECT_THROW(hash_join(people(), depts(), {}, nullptr), common::InvalidArgument);
}

TEST(Join, AutoSelectsHashAndPushesDown) {
  Metrics m;
  const auto pred = conjoin({
      Expr::cmp(CmpOp::kEq, Expr::col("p.dept"), Expr::col("d.id")),
      Expr::col_cmp("p.name", CmpOp::kNe, Value("bob")),
  });
  const Relation out = join(people(), depts(), pred, &m);
  EXPECT_EQ(out.size(), 2u);
  // Pushdown means the probe side was pre-filtered: fewer comparisons than
  // the full 3x3 cross product.
  EXPECT_LT(m.get(common::metric::kTuplesCompared), 9);
}

/// Sorted "v,v,...;" rendering of a relation's rows, for exact multisets.
std::string render_rows(const Relation& r) {
  std::string out;
  for (const auto& row : r.sorted_rows()) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += (i == 0 ? "" : ",") + row.at(i).to_string();
    }
    out += ";";
  }
  return out;
}

TEST(Join, NestedLoopPathMatchesHashPath) {
  // use_hash = false (the DRA's ablation A1) pushes the same one-sided
  // conjuncts and checks the equi conjuncts on the concatenated row; both
  // paths reject NULL keys. The pinned rows and comparison counts are those
  // of the DRA's nested-loop join before it moved into alg::join.
  Relation left = people();
  left.append(Tuple{Value("dan"), Value::null()});
  left.append(Tuple{Value("eve"), Value(2)});
  Relation right = depts();
  right.append(Tuple{Value::null(), Value("tbd")});
  right.append(Tuple{Value(1), Value("lab")});
  const auto eq = Expr::cmp(CmpOp::kEq, Expr::col("p.dept"), Expr::col("d.id"));
  struct Case {
    ExprPtr predicate;
    std::string rows;
    std::int64_t hash_compared;
    std::int64_t loop_compared;
  };
  const std::string equi_rows =
      "'ann',1,1,'eng';'ann',1,1,'lab';'bob',2,2,'ops';"
      "'cat',1,1,'eng';'cat',1,1,'lab';'eve',2,2,'ops';";
  const std::vector<Case> cases = {
      {eq, equi_rows, 6, 25},
      {Expr::cmp(CmpOp::kEq, Expr::col("d.id"), Expr::col("p.dept")), equi_rows, 6, 25},
      {conjoin({eq, Expr::col_cmp("p.name", CmpOp::kNe, Value("bob")),
                Expr::col_cmp("d.label", CmpOp::kNe, Value("hr"))}),
       "'ann',1,1,'eng';'ann',1,1,'lab';'cat',1,1,'eng';'cat',1,1,'lab';'eve',2,2,'ops';", 5,
       16},
      {conjoin({eq, Expr::cmp(CmpOp::kGt,
                              Expr::arith(ArithOp::kAdd, Expr::col("p.dept"), Expr::col("d.id")),
                              Expr::lit(Value(3)))}),
       "'bob',2,2,'ops';'eve',2,2,'ops';", 6, 25},
      {conjoin({Expr::cmp(CmpOp::kLt, Expr::col("p.dept"), Expr::col("d.id")),
                Expr::col_cmp("p.name", CmpOp::kNe, Value("ann"))}),
       "'bob',2,3,'hr';'cat',1,2,'ops';'cat',1,3,'hr';'eve',2,3,'hr';", 20, 20},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    Metrics hash_m;
    Metrics loop_m;
    const Relation hashed = join(left, right, cases[i].predicate, &hash_m, true);
    const Relation looped = join(left, right, cases[i].predicate, &loop_m, false);
    EXPECT_EQ(render_rows(hashed), cases[i].rows);
    EXPECT_EQ(render_rows(looped), cases[i].rows);
    EXPECT_EQ(hash_m.get(common::metric::kTuplesCompared), cases[i].hash_compared);
    EXPECT_EQ(loop_m.get(common::metric::kTuplesCompared), cases[i].loop_compared);
  }
}

TEST(UnionAll, KeepsDuplicates) {
  const Relation out = union_all(people(), people());
  EXPECT_EQ(out.size(), 6u);
}

TEST(UnionAll, SchemaChecked) {
  EXPECT_THROW(union_all(people(), depts()), common::SchemaMismatch);
}

TEST(Difference, MultisetSemantics) {
  Relation a(Schema::of({{"x", ValueType::kInt}}));
  a.append(Tuple({Value(1)}));
  a.append(Tuple({Value(1)}));
  a.append(Tuple({Value(2)}));
  Relation b(Schema::of({{"x", ValueType::kInt}}));
  b.append(Tuple({Value(1)}));
  const Relation out = difference(a, b);
  EXPECT_EQ(out.size(), 2u);  // one 1 and one 2 remain
  EXPECT_EQ(out.count_value(Tuple({Value(1)})), 1u);
  EXPECT_EQ(out.count_value(Tuple({Value(2)})), 1u);
}

TEST(Difference, RemovingMoreThanPresentIsEmptyNotNegative) {
  Relation a(Schema::of({{"x", ValueType::kInt}}));
  a.append(Tuple({Value(1)}));
  Relation b(Schema::of({{"x", ValueType::kInt}}));
  b.append(Tuple({Value(1)}));
  b.append(Tuple({Value(1)}));
  EXPECT_TRUE(difference(a, b).empty());
}

TEST(Intersect, MultisetSemantics) {
  Relation a(Schema::of({{"x", ValueType::kInt}}));
  a.append(Tuple({Value(1)}));
  a.append(Tuple({Value(1)}));
  a.append(Tuple({Value(2)}));
  Relation b(Schema::of({{"x", ValueType::kInt}}));
  b.append(Tuple({Value(1)}));
  b.append(Tuple({Value(3)}));
  const Relation out = intersect(a, b);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.count_value(Tuple({Value(1)})), 1u);
}

TEST(Distinct, RemovesDuplicates) {
  Relation a(Schema::of({{"x", ValueType::kInt}}));
  a.append(Tuple({Value(1)}));
  a.append(Tuple({Value(1)}));
  a.append(Tuple({Value(2)}));
  EXPECT_EQ(distinct(a).size(), 2u);
}

TEST(EmptyInputs, AllOperatorsHandleEmpty) {
  const Relation empty(people().schema());
  EXPECT_TRUE(select(empty, *Expr::always_true()).empty());
  EXPECT_TRUE(project(empty, {"p.name"}, true).empty());
  EXPECT_TRUE(nested_loop_join(empty, depts(), nullptr).empty());
  EXPECT_TRUE(hash_join(empty, depts(), {{1, 0}}, nullptr).empty());
  EXPECT_TRUE(difference(empty, empty).empty());
  EXPECT_TRUE(distinct(empty).empty());
}

}  // namespace
}  // namespace cq::alg

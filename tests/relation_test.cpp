#include "relation/relation.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "relation/index.hpp"
#include "relation/tid_map.hpp"

namespace cq::rel {
namespace {

Schema two_cols() {
  return Schema::of({{"k", ValueType::kInt}, {"v", ValueType::kString}});
}

TEST(Relation, InsertEraseUpdateByTid) {
  Relation r(two_cols());
  const TupleId a = r.insert_values({Value(1), Value("one")});
  const TupleId b = r.insert_values({Value(2), Value("two")});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.contains(a));
  ASSERT_NE(r.find(b), nullptr);
  EXPECT_EQ(r.find(b)->at(1).as_string(), "two");

  const Tuple old = r.update(b, {Value(2), Value("deux")});
  EXPECT_EQ(old.at(1).as_string(), "two");
  EXPECT_EQ(r.find(b)->at(1).as_string(), "deux");

  const Tuple removed = r.erase(a);
  EXPECT_EQ(removed.at(0).as_int(), 1);
  EXPECT_FALSE(r.contains(a));
  EXPECT_EQ(r.size(), 1u);
}

TEST(Relation, EraseKeepsIndexConsistent) {
  Relation r(two_cols());
  std::vector<TupleId> tids;
  for (int i = 0; i < 10; ++i) tids.push_back(r.insert_values({Value(i), Value("x")}));
  r.erase(tids[0]);  // swap-and-pop moves the last row into slot 0
  for (int i = 1; i < 10; ++i) {
    ASSERT_NE(r.find(tids[i]), nullptr);
    EXPECT_EQ(r.find(tids[i])->at(0).as_int(), i);
  }
}

TEST(Relation, DuplicateTidRejected) {
  Relation r(two_cols());
  r.insert(Tuple({Value(1), Value("a")}, TupleId(7)));
  EXPECT_THROW(r.insert(Tuple({Value(2), Value("b")}, TupleId(7))),
               common::InvalidArgument);
}

TEST(Relation, ArityChecked) {
  Relation r(two_cols());
  EXPECT_THROW(r.insert_values({Value(1)}), common::SchemaMismatch);
  EXPECT_THROW(r.append(Tuple({Value(1), Value("a"), Value(2)})),
               common::SchemaMismatch);
}

TEST(Relation, EraseMissingThrows) {
  Relation r(two_cols());
  EXPECT_THROW(r.erase(TupleId(99)), common::NotFound);
  EXPECT_THROW(r.update(TupleId(99), {Value(1), Value("a")}), common::NotFound);
}

TEST(Relation, MultisetAppendAllowsDuplicates) {
  Relation r(two_cols());
  r.append(Tuple({Value(1), Value("a")}));
  r.append(Tuple({Value(1), Value("a")}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.count_value(Tuple({Value(1), Value("a")})), 2u);
}

TEST(Relation, RemoveOneByValue) {
  Relation r(two_cols());
  r.append(Tuple({Value(1), Value("a")}));
  r.append(Tuple({Value(1), Value("a")}));
  EXPECT_TRUE(r.remove_one_by_value(Tuple({Value(1), Value("a")})));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_FALSE(r.remove_one_by_value(Tuple({Value(9), Value("z")})));
}

TEST(Relation, EqualMultisetIgnoresOrderAndTids) {
  Relation a(two_cols());
  Relation b(two_cols());
  a.insert_values({Value(1), Value("x")});
  a.insert_values({Value(2), Value("y")});
  b.append(Tuple({Value(2), Value("y")}));
  b.append(Tuple({Value(1), Value("x")}));
  EXPECT_TRUE(a.equal_multiset(b));
  b.append(Tuple({Value(1), Value("x")}));
  EXPECT_FALSE(a.equal_multiset(b));
}

TEST(Relation, EqualMultisetRespectsMultiplicity) {
  Relation a(two_cols());
  Relation b(two_cols());
  a.append(Tuple({Value(1), Value("x")}));
  a.append(Tuple({Value(1), Value("x")}));
  a.append(Tuple({Value(2), Value("y")}));
  b.append(Tuple({Value(1), Value("x")}));
  b.append(Tuple({Value(2), Value("y")}));
  b.append(Tuple({Value(2), Value("y")}));
  EXPECT_FALSE(a.equal_multiset(b));
}

TEST(Relation, SortedRowsDeterministic) {
  Relation r(two_cols());
  r.insert_values({Value(3), Value("c")});
  r.insert_values({Value(1), Value("a")});
  r.insert_values({Value(2), Value("b")});
  const auto sorted = r.sorted_rows();
  EXPECT_EQ(sorted[0].at(0).as_int(), 1);
  EXPECT_EQ(sorted[1].at(0).as_int(), 2);
  EXPECT_EQ(sorted[2].at(0).as_int(), 3);
}

TEST(TupleBag, CountsAndCancels) {
  TupleBag bag;
  const Tuple t({Value(1), Value("a")});
  bag.add(t, +2);
  EXPECT_EQ(bag.count(t), 2);
  bag.add(t, -2);
  EXPECT_EQ(bag.count(t), 0);
  EXPECT_TRUE(bag.all_zero());
}

TEST(TupleBag, IgnoresTids) {
  TupleBag bag;
  bag.add(Tuple({Value(1)}, TupleId(5)), +1);
  bag.add(Tuple({Value(1)}, TupleId(9)), -1);
  EXPECT_TRUE(bag.all_zero());
}

TEST(HashIndex, ProbesByKey) {
  Relation r(two_cols());
  r.insert_values({Value(1), Value("a")});
  r.insert_values({Value(2), Value("b")});
  r.insert_values({Value(1), Value("c")});
  HashIndex idx(r, {0});
  const Tuple probe({Value(1), Value("zzz")});
  EXPECT_EQ(idx.probe(probe, {0}).size(), 2u);
  const Tuple miss({Value(42), Value("zzz")});
  EXPECT_TRUE(idx.probe(miss, {0}).empty());
  EXPECT_EQ(idx.distinct_keys(), 2u);
}

TEST(HashIndex, CompositeKey) {
  Relation r(two_cols());
  r.insert_values({Value(1), Value("a")});
  r.insert_values({Value(1), Value("b")});
  HashIndex idx(r, {0, 1});
  EXPECT_EQ(idx.probe(Tuple({Value(1), Value("a")}), {0, 1}).size(), 1u);
}

TEST(Tuple, ConcatAndProject) {
  const Tuple a({Value(1), Value("x")});
  const Tuple b({Value(2.5)});
  const Tuple c = a.concat(b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.at(2).as_double(), 2.5);
  const Tuple p = c.project({2, 0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.at(0).as_double(), 2.5);
  EXPECT_EQ(p.at(1).as_int(), 1);
}

// ---- tid index ----

/// Tids whose home slot in a table of `capacity` slots is `slot`.
std::vector<TupleId> tids_homed_at(std::size_t slot, std::size_t capacity, std::size_t n) {
  std::vector<TupleId> out;
  for (TupleId::rep t = 1; out.size() < n; ++t) {
    if (TidMap::home(TupleId(t), capacity) == slot) out.emplace_back(t);
  }
  return out;
}

TEST(TidMap, EraseInsideACollidingProbeChain) {
  // Three tids share home slot 2 and one is homed at 3, so the chain is
  // slots 2..5: erasing from its middle must shift the later entries back.
  TidMap map;
  map.assign(TupleId(1000), 0);  // first insert sizes the table
  ASSERT_TRUE(map.erase(TupleId(1000)));
  const std::size_t capacity = map.capacity();
  const std::vector<TupleId> same = tids_homed_at(2, capacity, 3);
  const TupleId next = tids_homed_at(3, capacity, 1)[0];
  for (std::size_t i = 0; i < same.size(); ++i) map.assign(same[i], i);
  map.assign(next, 3);
  ASSERT_EQ(map.capacity(), capacity);

  ASSERT_TRUE(map.erase(same[1]));
  EXPECT_FALSE(map.contains(same[1]));
  ASSERT_NE(map.find(same[0]), nullptr);
  EXPECT_EQ(*map.find(same[0]), 0u);
  ASSERT_NE(map.find(same[2]), nullptr);
  EXPECT_EQ(*map.find(same[2]), 2u);
  ASSERT_NE(map.find(next), nullptr);
  EXPECT_EQ(*map.find(next), 3u);

  ASSERT_TRUE(map.erase(same[0]));
  EXPECT_FALSE(map.erase(same[0]));
  EXPECT_EQ(*map.find(same[2]), 2u);
  EXPECT_EQ(*map.find(next), 3u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.find(TupleId::invalid()), nullptr);
}

TEST(TidMap, GrowsAcrossResizesAndKeepsEveryEntry) {
  TidMap map;
  std::size_t resizes = 0;
  for (TupleId::rep t = 1; t <= 5000; ++t) {
    const std::size_t before = map.capacity();
    map.assign(TupleId(t * 7), static_cast<std::size_t>(t));
    if (map.capacity() != before) ++resizes;
    ASSERT_LE(4 * map.size(), 3 * map.capacity());
  }
  EXPECT_GE(resizes, 5u);
  for (TupleId::rep t = 1; t <= 5000; t += 2) ASSERT_TRUE(map.erase(TupleId(t * 7)));
  EXPECT_EQ(map.size(), 2500u);
  for (TupleId::rep t = 1; t <= 5000; ++t) {
    const std::size_t* row = map.find(TupleId(t * 7));
    if (t % 2 == 1) {
      EXPECT_EQ(row, nullptr) << t;
    } else {
      ASSERT_NE(row, nullptr) << t;
      EXPECT_EQ(*row, t);
    }
    EXPECT_EQ(map.find(TupleId(t * 7 + 1)), nullptr);
  }
}

/// Reference Relation: the same row bookkeeping over a node-based
/// std::unordered_map tid index. A removal moves the last row into the
/// hole; when the indexed copy of a tid goes, the entry moves to the first
/// remaining row with that tid (or goes when none is left), and when an
/// unindexed repeat goes, the entry stays.
struct ModelRelation {
  std::vector<Tuple> rows;
  std::unordered_map<TupleId, std::size_t> by_tid;

  void insert(Tuple t) {
    by_tid.emplace(t.tid(), rows.size());
    rows.push_back(std::move(t));
  }
  void erase(TupleId tid) { remove_at(by_tid.at(tid)); }
  void update(TupleId tid, std::vector<Value> values) {
    rows[by_tid.at(tid)] = Tuple(std::move(values), tid);
  }
  void append(Tuple t) {
    if (t.tid().valid() && !by_tid.contains(t.tid())) by_tid.emplace(t.tid(), rows.size());
    rows.push_back(std::move(t));
  }
  bool remove_one_by_value(const Tuple& values) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].same_values(values)) continue;
      remove_at(i);
      return true;
    }
    return false;
  }
  bool remove_one(const Tuple& t) {
    if (t.tid().valid()) {
      auto it = by_tid.find(t.tid());
      if (it != by_tid.end()) {
        remove_at(it->second);
        return true;
      }
    }
    return remove_one_by_value(t);
  }
  void remove_at(std::size_t i) {
    const TupleId gone = rows[i].tid();
    const std::size_t last = rows.size() - 1;
    if (i != last) rows[i] = std::move(rows.back());
    rows.pop_back();
    if (gone.valid() && by_tid.at(gone) == i) {
      by_tid.erase(gone);
      for (std::size_t j = 0; j < rows.size(); ++j) {
        if (rows[j].tid() == gone) {
          by_tid.emplace(gone, j);
          break;
        }
      }
    }
    if (i != last && rows[i].tid().valid() && by_tid.at(rows[i].tid()) == last) {
      by_tid[rows[i].tid()] = i;
    }
  }
};

void expect_same_state(const Relation& r, const ModelRelation& m, TupleId::rep max_tid) {
  ASSERT_EQ(r.size(), m.rows.size());
  for (std::size_t i = 0; i < m.rows.size(); ++i) {
    ASSERT_TRUE(r.row(i).same_values(m.rows[i])) << "row " << i;
    ASSERT_EQ(r.row(i).tid(), m.rows[i].tid()) << "row " << i;
  }
  for (TupleId::rep t = 0; t <= max_tid + 1; ++t) {
    const auto it = m.by_tid.find(TupleId(t));
    const Tuple* found = r.find(TupleId(t));
    if (it == m.by_tid.end()) {
      ASSERT_EQ(found, nullptr) << "tid " << t;
    } else {
      ASSERT_EQ(found, &r.rows()[it->second]) << "tid " << t;
    }
    ASSERT_EQ(r.contains(TupleId(t)), it != m.by_tid.end()) << "tid " << t;
  }
  // The invariant itself: a tid still present maps to a row carrying it.
  for (const auto& row : r.rows()) {
    if (!row.tid().valid()) continue;
    const Tuple* found = r.find(row.tid());
    ASSERT_NE(found, nullptr) << "tid " << row.tid().raw();
    ASSERT_EQ(found->tid(), row.tid());
  }
}

TEST(Relation, RemovingARepeatedTidKeepsItIndexed) {
  Relation r(two_cols());
  r.append(Tuple({Value(1), Value("a")}, TupleId(7)));
  r.append(Tuple({Value(2), Value("b")}, TupleId(7)));
  ASSERT_TRUE(r.remove_one_by_value(Tuple{Value(2), Value("b")}));
  ASSERT_NE(r.find(TupleId(7)), nullptr);
  EXPECT_EQ(r.find(TupleId(7))->at(0), Value(1));
  EXPECT_TRUE(r.contains(TupleId(7)));

  // Removing the indexed copy hands the entry to a repeat that remains.
  r.append(Tuple({Value(3), Value("c")}, TupleId(7)));
  r.append(Tuple({Value(4), Value("d")}, TupleId(9)));
  r.erase(TupleId(7));  // row 0 goes; tid 9 moves into it
  ASSERT_NE(r.find(TupleId(7)), nullptr);
  EXPECT_EQ(r.find(TupleId(7))->at(0), Value(3));
  ASSERT_NE(r.find(TupleId(9)), nullptr);
  EXPECT_EQ(r.find(TupleId(9))->at(0), Value(4));
  ASSERT_TRUE(r.remove_one(Tuple({Value(3), Value("c")}, TupleId(7))));
  EXPECT_EQ(r.find(TupleId(7)), nullptr);
  EXPECT_FALSE(r.contains(TupleId(7)));
  EXPECT_EQ(r.size(), 1u);
}

TEST(Relation, TidIndexMatchesUnorderedMapModel) {
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    common::Rng rng(seed);
    Relation r(two_cols());
    ModelRelation m;
    TupleId::rep next_tid = 1;
    auto random_row = [&] { return std::vector<Value>{Value(rng.uniform_int(0, 9)), Value("v")}; };
    auto random_live_tid = [&] {
      return m.rows[static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(m.rows.size()) - 1))]
          .tid();
    };
    for (int step = 0; step < 3000; ++step) {
      const auto op = rng.uniform_int(0, 7);
      if (op <= 1 || m.rows.empty()) {  // insert a fresh tid
        Tuple t(random_row(), TupleId(next_tid++));
        r.insert(t);
        m.insert(t);
      } else if (op == 2) {  // append: tid-less, a fresh tid, or a repeated one
        const auto kind = rng.uniform_int(0, 2);
        const TupleId tid = kind == 0   ? TupleId::invalid()
                            : kind == 1 ? TupleId(next_tid++)
                                        : random_live_tid();
        Tuple t(random_row(), tid);
        r.append(t);
        m.append(t);
      } else if (op == 3) {  // erase an indexed tid
        const TupleId tid = random_live_tid();
        if (!m.by_tid.contains(tid)) continue;
        r.erase(tid);
        m.erase(tid);
      } else if (op == 4) {  // update an indexed tid
        const TupleId tid = random_live_tid();
        if (!m.by_tid.contains(tid)) continue;
        const auto values = random_row();
        r.update(tid, values);
        m.update(tid, values);
      } else if (op == 5) {  // remove_one by tid (or by value when absent)
        Tuple t(random_row(), rng.chance(0.7) ? random_live_tid() : TupleId(next_tid + 5));
        ASSERT_EQ(r.remove_one(t), m.remove_one(t));
      } else if (op == 6) {
        const Tuple t(random_row());
        ASSERT_EQ(r.remove_one_by_value(t), m.remove_one_by_value(t));
      } else {  // continue on a copy
        const Relation copy = r;
        r = Relation(two_cols());
        r = copy;
      }
      expect_same_state(r, m, next_tid);
    }
  }
}

}  // namespace
}  // namespace cq::rel

#include "cq/manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "cq/stop.hpp"
#include "query/parser.hpp"

namespace cq::core {
namespace {

using common::Duration;
using common::Timestamp;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

struct Fixture {
  cat::Database db;
  CqManager manager{db};
  std::shared_ptr<CollectingSink> sink = std::make_shared<CollectingSink>();

  Fixture() {
    db.create_table("Stocks", rel::Schema::of({{"name", ValueType::kString},
                                               {"price", ValueType::kInt}}));
    db.insert("Stocks", {Value("DEC"), Value(150)});
    db.insert("Stocks", {Value("IBM"), Value(80)});
  }

  CqSpec spec(const std::string& name, TriggerPtr trigger, StopPtr stop = nullptr) {
    return CqSpec::from_sql(name, "SELECT * FROM Stocks WHERE price > 120",
                            std::move(trigger), std::move(stop));
  }
};

TEST(CqManager, InstallRunsInitialExecution) {
  Fixture f;
  const CqHandle h = f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  EXPECT_TRUE(f.manager.contains(h));
  ASSERT_EQ(f.sink->notifications().size(), 1u);
  EXPECT_EQ(f.sink->notifications()[0].sequence, 0u);
  EXPECT_EQ(f.sink->notifications()[0].complete->size(), 1u);
  EXPECT_EQ(f.db.zones().active_count(), 1u);
}

TEST(CqManager, PollExecutesFiredTriggers) {
  Fixture f;
  f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  EXPECT_EQ(f.manager.poll(), 0u);  // nothing changed yet
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_EQ(f.manager.poll(), 1u);
  ASSERT_EQ(f.sink->notifications().size(), 2u);
  EXPECT_EQ(f.sink->notifications()[1].delta.inserted.size(), 1u);
  EXPECT_EQ(f.manager.poll(), 0u);  // consumed
}

TEST(CqManager, EagerModeExecutesOnCommit) {
  Fixture f;
  f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  f.manager.set_eager(true);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  // No poll needed: the commit hook drove the execution.
  ASSERT_EQ(f.sink->notifications().size(), 2u);
  EXPECT_EQ(f.sink->notifications()[1].delta.inserted.size(), 1u);
}

TEST(CqManager, EagerIgnoresIrrelevantTables) {
  Fixture f;
  f.db.create_table("Other", rel::Schema::of({{"x", ValueType::kInt}}));
  f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  f.manager.set_eager(true);
  f.db.insert("Other", {Value(1)});
  EXPECT_EQ(f.sink->notifications().size(), 1u);  // only the initial one
}

TEST(CqManager, PeriodicTriggerViaVirtualClock) {
  Fixture f;
  auto& clock = dynamic_cast<common::VirtualClock&>(f.db.clock());
  f.manager.install(f.spec("q", triggers::periodic(Duration(100))), f.sink);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_EQ(f.manager.poll(), 0u);  // interval not yet elapsed
  clock.advance(Duration(100));
  EXPECT_EQ(f.manager.poll(), 1u);
}

TEST(CqManager, StopConditionUninstallsCq) {
  Fixture f;
  const CqHandle h = f.manager.install(
      f.spec("q", triggers::on_change(), stop::after_executions(2)), f.sink);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  f.manager.poll();  // second execution -> stop fires
  EXPECT_FALSE(f.manager.contains(h));
  EXPECT_EQ(f.manager.active_count(), 0u);
  EXPECT_EQ(f.db.zones().active_count(), 0u);
}

TEST(CqManager, ExecuteNowBypassesTrigger) {
  Fixture f;
  const CqHandle h = f.manager.install(f.spec("q", triggers::manual()), f.sink);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_EQ(f.manager.poll(), 0u);  // manual trigger never fires
  const Notification n = f.manager.execute_now(h);
  EXPECT_EQ(n.delta.inserted.size(), 1u);
}

TEST(CqManager, RemoveReleasesZone) {
  Fixture f;
  const CqHandle h = f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  f.manager.remove(h);
  EXPECT_EQ(f.db.zones().active_count(), 0u);
  EXPECT_THROW(f.manager.remove(h), common::NotFound);
  EXPECT_THROW(static_cast<void>(f.manager.execute_now(h)), common::NotFound);
  EXPECT_THROW(static_cast<void>(f.manager.cq(h)), common::NotFound);
}

TEST(CqManager, MultipleCqsIndependentCursors) {
  Fixture f;
  auto sink_a = std::make_shared<CollectingSink>();
  auto sink_b = std::make_shared<CollectingSink>();
  f.manager.install(f.spec("a", triggers::on_change()), sink_a);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  f.manager.poll();  // only A exists; consumes the change
  f.manager.install(f.spec("b", triggers::on_change()), sink_b);
  f.db.insert("Stocks", {Value("SUN"), Value(140)});
  f.manager.poll();
  // A saw both changes across two executions; B only the second.
  EXPECT_EQ(sink_a->notifications().size(), 3u);
  EXPECT_EQ(sink_b->notifications().size(), 2u);
  EXPECT_EQ(sink_b->notifications()[1].delta.inserted.size(), 1u);
}

TEST(CqManager, GarbageCollectionRespectsSlowestCq) {
  Fixture f;
  // Fast CQ re-executes on every poll; slow CQ never fires.
  f.manager.install(f.spec("fast", triggers::on_change()), nullptr);
  f.manager.install(f.spec("slow", triggers::manual()), nullptr);
  for (int i = 0; i < 10; ++i) {
    f.db.insert("Stocks", {Value("S" + std::to_string(i)), Value(130)});
    f.manager.poll();
  }
  // The slow CQ still needs everything since its installation: only the
  // two fixture rows loaded *before* any CQ existed are reclaimable.
  EXPECT_EQ(f.manager.collect_garbage(), 2u);
  EXPECT_EQ(f.db.delta("Stocks").size(), 10u);
}

TEST(CqManager, GarbageCollectionReclaimsAfterAllCqsAdvance) {
  Fixture f;
  const CqHandle h = f.manager.install(f.spec("only", triggers::on_change()), nullptr);
  for (int i = 0; i < 10; ++i) {
    f.db.insert("Stocks", {Value("S" + std::to_string(i)), Value(130)});
  }
  f.manager.poll();  // CQ consumes all 10 changes; its zone advances
  // 10 new rows + the 2 fixture rows predating the CQ.
  EXPECT_EQ(f.manager.collect_garbage(), 12u);
  EXPECT_TRUE(f.db.delta("Stocks").empty());
  // And the CQ still works after GC.
  f.db.insert("Stocks", {Value("NEW"), Value(200)});
  EXPECT_EQ(f.manager.poll(), 1u);
  EXPECT_TRUE(f.manager.contains(h));
}

TEST(CqManager, MetricsAccumulate) {
  Fixture f;
  f.manager.install(f.spec("q", triggers::on_change()), nullptr);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  f.manager.poll();
  EXPECT_GE(f.manager.metrics().get(common::metric::kQueryExecutions), 2);
  EXPECT_GE(f.manager.metrics().get(common::metric::kTriggerChecks), 1);
}

TEST(CqManager, CountsSuppressedVersusFiredTriggerChecks) {
  Fixture f;
  const CqHandle h =
      f.manager.install(f.spec("q", triggers::periodic(Duration(100))), f.sink);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_EQ(f.manager.poll(), 0u);  // interval not elapsed: suppressed
  EXPECT_EQ(f.manager.stats(h).trigger_checks, 1u);
  EXPECT_EQ(f.manager.stats(h).suppressed, 1u);
  EXPECT_EQ(f.manager.stats(h).fired, 0u);
  EXPECT_GE(f.manager.metrics().get(common::metric::kTriggersSuppressed), 1);

  auto& clock = dynamic_cast<common::VirtualClock&>(f.db.clock());
  clock.advance(Duration(100));
  EXPECT_EQ(f.manager.poll(), 1u);  // now it fires
  EXPECT_EQ(f.manager.stats(h).trigger_checks, 2u);
  EXPECT_EQ(f.manager.stats(h).suppressed, 1u);
  EXPECT_EQ(f.manager.stats(h).fired, 1u);
  EXPECT_EQ(f.manager.stats(h).executions, 2u);
  EXPECT_GE(f.manager.metrics().get(common::metric::kTriggersFired), 1);
}

TEST(CqManager, LastDraStatsExposed) {
  Fixture f;
  const CqHandle h = f.manager.install(f.spec("q", triggers::manual()), nullptr);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  (void)f.manager.execute_now(h);
  EXPECT_EQ(f.manager.last_dra_stats().changed_relations, 1u);
}

TEST(CqManager, EagerToPeriodicSwitch) {
  Fixture f;
  f.manager.install(f.spec("q", triggers::on_change()), f.sink);
  f.manager.set_eager(true);
  EXPECT_TRUE(f.manager.eager());
  f.manager.set_eager(false);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  EXPECT_EQ(f.sink->notifications().size(), 1u);  // no eager dispatch
  EXPECT_EQ(f.manager.poll(), 1u);                // but poll still works
}

// ---- parallel evaluation engine ----

/// Full serialization of one notification (no row truncation) so streams
/// from different thread counts can be compared byte-for-byte.
std::string note_string(const Notification& n) {
  std::string s = n.cq_name + "#" + std::to_string(n.sequence) + "@" +
                  std::to_string(n.at.ticks()) + "\n" + n.delta.to_string();
  if (n.complete) s += "complete:\n" + n.complete->to_string(n.complete->size());
  if (n.aggregate) s += "aggregate:\n" + n.aggregate->to_string(n.aggregate->size());
  return s;
}

struct ScenarioRun {
  std::vector<std::string> stream;  // serialized notifications, sink order
  std::map<std::string, CqStats> stats;
  std::size_t sink_failures = 0;    // SinkFailure exceptions seen by the script
};

struct SinkFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Forwards to `inner`, except that it throws SinkFailure — once — in
/// place of CQ `victim`'s first notification after E_0.
class ThrowOnceSink final : public ResultSink {
 public:
  ThrowOnceSink(std::shared_ptr<ResultSink> inner, std::string victim)
      : inner_(std::move(inner)), victim_(std::move(victim)) {}

  void on_result(const Notification& n) override {
    if (!thrown_ && n.cq_name == victim_ && n.sequence == 1) {
      thrown_ = true;
      throw SinkFailure("sink failure for " + victim_);
    }
    inner_->on_result(n);
  }

 private:
  std::shared_ptr<ResultSink> inner_;
  std::string victim_;
  bool thrown_ = false;
};

/// A mixed workload — several delivery modes and strategies, two base
/// tables, a join, an aggregate — driven by a fixed commit script. The
/// determinism contract says the observable output is a pure function of
/// the script, independent of `threads`. With `failing_sink`, CQ "hi"
/// (one of three over Stocks) gets a ThrowOnceSink.
ScenarioRun run_scenario(std::size_t threads, bool eager, bool failing_sink = false) {
  cat::Database db;
  db.create_table("Stocks", rel::Schema::of({{"name", ValueType::kString},
                                             {"price", ValueType::kInt}}));
  db.create_table("Trades", rel::Schema::of({{"sym", ValueType::kString},
                                             {"qty", ValueType::kInt}}));
  db.insert("Stocks", {Value("DEC"), Value(150)});
  db.insert("Stocks", {Value("IBM"), Value(80)});
  db.insert("Trades", {Value("DEC"), Value(5)});

  CqManager manager(db);
  manager.set_parallelism(threads);
  auto sink = std::make_shared<CollectingSink>();
  ScenarioRun run;

  auto install = [&](const std::string& name, const std::string& sql,
                     DeliveryMode mode, ExecutionStrategy strategy) {
    CqSpec spec = CqSpec::from_sql(name, sql, triggers::on_change(), nullptr, mode);
    spec.strategy = strategy;
    std::shared_ptr<ResultSink> target = sink;
    if (failing_sink && name == "hi") target = std::make_shared<ThrowOnceSink>(sink, name);
    manager.install(std::move(spec), target);
  };
  install("hi", "SELECT * FROM Stocks WHERE price > 120",
          DeliveryMode::kDifferential, ExecutionStrategy::kDra);
  install("lo", "SELECT * FROM Stocks WHERE price < 100",
          DeliveryMode::kComplete, ExecutionStrategy::kDra);
  install("names", "SELECT DISTINCT name FROM Stocks",
          DeliveryMode::kDifferential, ExecutionStrategy::kDra);
  install("vol", "SELECT * FROM Trades WHERE qty > 10",
          DeliveryMode::kDifferential, ExecutionStrategy::kRecompute);
  install("cnt", "SELECT COUNT(*) FROM Trades",
          DeliveryMode::kDifferential, ExecutionStrategy::kDra);
  install("traded", "SELECT s.name FROM Stocks s, Trades t WHERE s.name = t.sym",
          DeliveryMode::kDifferential, ExecutionStrategy::kDra);

  if (eager) manager.set_eager(true);

  // One commit and, when polled, one poll. A sink failure surfaces from
  // the poll, or from the commit itself under eager dispatch.
  const auto step = [&](const auto& commit) {
    try {
      commit();
      if (!eager) (void)manager.poll();
    } catch (const SinkFailure&) {
      ++run.sink_failures;
    }
  };
  step([&] { db.insert("Stocks", {Value("MAC"), Value(130)}); });
  step([&] {
    auto txn = db.begin();
    txn.insert("Trades", {Value("MAC"), Value(40)});
    txn.insert("Trades", {Value("IBM"), Value(2)});
    txn.commit();
  });
  step([&] {
    // Cross-table transaction: both chunks must see one coherent state.
    auto txn = db.begin();
    txn.insert("Stocks", {Value("QLI"), Value(145)});
    txn.insert("Trades", {Value("QLI"), Value(60)});
    txn.commit();
  });
  step([&] { db.erase("Stocks", db.table("Stocks").rows().front().tid()); });
  if (!eager) (void)manager.poll();  // drain any leftovers

  for (const auto& n : sink->notifications()) run.stream.push_back(note_string(n));
  run.stats = manager.cq_stats();
  return run;
}

void expect_identical(const ScenarioRun& a, const ScenarioRun& b) {
  ASSERT_EQ(a.stream.size(), b.stream.size());
  for (std::size_t i = 0; i < a.stream.size(); ++i) {
    EXPECT_EQ(a.stream[i], b.stream[i]) << "notification " << i << " diverged";
  }
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (const auto& [name, sa] : a.stats) {
    const CqStats& sb = b.stats.at(name);
    EXPECT_EQ(sa.executions, sb.executions) << name;
    EXPECT_EQ(sa.trigger_checks, sb.trigger_checks) << name;
    EXPECT_EQ(sa.fired, sb.fired) << name;
    EXPECT_EQ(sa.suppressed, sb.suppressed) << name;
    EXPECT_EQ(sa.delta_rows_consumed, sb.delta_rows_consumed) << name;
    EXPECT_EQ(sa.rows_delivered, sb.rows_delivered) << name;
    EXPECT_EQ(sa.last_execution, sb.last_execution) << name;
    EXPECT_EQ(sa.finished, sb.finished) << name;
  }
}

TEST(CqManagerParallel, PolledDispatchMatchesSequential) {
  const ScenarioRun seq = run_scenario(1, /*eager=*/false);
  ASSERT_FALSE(seq.stream.empty());
  expect_identical(seq, run_scenario(2, false));
  expect_identical(seq, run_scenario(4, false));
}

TEST(CqManagerParallel, EagerDispatchMatchesSequential) {
  const ScenarioRun seq = run_scenario(1, /*eager=*/true);
  ASSERT_FALSE(seq.stream.empty());
  expect_identical(seq, run_scenario(2, true));
  expect_identical(seq, run_scenario(4, true));
}

TEST(CqManagerParallel, MoreLanesThanCqsMatchesSequential) {
  expect_identical(run_scenario(1, true), run_scenario(16, true));
}

/// A throwing sink costs no other CQ its delta. "hi"'s sink throws once,
/// on hi#1; every other CQ is still delivered in that dispatch, so at 1,
/// 2 and 4 lanes the stream is the clean run's minus hi#1 and the stats
/// are the clean run's (hi#1 was executed and counted, only not received).
void expect_sink_failure_isolated(bool eager) {
  ScenarioRun expected = run_scenario(1, eager);
  const auto hi1 = std::find_if(expected.stream.begin(), expected.stream.end(),
                                [](const std::string& n) { return n.rfind("hi#1@", 0) == 0; });
  ASSERT_NE(hi1, expected.stream.end());
  expected.stream.erase(hi1);
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ScenarioRun failed = run_scenario(threads, eager, /*failing_sink=*/true);
    EXPECT_EQ(failed.sink_failures, 1u);
    expect_identical(expected, failed);
  }
}

TEST(CqManagerParallel, PolledSinkFailureLosesNoOtherDelta) {
  expect_sink_failure_isolated(/*eager=*/false);
}

TEST(CqManagerParallel, EagerSinkFailureLosesNoOtherDelta) {
  expect_sink_failure_isolated(/*eager=*/true);
}

TEST(CqManagerParallel, SetParallelismClampsAndReports) {
  Fixture f;
  EXPECT_EQ(f.manager.parallelism(), 1u);
  f.manager.set_parallelism(4);
  EXPECT_EQ(f.manager.parallelism(), 4u);
  f.manager.set_parallelism(0);  // 0 is shorthand for "sequential"
  EXPECT_EQ(f.manager.parallelism(), 1u);
}

TEST(CqManagerParallel, StopConditionsHonoredInParallelMode) {
  Fixture f;
  f.manager.set_parallelism(4);
  const CqHandle h = f.manager.install(
      f.spec("until", triggers::on_change(), stop::after_executions(2)), f.sink);
  f.db.insert("Stocks", {Value("MAC"), Value(130)});
  (void)f.manager.poll();
  f.db.insert("Stocks", {Value("SUN"), Value(125)});
  (void)f.manager.poll();
  EXPECT_FALSE(f.manager.contains(h));  // stop reached and uninstalled
  EXPECT_TRUE(f.manager.cq_stats().at("until").finished);
}

}  // namespace
}  // namespace cq::core

// Layer-1 lock-discipline tests: the runtime rank checker, the observed
// lock-order graph and its exports, the lock_order_edge journal hook, the
// held-stack / lockprof behavior across CondVar waits, and the
// schedule-perturbation determinism sweep (layer 3's oracle, run here as
// a deterministic 100-seed ctest case so tier-1 exercises it without
// libFuzzer). The checker compiles out of Release builds; every test that
// needs it skips itself there.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_order.hpp"
#include "common/observability.hpp"
#include "common/rng.hpp"
#include "common/schedule.hpp"
#include "common/sync.hpp"
#include "testing/dra_script.hpp"

// This binary deliberately acquires mutexes in inverted / cyclic order to
// prove the project's own checker catches it — patterns TSan's deadlock
// detector would (rightly, elsewhere) also flag. Worse, glibc's
// std::mutex never calls pthread_mutex_destroy, so the short-lived stack
// mutexes below can alias addresses across scopes and close *false*
// cycles in TSan's graph. Race detection is unaffected; only the
// redundant deadlock layer is off, and only for this test binary.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
extern "C" const char* __tsan_default_options() { return "detect_deadlocks=0"; }
#endif

namespace cq {
namespace {

namespace lockorder = common::lockorder;
namespace lockprof = common::lockprof;
namespace schedule = common::schedule;
namespace obs = common::obs;
using lockorder::LockRank;

// Site names in this file are zz_-prefixed compile-time literals so they
// (a) aggregate with nothing from the engine and (b) are recognizable as
// test scaffolding in a /lockgraph dump from this binary.

constexpr std::size_t kNoSite = lockprof::kMaxSites;

/// Lock-site table index of the site named `name`; kNoSite when absent.
std::size_t site_index(const std::string& name) {
  for (std::size_t i = 0; i < lockprof::site_count(); ++i) {
    const char* n = lockprof::site(i).name.load(std::memory_order_acquire);
    if (n != nullptr && name == n) return i;
  }
  return kNoSite;
}

TEST(LockOrder, JsonExportAlwaysLinksAndReportsEnabledFlag) {
  const std::string json = lockorder::to_json();
  const std::string want =
      std::string("\"enabled\":") + (lockorder::compiled_in() ? "true" : "false");
  EXPECT_NE(json.find(want), std::string::npos);
  EXPECT_NE(json.find("\"sites\":["), std::string::npos);
  EXPECT_NE(json.find("\"edges\":["), std::string::npos);
}

void acquire_in_inverted_rank_order() {
  common::Mutex outer{"zz_ldt_outer", LockRank::kLeaf};
  common::Mutex inner{"zz_ldt_inner", LockRank::kEventLog};
  common::LockGuard hold(outer);
  common::LockGuard bad(inner);
}

void relock_held_mutex() {
  common::Mutex mu{"zz_ldt_self", LockRank::kLeaf};
  mu.lock();
  mu.lock();  // would hang forever without the checker
}

TEST(LockOrderDeathTest, RankInversionDiesNamingBothSites) {
  if (!lockorder::compiled_in()) GTEST_SKIP() << "checker compiled out";
  // kLeaf (90) held, then blocking on kEventLog (70): monotone-rank
  // violation. The report must name the acquiring site, its rank, and the
  // held site — that line is the acceptance contract for the death path.
  EXPECT_DEATH(acquire_in_inverted_rank_order(),
               "acquiring site \"zz_ldt_inner\" \\(rank 70\\) while holding "
               "site \"zz_ldt_outer\"");
}

TEST(LockOrderDeathTest, SelfDeadlockDiesInsteadOfHanging) {
  if (!lockorder::compiled_in()) GTEST_SKIP() << "checker compiled out";
  EXPECT_DEATH(relock_held_mutex(), "self-deadlock");
}

TEST(LockOrder, CountingModeReportsInversionWithoutAborting) {
  if (!lockorder::compiled_in()) GTEST_SKIP() << "checker compiled out";
  const std::uint64_t before = lockorder::violations();
  lockorder::set_abort_on_violation(false);
  {
    common::Mutex outer{"zz_count_outer", LockRank::kLeaf};
    common::Mutex inner{"zz_count_inner", LockRank::kEventLog};
    common::LockGuard hold(outer);
    common::LockGuard bad(inner);  // counted, not fatal
  }
  lockorder::set_abort_on_violation(true);
  EXPECT_GT(lockorder::violations(), before);
  EXPECT_EQ(lockorder::held_depth(), 0u);  // stack balanced despite the report
}

TEST(LockOrder, CohortAdmitsAscendingOrderKeysAtEqualRank) {
  if (!lockorder::compiled_in()) GTEST_SKIP() << "checker compiled out";
  // The shard-lock shape: same site name, same rank, order keys 1..3.
  // Ascending acquisition of several cohort members is the sanctioned
  // pattern (Transaction::commit takes its closure's shards this way),
  // and a higher plain rank may still nest inside the whole cohort.
  const std::uint64_t before = lockorder::violations();
  common::Mutex a{"zz_cohort", LockRank::kCommitShard};
  common::Mutex b{"zz_cohort", LockRank::kCommitShard};
  common::Mutex c{"zz_cohort", LockRank::kCommitShard};
  a.set_order_key(1);
  b.set_order_key(2);
  c.set_order_key(3);
  common::Mutex leaf{"zz_cohort_leaf", LockRank::kLeaf};
  {
    common::LockGuard la(a);
    common::LockGuard lb(b);
    common::LockGuard lc(c);
    common::LockGuard ll(leaf);
  }
  EXPECT_EQ(lockorder::violations(), before);
  EXPECT_EQ(lockorder::held_depth(), 0u);
}

TEST(LockOrder, CohortRejectsDescendingOrEqualOrderKeys) {
  if (!lockorder::compiled_in()) GTEST_SKIP() << "checker compiled out";
  // Descending cohort acquisition is exactly the shard-lock deadlock the
  // discipline exists to prevent; an equal (reused) key is just as bad.
  const std::uint64_t before = lockorder::violations();
  lockorder::set_abort_on_violation(false);
  {
    common::Mutex lo{"zz_cohort_down", LockRank::kCommitShard};
    common::Mutex hi{"zz_cohort_down", LockRank::kCommitShard};
    lo.set_order_key(1);
    hi.set_order_key(2);
    common::LockGuard lh(hi);
    common::LockGuard ll(lo);  // key 1 after key 2: counted violation
  }
  const std::uint64_t after_descending = lockorder::violations();
  {
    common::Mutex x{"zz_cohort_dup", LockRank::kCommitShard};
    common::Mutex y{"zz_cohort_dup", LockRank::kCommitShard};
    x.set_order_key(7);
    y.set_order_key(7);
    common::LockGuard lx(x);
    common::LockGuard ly(y);  // equal keys: counted violation
  }
  lockorder::set_abort_on_violation(true);
  EXPECT_GT(after_descending, before);
  EXPECT_GT(lockorder::violations(), after_descending);
  EXPECT_EQ(lockorder::held_depth(), 0u);
}

TEST(LockOrder, EqualRankWithoutOrderKeysStaysAViolation) {
  if (!lockorder::compiled_in()) GTEST_SKIP() << "checker compiled out";
  // No cohort membership (order key 0 on either side) keeps the original
  // strict rule: equal-rank blocking acquisition is never legal.
  const std::uint64_t before = lockorder::violations();
  lockorder::set_abort_on_violation(false);
  {
    common::Mutex a{"zz_norank_key", LockRank::kCommitShard};
    common::Mutex b{"zz_norank_key", LockRank::kCommitShard};
    b.set_order_key(2);  // one keyed side is not enough
    common::LockGuard la(a);
    common::LockGuard lb(b);
  }
  lockorder::set_abort_on_violation(true);
  EXPECT_GT(lockorder::violations(), before);
  EXPECT_EQ(lockorder::held_depth(), 0u);
}

TEST(LockOrder, UnrankedSitesFeedTheGraphButSkipRankChecks) {
  if (!lockorder::compiled_in()) GTEST_SKIP() << "checker compiled out";
  // Two unranked named mutexes in *either* nesting order: no violation
  // (rank 0 is exempt from monotonicity) — but both edges land in the
  // graph, which is exactly what the cycle detector needs. Acquiring A->B
  // and then B->A closes a cycle, which IS a violation.
  const std::uint64_t before = lockorder::violations();
  common::Mutex a{"zz_cyc_a"};
  common::Mutex b{"zz_cyc_b"};
  {
    common::LockGuard la(a);
    common::LockGuard lb(b);
  }
  EXPECT_EQ(lockorder::violations(), before);  // forward edge: fine
  lockorder::set_abort_on_violation(false);
  {
    common::LockGuard lb(b);
    common::LockGuard la(a);  // closes the zz_cyc_a <-> zz_cyc_b cycle
  }
  lockorder::set_abort_on_violation(true);
  EXPECT_GT(lockorder::violations(), before);
}

TEST(LockOrder, NonLifoReleasePastHeldCapacityLeavesNoStaleEntry) {
  if (!lockorder::compiled_in()) GTEST_SKIP() << "checker compiled out";
  // The held stack keeps 16 entries; the 17th acquisition is only
  // counted. Releasing the *first* mutex while past capacity must still
  // pop its entry, or relocking it reports a false self-deadlock. One
  // shared unranked site: one table slot, no rank checks, no edges.
  constexpr std::size_t kPastCapacity = 17;
  std::vector<std::unique_ptr<common::Mutex>> mus;
  for (std::size_t i = 0; i < kPastCapacity; ++i) {
    mus.push_back(std::make_unique<common::Mutex>("zz_overflow"));
  }
  const std::uint64_t before = lockorder::violations();
  lockorder::set_abort_on_violation(false);
  for (auto& mu : mus) mu->lock();
  mus.front()->unlock();
  mus.front()->lock();
  for (auto& mu : mus) mu->unlock();
  lockorder::set_abort_on_violation(true);
  EXPECT_EQ(lockorder::violations(), before);
  EXPECT_EQ(lockorder::held_depth(), 0u);
}

/// Fills the process-global lock-site table, then checks a mutex whose
/// site finds no slot: lockable, still rank-checked, but in neither the
/// graph nor the profiler rows. Returns the number of failed checks.
int lock_past_full_site_table() {
  static std::vector<std::unique_ptr<std::string>> names;
  while (true) {
    names.push_back(std::make_unique<std::string>(
        "zz_fill_" + std::to_string(names.size())));
    if (lockprof::register_site(names.back()->c_str(), 0) == nullptr) break;
  }
  int failures = 0;
  lockprof::set_enabled(true);
  lockorder::set_abort_on_violation(false);
  const std::uint64_t before = lockorder::violations();
  {
    common::Mutex outer{"zz_full_outer", LockRank::kLeaf};
    common::Mutex inner{"zz_full_inner", LockRank::kEventLog};
    common::LockGuard hold(outer);
    common::LockGuard bad(inner);  // inversion: counted without a slot
  }
  if (lockorder::compiled_in() && lockorder::violations() == before) ++failures;
  if (lockorder::held_depth() != 0) ++failures;
  if (site_index("zz_full_outer") != kNoSite) ++failures;
  if (site_index("zz_full_inner") != kNoSite) ++failures;
  if (lockorder::to_json().find("zz_full_") != std::string::npos) ++failures;
  return failures;
}

TEST(LockOrderDeathTest, MutexPastFullSiteTableStaysLockableAndChecked) {
  // In a child process: the filled table must not leak into later tests.
  EXPECT_EXIT(std::exit(lock_past_full_site_table()),
              ::testing::ExitedWithCode(0), "");
}

TEST(LockOrder, GraphRecordsEdgesAndExportsJsonAndDot) {
  if (!lockorder::compiled_in()) GTEST_SKIP() << "checker compiled out";
  common::Mutex outer{"zz_graph_outer", LockRank::kRefreshHooks};
  common::Mutex inner{"zz_graph_inner", LockRank::kLeaf};
  {
    common::LockGuard lo(outer);
    common::LockGuard li(inner);
  }
  // Find both site ids and assert the directed edge was counted.
  const std::size_t from = site_index("zz_graph_outer");
  const std::size_t to = site_index("zz_graph_inner");
  ASSERT_NE(from, kNoSite);
  ASSERT_NE(to, kNoSite);
  EXPECT_GT(lockorder::edge_count(from, to), 0u);
  EXPECT_EQ(lockorder::edge_count(to, from), 0u);

  const std::string json = lockorder::to_json();
  EXPECT_NE(json.find("\"name\":\"zz_graph_outer\""), std::string::npos);
  EXPECT_NE(
      json.find("{\"from\":\"zz_graph_outer\",\"to\":\"zz_graph_inner\""),
      std::string::npos);
  const std::string dot = lockorder::to_dot();
  EXPECT_NE(dot.find("\"zz_graph_outer\" -> \"zz_graph_inner\""),
            std::string::npos);
}

TEST(LockOrder, FirstObservedEdgeIsJournaled) {
  if (!lockorder::compiled_in()) GTEST_SKIP() << "checker compiled out";
  // The observability layer installs the edge hook at static init; with
  // the journal enabled, the first observation of a fresh ordered pair
  // must emit a lock_order_edge event naming both sites.
  obs::set_enabled(true);
  {
    common::Mutex outer{"zz_journal_outer", LockRank::kRefreshHooks};
    common::Mutex inner{"zz_journal_inner", LockRank::kLeaf};
    common::LockGuard lo(outer);
    common::LockGuard li(inner);
  }
  const std::string events = obs::global().events().to_ndjson(256, 0);
  obs::set_enabled(false);
  EXPECT_NE(events.find("lock_order_edge"), std::string::npos);
  EXPECT_NE(events.find("zz_journal_outer->zz_journal_inner"),
            std::string::npos);
}

TEST(LockOrder, HeldStackStaysBalancedAcrossCondVarWait) {
  if (!lockorder::compiled_in()) GTEST_SKIP() << "checker compiled out";
  // condition_variable_any waits through our Mutex's own unlock()/lock(),
  // so the held stack must dip to zero inside the wait and come back —
  // never leak an entry, never double-pop.
  common::Mutex mu{"zz_cv_depth", LockRank::kLeaf};
  common::CondVar cv;
  bool go = false;
  std::size_t depth_before_wait = 99;
  std::size_t depth_after_wait = 99;
  std::thread waiter([&] {
    common::LockGuard lock(mu);
    depth_before_wait = lockorder::held_depth();
    cv.wait(mu, [&] { return go; });
    depth_after_wait = lockorder::held_depth();
  });
  {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    common::LockGuard lock(mu);
    go = true;
  }
  cv.notify_all();
  waiter.join();
  EXPECT_EQ(depth_before_wait, 1u);
  EXPECT_EQ(depth_after_wait, 1u);
  EXPECT_EQ(lockorder::held_depth(), 0u);  // main thread's stack, also clean
}

TEST(LockOrder, LockprofHoldTimeExcludesCondVarWait) {
  // A thread parked in cv.wait() is NOT holding the lock — hold-time
  // attribution must charge the two short critical sections around the
  // wait, not the ~150ms spent blocked inside it.
  lockprof::set_enabled(true);
  common::Mutex mu{"zz_cv_prof", LockRank::kLeaf};
  common::CondVar cv;
  bool go = false;
  std::thread waiter([&] {
    common::LockGuard lock(mu);
    cv.wait(mu, [&] { return go; });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  {
    common::LockGuard lock(mu);
    go = true;
  }
  cv.notify_all();
  waiter.join();
  lockprof::set_enabled(false);

  const std::size_t i = site_index("zz_cv_prof");
  ASSERT_NE(i, kNoSite);
  const lockprof::Site* row = &lockprof::site(i);
  // Initial lock + at least one relock after the wait + the notifier.
  EXPECT_GE(row->acquisitions.load(std::memory_order_relaxed), 3u);
  // The 150ms parked in the wait must not be billed as hold time.
  EXPECT_LT(row->hold_ns.load(std::memory_order_relaxed), 100u * 1000 * 1000);
}

// --------------------------------------------------- schedule perturbation --

/// Deterministically find a byte script whose baseline run commits enough
/// transactions to exercise the parallel pipeline.
std::vector<std::uint8_t> find_busy_script() {
  common::Rng rng(0x5eed);
  for (int attempt = 0; attempt < 32; ++attempt) {
    std::vector<std::uint8_t> script(384);
    for (auto& b : script) b = static_cast<std::uint8_t>(rng.index(256));
    const testing::DraScriptReport report =
        testing::run_dra_oracle_script(script.data(), script.size());
    if (report.ok && report.commits >= 3 && !report.digest.empty()) {
      return script;
    }
  }
  return {};
}

TEST(SchedulePerturbation, HundredSeededSchedulesKeepTheDigestBitIdentical) {
  // The acceptance sweep: one fixed DRA script, >= 100 distinct seeded
  // perturbation schedules at 4 evaluation lanes — every run must deliver
  // the sequential baseline's notification stream bit for bit. This is the
  // same oracle fuzz_schedule explores coverage-guided; here the seeds are
  // fixed so tier-1 replays identically everywhere.
  const std::vector<std::uint8_t> script = find_busy_script();
  ASSERT_FALSE(script.empty()) << "no generated script reached 3 commits";
  const testing::DraScriptReport base =
      testing::run_dra_oracle_script(script.data(), script.size());
  ASSERT_TRUE(base.ok) << base.message;

  std::uint64_t total_injected = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    schedule::enable(seed * 0x9e3779b97f4a7c15ull);
    testing::DraScriptConfig cfg;
    cfg.eval_threads = 4;
    const testing::DraScriptReport perturbed =
        testing::run_dra_oracle_script(script.data(), script.size(), cfg);
    total_injected += schedule::injected();
    schedule::disable();
    ASSERT_TRUE(perturbed.ok) << "seed " << seed << ": " << perturbed.message;
    ASSERT_EQ(perturbed.digest, base.digest) << "seed " << seed;
  }
  if (lockorder::compiled_in()) {
    // The perturber actually fired (CQ_SCHED_POINT compiles in with the
    // checker): schedules genuinely differed, this wasn't 100 identical
    // runs.
    EXPECT_GT(total_injected, 100u);
  }
  EXPECT_FALSE(schedule::enabled());
}

TEST(SchedulePerturbation, DisabledPerturberInjectsNothing) {
  ASSERT_FALSE(schedule::enabled());
  const std::uint64_t before = schedule::injected();
  common::Mutex mu{"zz_sched_off", LockRank::kLeaf};
  for (int i = 0; i < 64; ++i) {
    common::LockGuard lock(mu);
  }
  EXPECT_EQ(schedule::injected(), before);
}

}  // namespace
}  // namespace cq

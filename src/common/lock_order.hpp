// Runtime lock-order verification for the annotated mutexes in
// common/sync.hpp — layer 1 of the three-layer lock-discipline subsystem
// (see docs/static-analysis.md and docs/lock-hierarchy.md).
//
// Every *named* cq::common::Mutex carries a LockRank. In a build with
// CQ_LOCK_ORDER_CHECKS defined (default for Debug / RelWithDebInfo / the
// tsan preset; compiled out for Release) Mutex::lock():
//
//   1. pushes the acquisition onto a thread-local held-lock stack,
//   2. enforces monotone rank acquisition — blocking on a mutex whose
//      rank is <= any ranked mutex already held aborts the process,
//      naming both sites, both ranks, the full held chain and both
//      acquisition backtraces,
//   3. records the observed (held-site -> acquired-site) edge into a
//      process-global lock-order graph with incremental cycle detection,
//      so an ordering cycle between *unranked* sites (which the rank
//      check cannot see) also aborts at the moment it first closes.
//
// The graph is exported through the /lockgraph introspection endpoint
// (JSON + DOT) and each first-observed edge is journaled as a
// `lock_order_edge` event via the installable edge hook.
//
// Like lock_profile.hpp, whose site table names the graph's nodes, this
// header sits *below* sync.hpp (sync.hpp includes it) and therefore never
// takes a lock of its own: the graph is a fixed matrix of relaxed atomics
// and the held stack is thread-local.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/lock_profile.hpp"

namespace cq::common::lockorder {

/// Acquisition ranks for the engine's long-lived mutex sites — the one
/// source of truth for the lock hierarchy. Locks must be acquired in
/// strictly increasing rank order: outermost (held the longest, taken
/// first) ranks lowest. The numeric gaps are deliberate — new sites slot
/// between existing layers without renumbering. Each enumerator's comment
/// names the site literal that uses it and why it sits where it does;
/// scripts/lint_invariants.py checks that every named library mutex
/// declares a rank, that one site name keeps one rank, and that
/// CQ_ACQUIRED_BEFORE agrees with these numbers.
enum class LockRank : std::uint16_t {
  /// No rank declared. Unranked named mutexes (test scaffolding) are
  /// exempt from the monotonicity check but still feed the edge graph
  /// and its cycle detection.
  kUnranked = 0,
  /// "engine" (examples/cqshell.cpp): the engine big lock; serializes the
  /// command/commit loop with every introspection handler. Outermost by
  /// construction — nothing is held when it is taken.
  kEngine = 10,
  /// "mediator" (diom::Mediator): source/cursor/sync state; taken by
  /// handlers and sync rounds while "engine" is (possibly) held.
  kMediator = 20,
  /// "commit_shard" (catalog::Database): per-shard commit locks. A
  /// *cohort*: the shards share this rank and one site literal, and each
  /// carries its shard index + 1 as an order key, so a committer takes its
  /// closure's shards strictly ascending — same-rank acquisition is legal
  /// only with strictly ascending nonzero keys. Taken by
  /// Transaction::commit, DDL, GC and gauge refresh.
  kCommitShard = 22,
  /// "commit_ts" (catalog::Database): commit timestamp and global sequence
  /// allocation — one short critical section inside the shard locks that
  /// totally orders commits.
  kCommitTs = 24,
  /// "cq_entries" (CqManager): the handle→CQ map *structure*
  /// (install/remove/iteration); entry contents are guarded by the commit
  /// closure's shard locks, not this mutex.
  kCqEntries = 26,
  /// "delta_zones" (DeltaZoneRegistry): active delta-zone clocks; advanced
  /// on whichever thread dispatches a commit, read by GC for the system
  /// zone start.
  kDeltaZones = 28,
  /// "cq_stats" (CqManager): per-CQ stats registry, updated during commit
  /// evaluation under the engine/mediator locks.
  kCqStats = 30,
  /// "lineage_store" (core::LineageStore): notification-lineage retention
  /// rings, recorded at delivery time inside a commit.
  kLineageStore = 35,
  /// "pool" (ThreadPool): queue mutex. The dispatcher enqueues while the
  /// engine-side locks above are (possibly) held, and drain releases it
  /// around task execution, so it never wraps the locks below.
  kPool = 40,
  /// "delta_pins" (DeltaRelation): GC pin counts (pin_reads /
  /// truncate_before), taken by every delta reader (trigger tests, the
  /// DRA, pool workers mid-evaluation) and by GC.
  kDeltaPins = 55,
  /// "prov_interner" (relation/provenance.cpp): relation-name interner
  /// consulted while building provenance sets.
  kProvInterner = 60,
  /// "refresh_hooks" (observability.cpp): registry refresh-hook table,
  /// held *while hooks run* — hooks publish gauges, so this must rank
  /// before "obs_registry".
  kRefreshHooks = 65,
  /// "event_log" (EventLog): structured journal ring; any layer may append
  /// an event.
  kEventLog = 70,
  /// "trace_ring" (TraceCollector): span/trace ring.
  kTraceRing = 72,
  /// "obs_registry" (obs::Registry): histogram/gauge maps — the innermost
  /// engine lock: metric updates happen under everything above.
  kObsRegistry = 74,
  /// "lane_names" (observability.cpp): trace lane-name table; a leaf, set
  /// once per thread and read at export.
  kLaneNames = 76,
  /// Strictly-innermost leaf locks (test scaffolding that wants rank
  /// checking without claiming a real layer).
  kLeaf = 90,
};

[[nodiscard]] constexpr std::uint16_t rank_value(LockRank r) noexcept {
  return static_cast<std::uint16_t>(r);
}

/// Is the checker compiled into this build?
[[nodiscard]] constexpr bool compiled_in() noexcept {
#if defined(CQ_LOCK_ORDER_CHECKS)
  return true;
#else
  return false;
#endif
}

/// Mutex::lock/try_lock instrumentation: rank-check `addr` against this
/// thread's held stack (only when `blocking`), record held->acquired
/// edges, then push. Aborts on a rank inversion, a self-deadlock (same
/// mutex already held by this thread), or a freshly closed graph cycle.
///
/// `order_key` refines the rank rule for *cohorts* — arrays of mutexes
/// sharing one rank (the commit shards): blocking on a mutex whose rank
/// *equals* a held rank is legal iff both carry nonzero order keys and
/// the new key is strictly greater than every held same-rank key.
/// Key 0 means "no cohort": equal-rank blocking stays a violation.
///
/// `site` is the mutex's entry in the lock-site table
/// (common/lock_profile.hpp); nullptr when that table is full, in which
/// case the acquisition is still checked but stays out of the graph.
void on_lock(const void* addr, const char* name, std::uint16_t rank,
             std::uint32_t order_key, const lockprof::Site* site,
             bool blocking) noexcept;

/// Mutex::unlock instrumentation: remove `addr` from the held stack
/// (wherever it sits — release order need not mirror acquisition).
void on_unlock(const void* addr) noexcept;

/// Depth of the calling thread's held-lock stack (tests: balance).
[[nodiscard]] std::size_t held_depth() noexcept;

// ------------------------------------------------------- graph inspection --

/// Times the edge from->to was observed (0 = never); `from` and `to` are
/// lock-site table indexes (lockprof::index_of).
[[nodiscard]] std::uint64_t edge_count(std::size_t from,
                                       std::size_t to) noexcept;

/// Violations that were *reported* rather than aborted on (see
/// set_abort_on_violation — tests flip it to assert on the count).
[[nodiscard]] std::uint64_t violations() noexcept;

/// The observed lock-order graph as JSON:
///   {"enabled":true,"sites":[{"id":0,"name":"engine","rank":10},...],
///    "edges":[{"from":"engine","to":"mediator","count":12},...]}
/// With the checker compiled out this still links and reports
/// {"enabled":false,...} with empty arrays.
[[nodiscard]] std::string to_json();

/// Same graph as GraphViz DOT (one node per site, labelled with its
/// rank; one edge per observed ordered pair, labelled with its count).
[[nodiscard]] std::string to_dot();

/// Drop every recorded edge (site registrations and ranks survive).
/// Test scaffolding — the graph is normally append-only for the process
/// lifetime.
void reset_graph() noexcept;

// ----------------------------------------------------------------- hooks --

/// First-observation edge callback, installed by the observability layer
/// to journal `lock_order_edge` events. Called at most once per ordered
/// site pair, outside the checker's own bookkeeping (re-entrant lock
/// acquisitions made by the hook are ignored). Plain function pointer:
/// this layer sits below <functional> users.
struct EdgeEvent {
  const char* held = nullptr;
  const char* acquired = nullptr;
  std::uint16_t held_rank = 0;
  std::uint16_t acquired_rank = 0;
};
using EdgeHook = void (*)(const EdgeEvent&);
void set_edge_hook(EdgeHook hook) noexcept;

/// When false, a detected violation is counted (see violations()) and
/// reported to stderr but does not abort. Default true — production
/// debug builds should die loudly. Tests use the non-fatal mode to probe
/// the detector without EXPECT_DEATH's fork cost.
void set_abort_on_violation(bool abort_on_violation) noexcept;

}  // namespace cq::common::lockorder

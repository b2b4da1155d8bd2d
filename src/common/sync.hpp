// Compile-time lock discipline for the CQ engine.
//
// The engine runs most work on one thread, but the introspection HTTP
// server (src/common/introspect_server.hpp) answers scrapes on its own
// thread, and the observability rings are written from wherever a span or
// journal event completes. Every mutex in the tree therefore uses the
// annotated types below instead of raw std::mutex, and every field a
// mutex guards says so with CQ_GUARDED_BY. Under Clang (-Wthread-safety,
// see scripts/check_thread_safety.sh) violating the discipline — touching
// a guarded field without the lock, calling a CQ_REQUIRES method unlocked
// — is a compile error. Under GCC the macros expand to nothing and the
// types behave exactly like std::mutex / std::lock_guard.
//
//   class Cache {
//    public:
//     void put(int k, int v) {
//       cq::LockGuard lock(mu_);
//       map_[k] = v;                    // ok: lock held
//     }
//    private:
//     mutable cq::Mutex mu_;
//     std::map<int, int> map_ CQ_GUARDED_BY(mu_);
//   };
//
// scripts/lint_invariants.py enforces that library and example code never
// reaches for raw std::mutex / std::lock_guard directly.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/lock_order.hpp"
#include "common/lock_profile.hpp"
#include "common/schedule.hpp"

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CQ_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CQ_THREAD_ANNOTATION
#define CQ_THREAD_ANNOTATION(x)  // no-op: GCC has no thread-safety analysis
#endif

/// Marks a type as a lockable capability ("mutex").
#define CQ_CAPABILITY(x) CQ_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type that acquires in its constructor, releases in its
/// destructor.
#define CQ_SCOPED_CAPABILITY CQ_THREAD_ANNOTATION(scoped_lockable)
/// Field `x` may only be read/written while holding the named mutex.
#define CQ_GUARDED_BY(x) CQ_THREAD_ANNOTATION(guarded_by(x))
/// Pointee of field `x` may only be dereferenced while holding the mutex.
#define CQ_PT_GUARDED_BY(x) CQ_THREAD_ANNOTATION(pt_guarded_by(x))
/// The function may only be called while already holding the mutex(es).
#define CQ_REQUIRES(...) CQ_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// The function acquires the mutex(es) and does not release them.
#define CQ_ACQUIRE(...) CQ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// The function releases the mutex(es).
#define CQ_RELEASE(...) CQ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// The function acquires the mutex iff it returns the first argument
/// (e.g. CQ_TRY_ACQUIRE(true)); further arguments name the capability.
#define CQ_TRY_ACQUIRE(...) CQ_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// The function must NOT be called while holding the mutex(es)
/// (deadlock guard for methods that lock internally).
#define CQ_EXCLUDES(...) CQ_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// The function returns a reference to the named mutex.
#define CQ_RETURN_CAPABILITY(x) CQ_THREAD_ANNOTATION(lock_returned(x))
/// Declared lock-ordering edges.
#define CQ_ACQUIRED_BEFORE(...) CQ_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define CQ_ACQUIRED_AFTER(...) CQ_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Escape hatch — use only with a comment explaining why the analysis
/// cannot see the synchronization.
#define CQ_NO_THREAD_SAFETY_ANALYSIS CQ_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cq::common {

/// std::mutex as an annotated capability. Non-copyable, non-movable.
///
/// A mutex constructed with a *site name* (a string literal naming its
/// role: "pool", "trace_ring", "engine", ...) owns one entry in the
/// lock-site table (common/lock_profile.hpp), shared by the opt-in
/// contention profiler and the lock-order checker. While
/// lockprof::enabled() is on, lock() takes a try_lock fast path and on a
/// miss records time-to-acquire + a contention count against the site, and
/// unlock() feeds the critical-section hold time into the site's
/// histogram. When profiling is off — or for unnamed mutexes, always — the
/// cost over plain std::mutex is one relaxed load and a branch; no clock
/// is ever read.
class CQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Profiled variant. `site` must be a string with static storage
  /// duration (in practice: a literal); distinct mutexes sharing one site
  /// name aggregate into one profiler row.
  explicit Mutex(const char* site) noexcept : site_(site) {}
  /// Profiled and *ranked* variant: the mutex additionally participates
  /// in lock-order verification (common/lock_order.hpp) in checked
  /// builds. Library mutexes must use this form — enforced by
  /// scripts/lint_invariants.py; LockRank documents every rank.
  Mutex(const char* site, lockorder::LockRank rank) noexcept
      : site_(site), rank_(lockorder::rank_value(rank)) {}
  /// Ranked *cohort* member: one of an ordered array of same-rank mutexes
  /// (e.g. the catalog commit shards). `order_key` must be nonzero and
  /// unique within the cohort; the lock-order checker permits equal-rank
  /// nesting only in strictly ascending key order.
  Mutex(const char* site, lockorder::LockRank rank,
        std::uint32_t order_key) noexcept
      : site_(site), rank_(lockorder::rank_value(rank)),
        order_key_(order_key) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Late cohort-key assignment for mutexes whose array index is not
  /// known at member-initialization time. Call before first lock().
  void set_order_key(std::uint32_t order_key) noexcept {
    order_key_ = order_key;
  }

  void lock() CQ_ACQUIRE() {
    CQ_SCHED_POINT("mutex.lock");
#if defined(CQ_LOCK_ORDER_CHECKS)
    if (site_ != nullptr) {
      lockorder::on_lock(this, site_, rank_, order_key_, entry(),
                         /*blocking=*/true);
    }
#endif
    if (site_ == nullptr || !lockprof::enabled()) {
      mu_.lock();
      return;
    }
    lock_profiled();
  }

  void unlock() CQ_RELEASE() {
    // hold_start_ns_ is owned by the lock holder (synchronized by mu_
    // itself); non-zero only when the acquisition went through the
    // profiled path, so the off path stays clock-free.
    if (hold_start_ns_ != 0) note_release();
#if defined(CQ_LOCK_ORDER_CHECKS)
    if (site_ != nullptr) lockorder::on_unlock(this);
#endif
    mu_.unlock();
    CQ_SCHED_POINT("mutex.unlock");
  }

  [[nodiscard]] bool try_lock() CQ_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if defined(CQ_LOCK_ORDER_CHECKS)
    // A successful try_lock cannot deadlock, so ranks are not enforced —
    // but the lock *is* now held, so it joins the stack (later blocking
    // acquisitions rank-check against it) and the edge graph.
    if (site_ != nullptr) {
      lockorder::on_lock(this, site_, rank_, order_key_, entry(),
                         /*blocking=*/false);
    }
#endif
    if (site_ != nullptr && lockprof::enabled()) note_uncontended();
    return true;
  }

  /// Declared acquisition rank (0 = unranked).
  [[nodiscard]] std::uint16_t rank() const noexcept { return rank_; }

 private:
  void lock_profiled() noexcept {
    lockprof::Site* s = entry();
    if (s == nullptr) {  // site table full: behave like an unnamed mutex
      mu_.lock();
      return;
    }
    if (mu_.try_lock()) {
      s->acquisitions.fetch_add(1, std::memory_order_relaxed);
      hold_start_ns_ = lockprof::now_ns();
      return;
    }
    const std::uint64_t t0 = lockprof::now_ns();
    mu_.lock();
    const std::uint64_t acquired = lockprof::now_ns();
    const std::uint64_t wait = acquired - t0;
    s->acquisitions.fetch_add(1, std::memory_order_relaxed);
    s->contended.fetch_add(1, std::memory_order_relaxed);
    s->wait_ns.fetch_add(wait, std::memory_order_relaxed);
    s->wait_us.record(wait / 1000);
    hold_start_ns_ = acquired;
  }

  void note_uncontended() noexcept {
    if (lockprof::Site* s = entry()) {
      s->acquisitions.fetch_add(1, std::memory_order_relaxed);
      hold_start_ns_ = lockprof::now_ns();
    }
  }

  void note_release() noexcept {
    const std::uint64_t held = lockprof::now_ns() - hold_start_ns_;
    hold_start_ns_ = 0;
    if (lockprof::Site* s = entry_.load(std::memory_order_relaxed)) {
      s->hold_ns.fetch_add(held, std::memory_order_relaxed);
      s->hold_us.record(held / 1000);
    }
  }

  /// Lazily registered lock-site entry (instances sharing a site literal
  /// share it); nullptr while the table is full.
  [[nodiscard]] lockprof::Site* entry() noexcept {
    lockprof::Site* s = entry_.load(std::memory_order_acquire);
    if (s == nullptr) {
      s = lockprof::register_site(site_, rank_);
      if (s != nullptr) entry_.store(s, std::memory_order_release);
    }
    return s;
  }

  std::mutex mu_;
  const char* site_ = nullptr;
  std::uint16_t rank_ = 0;       // lockorder::LockRank; 0 = unranked
  std::uint32_t order_key_ = 0;  // cohort index; 0 = not a cohort member
  std::atomic<lockprof::Site*> entry_{nullptr};
  // Steady-clock instant the current profiled hold began; 0 when the hold
  // is unprofiled. Written only by the holding thread, ordered by mu_.
  std::uint64_t hold_start_ns_ = 0;
};

/// std::lock_guard over Mutex, visible to the analysis: constructing one
/// acquires the capability for the enclosing scope.
class CQ_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) CQ_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() CQ_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable that waits on the annotated Mutex. Built on
/// std::condition_variable_any, which accepts any BasicLockable — so the
/// waiters stay inside the lock discipline instead of reaching for a raw
/// std::mutex. wait() releases and re-acquires the mutex internally; the
/// analysis cannot see that handoff, so the contract is the honest one:
/// the caller holds the mutex before and after the call.
///
/// Because the internal handoff goes through Mutex::unlock()/lock(), the
/// runtime instrumentation stays exact across waits: lockprof attributes
/// hold time only to the spans the mutex is actually held (the blocked
/// wait is excluded), and the lock-order held stack pops on entry and
/// re-pushes (re-rank-checked) on wakeup — asserted by the observability
/// suite.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) CQ_REQUIRES(mu) CQ_NO_THREAD_SAFETY_ANALYSIS { cv_.wait(mu); }

  template <typename Predicate>
  void wait(Mutex& mu, Predicate pred) CQ_REQUIRES(mu) CQ_NO_THREAD_SAFETY_ANALYSIS {
    while (!pred()) cv_.wait(mu);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace cq::common

namespace cq {
// The short spellings used across the tree: cq::Mutex / cq::LockGuard.
using common::CondVar;
using common::LockGuard;
using common::Mutex;
}  // namespace cq

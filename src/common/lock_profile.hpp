// The lock-site table, and opt-in lock-contention profiling over it, for
// the annotated mutexes in common/sync.hpp. A cq::Mutex constructed with
// a site name ("pool", "trace_ring", "engine", ...) registers itself here
// on its first profiled or lock-order-checked acquisition; one entry per
// site holds its name, its rank and its contention statistics, and the
// lock-order checker (common/lock_order.hpp) indexes its edge graph by
// the same entries. While profiling is enabled every lock() takes the
// try_lock fast path and, on a miss, records the time spent blocked plus
// a contention count, and every critical section feeds a hold-time
// histogram. The table is exported through /metrics (cq_lock_* families),
// the /profile endpoint and /lockgraph.
//
// Contract, mirroring observability.hpp: *disabled is free*. When
// lockprof::enabled() is false a profiled mutex costs one relaxed atomic
// load and a branch over plain std::mutex — no clock reads, no table
// lookups. Unnamed mutexes are never profiled at all.
//
// Everything here is atomics over a fixed-capacity site table, so this
// header can sit *below* sync.hpp (it must: sync.hpp includes it) without
// ever taking a lock of its own.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/histogram.hpp"

namespace cq::common::lockprof {

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// Is contention profiling on? One relaxed load — called on every lock().
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonic nanoseconds (own steady-clock reader: obs::now_ns lives above
/// sync.hpp in the include order and cannot be used from here).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// One mutex role: its name, its declared rank and its acquisition
/// statistics. All fields are relaxed atomics; concurrent lock()/unlock()
/// on different threads update them without coordination, so readers see
/// monotone but possibly momentarily inconsistent values (fine for
/// monitoring).
struct Site {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint16_t> rank{0};          // lockorder::LockRank value
  std::atomic<std::uint64_t> acquisitions{0};  // profiled lock() + try_lock() wins
  std::atomic<std::uint64_t> contended{0};     // fast-path try_lock missed
  std::atomic<std::uint64_t> wait_ns{0};       // total time blocked acquiring
  std::atomic<std::uint64_t> hold_ns{0};       // total time inside the lock
  obs::Histogram wait_us;  // per contended acquisition
  obs::Histogram hold_us;  // per profiled critical section
};

/// Capacity of the site table. Sites are named compile-time constants
/// (one per mutex role, not per mutex instance), so a small fixed table
/// suffices; registration beyond capacity returns nullptr and the mutex
/// stays unprofiled and out of the lock-order graph (it still
/// rank-checks).
inline constexpr std::size_t kMaxSites = 64;

/// Find-or-create the entry for `name` (pointer-keyed first, then string
/// compare, so distinct mutexes sharing one site literal aggregate into
/// one row — lockdep-style lock classes). A site re-registered with a
/// different rank keeps its first rank (scripts/lint_invariants.py
/// rejects such drift). Never throws; nullptr when the table is full.
[[nodiscard]] Site* register_site(const char* name, std::uint16_t rank) noexcept;

/// Number of registered sites (rows of site() worth reading).
[[nodiscard]] std::size_t site_count() noexcept;

/// The i-th registered site, i < site_count(). References stay valid for
/// the process lifetime.
[[nodiscard]] const Site& site(std::size_t i) noexcept;

/// Table index of a registered entry: site(index_of(s)) is s.
[[nodiscard]] std::size_t index_of(const Site& s) noexcept;

/// Zero every site's statistics (registrations, names and ranks survive).
void reset() noexcept;

}  // namespace cq::common::lockprof

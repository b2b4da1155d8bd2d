#include "common/lock_profile.hpp"

#include <chrono>
#include <cstring>

namespace cq::common::lockprof {

std::uint64_t now_ns() noexcept {
  using clock = std::chrono::steady_clock;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock::now().time_since_epoch())
          .count());
}

namespace {

Site g_sites[kMaxSites];
std::atomic<std::size_t> g_site_count{0};

}  // namespace

Site* register_site(const char* name, std::uint16_t rank) noexcept {
  if (name == nullptr) return nullptr;
  const std::size_t n = g_site_count.load(std::memory_order_acquire);
  // Same literal (pointer) or same spelling: reuse the slot, so every
  // "engine" mutex in the process lands in one aggregated row.
  for (std::size_t i = 0; i < n; ++i) {
    const char* existing = g_sites[i].name.load(std::memory_order_acquire);
    if (existing == name || (existing != nullptr && std::strcmp(existing, name) == 0)) {
      return &g_sites[i];
    }
  }
  // Claim the next free slot. Racing registrants may briefly create a
  // duplicate spelling (two threads registering the same new name); both
  // slots stay valid and that role is split across two rows.
  for (;;) {
    std::size_t slot = g_site_count.load(std::memory_order_relaxed);
    if (slot >= kMaxSites) return nullptr;
    if (!g_site_count.compare_exchange_weak(slot, slot + 1,
                                            std::memory_order_acq_rel)) {
      continue;
    }
    g_sites[slot].rank.store(rank, std::memory_order_relaxed);
    g_sites[slot].name.store(name, std::memory_order_release);
    return &g_sites[slot];
  }
}

std::size_t site_count() noexcept {
  const std::size_t n = g_site_count.load(std::memory_order_acquire);
  // A slot is published once its name lands; trim a slot claimed but not
  // yet named by a racing registrant.
  std::size_t ready = 0;
  while (ready < n && g_sites[ready].name.load(std::memory_order_acquire) != nullptr) {
    ++ready;
  }
  return ready;
}

const Site& site(std::size_t i) noexcept { return g_sites[i]; }

std::size_t index_of(const Site& s) noexcept {
  return static_cast<std::size_t>(&s - g_sites);
}

void reset() noexcept {
  const std::size_t n = site_count();
  for (std::size_t i = 0; i < n; ++i) {
    Site& s = g_sites[i];
    s.acquisitions.store(0, std::memory_order_relaxed);
    s.contended.store(0, std::memory_order_relaxed);
    s.wait_ns.store(0, std::memory_order_relaxed);
    s.hold_ns.store(0, std::memory_order_relaxed);
    s.wait_us.reset();
    s.hold_us.reset();
  }
}

}  // namespace cq::common::lockprof

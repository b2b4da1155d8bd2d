#include "common/lock_order.hpp"

#include <cstdio>
#include <cstdlib>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define CQ_LOCKORDER_HAVE_BACKTRACE 1
#endif
#endif

namespace cq::common::lockorder {

namespace {

using lockprof::kMaxSites;
using lockprof::Site;

// Edge matrix over lock-site table indexes: g_edges[from][to] counts
// observations of "from held while to acquired". Relaxed atomics — the
// graph is monotone and approximate counts are fine; *existence*
// transitions (0 -> 1) drive the cycle check and the journal hook.
std::atomic<std::uint64_t> g_edges[kMaxSites][kMaxSites];

std::atomic<std::uint64_t> g_violations{0};
std::atomic<bool> g_abort{true};
std::atomic<EdgeHook> g_edge_hook{nullptr};

// ------------------------------------------------------ held-lock stack --

constexpr std::size_t kMaxHeld = 16;
constexpr int kMaxFrames = 12;

struct Held {
  const void* addr = nullptr;
  const char* name = nullptr;
  std::uint16_t rank = 0;
  std::uint32_t order_key = 0;
  const Site* site = nullptr;
  int frames = 0;
  void* stack[kMaxFrames];
};

struct ThreadState {
  Held held[kMaxHeld];
  std::size_t depth = 0;
  std::size_t overflow = 0;  // acquisitions dropped past kMaxHeld
  bool in_checker = false;   // re-entrancy guard (edge hook, reporting)
};

ThreadState& tls() noexcept {
  thread_local ThreadState state;
  return state;
}

void capture_stack(Held& h) noexcept {
#if defined(CQ_LOCKORDER_HAVE_BACKTRACE)
  h.frames = backtrace(h.stack, kMaxFrames);
#else
  h.frames = 0;
#endif
}

void dump_stack(const Held& h) noexcept {
#if defined(CQ_LOCKORDER_HAVE_BACKTRACE)
  if (h.frames > 0) backtrace_symbols_fd(h.stack, h.frames, 2 /* stderr */);
#else
  (void)h;
#endif
}

void dump_current_stack() noexcept {
#if defined(CQ_LOCKORDER_HAVE_BACKTRACE)
  void* frames[kMaxFrames];
  const int n = backtrace(frames, kMaxFrames);
  if (n > 0) backtrace_symbols_fd(frames, n, 2 /* stderr */);
#endif
}

/// Report a violation: both sites, both ranks, the held chain, the held
/// lock's acquisition backtrace and the current one. Aborts unless tests
/// switched to counting mode.
void violation(const char* what, const ThreadState& state, const Held& held,
               const char* acq_name, std::uint16_t acq_rank) noexcept {
  std::fprintf(stderr,
               "[lockorder] VIOLATION: %s\n"
               "  acquiring site \"%s\" (rank %u) while holding site \"%s\" "
               "(rank %u)\n  held chain:",
               what, acq_name != nullptr ? acq_name : "<unnamed>", acq_rank,
               held.name != nullptr ? held.name : "<unnamed>", held.rank);
  for (std::size_t i = 0; i < state.depth; ++i) {
    std::fprintf(stderr, " %s(%u)",
                 state.held[i].name != nullptr ? state.held[i].name : "?",
                 state.held[i].rank);
  }
  std::fprintf(stderr, "\n  stack of the held acquisition (\"%s\"):\n",
               held.name != nullptr ? held.name : "<unnamed>");
  dump_stack(held);
  std::fprintf(stderr, "  stack of the violating acquisition (\"%s\"):\n",
               acq_name != nullptr ? acq_name : "<unnamed>");
  dump_current_stack();
  g_violations.fetch_add(1, std::memory_order_relaxed);
  if (g_abort.load(std::memory_order_relaxed)) std::abort();
}

/// Is `to` reachable from `from` through observed edges? Bounded DFS over
/// the atomic matrix (no locks; the graph only ever grows, so a "yes" is
/// definitive and a racing "no" at worst delays detection to the next
/// observation of the same edge).
bool reachable(std::size_t from, std::size_t to) noexcept {
  const std::size_t n = lockprof::site_count();
  bool visited[kMaxSites] = {};
  std::size_t work[kMaxSites];
  std::size_t top = 0;
  work[top++] = from;
  visited[from] = true;
  while (top > 0) {
    const std::size_t cur = work[--top];
    if (cur == to) return true;
    for (std::size_t next = 0; next < n; ++next) {
      if (!visited[next] &&
          g_edges[cur][next].load(std::memory_order_relaxed) != 0) {
        visited[next] = true;
        work[top++] = next;
      }
    }
  }
  return false;
}

void record_edge(ThreadState& state, const Held& held, const char* acq_name,
                 std::uint16_t acq_rank, const Site* acq_site) noexcept {
  if (held.site == nullptr || acq_site == nullptr || held.site == acq_site) {
    return;
  }
  const std::size_t from = lockprof::index_of(*held.site);
  const std::size_t to = lockprof::index_of(*acq_site);
  const std::uint64_t prev =
      g_edges[from][to].fetch_add(1, std::memory_order_relaxed);
  if (prev != 0) return;  // edge already known
  // First observation: does the reverse direction already exist (directly
  // or transitively)? Then this acquisition just closed an ordering cycle.
  if (reachable(to, from)) {
    violation("lock-order cycle closed by this acquisition", state, held,
              acq_name, acq_rank);
  }
  if (EdgeHook hook = g_edge_hook.load(std::memory_order_acquire)) {
    // The hook may take (already-ranked) journal locks; mark the thread so
    // those acquisitions skip the checker instead of recursing.
    state.in_checker = true;
    const EdgeEvent event{held.name, acq_name, held.rank, acq_rank};
    hook(event);
    state.in_checker = false;
  }
}

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
}

const char* name_of(std::size_t i) noexcept {
  const char* name = lockprof::site(i).name.load(std::memory_order_acquire);
  return name != nullptr ? name : "";
}

std::uint16_t rank_of(std::size_t i) noexcept {
  return lockprof::site(i).rank.load(std::memory_order_relaxed);
}

/// Graph nodes: every registered site, but none with the checker compiled
/// out — there the table holds only profiled sites and no edge is ever
/// recorded, so the export keeps reporting an empty graph.
std::size_t graph_sites() noexcept {
  return compiled_in() ? lockprof::site_count() : 0;
}

}  // namespace

void on_lock(const void* addr, const char* name, std::uint16_t rank,
             std::uint32_t order_key, const Site* site,
             bool blocking) noexcept {
  ThreadState& state = tls();
  if (state.in_checker) return;
  // Self-deadlock and rank monotonicity, against everything held. Checked
  // *before* blocking on the mutex — the point is to die with a report
  // instead of hanging.
  for (std::size_t i = 0; i < state.depth; ++i) {
    const Held& h = state.held[i];
    if (h.addr == addr && blocking) {
      violation("self-deadlock: relocking a mutex this thread already holds",
                state, h, name, rank);
    }
    if (blocking && rank != 0 && h.rank != 0) {
      if (h.rank > rank) {
        violation("rank inversion: acquisition rank must strictly increase",
                  state, h, name, rank);
      } else if (h.rank == rank) {
        // Cohort rule: equal-rank blocking is legal only between members
        // of one ordered array (both keys nonzero) taken in strictly
        // ascending key order — e.g. the commit shards by shard index.
        if (h.order_key == 0 || order_key == 0 || h.order_key >= order_key) {
          violation(
              "same-rank acquisition outside ascending cohort order "
              "(equal ranks need strictly increasing nonzero order keys)",
              state, h, name, rank);
        }
      }
    }
  }
  for (std::size_t i = 0; i < state.depth; ++i) {
    record_edge(state, state.held[i], name, rank, site);
  }
  if (state.depth >= kMaxHeld) {
    ++state.overflow;
    return;
  }
  Held& h = state.held[state.depth++];
  h.addr = addr;
  h.name = name;
  h.rank = rank;
  h.order_key = order_key;
  h.site = site;
  capture_stack(h);
}

void on_unlock(const void* addr) noexcept {
  ThreadState& state = tls();
  if (state.in_checker) return;
  for (std::size_t i = state.depth; i-- > 0;) {
    if (state.held[i].addr != addr) continue;
    for (std::size_t j = i + 1; j < state.depth; ++j) {
      state.held[j - 1] = state.held[j];
    }
    --state.depth;
    return;
  }
  // Not on the stack: one of the past-capacity acquisitions that were
  // never pushed, or a mutex we never saw locked (e.g. the checker was
  // enabled mid-hold) — tolerated either way.
  if (state.overflow > 0) --state.overflow;
}

std::size_t held_depth() noexcept { return tls().depth; }

std::uint64_t edge_count(std::size_t from, std::size_t to) noexcept {
  if (from >= kMaxSites || to >= kMaxSites) return 0;
  return g_edges[from][to].load(std::memory_order_relaxed);
}

std::uint64_t violations() noexcept {
  return g_violations.load(std::memory_order_relaxed);
}

std::string to_json() {
  const std::size_t n = graph_sites();
  std::string out = "{\"enabled\":";
  out += compiled_in() ? "true" : "false";
  out += ",\"sites\":[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"";
    append_escaped(out, name_of(i));
    out += "\",\"rank\":" + std::to_string(rank_of(i)) + "}";
  }
  out += "],\"edges\":[";
  bool first = true;
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      const std::uint64_t count =
          g_edges[from][to].load(std::memory_order_relaxed);
      if (count == 0) continue;
      if (!first) out.push_back(',');
      first = false;
      out += "{\"from\":\"";
      append_escaped(out, name_of(from));
      out += "\",\"to\":\"";
      append_escaped(out, name_of(to));
      out += "\",\"count\":" + std::to_string(count) + "}";
    }
  }
  out += "]}";
  return out;
}

std::string to_dot() {
  const std::size_t n = graph_sites();
  std::string out = "digraph lockorder {\n  rankdir=TB;\n";
  for (std::size_t i = 0; i < n; ++i) {
    out += "  \"";
    append_escaped(out, name_of(i));
    out += "\" [label=\"";
    append_escaped(out, name_of(i));
    out += "\\nrank " + std::to_string(rank_of(i)) + "\"];\n";
  }
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      const std::uint64_t count =
          g_edges[from][to].load(std::memory_order_relaxed);
      if (count == 0) continue;
      out += "  \"";
      append_escaped(out, name_of(from));
      out += "\" -> \"";
      append_escaped(out, name_of(to));
      out += "\" [label=\"" + std::to_string(count) + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

void reset_graph() noexcept {
  for (auto& row : g_edges) {
    for (auto& cell : row) cell.store(0, std::memory_order_relaxed);
  }
}

void set_edge_hook(EdgeHook hook) noexcept {
  g_edge_hook.store(hook, std::memory_order_release);
}

void set_abort_on_violation(bool abort_on_violation) noexcept {
  g_abort.store(abort_on_violation, std::memory_order_relaxed);
}

}  // namespace cq::common::lockorder

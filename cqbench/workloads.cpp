#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <latch>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "catalog/transaction.hpp"
#include "common/rng.hpp"
#include "cq/dra.hpp"
#include "cq/manager.hpp"
#include "cq/propagate.hpp"
#include "cq/trigger.hpp"
#include "query/evaluate.hpp"
#include "query/planner.hpp"
#include "workload/sweep.hpp"

namespace cqbench {
namespace {

namespace cat = cq::cat;
namespace common = cq::common;
namespace core = cq::core;
namespace qry = cq::qry;
namespace rel = cq::rel;
namespace wl = cq::wl;
using common::metric::Id;

// ------------------------------------------------------------ workloads --

/// Everything that distinguishes the three workloads.
struct Shape {
  std::string name;
  std::size_t rows = 0;            // per table, at load
  std::size_t groups = 1;          // distinct grp values (join fan-out)
  bool grp_index = false;          // persistent index on grp
  std::size_t writers = 1;
  std::size_t lanes = 1;           // CqManager::set_parallelism
  bool eager = true;
  std::size_t ops_per_txn = 8;
  double zipf_theta = 0;           // 0: uniform targets
  std::size_t span_every = 0;      // every n-th txn of a writer spans both its tables
  std::size_t poll_every = 0;      // commits between poll() + collect_garbage()
  std::size_t gc_every = 0;        // a writer's commits between collect_garbage()
  std::size_t digest_commits = 0;  // prefix whose digest and counters must repeat
  // A single writer stops on a whole number of the workload's periods, so
  // every run does the same mix of work per commit.
  std::size_t period_commits = 0;
};

const std::vector<std::string> kWorkloads = {"fanout-complete", "writers-disjoint",
                                             "join-periodic"};

Shape shape_of(const std::string& name, bool tiny) {
  Shape s;
  s.name = name;
  if (name == "fanout-complete") {
    s.rows = tiny ? 2000 : 20000;
    s.groups = 64;
    s.lanes = 4;
    s.gc_every = 64;
    s.digest_commits = tiny ? 16 : 64;
    s.period_commits = s.gc_every;
  } else if (name == "writers-disjoint") {
    s.rows = tiny ? 500 : 10000;
    s.groups = 64;
    s.writers = 4;
    s.ops_per_txn = 4;
    s.span_every = 16;
    s.gc_every = 64;
  } else if (name == "join-periodic") {
    s.rows = tiny ? 3200 : 100000;
    s.groups = s.rows / 32;
    s.grp_index = true;
    s.eager = false;
    s.zipf_theta = 0.8;
    s.poll_every = 32;
    s.digest_commits = tiny ? 128 : 1024;
    // Polls every 32 commits and periodic triggers of 48, 64 and 96 ticks
    // (one tick per commit) repeat every 192 commits.
    s.period_commits = tiny ? 64 : 192;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // Never more threads than cores: halve writers (keeping tables evenly
  // owned) and cap lanes.
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  while (s.writers > cores) s.writers /= 2;
  s.lanes = std::min(s.lanes, cores);
  return s;
}

/// Table names. writers-disjoint picks one name per catalog shard, so its
/// eight tables sit on eight distinct shards.
std::vector<std::string> table_names(const Shape& shape) {
  if (shape.name == "fanout-complete") return {"S"};
  if (shape.name == "join-periodic") return {"J0", "J1", "J2"};
  std::vector<std::string> names(cat::Database::kNumShards);
  std::size_t found = 0;
  for (std::size_t i = 0; found < names.size(); ++i) {
    std::string name("W");
    name += std::to_string(i);
    std::string& slot = names[cat::Database::shard_of(name)];
    if (slot.empty()) {
      slot = std::move(name);
      ++found;
    }
  }
  return names;
}

std::string key_bound(double selectivity) {
  return std::to_string(static_cast<std::int64_t>(
      selectivity * static_cast<double>(wl::kSweepKeySpace)));
}

std::vector<core::CqSpec> cq_specs(const Shape& shape,
                                   const std::vector<std::string>& tables) {
  using core::DeliveryMode;
  namespace triggers = core::triggers;
  std::vector<core::CqSpec> specs;
  if (shape.name == "fanout-complete") {
    // 64 overlapping 4 %-wide key bands: every commit is relevant to every CQ.
    for (std::int64_t i = 0; i < 64; ++i) {
      const std::int64_t lo = i * wl::kSweepKeySpace / 64;
      const std::int64_t hi = lo + wl::kSweepKeySpace / 25;
      specs.push_back(core::CqSpec::from_sql(
          "band" + std::to_string(i),
          "SELECT * FROM S WHERE key BETWEEN " + std::to_string(lo) + " AND " +
              std::to_string(hi),
          triggers::on_change(), nullptr, DeliveryMode::kComplete));
    }
  } else if (shape.name == "writers-disjoint") {
    for (const auto& t : tables) {
      specs.push_back(core::CqSpec::from_sql(
          "sel_" + t, "SELECT * FROM " + t + " WHERE key < " + key_bound(0.5),
          triggers::on_change(), nullptr, DeliveryMode::kDifferential));
    }
  } else {
    // 12 three-way equi-joins. One table per CQ (rotating) carries a key
    // selectivity spread over 5–50 %, the other two 5 %, so results stay in
    // the 10^4–10^5 rows range while |R| is 100 000 rows per table.
    const std::int64_t intervals[] = {48, 64, 96};
    const std::size_t thresholds[] = {200, 400, 700};
    for (std::size_t i = 0; i < 12; ++i) {
      const double wide = 0.05 + 0.45 * static_cast<double>(i) / 11.0;
      std::string where = "j0.grp = j1.grp AND j1.grp = j2.grp";
      for (std::size_t t = 0; t < 3; ++t) {
        where += " AND j" + std::to_string(t) + ".key < " +
                 key_bound(t == i % 3 ? wide : 0.05);
      }
      specs.push_back(core::CqSpec::from_sql(
          "join" + std::to_string(i),
          "SELECT j0.key, j1.key, j2.key FROM J0 j0, J1 j1, J2 j2 WHERE " + where,
          i % 2 == 0 ? triggers::periodic(common::Duration(intervals[(i / 2) % 3]))
                     : triggers::change_count(thresholds[(i / 2) % 3]),
          nullptr, DeliveryMode::kDifferential));
    }
    // 4 GROUP BY grp COUNT/SUM CQs over two-way joins.
    const std::pair<int, int> pairs[] = {{0, 1}, {1, 2}, {2, 0}, {0, 1}};
    const std::pair<double, double> sels[] = {{0.1, 0.2}, {0.2, 0.1}, {0.05, 0.5}, {0.5, 0.05}};
    const core::TriggerPtr agg_triggers[] = {
        triggers::periodic(common::Duration(64)), triggers::change_count(300),
        triggers::periodic(common::Duration(96)), triggers::change_count(500)};
    for (std::size_t i = 0; i < 4; ++i) {
      const std::string a = "J" + std::to_string(pairs[i].first);
      const std::string b = "J" + std::to_string(pairs[i].second);
      specs.push_back(core::CqSpec::from_sql(
          "agg" + std::to_string(i),
          "SELECT j0.grp, COUNT(*) AS n, SUM(j1.key) AS s FROM " + a + " j0, " + b +
              " j1 WHERE j0.grp = j1.grp AND j0.key < " + key_bound(sels[i].first) +
              " AND j1.key < " + key_bound(sels[i].second) + " GROUP BY j0.grp",
          agg_triggers[i], nullptr, DeliveryMode::kDifferential));
    }
  }
  return specs;
}

/// The SPJ core the DRA evaluates for a CQ (its query without DISTINCT,
/// ordering and aggregation), rebuilt from the public spec.
qry::SpjQuery spj_core(const qry::SpjQuery& query) {
  qry::SpjQuery core = query;
  core.distinct = false;
  core.order_by.clear();
  if (core.is_aggregate()) {
    core.projection.clear();
    core.aggregates.clear();
    core.group_by.clear();
    core.having = nullptr;
  }
  return core;
}

// ------------------------------------------------------------- instance --

struct CqSlot {
  core::CqHandle handle = 0;
  std::shared_ptr<OracleSink> sink;
  std::uint32_t table_mask = 0;  // tables the CQ reads (bit = table index)
};

/// One set-up database: loaded tables, indexes and installed CQs.
struct Instance {
  cat::Database db;
  std::unique_ptr<core::CqManager> manager;
  std::vector<std::string> tables;
  std::vector<std::vector<rel::TupleId>> live;  // per table, for targeting
  std::vector<CqSlot> cqs;
  double load_s = 0;
  double install_s = 0;
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
  x ^= x >> 31;
  return x;
}

std::unique_ptr<Instance> setup(const Shape& shape, const Options& o) {
  t_cause_ns = 0;
  auto inst = std::make_unique<Instance>();
  const std::uint64_t t0 = wall_ns();
  common::Rng rng(derive_seed(o.seed, 0));
  inst->tables = table_names(shape);
  for (const auto& name : inst->tables) {
    const wl::SweepTable table(inst->db, name, shape.rows, shape.groups, rng);
    if (shape.grp_index) inst->db.create_index(name, "grp", {"grp"});
    std::vector<rel::TupleId> live;
    live.reserve(shape.rows * 2);
    for (const auto& row : inst->db.table(name).rows()) live.push_back(row.tid());
    inst->live.push_back(std::move(live));
  }
  const std::uint64_t t1 = wall_ns();

  inst->manager = std::make_unique<core::CqManager>(inst->db);
  inst->manager->set_parallelism(shape.lanes);
  for (auto& spec : cq_specs(shape, inst->tables)) {
    CqSlot slot;
    slot.sink = std::make_shared<OracleSink>();
    slot.sink->drop_sequence = o.drop_sequence;
    slot.handle = inst->manager->install(std::move(spec), slot.sink);
    for (const auto& r : inst->manager->cq(slot.handle).relations()) {
      const auto at = std::find(inst->tables.begin(), inst->tables.end(), r);
      slot.table_mask |= 1u << static_cast<unsigned>(at - inst->tables.begin());
    }
    inst->cqs.push_back(std::move(slot));
  }
  inst->manager->set_eager(shape.eager);
  // The load's delta rows lie behind every CQ's zone; start from a clean log.
  inst->manager->collect_garbage();
  const std::uint64_t t2 = wall_ns();
  inst->load_s = static_cast<double>(t1 - t0) / 1e9;
  inst->install_s = static_cast<double>(t2 - t1) / 1e9;
  return inst;
}

std::uint64_t stream_digest(const Instance& inst) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& slot : inst.cqs) {
    h ^= slot.sink->digest;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string counters(const Instance& inst) {
  std::ostringstream os;
  for (const auto& [name, value] : inst.manager->metrics().all()) {
    os << name << '=' << value << ' ';
  }
  std::string s = os.str();
  if (!s.empty()) s.pop_back();
  return s;
}

// --------------------------------------------------------------- writer --

/// A closed-loop writer: stages its next transaction over the tables it
/// owns. Its choices depend only on its seed and the rows it has seen, so
/// the same seed replays the same schedule.
class Writer {
 public:
  Writer(Instance& inst, const Shape& shape, std::vector<std::size_t> owned,
         std::uint64_t seed)
      : inst_(inst), shape_(shape), owned_(std::move(owned)), rng_(seed) {}

  /// Stage one transaction into `txn`; returns the touched-table mask.
  std::uint32_t stage(cat::Transaction& txn, Tracer* tracer) {
    touched_.clear();
    std::uint32_t mask = 0;
    const bool spanning =
        shape_.span_every != 0 && (txns_ + 1) % shape_.span_every == 0;
    for (std::size_t op = 0; op < shape_.ops_per_txn; ++op) {
      std::size_t t = owned_[0];
      if (shape_.span_every != 0) {
        t = owned_[(spanning ? op : txns_) % owned_.size()];
      } else if (owned_.size() > 1) {
        t = owned_[rng_.index(owned_.size())];
      }
      stage_op(txn, t, tracer);
      mask |= 1u << t;
    }
    ++txns_;
    return mask;
  }

 private:
  enum class Kind { kErase, kModify, kInsert };

  void stage_op(cat::Transaction& txn, std::size_t t, Tracer* tracer) {
    const double roll = rng_.uniform01();
    Kind kind = roll < 1.0 / 3 ? Kind::kErase : roll < 2.0 / 3 ? Kind::kModify : Kind::kInsert;
    std::vector<rel::TupleId>& live = inst_.live[t];
    std::size_t at = live.size();
    if (kind != Kind::kInsert) {
      for (int attempt = 0; attempt < 4 && !live.empty(); ++attempt) {
        const std::size_t pick =
            shape_.zipf_theta > 0
                ? static_cast<std::size_t>(rng_.zipf(shape_.rows, shape_.zipf_theta)) %
                      live.size()
                : rng_.index(live.size());
        if (!was_touched(t, live[pick])) {
          at = pick;
          break;
        }
      }
      if (at == live.size()) kind = Kind::kInsert;
    }
    const std::string& table = inst_.tables[t];
    auto timed = [tracer](auto&& fn) {
      if (tracer != nullptr) {
        return tracer->time(Layer::kStage, fn);
      }
      return fn();
    };
    switch (kind) {
      case Kind::kErase: {
        const rel::TupleId tid = live[at];
        timed([&] { txn.erase(table, tid); });
        touched_.emplace_back(t, tid.raw());
        live[at] = live.back();
        live.pop_back();
        break;
      }
      case Kind::kModify: {
        const rel::TupleId tid = live[at];
        std::vector<rel::Value> values = inst_.db.table(table).find(tid)->values();
        values[0] = rel::Value(rng_.uniform_int(0, wl::kSweepKeySpace - 1));
        timed([&] { txn.modify(table, tid, std::move(values)); });
        touched_.emplace_back(t, tid.raw());
        break;
      }
      case Kind::kInsert: {
        std::vector<rel::Value> values = {
            rel::Value(rng_.uniform_int(0, wl::kSweepKeySpace - 1)),
            rel::Value(rng_.uniform_int(0, static_cast<std::int64_t>(shape_.groups) - 1)),
            rel::Value(rng_.string(16))};
        const rel::TupleId tid =
            timed([&] { return txn.insert(table, std::move(values)); });
        live.push_back(tid);
        touched_.emplace_back(t, tid.raw());
        break;
      }
    }
  }

  [[nodiscard]] bool was_touched(std::size_t t, rel::TupleId tid) const {
    return std::find(touched_.begin(), touched_.end(), std::make_pair(t, tid.raw())) !=
           touched_.end();
  }

  Instance& inst_;
  const Shape& shape_;
  std::vector<std::size_t> owned_;
  common::Rng rng_;
  std::uint64_t txns_ = 0;
  std::vector<std::pair<std::size_t, rel::TupleId::rep>> touched_;
};

std::vector<Writer> make_writers(Instance& inst, const Shape& shape, std::uint64_t seed) {
  std::vector<Writer> writers;
  const std::size_t per = inst.tables.size() / shape.writers;
  for (std::size_t w = 0; w < shape.writers; ++w) {
    std::vector<std::size_t> owned(per);
    std::iota(owned.begin(), owned.end(), w * per);
    writers.emplace_back(inst, shape, std::move(owned), derive_seed(seed, w + 1));
  }
  return writers;
}

/// Stage and commit one transaction. Returns the touched-table mask, or 0
/// when staging or commit threw (the transaction then counts as failed).
std::uint32_t commit_one(Instance& inst, Writer& writer, Tracer* stage_spans,
                         Tracer* commit_spans, Reservoir* commit_us) {
  try {
    auto txn = inst.db.begin();
    const std::uint32_t mask = writer.stage(txn, stage_spans);
    const std::uint64_t t0 = wall_ns();
    const std::uint64_t c0 = commit_spans != nullptr ? thread_cpu_ns() : 0;
    t_cause_ns = t0;
    txn.commit();
    // The commit's CPU is read inside its wall interval, so CPU never
    // exceeds wall.
    if (commit_spans != nullptr) commit_spans->record(Layer::kCommit, t0, thread_cpu_ns() - c0);
    if (commit_us != nullptr) commit_us->add(static_cast<double>(wall_ns() - t0) / 1e3);
    return mask;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "transaction failed: %s\n", e.what());
    return 0;
  }
}

std::size_t delta_rows(const Instance& inst) {
  std::size_t rows = 0;
  for (const auto& t : inst.tables) rows += inst.db.delta(t).size();
  return rows;
}

// --------------------------------------------------------------- native --

/// Shortest measurement window. The timed phase is cut into windows and
/// each end-to-end figure is the median of its per-window values, so a few
/// seconds in which the shared host runs the process slowly move it less
/// than they would move a whole-phase figure.
constexpr double kWindowS = 2.0;
/// Latency samples one writer keeps per window, of each kind.
constexpr std::size_t kWindowSamples = 1 << 12;

/// One window of the timed phase: the commits begun in it, its wall and
/// process CPU, and the latencies of those commits and of the
/// notifications they caused.
struct Window {
  explicit Window(std::size_t samples = kWindowSamples)
      : commit_us(samples), notify_us(samples) {}

  std::uint64_t commits = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  Reservoir commit_us;
  Reservoir notify_us;
};

/// The workload as a user runs it: eager dispatch or polls, all writers.
struct Native {
  std::uint64_t commits = 0;
  std::uint64_t failed = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  double rss_mb = 0;  // peak RSS at the end of the timed phase
  std::vector<std::uint64_t> period_ns;  // wall of each period (single writer)
  std::vector<Window> windows;
  std::vector<std::uint64_t> per_writer;  // transactions each writer attempted
  bool have_digest = false;
  std::uint64_t digest = 0;
  std::string counters;
  Tracer tracer;  // commit spans of every writer (traced multi-writer)
};

/// Runs whole periods of `period_commits` until `seconds` have passed
/// (and at least the digest prefix is done). A window closes on the first
/// period boundary after it has lasted kWindowS, so every window holds
/// whole periods: the same mix of commits, polls and GC.
void run_single_writer(Instance& inst, const Shape& shape, const Options& o,
                       double seconds, Native& out) {
  Writer writer = std::move(make_writers(inst, shape, o.seed)[0]);
  const auto window_ns = static_cast<std::uint64_t>(kWindowS * 1e9);
  out.windows.emplace_back();
  t_notify_us = &out.windows.back().notify_us;
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = wall_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t period_t0 = t0;
  std::uint64_t window_t0 = t0;
  std::uint64_t window_cpu0 = cpu0;
  std::uint64_t n = 0;
  while (n < shape.digest_commits || n % shape.period_commits != 0 || wall_ns() < deadline) {
    Window& window = out.windows.back();
    if (commit_one(inst, writer, nullptr, nullptr, &window.commit_us) == 0) ++out.failed;
    ++window.commits;
    ++n;
    if (shape.poll_every != 0 && n % shape.poll_every == 0) {
      t_cause_ns = wall_ns();
      inst.manager->poll();
      inst.manager->collect_garbage();
    }
    if (shape.gc_every != 0 && n % shape.gc_every == 0) inst.manager->collect_garbage();
    if (n == shape.digest_commits) {
      out.have_digest = true;
      out.digest = stream_digest(inst);
      out.counters = counters(inst);
    }
    if (n % shape.period_commits == 0) {
      const std::uint64_t now = wall_ns();
      out.period_ns.push_back(now - period_t0);
      period_t0 = now;
      if (now - window_t0 >= window_ns) {
        const std::uint64_t cpu = process_cpu_ns();
        window.wall_ns = now - window_t0;
        window.cpu_ns = cpu - window_cpu0;
        window_t0 = now;
        window_cpu0 = cpu;
        out.windows.emplace_back();
        t_notify_us = &out.windows.back().notify_us;
      }
    }
  }
  t_notify_us = nullptr;
  const std::uint64_t cpu = process_cpu_ns();
  if (out.windows.back().commits == 0) {
    out.windows.pop_back();
  } else {
    out.windows.back().wall_ns = period_t0 - window_t0;
    out.windows.back().cpu_ns = cpu - window_cpu0;
  }
  out.cpu_ns = cpu - cpu0;
  out.rss_mb = peak_rss_mb();
  out.wall_ns = period_t0 - t0;
  out.commits = n;
  out.per_writer = {n};
}

/// Runs the writers, after they pass a common barrier, until `seconds`
/// have passed; each finishes the transaction it is in. The phase is cut
/// into equal windows of at least kWindowS: a commit counts in the window
/// it began in, and the main thread reads the process CPU at each window
/// boundary.
void run_multi_writer(Instance& inst, const Shape& shape, const Options& o,
                      double seconds, bool traced, Native& out) {
  std::vector<Writer> writers = make_writers(inst, shape, o.seed);
  const auto phase_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kWindowS));
  const std::uint64_t window_ns = phase_ns / windows;
  struct PerWriter {
    std::uint64_t commits = 0;
    std::uint64_t failed = 0;
    std::uint64_t end_ns = 0;
    std::vector<Window> windows;
    Tracer tracer;
  };
  std::vector<PerWriter> per(writers.size());
  for (PerWriter& me : per) me.windows.resize(windows);
  std::latch ready(static_cast<std::ptrdiff_t>(writers.size()) + 1);
  std::atomic<std::uint64_t> start{0};
  auto drive = [&](std::size_t w) {
    PerWriter& me = per[w];
    ready.arrive_and_wait();
    const std::uint64_t t0 = start.load();
    for (std::uint64_t now = wall_ns(); now < t0 + phase_ns; now = wall_ns()) {
      Window& window = me.windows[std::min(windows - 1, (now - t0) / window_ns)];
      t_notify_us = &window.notify_us;
      if (commit_one(inst, writers[w], nullptr, traced ? &me.tracer : nullptr,
                     &window.commit_us) == 0) {
        ++me.failed;
      }
      ++window.commits;
      ++me.commits;
      if (shape.gc_every != 0 && me.commits % shape.gc_every == 0) {
        inst.manager->collect_garbage();
      }
    }
    t_notify_us = nullptr;
    me.end_ns = wall_ns();
  };
  std::vector<std::thread> threads;
  threads.reserve(writers.size());
  for (std::size_t w = 0; w < writers.size(); ++w) threads.emplace_back(drive, w);
  std::vector<std::uint64_t> cpu_at(windows + 1);
  cpu_at[0] = process_cpu_ns();
  const std::uint64_t t0 = wall_ns();
  start.store(t0);
  ready.arrive_and_wait();
  for (std::size_t k = 1; k <= windows; ++k) {
    const std::uint64_t at = t0 + k * window_ns;
    for (std::uint64_t now = wall_ns(); now < at; now = wall_ns()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
    }
    cpu_at[k] = process_cpu_ns();
  }
  for (auto& t : threads) t.join();
  out.cpu_ns = process_cpu_ns() - cpu_at[0];
  out.rss_mb = peak_rss_mb();
  for (std::size_t k = 0; k < windows; ++k) {
    Window& window = out.windows.emplace_back(writers.size() * kWindowSamples);
    window.wall_ns = window_ns;
    window.cpu_ns = cpu_at[k + 1] - cpu_at[k];
    for (const PerWriter& me : per) {
      window.commits += me.windows[k].commits;
      for (const double v : me.windows[k].commit_us.values()) window.commit_us.add(v);
      for (const double v : me.windows[k].notify_us.values()) window.notify_us.add(v);
    }
  }
  std::uint64_t end = t0;
  for (const PerWriter& me : per) {
    end = std::max(end, me.end_ns);
    out.commits += me.commits;
    out.failed += me.failed;
    out.per_writer.push_back(me.commits);
    out.tracer.merge(me.tracer);
  }
  out.wall_ns = end - t0;
}

Native run_native(Instance& inst, const Shape& shape, const Options& o, double seconds,
                  bool traced) {
  Native out;
  if (shape.writers == 1) {
    run_single_writer(inst, shape, o, seconds, out);
  } else {
    run_multi_writer(inst, shape, o, seconds, traced, out);
  }
  return out;
}

// --------------------------------------------------------------- replay --

/// A single-threaded replay of a native schedule: each writer's
/// transactions in round-robin order. Layered, the eager hook is detached
/// and every CQ is driven one call at a time under the benchmark's spans.
struct Replay {
  std::uint64_t commits = 0;
  std::uint64_t failed = 0;
  std::uint64_t wall_ns = 0;
  Tracer tracer;
  std::uint64_t fired = 0;
  std::vector<double> delta_rows;  // net delta rows appended per commit
  std::size_t delta_bytes_peak = 0;
  bool have_digest = false;
  std::uint64_t digest = 0;
  std::string counters;
};


void drive_cq(Instance& inst, CqSlot& slot, Replay& out) {
  const core::ContinualQuery& cq = inst.manager->cq(slot.handle);
  const bool fire = out.tracer.time(Layer::kTrigger, [&] { return cq.should_fire(inst.db); });
  if (!fire) return;
  ++out.fired;

  // Side calls: what the DRA would plan and compute for this execution.
  // Both are pure, timed on their own and left out of the traced wall.
  qry::SpjQuery query;
  out.tracer.time(Layer::kPlanSide, [&] {
    query = spj_core(cq.spec().query);
    std::vector<rel::Schema> schemas;
    std::vector<std::size_t> cards;
    for (const auto& ref : query.from) {
      schemas.push_back(qry::qualify(inst.db.table(ref.table).schema(), ref));
      cards.push_back(inst.db.table(ref.table).size());
    }
    return qry::plan(query, schemas, cards);
  });
  out.tracer.time(Layer::kDraSide, [&] {
    return core::dra_differential(query, inst.db, cq.last_execution(), nullptr,
                                  cq.spec().dra_options);
  });

  const std::uint64_t sink0 = slot.sink->sink_ns;
  const std::uint64_t t0 = wall_ns();
  t_cause_ns = t0;
  inst.manager->execute_now(slot.handle);
  out.tracer.record(Layer::kExecute, t0, slot.sink->sink_ns - sink0);
}

void drive_round(Instance& inst, std::uint32_t mask, Replay& out) {
  const std::uint64_t t0 = wall_ns();
  for (CqSlot& slot : inst.cqs) {
    if ((slot.table_mask & mask) != 0) drive_cq(inst, slot, out);
  }
  out.tracer.record(Layer::kPoll, t0);
}

void collect_garbage(Instance& inst, Replay& out, bool layered) {
  if (!layered) {
    inst.manager->collect_garbage();
    return;
  }
  const std::uint64_t t0 = wall_ns();
  const std::size_t reclaimed = inst.manager->collect_garbage();
  out.tracer.record(Layer::kGc, t0, reclaimed);
}

/// Replays the first `max_commits` transactions of a native schedule in
/// round-robin writer order. It stops early once `max_seconds` have passed
/// and the digest prefix is done, on a period boundary (single writer), so
/// the untraced run's periods cover the same commits.
Replay replay(Instance& inst, const Shape& shape, const Options& o,
              const std::vector<std::uint64_t>& per_writer, double max_seconds,
              std::uint64_t max_commits, bool layered) {
  Replay out;
  std::vector<Writer> writers = make_writers(inst, shape, o.seed);
  std::vector<std::uint64_t> done(writers.size(), 0);
  const std::uint64_t limit =
      std::min(max_commits, std::accumulate(per_writer.begin(), per_writer.end(),
                                            std::uint64_t{0}));
  if (layered) inst.manager->set_eager(false);
  const std::uint64_t t0 = wall_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(max_seconds * 1e9);
  for (std::size_t w = 0; out.commits < limit; w = (w + 1) % writers.size()) {
    if (done[w] >= per_writer[w]) continue;
    const std::size_t rows0 = layered ? delta_rows(inst) : 0;
    const std::uint32_t mask =
        commit_one(inst, writers[w], layered ? &out.tracer : nullptr,
                   layered ? &out.tracer : nullptr, nullptr);
    if (mask == 0) ++out.failed;
    ++done[w];
    ++out.commits;
    if (layered) {
      out.delta_rows.push_back(static_cast<double>(delta_rows(inst) - rows0));
      out.delta_bytes_peak = std::max(out.delta_bytes_peak, inst.db.delta_bytes());
      if (shape.eager) drive_round(inst, mask, out);
    }
    if (shape.poll_every != 0 && out.commits % shape.poll_every == 0) {
      if (layered) {
        drive_round(inst, ~0u, out);
      } else {
        t_cause_ns = wall_ns();
        inst.manager->poll();
      }
      collect_garbage(inst, out, layered);
    }
    if (shape.gc_every != 0 && done[w] % shape.gc_every == 0) {
      collect_garbage(inst, out, layered);
    }
    if (out.commits == shape.digest_commits) {
      out.have_digest = true;
      out.digest = stream_digest(inst);
      out.counters = counters(inst);
    }
    if (wall_ns() >= deadline && out.commits >= shape.digest_commits &&
        (shape.period_commits == 0 || out.commits % shape.period_commits == 0)) {
      break;
    }
  }
  out.wall_ns = wall_ns() - t0;
  return out;
}

// --------------------------------------------------------------- oracle --

/// Force one last execution of every CQ (outside any timed phase), then
/// compare what its sink integrated, and the final complete or aggregate
/// payload, with a recomputation over the final database. Returns the
/// number of CQs that fail.
std::uint64_t check_oracle(Instance& inst, std::vector<std::string>& lines) {
  std::uint64_t bad = 0;
  t_cause_ns = 0;
  for (CqSlot& slot : inst.cqs) {
    OracleSink& sink = *slot.sink;
    sink.capture_payload = true;
    inst.manager->execute_now(slot.handle);
    const core::CqSpec& spec = inst.manager->cq(slot.handle).spec();
    BagHash expected;
    if (spec.query.is_aggregate()) {
      expected.add(qry::evaluate(spec.query, inst.db), +1);
    } else {
      expected.add(core::recompute(spj_core(spec.query), inst.db), +1);
    }
    const bool ok = sink.gaps == 0 && sink.integral == expected &&
                    (!sink.have_payload || sink.last_payload == expected);
    if (!ok) {
      ++bad;
      lines.push_back("oracle: CQ " + spec.name + " FAILED (sequence gaps " +
                      std::to_string(sink.gaps) + ", integrated rows " +
                      std::to_string(sink.integral.rows) + ", expected rows " +
                      std::to_string(expected.rows) + ")");
    }
  }
  return bad;
}

// -------------------------------------------------------------- metrics --

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A window's percentile of `samples`, NaN when it has none.
double window_percentile(const Reservoir& samples, double q) {
  return samples.values().empty() ? std::nan("") : percentile(samples.values(), q);
}

/// Median over the timed phase's windows of `figure`; a window for which
/// the figure is NaN (it has no samples of that kind) is left out.
template <typename Figure>
double window_median(const std::vector<Window>& windows, Figure figure) {
  std::vector<double> values;
  for (const Window& w : windows) {
    const double v = figure(w);
    if (!std::isnan(v)) values.push_back(v);
  }
  return median(std::move(values));
}

void add_digest_lines(Report& rep, const char* label, bool have, std::uint64_t digest,
                      const std::string& counters, std::size_t commits) {
  if (!have) return;
  std::ostringstream os;
  os << label << "_digest after " << commits << " commits: " << std::hex << digest;
  rep.lines.push_back(os.str());
  rep.lines.push_back(std::string(label) + "_counters after " + std::to_string(commits) +
                      " commits: " + counters);
}

/// Set-ups per untraced run: at least kMinSetups, and more until their
/// wall adds up to kSetupBudgetS, so that a set-up of a fraction of a
/// second, whose time swings with the machine's short-term load, is taken
/// as often as its median needs. setup_s is the median.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupBudgetS = 2.0;

Report run_untraced(const Shape& shape, const Options& o) {
  Report rep;
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<Instance> inst;
  while (setup_s.size() < kMinSetups || setup_total_s < kSetupBudgetS) {
    inst.reset();
    const std::uint64_t t0 = wall_ns();
    inst = setup(shape, o);
    setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    setup_total_s += setup_s.back();
  }
  const Native nat = run_native(*inst, shape, o, o.seconds, false);
  const std::uint64_t bad = check_oracle(*inst, rep.lines);

  rep.attempted = nat.commits + inst->cqs.size();
  rep.failed = nat.failed + bad;
  const auto& windows = nat.windows;
  const auto seconds = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e9; };
  rep.metrics = {
      {"commits_per_s",
       window_median(windows,
                     [&](const Window& w) {
                       return static_cast<double>(w.commits) / seconds(w.wall_ns);
                     }),
       "1/s"},
      {"commit_p50_us", window_median(windows, [](const Window& w) {
         return window_percentile(w.commit_us, 0.5);
       }), "us"},
      {"notify_p50_us", window_median(windows, [](const Window& w) {
         return window_percentile(w.notify_us, 0.5);
       }), "us"},
      {"notify_p99_us", window_median(windows, [](const Window& w) {
         return window_percentile(w.notify_us, 0.99);
       }), "us"},
      {"cpu_us_per_commit", window_median(windows, [](const Window& w) {
         return static_cast<double>(w.cpu_ns) / 1e3 / static_cast<double>(w.commits);
       }), "us"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", nat.rss_mb, "MiB"},
  };
  // Printed, not gated: on join-periodic about 1 % of commits are an order
  // of magnitude slower than the rest, so the p99 falls on the edge of that
  // group and jumps with the seed (see README.md).
  std::ostringstream p99;
  p99 << "informational: commit_p99_us "
      << window_median(windows, [](const Window& w) {
           return window_percentile(w.commit_us, 0.99);
         })
      << " us";
  rep.lines.push_back(p99.str());
  std::size_t commit_samples = 0;
  std::size_t notify_samples = 0;
  for (const Window& w : windows) {
    commit_samples += w.commit_us.values().size();
    notify_samples += w.notify_us.values().size();
  }
  std::ostringstream os;
  os << "samples: " << setup_s.size() << " set-ups, " << nat.commits << " commits over "
     << seconds(nat.wall_ns) << " s in " << windows.size() << " windows, " << commit_samples
     << " commit and " << notify_samples << " notify latencies kept";
  rep.lines.push_back(os.str());
  os.str("");
  os << "whole phase: " << static_cast<double>(nat.commits) / seconds(nat.wall_ns)
     << " commits/s, " << static_cast<double>(nat.cpu_ns) / 1e3 / static_cast<double>(nat.commits)
     << " us CPU per commit";
  rep.lines.push_back(os.str());
  add_digest_lines(rep, "stream", nat.have_digest, nat.digest, nat.counters,
                   shape.digest_commits);
  return rep;
}

Report run_traced(const Shape& shape, const Options& o) {
  Report rep;
  const double phase_s = std::max(0.5, o.seconds / 2);
  const bool multi = shape.writers > 1;

  // 1. The workload as users run it: CPU utilisation, trigger counts, the
  //    untraced wall per commit and (several writers) the commit spans.
  auto inst = setup(shape, o);
  const double load_s = inst->load_s;
  const double install_s = inst->install_s;
  const auto native_stats0 = inst->manager->cq_stats();
  const Native nat = run_native(*inst, shape, o, phase_s, multi);
  double checks = 0;
  double fired = 0;
  for (const auto& [name, st] : inst->manager->cq_stats()) {
    const core::CqStats& before = native_stats0.at(name);
    checks += static_cast<double>(st.trigger_checks - before.trigger_checks);
    fired += static_cast<double>(st.fired - before.fired);
  }
  std::uint64_t bad = check_oracle(*inst, rep.lines);

  // 2. The same schedule one layer at a time, on a fresh set-up.
  inst.reset();
  inst = setup(shape, o);
  const common::Metrics m0 = inst->manager->metrics();
  const auto stats0 = inst->manager->cq_stats();
  Replay lay = replay(*inst, shape, o, nat.per_writer, phase_s, nat.commits, true);
  const common::Metrics m1 = inst->manager->metrics();
  const auto stats1 = inst->manager->cq_stats();
  bad += check_oracle(*inst, rep.lines);
  rep.attempted = nat.commits + lay.commits + 2 * inst->cqs.size();
  rep.failed = nat.failed + lay.failed + bad;

  // The untraced wall of the same commits: the native run's first periods
  // (single writer), or (several writers) 3. the same commits from one
  // writer with eager dispatch, which also gives the multi-writer scaling.
  double untraced_ns = 0;
  double scaling = 1;
  if (multi) {
    inst.reset();
    inst = setup(shape, o);
    const Replay one = replay(*inst, shape, o, nat.per_writer, 1e9, lay.commits, false);
    rep.failed += one.failed;
    rep.attempted += one.commits;
    untraced_ns = static_cast<double>(one.wall_ns);
    scaling = ratio(static_cast<double>(nat.commits) / static_cast<double>(nat.wall_ns),
                    static_cast<double>(one.commits) / static_cast<double>(one.wall_ns));
  } else {
    for (std::size_t k = 0; k < lay.commits / shape.period_commits; ++k) {
      untraced_ns += static_cast<double>(nat.period_ns[k]);
    }
  }

  const Tracer& tr = lay.tracer;
  const Tracer& commit_tr = multi ? nat.tracer : lay.tracer;
  auto counter = [&](Id id) { return static_cast<double>(m1.get(id) - m0.get(id)); };
  const double execs = counter(common::metric::kDraInvocations);
  double delivered = 0;
  double notes = 0;
  for (const auto& [name, s] : stats1) {
    const auto before = stats0.find(name);
    delivered += static_cast<double>(s.rows_delivered - before->second.rows_delivered);
    notes += static_cast<double>(s.executions - before->second.executions);
  }

  double commit_wall = 0;
  double commit_cpu = 0;
  std::vector<double> commit_cpu_us;
  for (const Span& s : commit_tr.spans()) {
    if (s.layer != Layer::kCommit) continue;
    commit_wall += static_cast<double>(s.end_ns - s.start_ns);
    commit_cpu += static_cast<double>(s.aux);
    commit_cpu_us.push_back(static_cast<double>(s.aux) / 1e3);
  }
  double gc_rows = 0;
  std::size_t gc_passes = 0;
  for (const Span& s : tr.spans()) {
    if (s.layer != Layer::kGc) continue;
    gc_rows += static_cast<double>(s.aux);
    ++gc_passes;
  }

  const std::vector<double> commit_us = commit_tr.durations_us(Layer::kCommit);
  const std::vector<double> execute_us = tr.durations_us(Layer::kExecute);
  const std::vector<double> dra_us = tr.durations_us(Layer::kDraSide);
  const std::vector<double> poll_us = tr.durations_us(Layer::kPoll);
  const double terms = ratio(counter(common::metric::kDraTermsEvaluated), execs);
  const double plan_p50 = median(tr.durations_us(Layer::kPlanSide));
  const double dra_p50 = median(dra_us);

  // Traced wall: the replay minus its pure side calls. Attributed: the
  // top-level timed calls into the engine (execute including its sink).
  const double side_us = tr.total_us(Layer::kDraSide) + tr.total_us(Layer::kPlanSide);
  const double traced_us = static_cast<double>(lay.wall_ns) / 1e3 - side_us;
  double sink_us = 0;
  for (const Span& s : tr.spans()) {
    if (s.layer == Layer::kExecute) sink_us += static_cast<double>(s.aux) / 1e3;
  }
  const double attributed = tr.total_us(Layer::kStage) + tr.total_us(Layer::kCommit) +
                            tr.total_us(Layer::kTrigger) + tr.total_us(Layer::kExecute) +
                            sink_us + tr.total_us(Layer::kGc);

  rep.metrics = {
      {"catalog.commit_us.p50", percentile(commit_us, 0.5), "us"},
      {"catalog.commit_us.p99", percentile(commit_us, 0.99), "us"},
      {"catalog.commit_cpu_us.p50", median(commit_cpu_us), "us"},
      {"catalog.commit_wait_share", 1 - ratio(commit_cpu, commit_wall), "ratio"},
      {"catalog.stage_us.p50", median(tr.durations_us(Layer::kStage)), "us"},
      {"catalog.scaling_4w_over_1w", scaling, "ratio"},
      {"delta.rows_per_commit",
       ratio(std::accumulate(lay.delta_rows.begin(), lay.delta_rows.end(), 0.0),
             static_cast<double>(lay.delta_rows.size())),
       "count"},
      {"delta.bytes_peak", static_cast<double>(lay.delta_bytes_peak), "bytes"},
      {"delta.gc_us.p50", median(tr.durations_us(Layer::kGc)), "us"},
      {"delta.gc_rows_reclaimed", ratio(gc_rows, static_cast<double>(gc_passes)), "count"},
      {"cq.trigger_us.p50", median(tr.durations_us(Layer::kTrigger)), "us"},
      {"cq.fired_ratio", ratio(fired, checks), "ratio"},
      {"cq.poll_us.p50", percentile(poll_us, 0.5), "us"},
      {"cq.poll_us.p99", percentile(poll_us, 0.99), "us"},
      {"cq.execute_us.p50", percentile(execute_us, 0.5), "us"},
      {"cq.execute_us.p99", percentile(execute_us, 0.99), "us"},
      {"cq.dra_us.p50", dra_p50, "us"},
      {"cq.assemble_share",
       1 - ratio(tr.total_us(Layer::kDraSide), tr.total_us(Layer::kExecute)), "ratio"},
      {"cq.rows_delivered_per_note", ratio(delivered, notes), "count"},
      {"cq.dra_skip_ratio", ratio(counter(common::metric::kDraSkippedIrrelevant), execs),
       "ratio"},
      {"cq.terms_per_exec", terms, "count"},
      {"cq.delta_rows_per_exec", ratio(counter(common::metric::kDeltaRowsScanned), execs),
       "count"},
      {"cq.base_rows_per_exec", ratio(counter(common::metric::kBaseRowsScanned), execs),
       "count"},
      {"cq.index_probes_per_exec", ratio(counter(common::metric::kIndexProbes), execs),
       "count"},
      {"query.plan_us.p50", plan_p50, "us"},
      {"query.plan_share", ratio(plan_p50 * (1 + terms), dra_p50), "ratio"},
      {"common.cpu_util",
       ratio(static_cast<double>(nat.cpu_ns), static_cast<double>(nat.wall_ns)), "ratio"},
      {"setup.load_s", load_s, "s"},
      {"setup.install_s", install_s, "s"},
      {"bench.traced_slowdown", ratio(traced_us * 1e3, untraced_ns), "ratio"},
      {"bench.unattributed_share", 1 - ratio(attributed, traced_us), "ratio"},
  };
  rep.lines.push_back("traced replay: " + std::to_string(lay.commits) + " of " +
                      std::to_string(nat.commits) + " commits, " +
                      std::to_string(lay.fired) + " executions");
  add_digest_lines(rep, "replay", lay.have_digest, lay.digest, lay.counters,
                   shape.digest_commits);
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() { return kWorkloads; }

Report run(const Options& options) {
  const Shape shape = shape_of(options.workload, options.tiny);
  Report rep = options.trace ? run_traced(shape, options) : run_untraced(shape, options);
  rep.lines.insert(rep.lines.begin(),
                   "threads: writers=" + std::to_string(shape.writers) +
                       " lanes=" + std::to_string(shape.lanes) +
                       " nproc=" + std::to_string(std::thread::hardware_concurrency()));
  return rep;
}

}  // namespace cqbench

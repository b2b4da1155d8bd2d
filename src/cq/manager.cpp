#include "cq/manager.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace cq::core {

namespace obs = common::obs;

namespace {

/// Rows in a notification's payload, as the sink sees it.
std::uint64_t rows_delivered(const Notification& note) {
  if (note.sequence == 0 || note.aggregate) {
    const auto& payload = note.aggregate ? note.aggregate : note.complete;
    return payload ? payload->size() : 0;
  }
  std::uint64_t rows = note.delta.inserted.size() + note.delta.deleted.size();
  if (note.complete) rows += note.complete->size();
  return rows;
}

obs::Histogram& cq_exec_histogram() {
  static obs::Histogram& h = obs::global().histogram(obs::hist::kCqExecUs);
  return h;
}

obs::Gauge& active_cq_gauge() {
  static obs::Gauge& g = obs::global().gauge(obs::gauge::kActiveCqs);
  return g;
}

obs::Gauge& parallelism_gauge() {
  static obs::Gauge& g = obs::global().gauge(obs::gauge::kEvalParallelism);
  return g;
}

/// The manager this thread is currently dispatching for. Commits arrive
/// on whichever writer thread committed, so the reentrancy guard ("a CQ
/// execution never re-triggers itself") must be per-thread — a bool
/// member would make one writer's dispatch swallow another's.
thread_local const void* t_dispatching = nullptr;

/// Restores the guard even when a CQ execution throws, so one failed
/// dispatch cannot wedge every future commit into a silent no-op.
class DispatchGuard {
 public:
  explicit DispatchGuard(const void* manager) : prev_(t_dispatching) {
    t_dispatching = manager;
  }
  ~DispatchGuard() { t_dispatching = prev_; }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  const void* prev_;
};

/// Claims the shared thread pool for one dispatch; concurrent dispatches
/// that lose the race evaluate their chunks inline instead of waiting
/// (run_all is not reentrant and must not be entered twice).
class PoolLease {
 public:
  explicit PoolLease(std::atomic<bool>& busy) : busy_(busy) {
    owned_ = !busy_.exchange(true, std::memory_order_acquire);
  }
  ~PoolLease() {
    if (owned_) busy_.store(false, std::memory_order_release);
  }
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  [[nodiscard]] bool owned() const noexcept { return owned_; }

 private:
  std::atomic<bool>& busy_;
  bool owned_ = false;
};

}  // namespace

CqManager::CqManager(cat::Database& db) : db_(db) {}

CqManager::~CqManager() {
  if (eager_) {
    db_.set_commit_hook(nullptr);
    db_.set_commit_closure_hook(nullptr);
  }
}

CqStats& CqManager::stats_of(const Entry& entry) {
  CqStats& s = stats_[entry.query->name()];
  s.name = entry.query->name();
  return s;
}

CqManager::Entry* CqManager::find_entry(CqHandle handle) {
  common::LockGuard lock(entries_mu_);
  auto it = entries_.find(handle);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<CqHandle> CqManager::relevant_handles(
    const std::vector<std::string>* tables) const {
  common::LockGuard lock(entries_mu_);
  std::vector<CqHandle> out;
  out.reserve(entries_.size());
  for (const auto& [h, e] : entries_) {
    if (tables != nullptr) {
      const auto& relations = e.query->relations();
      const bool relevant =
          std::any_of(tables->begin(), tables->end(), [&](const std::string& t) {
            return std::find(relations.begin(), relations.end(), t) != relations.end();
          });
      if (!relevant) continue;
    }
    out.push_back(h);
  }
  return out;
}

void CqManager::extend_closure(const std::vector<std::string>& write_set,
                               std::vector<std::string>& closure) const {
  common::LockGuard lock(entries_mu_);
  for (const auto& [h, e] : entries_) {
    const auto& relations = e.query->relations();
    const bool relevant =
        std::any_of(write_set.begin(), write_set.end(), [&](const std::string& t) {
          return std::find(relations.begin(), relations.end(), t) != relations.end();
        });
    if (!relevant) continue;
    // Duplicates are fine: the closure only feeds the shard-mask OR.
    closure.insert(closure.end(), relations.begin(), relations.end());
  }
}

CqHandle CqManager::install(CqSpec spec, std::shared_ptr<ResultSink> sink) {
  Entry entry;
  entry.query = std::make_unique<ContinualQuery>(std::move(spec), db_);
  entry.sink = std::move(sink);

  obs::Span span("cq.install");
  Outcome initial{.entry = &entry, .forced = true, .initial = true, .fired = true};
  const std::uint64_t t0 = obs::now_ns();
  initial.note = entry.query->execute_initial(db_, &initial.local);
  initial.elapsed_ns = obs::now_ns() - t0;
  entry.zone_id = db_.zones().register_cq(entry.query->last_execution());
  deliver(initial);
  if (initial.error) std::rethrow_exception(initial.error);

  common::log_info("installed CQ '", entry.query->name(), "' trigger=",
                   entry.query->spec().trigger->describe());
  obs::event(obs::Severity::kInfo, "cq_installed", entry.query->name(),
             "trigger=" + entry.query->spec().trigger->describe(),
             db_.clock().now().ticks());

  CqHandle handle = 0;
  {
    common::LockGuard lock(entries_mu_);
    handle = next_handle_++;
    entries_.emplace(handle, std::move(entry));
    active_cq_gauge().set(static_cast<std::int64_t>(entries_.size()));
  }
  return handle;
}

CqHandle CqManager::install_restored(CqSpec spec, std::shared_ptr<ResultSink> sink,
                                     common::Timestamp last_execution,
                                     std::uint64_t executions) {
  Entry entry;
  entry.query = std::make_unique<ContinualQuery>(std::move(spec), db_);
  entry.sink = std::move(sink);
  entry.query->restore(db_, last_execution, executions);
  entry.zone_id = db_.zones().register_cq(last_execution);

  {
    common::LockGuard lock(stats_mu_);
    CqStats& s = stats_of(entry);
    s.executions = executions;
    s.finished = false;
    s.last_execution = last_execution;
  }

  common::log_info("restored CQ '", entry.query->name(), "' at t=",
                   last_execution.to_string(), " after ", executions, " executions");

  CqHandle handle = 0;
  {
    common::LockGuard lock(entries_mu_);
    handle = next_handle_++;
    entries_.emplace(handle, std::move(entry));
    active_cq_gauge().set(static_cast<std::int64_t>(entries_.size()));
  }
  return handle;
}

void CqManager::remove(CqHandle handle) {
  common::LockGuard lock(entries_mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) {
    throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
  }
  obs::event(obs::Severity::kInfo, "cq_terminated", it->second.query->name(),
             "removed", db_.clock().now().ticks());
  {
    common::LockGuard stats_lock(stats_mu_);
    stats_of(it->second).finished = true;
  }
  db_.zones().unregister(it->second.zone_id);
  entries_.erase(it);
  active_cq_gauge().set(static_cast<std::int64_t>(entries_.size()));
}

void CqManager::finish(CqHandle handle) {
  common::LockGuard lock(entries_mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return;
  common::log_info("CQ '", it->second.query->name(), "' reached its Stop condition");
  obs::event(obs::Severity::kInfo, "cq_terminated", it->second.query->name(),
             "stop condition reached", db_.clock().now().ticks());
  {
    common::LockGuard stats_lock(stats_mu_);
    stats_of(it->second).finished = true;
  }
  db_.zones().unregister(it->second.zone_id);
  entries_.erase(it);
  active_cq_gauge().set(static_cast<std::int64_t>(entries_.size()));
}

void CqManager::evaluate(Outcome& o) {
  try {
    ContinualQuery& query = *o.entry->query;
    if (!o.forced) {
      o.stop = query.should_stop(db_);
      if (o.stop) return;
      o.fired = query.should_fire(db_);
      if (!o.fired) return;
    }
    obs::Span span("cq.run");
    const std::uint64_t t0 = obs::now_ns();
    o.note = query.execute(db_, &o.local, &o.stats);
    o.elapsed_ns = obs::now_ns() - t0;
    o.stop = query.should_stop(db_);
  } catch (...) {
    o.error = std::current_exception();
  }
}

void CqManager::deliver(Outcome& o) {
  const Entry& entry = *o.entry;
  const std::string& name = entry.query->name();
  // A trigger was tested unless the run was forced, Stop held first, or
  // the evaluation failed.
  const bool checked = !o.forced && !o.error && (o.fired || !o.stop);
  const bool executed = o.fired && !o.error;
  {
    common::LockGuard lock(stats_mu_);
    if (!o.forced) metrics_.add(common::metric::kTriggerChecks, 1);
    CqStats& s = stats_of(entry);
    if (checked) {
      ++s.trigger_checks;
      if (o.fired) {
        ++s.fired;
        metrics_.add(common::metric::kTriggersFired, 1);
      } else {
        ++s.suppressed;
        metrics_.add(common::metric::kTriggersSuppressed, 1);
      }
    }
    if (executed) {
      if (!o.initial) last_stats_ = o.stats;
      metrics_.merge(o.local);
      s.executions = o.initial ? 1 : s.executions + 1;
      s.finished = false;
      s.last_exec_ns = o.elapsed_ns;
      s.total_exec_ns += o.elapsed_ns;
      s.delta_rows_consumed += o.stats.delta_rows_read;
      s.rows_delivered += rows_delivered(o.note);
      s.last_execution = entry.query->last_execution();
    }
  }
  if (checked && obs::enabled()) {
    obs::event(o.fired ? obs::Severity::kInfo : obs::Severity::kDebug,
               o.fired ? "trigger_fired" : "trigger_suppressed", name, "",
               db_.clock().now().ticks());
  }
  if (executed) {
    if (obs::enabled()) {
      cq_exec_histogram().record(o.elapsed_ns / 1000);
      if (!o.initial) {
        obs::event(obs::Severity::kInfo, "cq_delivered", name,
                   std::to_string(rows_delivered(o.note)) + " row(s)",
                   entry.query->last_execution().ticks());
      }
    }
    db_.zones().advance(entry.zone_id, entry.query->last_execution());
    record_lineage(o.note);
    if (entry.sink) {
      obs::Span notify_span("cq.notify");
      try {
        entry.sink->on_result(o.note);
      } catch (...) {
        o.error = std::current_exception();
      }
    }
  }
  if (o.stop) {
    entry.query->mark_finished();
    finish(o.handle);
  }
}

std::size_t CqManager::dispatch(const std::vector<CqHandle>& handles) {
  // One CQ's failure never costs another its delivery: errors wait in
  // their outcomes and the first is rethrown once every CQ is delivered.
  std::size_t executed = 0;
  std::exception_ptr first_error;
  const auto deliver_one = [&](Outcome& o) {
    deliver(o);
    if (o.fired) ++executed;
    if (o.error && !first_error) first_error = o.error;
  };

  if (threads_ == 1) {
    // Inline, one outcome at a time: a per-dispatch outcome vector
    // measurably raised notify p99 under concurrent eager writers.
    for (const CqHandle h : handles) {
      Entry* entry = find_entry(h);
      if (entry == nullptr) continue;
      Outcome o{.handle = h, .entry = entry};
      evaluate(o);
      deliver_one(o);
    }
  } else {
    std::vector<Outcome> outcomes;
    outcomes.reserve(handles.size());
    for (const CqHandle h : handles) {
      Entry* entry = find_entry(h);
      if (entry != nullptr) outcomes.push_back(Outcome{.handle = h, .entry = entry});
    }
    // Lanes only move evaluate() onto the pool, one contiguous handle-order
    // chunk per lane; every side effect stays in deliver(), serially.
    static obs::Histogram& batch_hist = obs::global().histogram(obs::hist::kEvalBatchUs);
    const std::size_t chunk = (outcomes.size() + threads_ - 1) / threads_;
    std::vector<std::function<void()>> tasks;
    for (std::size_t begin = 0; begin < outcomes.size(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, outcomes.size());
      tasks.emplace_back([this, &outcomes, begin, end] {
        // Lands on the executing lane's track, carrying the dispatching
        // commit's trace id (the pool adopts the dispatcher's context).
        obs::Span batch_span("eval.batch", &batch_hist);
        for (std::size_t i = begin; i < end; ++i) evaluate(outcomes[i]);
      });
    }
    parallelism_gauge().set(static_cast<std::int64_t>(tasks.size()));
    {
      obs::Span eval_span("commit.eval");
      // One pool, many possible dispatchers: the lease loser (a concurrent
      // commit over disjoint shards) evaluates its chunks on its own
      // thread — same results, no cross-dispatch wait.
      PoolLease lease(pool_busy_);
      if (lease.owned()) {
        if (!pool_) pool_ = std::make_unique<common::ThreadPool>(threads_ - 1);
        pool_->run_all(std::move(tasks));
      } else {
        for (auto& task : tasks) task();
      }
    }
    for (Outcome& o : outcomes) deliver_one(o);
  }
  if (first_error) std::rethrow_exception(first_error);
  return executed;
}

std::size_t CqManager::poll() {
  static obs::Histogram& poll_hist = obs::global().histogram(obs::hist::kPollUs);
  obs::Span span("cq.poll", &poll_hist);
  return dispatch(relevant_handles(nullptr));
}

void CqManager::set_parallelism(std::size_t threads) {
  const std::size_t lanes = threads == 0 ? 1 : threads;
  if (lanes == threads_) return;
  threads_ = lanes;
  pool_.reset();  // rebuilt lazily at the next dispatch with the new width
  parallelism_gauge().set(static_cast<std::int64_t>(threads_));
}

void CqManager::set_eager(bool eager) {
  if (eager == eager_) return;
  eager_ = eager;
  if (eager_) {
    // The closure hook first: a commit arriving between the two set
    // calls must never dispatch without its closure being locked.
    db_.set_commit_closure_hook(
        [this](const std::vector<std::string>& write_set,
               std::vector<std::string>& closure) { extend_closure(write_set, closure); });
    db_.set_commit_hook([this](const std::vector<std::string>& tables,
                               common::Timestamp ts) { on_commit(tables, ts); });
  } else {
    db_.set_commit_hook(nullptr);
    db_.set_commit_closure_hook(nullptr);
  }
}

void CqManager::on_commit(const std::vector<std::string>& tables, common::Timestamp) {
  if (t_dispatching == this) return;  // a CQ execution never re-triggers itself
  DispatchGuard guard(this);
  dispatch(relevant_handles(&tables));
}

Notification CqManager::execute_now(CqHandle handle) {
  Entry* entry = find_entry(handle);
  if (entry == nullptr) {
    throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
  }
  Outcome o{.handle = handle, .entry = entry, .forced = true, .fired = true};
  evaluate(o);
  deliver(o);
  if (o.error) std::rethrow_exception(o.error);
  return std::move(o.note);
}

void CqManager::set_lineage(bool enabled, std::size_t retention) {
  lineage_.set_retention(retention);
  if (enabled == lineage_on_) return;
  lineage_on_ = enabled;
  rel::prov::set_enabled(enabled);
}

void CqManager::record_lineage(const Notification& note) {
  if (!lineage_on_) return;
  lineage_.record(note, obs::current_context().trace_id);
}

std::size_t CqManager::collect_garbage() {
  static obs::Histogram& gc_hist = obs::global().histogram(obs::hist::kGcUs);
  obs::Span span("cq.gc", &gc_hist);
  const std::size_t reclaimed = db_.garbage_collect();
  common::LockGuard lock(stats_mu_);
  metrics_.add(common::metric::kGcRuns, 1);
  metrics_.add(common::metric::kGcRowsReclaimed, static_cast<std::int64_t>(reclaimed));
  return reclaimed;
}

const ContinualQuery& CqManager::cq(CqHandle handle) const {
  common::LockGuard lock(entries_mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) {
    throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
  }
  return *it->second.query;
}

CqStats CqManager::stats(CqHandle handle) const {
  std::string name;
  {
    common::LockGuard lock(entries_mu_);
    auto it = entries_.find(handle);
    if (it == entries_.end()) {
      throw common::NotFound("CqManager: unknown handle " + std::to_string(handle));
    }
    name = it->second.query->name();
  }
  common::LockGuard lock(stats_mu_);
  auto stats_it = stats_.find(name);
  CQ_ASSERT(stats_it != stats_.end());
  return stats_it->second;
}

std::map<std::string, CqStats> CqManager::cq_stats() const {
  common::LockGuard lock(stats_mu_);
  return stats_;
}

std::vector<CqHandle> CqManager::handles() const {
  common::LockGuard lock(entries_mu_);
  std::vector<CqHandle> out;
  out.reserve(entries_.size());
  for (const auto& [h, e] : entries_) out.push_back(h);
  return out;
}

void CqManager::write_stats_json(common::obs::JsonWriter& w) const {
  common::LockGuard lock(stats_mu_);
  w.begin_object();
  for (const auto& [name, s] : stats_) {
    w.key(name).begin_object();
    w.kv("executions", s.executions);
    w.kv("trigger_checks", s.trigger_checks);
    w.kv("fired", s.fired);
    w.kv("suppressed", s.suppressed);
    w.kv("delta_rows_consumed", s.delta_rows_consumed);
    w.kv("rows_delivered", s.rows_delivered);
    w.kv("last_exec_us", s.last_exec_ns / 1000);
    w.kv("total_exec_us", s.total_exec_ns / 1000);
    w.kv("last_execution_at", s.last_execution.ticks());
    w.kv("finished", s.finished);
    w.end_object();
  }
  w.end_object();
}

common::obs::Section CqManager::stats_section() const {
  return {"cqs", [this](common::obs::JsonWriter& w) { write_stats_json(w); }};
}

void CqManager::write_prometheus(common::obs::PromWriter& w) const {
  common::LockGuard lock(stats_mu_);
  // active_cqs itself lives in the registry (maintained at install/remove),
  // so it is not re-emitted here — one sample per (name, labels).
  for (const auto& [name, s] : stats_) {
    const obs::Labels labels{{"cq", name}};
    w.counter("executions", static_cast<std::int64_t>(s.executions), labels);
    w.counter("trigger_checks", static_cast<std::int64_t>(s.trigger_checks), labels);
    w.counter("triggers_fired", static_cast<std::int64_t>(s.fired), labels);
    w.counter("triggers_suppressed", static_cast<std::int64_t>(s.suppressed), labels);
    w.counter("delta_rows_consumed", static_cast<std::int64_t>(s.delta_rows_consumed),
              labels);
    w.counter("rows_delivered", static_cast<std::int64_t>(s.rows_delivered), labels);
    w.counter("exec_time_us", static_cast<std::int64_t>(s.total_exec_ns / 1000), labels);
  }
}

std::function<void(common::obs::PromWriter&)> CqManager::prometheus_section() const {
  return [this](common::obs::PromWriter& w) { write_prometheus(w); };
}

void CqManager::reset_stats() {
  metrics_.reset();
  common::LockGuard lock(stats_mu_);
  last_stats_ = DraStats{};
  // Zero in place: stats(handle) relies on every installed CQ keeping its
  // record, and the name/finished fields describe identity, not work.
  for (auto& [name, s] : stats_) {
    s.executions = 0;
    s.trigger_checks = 0;
    s.fired = 0;
    s.suppressed = 0;
    s.delta_rows_consumed = 0;
    s.rows_delivered = 0;
    s.last_exec_ns = 0;
    s.total_exec_ns = 0;
  }
}

}  // namespace cq::core

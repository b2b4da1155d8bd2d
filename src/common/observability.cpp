#include "common/observability.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace cq::common::obs {

namespace {

// Journal every first-observed lock-order edge (common/lock_order.hpp).
// The checker invokes the hook with its re-entrancy guard set, so the
// journal mutex the record takes is invisible to the checker itself.
void journal_lock_order_edge(const lockorder::EdgeEvent& e) {
  if (!enabled()) return;  // same contract as every other journal producer
  global().events().record(
      Severity::kDebug, "lock_order_edge",
      std::string(e.held != nullptr ? e.held : "?") + "->" +
          (e.acquired != nullptr ? e.acquired : "?"),
      "held rank " + std::to_string(e.held_rank) + ", acquired rank " +
          std::to_string(e.acquired_rank));
}

// Installed at static-init time: set_edge_hook is one atomic store, and
// the hook only dereferences function-local statics (global()), which
// construct on first use.
[[maybe_unused]] const bool g_lock_order_hook_installed = [] {
  lockorder::set_edge_hook(&journal_lock_order_edge);
  return true;
}();

}  // namespace

std::uint64_t now_ns() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - origin)
          .count());
}

// ------------------------------------------------------------- context --

namespace {

thread_local SpanContext t_ctx;

thread_local std::uint32_t t_lane = ~std::uint32_t{0};
std::atomic<std::uint32_t> g_lane_counter{0};

// Lane display names, indexed by lane id. Guarded by its own named mutex
// (never taken on the span hot path — only at thread naming and export).
Mutex& lane_mu() noexcept {
  static Mutex mu{"lane_names", lockorder::LockRank::kLaneNames};
  return mu;
}
std::vector<std::string>& lane_names_locked() {
  static std::vector<std::string> names;
  return names;
}

}  // namespace

SpanContext current_context() noexcept { return t_ctx; }

ContextScope::ContextScope(SpanContext ctx) noexcept : saved_(t_ctx) { t_ctx = ctx; }

ContextScope::~ContextScope() { t_ctx = saved_; }

std::uint64_t next_trace_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint32_t lane_id() noexcept {
  if (t_lane == ~std::uint32_t{0}) {
    t_lane = g_lane_counter.fetch_add(1, std::memory_order_relaxed);
  }
  return t_lane;
}

std::uint32_t lane_count() noexcept {
  return g_lane_counter.load(std::memory_order_relaxed);
}

void set_lane_name(std::string name) {
  const std::uint32_t lane = lane_id();
  LockGuard lock(lane_mu());
  auto& names = lane_names_locked();
  if (names.size() <= lane) names.resize(lane + 1);
  names[lane] = std::move(name);
}

void name_lane_if_unset(const char* name) {
  const std::uint32_t lane = lane_id();
  LockGuard lock(lane_mu());
  auto& names = lane_names_locked();
  if (names.size() <= lane) names.resize(lane + 1);
  if (names[lane].empty()) names[lane] = name;
}

std::string lane_name(std::uint32_t lane) {
  {
    LockGuard lock(lane_mu());
    const auto& names = lane_names_locked();
    if (lane < names.size() && !names[lane].empty()) return names[lane];
  }
  return "lane-" + std::to_string(lane);
}

// --------------------------------------------------------- TraceCollector --

TraceCollector::TraceCollector(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void TraceCollector::record(std::string name, std::uint64_t start_ns,
                            std::uint64_t dur_ns, std::uint32_t depth,
                            std::uint32_t tid, std::uint64_t trace_id) {
  LockGuard lock(mu_);
  TraceEvent event{std::move(name), start_ns, dur_ns, depth, tid, trace_id};
  if (event.trace_id != 0 && !active_.empty()) capture(event);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_ % capacity_] = std::move(event);
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

void TraceCollector::capture(const TraceEvent& event) {
  for (RetainedTrace& t : active_) {
    if (t.trace_id == event.trace_id) {
      if (t.events.size() < kMaxEventsPerTrace) t.events.push_back(event);
      return;
    }
  }
}

void TraceCollector::begin_trace(std::uint64_t trace_id) {
  LockGuard lock(mu_);
  if (active_.size() >= kMaxActiveTraces) return;
  RetainedTrace t;
  t.trace_id = trace_id;
  t.events.reserve(32);
  active_.push_back(std::move(t));
}

void TraceCollector::end_trace(std::uint64_t trace_id, std::uint64_t start_ns,
                               std::uint64_t dur_ns, std::string label) {
  LockGuard lock(mu_);
  auto it = active_.begin();
  while (it != active_.end() && it->trace_id != trace_id) ++it;
  if (it == active_.end()) return;  // capture never opened (active set full)
  RetainedTrace done = std::move(*it);
  active_.erase(it);
  done.start_ns = start_ns;
  done.dur_ns = dur_ns;
  done.label = std::move(label);
  // Keep slowest_ sorted, slowest first; admit iff it beats the current
  // tail or there is room.
  if (slowest_.size() >= slow_capacity_ &&
      (slow_capacity_ == 0 || done.dur_ns <= slowest_.back().dur_ns)) {
    return;
  }
  auto pos = slowest_.begin();
  while (pos != slowest_.end() && pos->dur_ns >= done.dur_ns) ++pos;
  slowest_.insert(pos, std::move(done));
  if (slowest_.size() > slow_capacity_) slowest_.resize(slow_capacity_);
}

std::vector<RetainedTrace> TraceCollector::slowest() const {
  LockGuard lock(mu_);
  return slowest_;
}

std::size_t TraceCollector::slow_capacity() const {
  LockGuard lock(mu_);
  return slow_capacity_;
}

void TraceCollector::set_slow_capacity(std::size_t n) {
  LockGuard lock(mu_);
  slow_capacity_ = n;
  if (slowest_.size() > slow_capacity_) slowest_.resize(slow_capacity_);
}

std::vector<TraceEvent> TraceCollector::snapshot() const {
  LockGuard lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Oldest event sits at next_ once the ring has wrapped.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::size_t TraceCollector::size() const {
  LockGuard lock(mu_);
  return ring_.size();
}

std::size_t TraceCollector::capacity() const {
  LockGuard lock(mu_);
  return capacity_;
}

std::uint64_t TraceCollector::dropped() const {
  LockGuard lock(mu_);
  return total_ - ring_.size();
}

void TraceCollector::clear() {
  LockGuard lock(mu_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
  active_.clear();
  slowest_.clear();
}

void TraceCollector::set_capacity(std::size_t capacity) {
  LockGuard lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.shrink_to_fit();
  next_ = 0;
  total_ = 0;
}

std::string TraceCollector::to_chrome_json(std::uint64_t trace_id) const {
  std::vector<TraceEvent> events;
  if (trace_id != 0) {
    // Prefer the retained capture (complete even after the ring wrapped);
    // fall back to whatever of the trace still sits in the ring.
    {
      LockGuard lock(mu_);
      for (const RetainedTrace& t : slowest_) {
        if (t.trace_id == trace_id) {
          events = t.events;
          break;
        }
      }
    }
    if (events.empty()) {
      for (TraceEvent& e : snapshot()) {
        if (e.trace_id == trace_id) events.push_back(std::move(e));
      }
    }
  } else {
    events = snapshot();
  }

  JsonWriter w;
  w.begin_array();
  // "M" metadata events label the process and each lane track, so
  // Perfetto shows "pool-1" instead of a bare tid.
  w.begin_object();
  w.kv("name", "process_name");
  w.kv("ph", "M");
  w.kv("pid", std::int64_t{1});
  w.key("args").begin_object().kv("name", "cq-engine").end_object();
  w.end_object();
  std::uint32_t lanes = lane_count();
  for (const TraceEvent& e : events) {
    if (e.tid >= lanes) lanes = e.tid + 1;
  }
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", std::int64_t{1});
    w.kv("tid", std::uint64_t{lane});
    w.key("args").begin_object().kv("name", lane_name(lane)).end_object();
    w.end_object();
  }
  for (const auto& e : events) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("ph", "X");
    w.kv("pid", std::int64_t{1});
    // chrome://tracing stacks same-tid "X" events by time containment;
    // depth is informative only.
    w.kv("tid", std::uint64_t{e.tid});
    w.kv("ts", static_cast<double>(e.start_ns) / 1000.0);
    w.kv("dur", static_cast<double>(e.dur_ns) / 1000.0);
    w.key("args").begin_object();
    w.kv("depth", std::uint64_t{e.depth});
    if (e.trace_id != 0) w.kv("trace_id", e.trace_id);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  return w.str();
}

void TraceCollector::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("trace dump: cannot open '" + path + "' for writing");
  out << to_chrome_json() << "\n";
  if (!out) throw IoError("trace dump: write to '" + path + "' failed");
}

// ------------------------------------------------------------------ Span --

Span::Span(const char* name, Histogram* latency_us) noexcept
    : name_(name), latency_us_(latency_us), active_(enabled()) {
  if (active_) {
    start_ns_ = now_ns();
    trace_id_ = t_ctx.trace_id;
    depth_ = t_ctx.depth++;
  }
}

void Span::close() noexcept {
  if (!active_) return;
  active_ = false;
  --t_ctx.depth;
  const std::uint64_t dur = now_ns() - start_ns_;
  try {
    global().traces().record(name_, start_ns_, dur, depth_, lane_id(), trace_id_);
    if (latency_us_ != nullptr) latency_us_->record(dur / 1000);
  } catch (...) {
    // Tracing must never take the process down (allocation failure, ...).
  }
}

// ----------------------------------------------------------- CommitTrace --

CommitTrace::CommitTrace() noexcept {
  if (!enabled()) return;
  active_ = true;
  id_ = next_trace_id();
  start_ns_ = now_ns();
  saved_ = t_ctx;
  // Children open one level under the root "commit" span this scope
  // records at close.
  t_ctx = SpanContext{id_, saved_.depth + 1};
  try {
    global().traces().begin_trace(id_);
  } catch (...) {
    // Same contract as Span::close: tracing must never take the engine
    // down. A failed begin_trace just loses this commit's trace.
  }
}

void CommitTrace::set_label(std::string label) {
  if (active_) label_ = std::move(label);
}

CommitTrace::~CommitTrace() {
  if (!active_) return;
  const std::uint64_t dur = now_ns() - start_ns_;
  t_ctx = saved_;
  try {
    TraceCollector& traces = global().traces();
    traces.record("commit", start_ns_, dur, saved_.depth, lane_id(), id_);
    static Histogram& commit_hist = global().histogram(hist::kCommitToNotifyUs);
    commit_hist.record(dur / 1000);
    traces.end_trace(id_, start_ns_, dur,
                     label_.empty() ? std::string{"commit"} : std::move(label_));
  } catch (...) {
    // Same contract as Span::close: never take the engine down.
  }
}

// -------------------------------------------------------------- Registry --

Histogram& Registry::histogram(const std::string& name) {
  LockGuard lock(mu_);
  return histograms_[name];
}

std::map<std::string, Histogram> Registry::histogram_snapshot() const {
  LockGuard lock(mu_);
  return histograms_;
}

Gauge& Registry::gauge(const std::string& name, Labels labels) {
  LockGuard lock(mu_);
  return gauges_[{name, std::move(labels)}];
}

std::vector<GaugeSample> Registry::gauge_snapshot() const {
  LockGuard lock(mu_);
  std::vector<GaugeSample> out;
  out.reserve(gauges_.size());
  for (const auto& [key, g] : gauges_) {
    out.push_back({key.first, key.second, g.get()});
  }
  return out;
}

void Registry::reset() {
  metrics_.reset();
  traces_.clear();
  events_.clear();
  LockGuard lock(mu_);
  for (auto& [name, h] : histograms_) h.reset();
  for (auto& [key, g] : gauges_) g.set(0);
}

bool gauge_is_counter(const std::string& name) noexcept {
  return name == gauge::kTraceRingDropped || name == gauge::kEventLogDropped ||
         name == gauge::kPoolLaneBusyUs || name == gauge::kShardCommits;
}

namespace {

Mutex& hooks_mu() noexcept {
  static Mutex mu{"refresh_hooks", lockorder::LockRank::kRefreshHooks};
  return mu;
}
std::map<std::uint64_t, std::function<void()>>& hooks_locked() {
  static std::map<std::uint64_t, std::function<void()>> hooks;
  return hooks;
}

}  // namespace

std::uint64_t register_refresh_hook(std::function<void()> fn) {
  static std::atomic<std::uint64_t> next_id{0};
  const std::uint64_t id = next_id.fetch_add(1, std::memory_order_relaxed) + 1;
  LockGuard lock(hooks_mu());
  hooks_locked()[id] = std::move(fn);
  return id;
}

void unregister_refresh_hook(std::uint64_t id) {
  LockGuard lock(hooks_mu());
  hooks_locked().erase(id);
}

void refresh_registry_gauges() {
  Registry& r = global();
  r.gauge(gauge::kTraceRingEvents).set(static_cast<std::int64_t>(r.traces().size()));
  r.gauge(gauge::kTraceRingDropped).set(static_cast<std::int64_t>(r.traces().dropped()));
  r.gauge(gauge::kEventLogEvents).set(static_cast<std::int64_t>(r.events().size()));
  r.gauge(gauge::kEventLogDropped).set(static_cast<std::int64_t>(r.events().dropped()));
  // Hooks run under the hooks mutex: unregister_refresh_hook then blocks
  // until no refresh is mid-hook, so a component may destroy itself the
  // moment unregister returns. Hooks only publish gauges — they must not
  // call back into register/unregister.
  LockGuard lock(hooks_mu());
  for (const auto& [id, fn] : hooks_locked()) fn();
}

Registry& global() noexcept {
  static Registry registry;
  return registry;
}

// ------------------------------------------------------------ JsonWriter --

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value completes a "key": pair; no comma
  }
  if (!first_.empty()) {
    if (first_.back()) {
      first_.back() = false;
    } else {
      out_ += ',';
    }
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  comma();
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma();
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  std::ostringstream os;
  os << v;
  out_ += os.str();
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

// ---------------------------------------------------------------- export --

void write_histogram_json(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.kv("count", h.count());
  w.kv("sum", h.sum());
  w.kv("min", h.min());
  w.kv("max", h.max());
  w.kv("mean", h.mean());
  w.kv("p50", h.p50());
  w.kv("p95", h.p95());
  w.kv("p99", h.p99());
  w.end_object();
}

Section events_section() {
  return {"events", [](JsonWriter& w) {
            const EventLog& log = global().events();
            w.begin_object();
            w.kv("last_seq", log.total());
            w.kv("dropped", log.dropped());
            w.kv("size", static_cast<std::uint64_t>(log.size()));
            w.end_object();
          }};
}

std::string export_json(const Metrics& counters,
                        const std::map<std::string, Histogram>& histograms,
                        const std::vector<Section>& sections) {
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters.all()) w.kv(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms) {
    w.key(name);
    write_histogram_json(w, h);
  }
  w.end_object();
  for (const auto& section : sections) {
    w.key(section.key);
    section.write(w);
  }
  w.end_object();
  return w.str();
}

std::string export_json(const Registry& registry, const std::vector<Section>& sections) {
  return export_json(registry.metrics(), registry.histogram_snapshot(), sections);
}

std::string export_profile_json() {
  refresh_registry_gauges();
  Registry& r = global();
  JsonWriter w;
  w.begin_object();
  w.kv("lock_profiling", lockprof::enabled());

  w.key("lock_contention").begin_array();
  const std::size_t sites = lockprof::site_count();
  for (std::size_t i = 0; i < sites; ++i) {
    const lockprof::Site& s = lockprof::site(i);
    const char* name = s.name.load(std::memory_order_acquire);
    w.begin_object();
    w.kv("site", name != nullptr ? name : "?");
    w.kv("acquisitions", s.acquisitions.load(std::memory_order_relaxed));
    w.kv("contended", s.contended.load(std::memory_order_relaxed));
    w.kv("wait_us_total", s.wait_ns.load(std::memory_order_relaxed) / 1000);
    w.kv("hold_us_total", s.hold_ns.load(std::memory_order_relaxed) / 1000);
    w.key("wait_us");
    write_histogram_json(w, s.wait_us);
    w.key("hold_us");
    write_histogram_json(w, s.hold_us);
    w.end_object();
  }
  w.end_array();

  // Lane rows come off the gauge snapshot (the pool's refresh hook just
  // published them), so the document needs no reference to the pool.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> lanes;
  for (const GaugeSample& g : r.gauge_snapshot()) {
    if (g.labels.size() != 1 || g.labels[0].first != "lane") continue;
    if (g.name == gauge::kPoolLaneBusyUs) {
      lanes[g.labels[0].second].first = g.value;
    } else if (g.name == gauge::kPoolLaneUtilization) {
      lanes[g.labels[0].second].second = g.value;
    }
  }
  w.key("lanes").begin_array();
  for (const auto& [lane, v] : lanes) {
    w.begin_object();
    w.kv("lane", lane);
    w.kv("busy_us", v.first);
    w.kv("utilization_pct", v.second);
    w.end_object();
  }
  w.end_array();

  const std::map<std::string, Histogram> hists = r.histogram_snapshot();
  for (const char* name : {hist::kPoolTaskWaitUs, hist::kCommitToNotifyUs}) {
    auto it = hists.find(name);
    if (it == hists.end()) continue;
    w.key(name);
    write_histogram_json(w, it->second);
  }

  w.key("slowest_commits").begin_array();
  for (const RetainedTrace& t : r.traces().slowest()) {
    w.begin_object();
    w.kv("trace_id", t.trace_id);
    w.kv("label", t.label);
    w.kv("start_us", t.start_ns / 1000);
    w.kv("dur_us", t.dur_ns / 1000);
    // Per-phase rollup: total duration and count of each span name under
    // the commit (the child spans are the pipeline phases).
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> phases;
    for (const TraceEvent& e : t.events) {
      auto& [count, total_ns] = phases[e.name];
      ++count;
      total_ns += e.dur_ns;
    }
    w.key("phases").begin_object();
    for (const auto& [name, p] : phases) {
      w.key(name).begin_object();
      w.kv("count", p.first);
      w.kv("total_us", p.second / 1000);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace cq::common::obs

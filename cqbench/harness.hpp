// Measurement harness of the commit-to-notify benchmark: clocks, sample
// sets, the benchmark's own spans around calls into the engine's layers,
// and the oracle sink every continual query delivers to.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "cq/continual_query.hpp"
#include "relation/relation.hpp"

namespace cqbench {

/// Monotonic wall clock, nanoseconds.
[[nodiscard]] std::uint64_t wall_ns() noexcept;
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), nanoseconds.
[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept;
/// User + system CPU of the whole process, all threads (getrusage), ns.
[[nodiscard]] std::uint64_t process_cpu_ns() noexcept;
/// Peak resident set size of the process so far, MiB.
[[nodiscard]] double peak_rss_mb() noexcept;

/// Wall instant at which the call that causes the next notifications on
/// this thread (a commit under eager dispatch, a poll, an execute_now)
/// started. Sinks run on the dispatching thread, so a thread-local is
/// enough even with several writers.
inline thread_local std::uint64_t t_cause_ns = 0;

/// A uniform random sample of at most `capacity` values (reservoir
/// sampling, Algorithm R). The benchmark keeps latencies in these, so its
/// own memory, and with it peak_rss_mb, does not grow with the commit rate.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity) : capacity_(capacity) { values_.reserve(capacity); }

  void add(double value);
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::size_t capacity_;
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0;  // replacement choices, the same on every run
};

/// Where sinks on this thread record notify latency (µs since
/// t_cause_ns); null records nothing.
inline thread_local Reservoir* t_notify_us = nullptr;

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Deterministic 64-bit hash of a row's values (tids ignored).
[[nodiscard]] std::uint64_t row_hash(const cq::rel::Tuple& row) noexcept;

/// Order-independent multiset fingerprint of a relation: row count and
/// the wrapping sum of mixed row hashes. Adding a relation with sign −1
/// removes its rows, so ΔQ integrates in O(|ΔQ|).
struct BagHash {
  std::int64_t rows = 0;
  std::uint64_t sum = 0;

  void add(const cq::rel::Relation& relation, int sign);
  bool operator==(const BagHash&) const = default;
};

/// The sink behind every installed CQ. It checks that sequence numbers
/// arrive without gaps, integrates ΔQ from the initial payload (so the
/// integral can be compared with a recomputation at the end), folds every
/// notification into a stream digest, and records notify latency into
/// t_notify_us.
///
/// Notification::complete and ::aggregate are only touched through `->`,
/// `*` and a boolean test, so this compiles whether they are optionals or
/// shared pointers.
class OracleSink final : public cq::core::ResultSink {
 public:
  void on_result(const cq::core::Notification& note) override;

  /// Self-test hook: silently drop the notification with this sequence
  /// number (0 = drop nothing; E_0 is never dropped).
  std::uint64_t drop_sequence = 0;
  /// When set, fingerprint the full complete/aggregate payload of each
  /// notification (only for the final check, outside timed phases).
  bool capture_payload = false;

  std::uint64_t expected_sequence = 0;
  std::uint64_t gaps = 0;
  std::uint64_t notes = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  BagHash integral;      // E_0 payload + Σ ΔQ
  BagHash last_payload;  // valid when capture_payload was set
  bool have_payload = false;
  std::uint64_t sink_ns = 0;  // time spent inside on_result
};

/// The layers the traced run times, one span kind per public call.
enum class Layer : std::uint8_t {
  kStage,     // Transaction::insert / modify / erase
  kCommit,    // Transaction::commit
  kTrigger,   // ContinualQuery::should_fire
  kExecute,   // CqManager::execute_now (sink time subtracted later)
  kGc,        // CqManager::collect_garbage
  kPoll,      // one poll round (parent of trigger / execute / side calls)
  kDraSide,   // core::dra_differential side call (pure; excluded from totals)
  kPlanSide,  // qry::plan side call (pure; excluded from totals)
  kCount
};

struct Span {
  Layer layer;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  // Thread CPU ns inside the span for kCommit, sink ns for kExecute, rows
  // reclaimed for kGc.
  std::uint64_t aux;
};

/// In-memory span log of one thread; merged and summarised at exit.
class Tracer {
 public:
  /// Run `fn` under a wall-clock span of `layer`; returns what `fn` returns.
  template <typename Fn>
  auto time(Layer layer, Fn&& fn) {
    const std::uint64_t t0 = wall_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record(layer, t0);
    } else {
      auto result = fn();
      record(layer, t0);
      return result;
    }
  }

  /// Close a span of `layer` that started at wall instant `t0`.
  void record(Layer layer, std::uint64_t t0, std::uint64_t aux = 0) {
    spans_.push_back({layer, t0, wall_ns(), aux});
  }

  void merge(const Tracer& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::vector<double> durations_us(Layer layer) const;
  [[nodiscard]] double total_us(Layer layer) const;

 private:
  std::vector<Span> spans_;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

}  // namespace cqbench

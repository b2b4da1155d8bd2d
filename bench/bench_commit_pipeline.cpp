// Multi-writer commit pipeline scaling (sharded catalog experiment): M
// relations, each carrying one standing selection CQ, driven by N writer
// threads committing disjoint slices of the same total transaction
// schedule. Arg(0) is the writer count — the 1-writer row is the
// sequential baseline; the 2/4-writer rows show how far per-shard commit
// locks let disjoint commits (validate → apply → stamp → append →
// dispatch) overlap. Commit latency lands in commit_pipeline_w<N>_us and
// the shard-lock acquisition wait in commit_lock_wait_us.
//
// Every row also digests each CQ's full notification stream (sequence
// numbers, delivered tids and values — everything except the raw
// timestamps, whose allocation order legitimately depends on the
// interleaving) and requires the digest to be bit-identical to the
// 1-writer row's: more writers may only reorder commits *across*
// independent CQs, never change what any single CQ observes.
//
// CI runs this binary under scripts/check_bench.py --strict (bench-check
// job) against bench/baselines/commit_pipeline.json. The CPU-time ratios
// google-benchmark reports by default are the dispatching thread's CPU,
// not throughput; docs/performance.md §5 quotes the wall-clock figures,
// and cqbench's writers-disjoint workload (catalog.scaling_4w_over_1w)
// is the wall-clock measure of multi-writer scaling.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "catalog/transaction.hpp"
#include "cq/manager.hpp"
#include "cq/trigger.hpp"

namespace cq::bench {
namespace {

constexpr std::size_t kTables = 8;
constexpr std::size_t kTxnsPerTable = 60;
constexpr std::size_t kRowsPerTxn = 4;
constexpr std::size_t kCommits = kTables * kTxnsPerTable;

std::string table_name(std::size_t i) { return "R" + std::to_string(i); }

/// FNV-1a over each notification a CQ delivers: sequence, then every
/// inserted row's tid and key value. Deliveries for one CQ are serialized
/// by the committer's shard locks, so plain members suffice.
class DigestSink final : public core::ResultSink {
 public:
  void on_result(const core::Notification& note) override {
    if (note.sequence == 0) return;  // initial execution, outside the timed run
    mix(note.sequence);
    for (const auto& row : note.delta.inserted.rows()) {
      mix(row.tid().raw());
      mix(static_cast<std::uint64_t>(row.at(0).as_int()));
    }
    mix(note.delta.deleted.size());
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return h_; }

 private:
  void mix(std::uint64_t v) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (byte * 8)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct PipelineWorkload {
  cat::Database db;
  std::unique_ptr<core::CqManager> manager;
  std::vector<std::shared_ptr<DigestSink>> sinks;  // one per table, in order

  /// Order-independent combination (per-CQ streams are deterministic; the
  /// writer interleaving across CQs is not).
  [[nodiscard]] std::uint64_t combined_digest() const noexcept {
    std::uint64_t combined = 0;
    for (const auto& sink : sinks) combined += sink->digest() * 0x9e3779b97f4a7c15ull;
    return combined;
  }
};

std::unique_ptr<PipelineWorkload> make_workload() {
  auto w = std::make_unique<PipelineWorkload>();
  for (std::size_t i = 0; i < kTables; ++i) {
    w->db.create_table(table_name(i), rel::Schema::of({{"key", rel::ValueType::kInt}}));
  }
  w->manager = std::make_unique<core::CqManager>(w->db);
  w->manager->set_eager(true);
  for (std::size_t i = 0; i < kTables; ++i) {
    auto sink = std::make_shared<DigestSink>();
    w->manager->install(
        core::CqSpec::from_sql("cq_" + table_name(i),
                               "SELECT * FROM " + table_name(i) + " WHERE key >= 0",
                               core::triggers::on_change(), nullptr,
                               core::DeliveryMode::kDifferential),
        sink);
    w->sinks.push_back(std::move(sink));
  }
  return w;
}

/// Run the whole commit schedule with `writers` threads, tables dealt
/// round-robin so writer sets are disjoint. Per-commit wall time goes to
/// `commit_us`. Writer 0 runs on the calling thread.
void run_writers(PipelineWorkload& w, std::size_t writers,
                 common::obs::Histogram& commit_us) {
  auto drive = [&w, writers, &commit_us](std::size_t writer) {
    for (std::size_t t = writer; t < kTables; t += writers) {
      const std::string table = table_name(t);
      for (std::size_t i = 0; i < kTxnsPerTable; ++i) {
        const std::uint64_t t0 = common::obs::now_ns();
        auto txn = w.db.begin();
        for (std::size_t r = 0; r < kRowsPerTxn; ++r) {
          txn.insert(table,
                     {rel::Value(static_cast<std::int64_t>(i * kRowsPerTxn + r))});
        }
        txn.commit();
        commit_us.record((common::obs::now_ns() - t0) / 1000);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(writers - 1);
  for (std::size_t wtr = 1; wtr < writers; ++wtr) threads.emplace_back(drive, wtr);
  drive(0);
  for (auto& t : threads) t.join();
}

void BM_CommitPipelineWriters(benchmark::State& state) {
  const auto writers = static_cast<std::size_t>(state.range(0));
  static common::obs::Histogram& commit_w1_us =
      common::obs::global().histogram("commit_pipeline_w1_us");
  static common::obs::Histogram& commit_w2_us =
      common::obs::global().histogram("commit_pipeline_w2_us");
  static common::obs::Histogram& commit_w4_us =
      common::obs::global().histogram("commit_pipeline_w4_us");
  common::obs::Histogram& commit_us =
      writers >= 4 ? commit_w4_us : (writers == 2 ? commit_w2_us : commit_w1_us);

  // The 1-writer row registers first and runs first, seeding the digest
  // every other writer count must reproduce.
  static std::uint64_t reference_digest = 0;
  static bool reference_seeded = false;

  for (auto _ : state) {
    state.PauseTiming();
    auto w = make_workload();
    state.ResumeTiming();

    run_writers(*w, writers, commit_us);

    state.PauseTiming();
    const std::uint64_t digest = w->combined_digest();
    if (!reference_seeded) {
      reference_digest = digest;
      reference_seeded = true;
    } else if (digest != reference_digest) {
      state.SkipWithError("notification streams diverged from the 1-writer run");
    }
    export_metrics(state, w->manager->metrics());
    state.ResumeTiming();
  }

  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kCommits));
  state.counters["commits_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * static_cast<std::int64_t>(kCommits)),
      benchmark::Counter::kIsRate);
  state.counters["writers"] = static_cast<double>(writers);
}

BENCHMARK(BM_CommitPipelineWriters)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// Contended companion row: every transaction also writes a shared hot
/// table, so all closures meet on one shard and the pipeline degenerates
/// to the serialized order — the lower bound the disjoint rows are
/// measured against (and a direct read on shard-lock wait time via the
/// commit_lock_wait_us histogram).
void BM_CommitPipelineContended(benchmark::State& state) {
  const auto writers = static_cast<std::size_t>(state.range(0));
  static common::obs::Histogram& commit_us =
      common::obs::global().histogram("commit_pipeline_contended_us");

  for (auto _ : state) {
    state.PauseTiming();
    auto w = make_workload();
    w->db.create_table("HOT", rel::Schema::of({{"key", rel::ValueType::kInt}}));
    state.ResumeTiming();

    auto drive = [&w, writers](std::size_t writer) {
      for (std::size_t t = writer; t < kTables; t += writers) {
        const std::string table = table_name(t);
        for (std::size_t i = 0; i < kTxnsPerTable; ++i) {
          const std::uint64_t t0 = common::obs::now_ns();
          auto txn = w->db.begin();
          txn.insert(table, {rel::Value(static_cast<std::int64_t>(i))});
          txn.insert("HOT", {rel::Value(static_cast<std::int64_t>(i))});
          txn.commit();
          commit_us.record((common::obs::now_ns() - t0) / 1000);
        }
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(writers - 1);
    for (std::size_t wtr = 1; wtr < writers; ++wtr) threads.emplace_back(drive, wtr);
    drive(0);
    for (auto& t : threads) t.join();

    state.PauseTiming();
    export_metrics(state, w->manager->metrics());
    state.ResumeTiming();
  }

  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kCommits));
  state.counters["writers"] = static_cast<double>(writers);
}

BENCHMARK(BM_CommitPipelineContended)->Arg(4)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace
}  // namespace cq::bench

CQ_BENCH_MAIN()

// Experiment E1 (DESIGN.md): the paper's central performance claim —
// differential re-evaluation beats complete re-evaluation when the base
// relation is large, the query is selective, and the update volume since
// the last execution is small (conditions (i)-(iii) of Section 4.2).
//
// Series: base size N x update count U, single-relation selection CQ.
// Expected shape: DRA time grows with U and is nearly flat in N (modulo the
// net-effect scan); recompute grows linearly in N regardless of U.
//
// --stats-json records the wall time of each recompute iteration
// (recompute_selection_iter_us) beside the engine's per-call dra_exec_us.
// A recompute iteration scans the whole base, so its median sits above
// check_bench.py's 100 us floor and the baseline gate compares it; the
// dra_exec_us median (about 30 us on a 4-core x86 container) sits under
// the floor, so the DRA series is not gated.
#include "bench_support.hpp"

namespace cq::bench {
namespace {

constexpr double kSelectivity = 0.05;

void BM_DraSelection(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto updates = static_cast<std::size_t>(state.range(1));
  const Scenario& s = selection_scenario(rows, updates, kSelectivity);
  common::Metrics metrics;
  std::size_t delta_size = 0;
  for (auto _ : state) {
    const core::DiffResult d = core::dra_differential(s.query, s.db, s.t0, &metrics);
    benchmark::DoNotOptimize(&d);
    delta_size = d.size();
  }
  export_metrics(state, metrics);
  state.counters["result_delta_rows"] = static_cast<double>(delta_size);
}

void BM_RecomputeSelection(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto updates = static_cast<std::size_t>(state.range(1));
  const Scenario& s = selection_scenario(rows, updates, kSelectivity);
  static common::obs::Histogram& iter_us =
      common::obs::global().histogram("recompute_selection_iter_us");
  common::Metrics metrics;
  for (auto _ : state) {
    const std::uint64_t t0 = common::obs::now_ns();
    const core::DiffResult d = core::propagate(s.query, s.db, s.before, &metrics);
    benchmark::DoNotOptimize(&d);
    iter_us.record((common::obs::now_ns() - t0) / 1000);
  }
  export_metrics(state, metrics);
}

void configure(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : {1000, 10000, 100000, 400000}) {
    for (std::int64_t u : {10, 100, 1000}) {
      b->Args({n, u});
    }
  }
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_DraSelection)->Apply(configure);
BENCHMARK(BM_RecomputeSelection)->Apply(configure);

}  // namespace
}  // namespace cq::bench

CQ_BENCH_MAIN()

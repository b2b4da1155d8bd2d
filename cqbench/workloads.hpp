// The benchmark's three workloads and the runs that measure them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace cqbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny tables for the self-test; the metric set is the same.
  bool tiny = false;
  /// Self-test fault: every sink drops the notification with this
  /// sequence number (0 = none).
  std::uint64_t drop_sequence = 0;
};

/// What one run reports: the metrics of its kind (end-to-end when
/// untraced, per-layer when traced), the oracle's verdict, and
/// informational lines (digests, work counters).
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> lines;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload as `options` say. Throws std::invalid_argument for an
/// unknown workload name.
[[nodiscard]] Report run(const Options& options);

}  // namespace cqbench

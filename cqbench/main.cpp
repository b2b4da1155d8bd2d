// cqbench: the commit-to-notify benchmark of the continual-query engine.
//
//   cqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints one line per metric ("metric <name> <value> <unit>"), the
// notification-stream digest and work counters of single-writer
// workloads, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a commit
// fails or a CQ's delivered result disagrees with a recomputation.
// See README.md for the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/lock_profile.hpp"
#include "common/observability.hpp"
#include "relation/provenance.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cqbench: %s\nusage: cqbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--drop-notification <seq>]\nworkloads:",
               why);
  for (const auto& name : cqbench::workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

cqbench::Options parse(int argc, char** argv) {
  cqbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (arg == "--drop-notification") {
        o.drop_sequence = std::stoull(value);
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const cqbench::Options options = parse(argc, argv);

  // Timed runs measure the engine with every optional instrument off.
  cq::common::obs::set_enabled(false);
  cq::common::lockprof::set_enabled(false);
  cq::rel::prov::set_enabled(false);
#ifdef CQ_LOCK_ORDER_CHECKS
  const char* lock_order = "on";
#else
  const char* lock_order = "off";
#endif
  std::printf("build: type=%s lock_order_checks=%s obs=%s lockprof=%s lineage=%s\n",
              CQBENCH_BUILD_TYPE, lock_order,
              cq::common::obs::enabled() ? "on" : "off",
              cq::common::lockprof::enabled() ? "on" : "off",
              cq::rel::prov::enabled() ? "on" : "off");
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? " tiny" : "");

  cqbench::Report report;
  try {
    report = cqbench::run(options);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cqbench: %s\n", e.what());
    return 1;
  }

  for (const auto& line : report.lines) std::printf("%s\n", line.c_str());
  std::printf("fail_ratio %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(report.failed) / static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const auto& m : report.metrics) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

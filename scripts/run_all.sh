#!/usr/bin/env sh
# Build, test, benchmark, and run every example — the full reproduction
# pipeline. Outputs land in test_output.txt / bench_output.txt at the repo
# root (the same files EXPERIMENTS.md refers to).
set -eu

cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Each bench also drops a BENCH_<name>.json stats document (engine
# counters + p50/p95/p99 latency histograms) at the repo root. POSIX sh
# has no pipefail, so benches write straight to the log and any non-zero
# exit aborts the pipeline instead of vanishing into a tee.
: > bench_output.txt
for b in build/bench/bench_*; do
  name=$(basename "$b")
  echo "===== $b ====="
  echo "===== $b =====" >> bench_output.txt
  if ! "$b" --stats-json "BENCH_${name#bench_}.json" >> bench_output.txt 2>&1; then
    echo "FAIL: $b exited non-zero; see bench_output.txt" >&2
    exit 1
  fi
done
cat bench_output.txt

# Compare the fresh medians against the committed baselines; prints a
# per-histogram report and flags >25% regressions (advisory here — pass
# --strict to gate on it).
python3 scripts/check_bench.py

for example in quickstart stock_monitor bank_accounts internet_monitor \
               epsilon_cache time_travel; do
  echo "===== examples/$example ====="
  "build/examples/$example"
done

echo "===== examples/cqtop (3 frames, local demo) ====="
"build/examples/cqtop" --frames 3 --interval-ms 50

echo "===== examples/cqshell (scripted) ====="
"build/examples/cqshell" <<'EOF'
CREATE TABLE Stocks (name STRING, price INT)
INSERT INTO Stocks VALUES ('DEC', 150)
INSTALL watch TRIGGER ONCHANGE AS SELECT * FROM Stocks WHERE price > 120
INSERT INTO Stocks VALUES ('MAC', 130)
POLL
STATS
STATS RESET
QUIT
EOF

echo "===== repository invariants (lint) ====="
python3 scripts/lint_invariants.py

echo "===== cqlint (whole-project semantic analysis) ====="
# set -eu above: a cqlint failure aborts the pipeline.
python3 scripts/cqlint/cqlint.py

echo "===== concurrency stress (plain mode) ====="
build/tests/concurrency_test --gtest_brief=1

echo "===== introspection smoke (SERVE + curl) ====="
sh scripts/smoke_introspect.sh

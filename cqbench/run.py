#!/usr/bin/env python3
"""Build the commit-to-notify benchmark as Release and run one workload.

    python3 cqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. cqbench/CMakeLists.txt compiles the
engine from src/ into .bench_build/cqbench. Build output goes to stderr
and the benchmark's own output to stdout, so the result JSON stays the
last line of stdout. The exit code is the benchmark's: nonzero when the
build fails, a commit fails or a CQ's result disagrees with a
recomputation.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cqbench")
# A run measures for --seconds (a traced run measures twice that, over its
# phases) and spends up to about a minute more on set-ups and the oracle.
SETUP_ALLOWANCE_S = 120


def run_timeout_s(argv) -> float:
    """Seconds after which a run is taken to hang: --seconds times the
    phases of a traced run, plus the set-up allowance."""
    seconds = 10.0
    if "--seconds" in argv[:-1]:
        try:
            seconds = float(argv[argv.index("--seconds") + 1])
        except ValueError:
            pass  # the benchmark rejects the value itself
    return 3 * seconds + SETUP_ALLOWANCE_S


def build() -> str:
    """Configure and build the benchmark; returns the binary's path."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "cqbench"],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "cqbench")


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"cqbench: build failed: {e}", file=sys.stderr)
        return 1
    timeout = run_timeout_s(sys.argv[1:])
    proc = subprocess.Popen([binary] + sys.argv[1:])
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"cqbench: run exceeded {timeout:g} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

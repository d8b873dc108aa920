#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload plain_bulk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own arithmetic tests

The build goes to .bench_build/perfbench (configured once, then rebuilt
incrementally); result files go to .bench_out/. The benchmark's stdout is
passed through, so its last line is the JSON result. The metric names in it
are checked against BENCHMARK.json when that file is present.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; compiler output goes to stderr."""
    configured = any(os.path.exists(os.path.join(BUILD, f)) for f in ("Makefile", "build.ninja"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if argv == ["--test"]:
        if not build("perfbench_math_test"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_math_test")]).returncode
    if not build("perfbench_engine"):
        return 1
    os.makedirs(OUT, exist_ok=True)
    try:
        proc = subprocess.run([os.path.join(BUILD, "perfbench_engine"), *argv, "--out", OUT],
                              stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        sys.stderr.write(proc.stdout)
        print(f"metrics {sorted(set(result['metrics']) ^ want)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

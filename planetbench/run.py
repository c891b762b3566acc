#!/usr/bin/env python3
"""Builds and runs the planet-epoch benchmark.

Run from the root of a checkout:

    python3 planetbench/run.py --workload planet-epoch --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds planetbench/ (the library sources
under src/ plus the benchmark binary) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only check the build is up to
date. Build output goes to standard error. The benchmark's report goes to
standard output, and its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The exit code is 0 only when the
build succeeded, every correctness, fidelity and digest check passed and
the result names exactly the metrics BENCHMARK.json declares.

Extra flags (--size tiny, --inject fidelity|digest|converge|refund) are
passed to the benchmark binary unchanged; the benchmark's own tests use
them.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("planet-epoch", "planet-economy", "dense-clock")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"planetbench: {msg}", file=sys.stderr, flush=True)


def run_quietly(cmd):
    """Runs a build step with its output on stderr; True on success."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr, check=False)
    return done.returncode == 0


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quietly(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    if not run_quietly(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", "planet_bench"]):
        return None
    return os.path.join(build_dir, "planet_bench")


def declared_metrics(trace):
    """Metric name -> unit as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    """Returns (result, problem); problem is None for a well-formed result."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "the benchmark's last line is not JSON"
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return None, "the result does not have exactly the keys %s" % sorted(keys)
    declared = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        return None, ("metrics differ from BENCHMARK.json: missing %s, "
                      "extra %s, or units differ" % (missing, extra))
    return result, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = parser.parse_known_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace] + extra
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 4
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        log("benchmark exited with code %d" % done.returncode)
        return done.returncode or 5
    result, problem = check_result(lines[-1], args.trace == "1")
    if problem is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(problem)
        return 6
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        log("correctness check failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of record for the Wake OLA engine.

Builds the engine and the perfbench driver from the sources of this
checkout, runs one workload, checks the result line and prints it:

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 0

The workloads of record and the metrics are listed in BENCHMARK.json and
explained in perfbench/README.md; `--workload tpch-ola` also runs (it is
not in the record, see the README). The build goes to $CARGO_TARGET_DIR (default
.bench_build) below the checkout root; scratch data and trace files go
below it too. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Any build or run failure
exits non-zero without printing a result.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no engine sources at " + ROOT)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "wake_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "wake_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def check(result, metrics, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation attempted")
    for m in metrics:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or with the wrong unit" % m["name"])
        if not math.isfinite(got["value"]):
            fail("metric %s is not finite" % m["name"])
        if not trace and got["value"] <= 0:
            fail("metric %s is %r" % (m["name"], got["value"]))
    if set(result["metrics"]) != {m["name"] for m in metrics}:
        fail("unexpected metrics reported")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = expected_metrics(args.trace == 1)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.join(target, "perfbench"))
    work_dir = os.path.join(target, "perfbench-work")
    trace_dir = os.path.join(target, "perfbench-traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--trace-dir", trace_dir]
    # A terminated run.py takes the driver down with it, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as run:
        try:
            stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        finally:
            if run.poll() is None:
                run.kill()
                run.wait()
    if run.returncode != 0:
        fail("%s exited with %d" % (args.workload, run.returncode))
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no result printed")
    result = json.loads(lines[-1])
    check(result, metrics, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

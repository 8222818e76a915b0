#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds 4]

Checks, through perfbench/run.py, that
  * every workload passes its correctness gates on two seeds (zero failed
    operations; on tpch-ola that includes every query's exact answer
    scoring 0% error with full recall against itself);
  * one seed reproduces the exact counts: serve-mix's storage.skip_ratio
    and storage.blocks_read, live-ingest's ingest.tablets_flushed, and
    tpch-ola's first_err_pct (to 0.1%);
  * another seed gives different inputs (tpch-ola's first_err_pct moves).
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED_A = 7
SEED_B = 8


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        sys.exit(1)


def gates(workload, seed, result):
    expect(result["correct"] and result["failed"] == 0,
           "%s seed %d: %d operations, %d failed" %
           (workload, seed, result["attempted"], result["failed"]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=4)
    seconds = parser.parse_args().seconds

    firsts = []
    for seed in (SEED_A, SEED_A, SEED_B):
        details, result = run("tpch-ola", seed, seconds, 0)
        gates("tpch-ola", seed, result)
        firsts.append(details["first_err_pct"]["value"])
    # The first state of a join query can depend on which input's partial
    # lands first, so the median may shift in its last digits.
    expect(abs(firsts[0] - firsts[1]) <= 1e-3 * firsts[0],
           "tpch-ola first_err_pct repeats on seed %d: %r" % (SEED_A, firsts[:2]))
    expect(firsts[0] != firsts[2],
           "tpch-ola first_err_pct differs on seed %d: %r" % (SEED_B, firsts[2]))

    for workload, counts in (
            ("serve-mix", ("storage.skip_ratio", "storage.blocks_read")),
            ("live-ingest", ("ingest.tablets_flushed",))):
        values = []
        for seed in (SEED_A, SEED_A):
            _, result = run(workload, seed, seconds, 1)
            gates(workload + " traced", seed, result)
            values.append([result["metrics"][c]["value"] for c in counts])
        expect(values[0] == values[1] and values[0][-1] > 0,
               "%s %s repeat on seed %d: %r" %
               (workload, ", ".join(counts), SEED_A, values))
        for seed in (SEED_A, SEED_B):
            _, result = run(workload, seed, seconds, 0)
            gates(workload, seed, result)


if __name__ == "__main__":
    main()

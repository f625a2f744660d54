#!/usr/bin/env python3
"""Injected-slowdown self-check of the benchmark.

    python3 perfbench/selfcheck.py [--inject 0.5]

Runs sim-suite and check-suite in PAIRS pairs of runs of BENCHMARK.json's
run_seconds each, plain and with a benchmark-side busy-wait of INJECT x
the simulate call's own time added inside every simulate call (run.py
--inject), alternating which side runs first.  It then compares the
medians the way the acceptance rule does: a metric is flagged when the
injected median is worse than the plain one by more than the metric's
bound in BENCHMARK.json.

Expected: sim-suite is flagged on items_per_s, p50_ms and p90_ms (it spends
~98% of op time in simulate), and check-suite, which never simulates, is
flagged on nothing.  Exits 0 when both hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAIRS = 3


def run(workload, seed, seconds, inject):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--inject", str(inject)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    r = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in r["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--inject", type=float, default=0.5)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    timed = [m for m in spec["end_to_end"] if m["name"] in ("items_per_s", "p50_ms", "p90_ms")]
    ok = True
    for workload, expect in (("sim-suite", True), ("check-suite", False)):
        plain, slow = [], []
        for i in range(PAIRS):
            sides = [(plain, 0.0), (slow, a.inject)]
            for acc, inj in (sides if i % 2 == 0 else sides[::-1]):
                acc.append(run(workload, 100 + i, spec["run_seconds"], inj))
        for m in timed:
            p = statistics.median(r[m["name"]] for r in plain)
            s = statistics.median(r[m["name"]] for r in slow)
            worse = (p - s) / p if m["better"] == "higher" else (s - p) / p
            flagged = worse > m["bound"]
            print("%-12s %-12s plain %10.4g  injected %10.4g  worse by %+6.1f%%  bound %2.0f%%  %s"
                  % (workload, m["name"], p, s, 100 * worse, 100 * m["bound"],
                     "FLAGGED" if flagged else "unchanged"))
            ok &= flagged == expect
    print("self-check %s" % ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

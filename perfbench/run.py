#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark executable from
source (dune, release profile, build directory $CARGO_TARGET_DIR or
.bench_build), runs one workload for S seconds, checks every output, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics; every time is scaled to a
reference host speed by a host-speed witness read next to it.  A host
that is losing CPU time is waited for before the run (the host gate).
Exits non-zero when a correctness gate fails, when an exact count
differs from an earlier run with the same seed and build, or when the
sources are not there.  See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 172  # the whole command, build check aside, must end within 180 s
# The host gate.  An all-core integer witness this many times the best one
# seen in this build directory means the guest is losing CPU time.
HOST_SLOW = 1.4
WAIT_RUN_S = 40    # the most one run waits for the host to recover
WAIT_TOTAL_S = 90  # the most all runs of one build directory wait together


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die("%s did not finish within %d s" % (os.path.basename(cmd[0]), timeout))
    return p.returncode, out


def build(build_dir):
    for need in ("dune-project", "bin", "lib", "bench/baseline.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no %s here: run from the repository root" % need)
    env = dict(os.environ, DUNE_BUILD_DIR=build_dir)
    code, _ = run_group(
        ["dune", "build", "--root", ROOT, "--profile", "release",
         "./perfbench/pb.exe"],
        900, env=env, cwd=ROOT, stdout=sys.stderr)
    if code != 0:
        die("build failed")
    return os.path.join(build_dir, "default", "perfbench", "pb.exe")


def witness(exe):
    code, out = run_group([exe, "--witness"], 30, stdout=subprocess.PIPE, text=True)
    if code != 0:
        die("host witness failed")
    return float(out)


class Host:
    """The host gate's state, kept in the build directory across runs:
    the best all-core witness seen and the seconds spent waiting."""

    def __init__(self, state, exe):
        self.path = os.path.join(state, "host.json")
        self.exe = exe
        self.s = {"alu_best": None, "spent_s": 0.0}
        if os.path.exists(self.path):
            with open(self.path) as f:
                self.s = json.load(f)

    def save(self):
        with open(self.path, "w") as f:
            json.dump(self.s, f)

    def budget(self):
        return WAIT_TOTAL_S - self.s["spent_s"]

    def spend(self, secs):
        self.s["spent_s"] += secs

    def slow(self, w):
        best = self.s["alu_best"]
        self.s["alu_best"] = w if best is None else min(best, w)
        return best is not None and w > HOST_SLOW * best

    def slow_now(self):
        """The witness reads slow, and still does on two more readings
        half a second apart: one slow reading is a hiccup, not an
        episode of lost CPU time."""
        for i in range(3):
            if i:
                time.sleep(0.5)
            if not self.slow(witness(self.exe)):
                return False
        return True

    def settle(self, limit):
        """Wait, up to limit seconds and the budget, until the witness is
        back near its best.  Returns whether it is."""
        t0 = time.time()
        while self.slow_now():
            waited = time.time() - t0
            if waited + 2 > min(limit, self.budget()):
                self.spend(waited)
                return False
            time.sleep(2)
            self.spend(time.time() - t0 - waited)
        return True


def fingerprint(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def check_exact(state, workload, seed, build_id, exact):
    """Exact counts must repeat bit-identically for a seed and build."""
    path = os.path.join(state, "exact-%s-%d.json" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f)
        if prev.get("build") == build_id:
            bad = [k for k in exact if k in prev["exact"] and prev["exact"][k] != exact[k]]
            for k in bad:
                print("perfbench: exact count %s changed for seed %d: %r -> %r"
                      % (k, seed, prev["exact"][k], exact[k]), file=sys.stderr)
            return not bad
    with open(path, "w") as f:
        json.dump({"build": build_id, "exact": exact}, f)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", type=float, default=0.0,
                    help="self-check only: busy-wait this share of simulate time")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %s" % a.workload)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    state = os.path.join(build_dir, "perfbench")
    os.makedirs(state, exist_ok=True)

    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--baseline", "bench/baseline.json",
           "--spans", os.path.join(state, "spans-%s-%d.json" % (a.workload, a.seed)),
           "--inject", str(a.inject)]
    # A run that starts while the host is losing CPU time measures the
    # host, not the program: wait for the host first, within the budget.
    # Slow phases inside the run are taken out by the host-speed scaling.
    deadline = time.time() + RUN_LIMIT_S
    host = Host(state, exe)
    notes = [] if host.settle(WAIT_RUN_S) else ["host still slow after waiting"]
    host.save()
    code, out = run_group(cmd, deadline - time.time(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        die("%s exited with %d" % (a.workload, code), 1)
    r = json.loads(lines[-1])

    declared = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = r["metrics"].get(m["name"])
        if got is None:
            if not a.trace:
                die("workload %s did not report %s" % (a.workload, m["name"]), 1)
            # A layer this workload never calls reads 0.
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            die("%s: unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]), 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    same = check_exact(state, a.workload, a.seed, fingerprint([exe]), r["exact"])
    correct = r["failed"] == 0 and same
    h = r["host"]
    print("host witnesses: alu %.1f -> %.1f ms, mem %.1f -> %.1f ms (start -> end)"
          % (h["alu_ms"]["start"], h["alu_ms"]["end"], h["mem_ms"]["start"], h["mem_ms"]["end"]))
    print("host gate: all-core alu best %.1f ms, %.0f s of %d s spent%s"
          % (host.s["alu_best"], host.s["spent_s"], WAIT_TOTAL_S,
             "".join("; " + n for n in notes)))
    for k, v in metrics.items():
        print("%-28s %14.6g %s" % (k, v["value"], v["unit"]))
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"] + (0 if same else 1), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py [--seconds S] [--workload NAME ...]

For each workload it makes five short runs through perfbench/run.py
with one seed: untraced twice, untraced with jobs=1, traced, and traced
with jobs=1. It then checks that

  * every run is correct;
  * the exact metrics repeat exactly: epic_cycles, sa110_cycles and
    code_bytes across all five runs, and every per-layer count or ratio
    (everything outside trace.* that is not a time or a rate) across
    the two traced runs;
  * the traced run puts each layer's time on the workload built to
    stress it: backend.schedule is at least 80% of cold_sweep's serial
    compile time, the backend is under 5% of the timed pass on
    warm_resim and sim_long, and sim.* + sarm.* are the majority of
    sim_long's timed pass.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_sweep", "warm_resim", "sim_long")
EXACT_E2E = ("epic_cycles", "sa110_cycles", "code_bytes")
TIMED_UNITS = ("ms", "s", "1/s", "Mcycles/s")

# (workload, per-layer metric, predicate, description)
ASSIGNMENT = [
    ("cold_sweep", "trace.schedule_compile_share", lambda v: v >= 0.8,
     "backend.schedule >= 80% of serial compile time"),
    ("warm_resim", "trace.backend_pass_share", lambda v: v < 0.05,
     "backend < 5% of the timed pass"),
    ("sim_long", "trace.backend_pass_share", lambda v: v < 0.05,
     "backend < 5% of the timed pass"),
    ("sim_long", "trace.sim_pass_share", lambda v: v > 0.5,
     "sim.* + sarm.* are the majority of the timed pass"),
]


def run(workload, seed, seconds, trace, jobs):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    results = None
    for line in proc.stdout.splitlines():
        if line.strip().startswith("results: "):
            results = line.strip()[len("results: "):]
    if proc.returncode not in (0, 1) or results is None:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"selftest: {' '.join(cmd)} exited {proc.returncode}")
    with open(os.path.join(ROOT, results)) as f:
        return json.load(f)


def values(metrics, keep):
    return {k: m["value"] for k, m in metrics.items() if keep(k, m)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS),
                    choices=WORKLOADS)
    args = ap.parse_args()

    failures = []

    def check(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in args.workload:
        print(f"{workload}:")
        runs = {
            "untraced": run(workload, args.seed, args.seconds, 0, 0),
            "untraced again": run(workload, args.seed, args.seconds, 0, 0),
            "untraced jobs=1": run(workload, args.seed, args.seconds, 0, 1),
            "traced": run(workload, args.seed, args.seconds, 1, 0),
            "traced jobs=1": run(workload, args.seed, args.seconds, 1, 1),
        }
        for name, r in runs.items():
            check(r["correct"] and r["failed"] == 0,
                  f"{workload} {name}: correct, {r['attempted']} points, no failures")
        exact = {name: values(r["end_to_end"], lambda k, m: k in EXACT_E2E)
                 for name, r in runs.items()}
        base = exact["untraced"]
        for name, v in exact.items():
            check(v == base, f"{workload} {name}: exact end-to-end metrics {v}")
        layer_exact = {
            name: values(runs[name]["per_layer"],
                         lambda k, m: not k.startswith("trace.")
                         and m["unit"] not in TIMED_UNITS)
            for name in ("traced", "traced jobs=1")}
        diff = sorted(k for k in layer_exact["traced"]
                      if layer_exact["traced"][k] != layer_exact["traced jobs=1"].get(k))
        check(not diff and len(layer_exact["traced"]) > 0,
              f"{workload}: {len(layer_exact['traced'])} per-layer counts and ratios "
              f"repeat across jobs" + (f" (differ: {diff})" if diff else ""))
        traced = runs["traced"]["per_layer"]
        for w, metric, pred, what in ASSIGNMENT:
            if w == workload:
                v = traced[metric]["value"]
                check(pred(v), f"{workload}: {what} ({metric} = {v:.4f})")

    print("selftest: " + ("all checks hold" if not failures
                          else f"{len(failures)} check(s) failed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

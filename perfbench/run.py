#!/usr/bin/env python3
"""Build and run the CEPIC end-to-end benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures perfbench/ (a
CMake project of its own over ../src) as a Release tree under
.bench_build/ and builds it; later calls only rebuild what changed.
The last line of stdout is the JSON result. With --trace 1 the Chrome
trace the run writes is validated with cepic-prof against
schemas/chrome-trace.schema.json, and a trace that fails fails the run.

Exit codes: 0 correct, 1 an output check or gate failed, 2 the sources
are missing or the build or the run failed (no result). The benchmark
binary refuses to run from a build that is not Release.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SCHEMA = os.path.join(ROOT, "schemas", "chrome-trace.schema.json")
WORKLOADS = ("cold_sweep", "warm_resim", "sim_long")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    # CARGO_TARGET_DIR, when set, names the build directory.
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "tools/cepic_prof.cpp",
                   "schemas/chrome-trace.schema.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full CEPIC checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def git(*args):
    # Only this checkout's own repository counts, never an enclosing one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """SHA-256 over every file the benchmark builds from, so a run from a
    checkout that is not a git repository is still attributable."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    paths += [os.path.join(ROOT, "tools", "cepic_prof.cpp"), SCHEMA]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def provenance(aslr):
    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "--short", "HEAD") or "unknown",
            "dirty": "unknown" if status is None else bool(status),
            "source_digest": source_digest(), "aslr": aslr}


def fixed_layout_prefix():
    """Run the benchmark with address-space randomisation off where the
    host allows it: with ASLR on, heap and stack placement changes cache
    behaviour from process to process and adds run-to-run spread that
    says nothing about the code."""
    cmd = ["setarch", platform.machine(), "-R"]
    if shutil.which("setarch") is None:
        return [], "on"
    probe = subprocess.run(cmd + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return (cmd, "off") if probe.returncode == 0 else ([], "on")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=0,
                    help="worker threads (default: the benchmark's fixed jobs)")
    args = ap.parse_args()

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    build(build_dir)

    out_dir = os.path.join(root, "out")
    work_dir = os.path.join(root, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    results, trace_out = stem + ".json", stem + ".trace.json"
    prefix, aslr = fixed_layout_prefix()
    cmd = prefix + [os.path.join(build_dir, "cepic-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--results", results]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if args.trace:
        check = subprocess.run(
            [os.path.join(build_dir, "cepic-prof"), "--validate", SCHEMA, trace_out],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print("  trace validation: " + (check.stdout.strip() or "no output"))
        if check.returncode != 0:
            result["correct"] = False
            result["failed"] = max(1, result["failed"])
    with open(results) as f:
        record = json.load(f)
    # The record already names nproc, jobs, compiler and build type.
    extra = provenance(aslr)
    record["provenance"].update(extra)
    record["correct"] = result["correct"]
    with open(results, "w") as f:
        json.dump(record, f, indent=1)
    print("  provenance: " + " ".join(f"{k}={v}" for k, v in extra.items()))
    print(f"  results: {os.path.relpath(results, ROOT)}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

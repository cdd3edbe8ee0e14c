#!/usr/bin/env bash
# Record the tool-speed benchmark trajectory.
#
# Runs bench_toolspeed with --benchmark_format=json and appends one
# labelled run record to BENCH_toolspeed.json at the repo root, so the
# committed file accumulates a perf history (baseline, after each
# optimisation, ...) instead of overwriting it.
#
#   bench/record_bench.sh [label] [build_dir]
#
#   label      name for this run (default: the current short commit)
#   build_dir  CMake build tree holding bench/bench_toolspeed
#              (default: build)
#
# Environment:
#   BENCH_FILTER    --benchmark_filter regex (default: all benchmarks)
#   BENCH_MIN_TIME  --benchmark_min_time seconds (default: 0.5)
#   BENCH_ALLOW_NONRELEASE=1
#                   record from a non-Release build tree anyway; the
#                   run is tagged so ratio comparisons can exclude it
#
# Every benchmark runs five repetitions in random interleaved order, as
# in CI's perf-smoke job; the history keeps each benchmark's median,
# which is what the perf-smoke guards read.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
label="${1:-$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unlabelled)}"
build_dir="${2:-build}"
bench_bin="$repo_root/$build_dir/bench/bench_toolspeed"
out_file="$repo_root/BENCH_toolspeed.json"

if [[ ! -x "$bench_bin" ]]; then
  echo "record_bench: $bench_bin not built (cmake --build $build_dir --target bench_toolspeed)" >&2
  exit 1
fi

# The committed history is only comparable if every run came from an
# optimised build: refuse debug trees unless explicitly overridden, and
# tag any overridden run so it can be excluded from ratio guards.
cmake_cache="$repo_root/$build_dir/CMakeCache.txt"
cmake_build_type="unknown"
if [[ -f "$cmake_cache" ]]; then
  cmake_build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cmake_cache")"
  cmake_build_type="${cmake_build_type:-unset}"
fi
if [[ "$cmake_build_type" != "Release" ]]; then
  if [[ "${BENCH_ALLOW_NONRELEASE:-0}" != "1" ]]; then
    echo "record_bench: $build_dir is CMAKE_BUILD_TYPE=$cmake_build_type, not Release." >&2
    echo "record_bench: numbers from unoptimised builds poison the committed history;" >&2
    echo "record_bench: build with -DCMAKE_BUILD_TYPE=Release, or set BENCH_ALLOW_NONRELEASE=1" >&2
    echo "record_bench: to record anyway (the run will be tagged non-release)." >&2
    exit 1
  fi
  label="$label (non-release: $cmake_build_type)"
  echo "record_bench: WARNING recording from a $cmake_build_type build tree" >&2
fi

tmp_json="$(mktemp)"
trap 'rm -f "$tmp_json"' EXIT

"$bench_bin" \
  --benchmark_format=json \
  --benchmark_min_time="${BENCH_MIN_TIME:-0.5}" \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  ${BENCH_FILTER:+--benchmark_filter="$BENCH_FILTER"} \
  > "$tmp_json"

# Stamp provenance: the short commit and whether the tree was dirty at
# record time, so every trajectory point in `cepic-prof bench` is
# attributable to an exact source state.
git_dirty=false
if [[ -n "$(git -C "$repo_root" status --porcelain 2>/dev/null)" ]]; then
  git_dirty=true
fi

label="$label" run_json="$tmp_json" out_file="$out_file" \
  cmake_build_type="$cmake_build_type" git_dirty="$git_dirty" \
  commit="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
python3 - <<'EOF'
import json
import os

out_file = os.environ["out_file"]
with open(os.environ["run_json"]) as f:
    run = json.load(f)

# Each benchmark's median row stands for it in the history (the
# per-repetition rows and other aggregates are dropped).
benchmarks = [b for b in run.get("benchmarks", [])
              if b.get("aggregate_name") == "median"]
# Interleaving shuffles the rows; keep registration order.
benchmarks.sort(key=lambda b: (b.get("family_index", 0),
                               b.get("per_family_instance_index", 0)))

history = {"runs": []}
if os.path.exists(out_file):
    with open(out_file) as f:
        history = json.load(f)

history["runs"].append({
    "label": os.environ["label"],
    "commit": os.environ["commit"],
    "date": run.get("context", {}).get("date", ""),
    "context": {
        **{
            k: run.get("context", {}).get(k)
            for k in ("host_name", "num_cpus", "mhz_per_cpu",
                      "library_build_type")
        },
        "cmake_build_type": os.environ["cmake_build_type"],
        "git_commit": os.environ["commit"],
        "git_dirty": os.environ["git_dirty"] == "true",
    },
    "benchmarks": benchmarks,
})

with open(out_file, "w") as f:
    json.dump(history, f, indent=1)
    f.write("\n")

for b in benchmarks:
    extras = [f"{k}={v:.3g}" for k, v in b.items() if "/" in k]
    print(f"  {b['run_name']}: {b['real_time']:.0f} {b['time_unit']}"
          + (f"  ({', '.join(extras)})" if extras else ""))
print(f"record_bench: appended run '{os.environ['label']}' to {out_file}")
EOF

# Best-effort: validate the updated history when cepic-prof is built in
# the same tree (CI validates it unconditionally).
prof_bin="$repo_root/$build_dir/tools/cepic-prof"
if [[ -x "$prof_bin" ]]; then
  "$prof_bin" --validate "$repo_root/schemas/bench.schema.json" "$out_file"
fi

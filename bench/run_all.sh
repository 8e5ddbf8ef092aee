#!/usr/bin/env bash
# Run every bench binary with --json, validate each report, and merge them
# into one baseline document (BENCH_baseline.json by default).
#
#   bench/run_all.sh [build-dir] [output.json]
#
# The human-readable tables go to <out-dir>/<bench>.log; the JSON reports to
# <out-dir>/BENCH_<bench>.json.  See docs/METRICS.md for the schema and
# EXPERIMENTS.md for what each bench reproduces.
#
# Backend axis: benches that understand --backend= (the DSM execution
# backend, docs/DESIGN.md) are re-run once per entry in BENCH_BACKENDS
# (default "process") beyond the default threads pass, so the baseline
# carries the threads-vs-process comparison (schema v8).  Set
# BENCH_BACKENDS= (empty) to skip the extra passes.
#
# Kernel axis: the kernel micro-benchmarks are re-run once per entry in
# BENCH_KERNELS (default "striped-avx2 avx2") with GDSM_KERNEL= forcing
# that dispatch backend (docs/KERNELS.md), so the baseline carries the
# striped vs anti-diagonal comparison (schema v9).  A forced run writes a
# suffixed experiment id (`kernels_sw_<kernel>`) so it sits next to the
# auto-dispatched run in the merged baseline.  A kernel the host
# cannot run is ignored by the dispatch (it logs a notice and keeps the auto
# pick; the report's `kernel` param and the experiment suffix record what
# actually ran).  Set BENCH_KERNELS= (empty) to skip.
#
# A baseline describes one commit: the script refuses to run (exit 2,
# nothing written) unless `git status --porcelain` is empty.
set -euo pipefail

build_dir=${1:-build}
baseline=${2:-BENCH_baseline.json}
out_dir=${BENCH_OUT_DIR:-"$build_dir/reports"}

repo=$(cd "$(dirname "$0")/.." && pwd)
if ! dirty=$(git -C "$repo" status --porcelain); then
  echo "run_all.sh: $repo is not a git checkout" >&2
  exit 2
fi
if [ -n "$dirty" ]; then
  echo "run_all.sh: the tree has uncommitted changes; commit or stash them" >&2
  echo "$dirty" >&2
  exit 2
fi

if [ ! -d "$build_dir/bench" ]; then
  echo "run_all.sh: $build_dir/bench not found — build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 2
fi

mkdir -p "$out_dir"
reports=()
failed=0
for bin in "$build_dir"/bench/*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name=$(basename "$bin")
  json="$out_dir/BENCH_$name.json"
  echo "== $name"
  if ! "$bin" --json="$json" > "$out_dir/$name.log" 2>&1; then
    echo "   FAILED (see $out_dir/$name.log)" >&2
    failed=1
    continue
  fi
  if [ -x "$build_dir/tools/validate_report" ]; then
    "$build_dir/tools/validate_report" "$json" >/dev/null
  fi
  reports+=("$json")
done

# The DSM execution-backend axis: the loop above ran every bench on the
# thread backend; re-run the backend-aware benches once per extra backend.
backend_benches=(kernels_dsm ablation_pagesize)
for backend in ${BENCH_BACKENDS-process}; do
  [ "$backend" = "threads" ] && continue  # the default pass above
  for name in "${backend_benches[@]}"; do
    bin="$build_dir/bench/$name"
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    json="$out_dir/BENCH_${name}_${backend}.json"
    echo "== $name --backend=$backend"
    if ! "$bin" --backend="$backend" --json="$json" \
        > "$out_dir/${name}_${backend}.log" 2>&1; then
      echo "   FAILED (see $out_dir/${name}_${backend}.log)" >&2
      failed=1
      continue
    fi
    if [ -x "$build_dir/tools/validate_report" ]; then
      "$build_dir/tools/validate_report" "$json" >/dev/null
    fi
    reports+=("$json")
  done
done

# The kernel-dispatch axis: re-run the kernel benches once per forced
# GDSM_KERNEL value (the default pass above used the auto pick).
kernel_benches=(kernels_sw)
for kernel in ${BENCH_KERNELS-striped-avx2 avx2}; do
  for name in "${kernel_benches[@]}"; do
    bin="$build_dir/bench/$name"
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    json="$out_dir/BENCH_${name}_${kernel}.json"
    echo "== $name GDSM_KERNEL=$kernel"
    if ! GDSM_KERNEL="$kernel" "$bin" --json="$json" \
        > "$out_dir/${name}_${kernel}.log" 2>&1; then
      echo "   FAILED (see $out_dir/${name}_${kernel}.log)" >&2
      failed=1
      continue
    fi
    if [ -x "$build_dir/tools/validate_report" ]; then
      "$build_dir/tools/validate_report" "$json" >/dev/null
    fi
    reports+=("$json")
  done
done

if [ "$failed" -ne 0 ]; then
  echo "run_all.sh: one or more benches failed; not writing $baseline" >&2
  exit 1
fi
if [ "${#reports[@]}" -eq 0 ]; then
  echo "run_all.sh: no reports produced" >&2
  exit 1
fi

"$build_dir/tools/merge_reports" -o "$baseline" "${reports[@]}"
echo "run_all.sh: ${#reports[@]} benches -> $baseline"

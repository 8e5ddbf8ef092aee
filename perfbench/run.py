#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the harness (perfbench/CMakeLists.txt) from the sources in this
checkout, runs one workload and passes its output through; the last stdout
line is the JSON result.  Build logs go to stderr.

    python3 perfbench/run.py --workload db_scan --seed 1 --seconds 30 --trace 0

--trace 1 runs the traced variant: per-layer metrics, and a Chrome
trace-event file under .bench_build/perfbench/out/.  --corrupt-answer feeds
the oracle gate one wrong answer (selftest.py checks that it is caught).
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"
WORKLOADS = ("db_scan", "db_sensitive", "pair_blocked")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no GenomeDSM sources under {ROOT / 'src'}; run from a full checkout")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "gdsm_perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    return BUILD / "gdsm_perfbench"


def git_describe():
    """`git describe --dirty` of this checkout, or "unknown" outside git."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or pathlib.Path(top.stdout.strip()) != ROOT:
            return "unknown"
        desc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=10)
        return desc.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt-answer", action="store_true")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")
    if args.seed < 0:
        fail("--seed must be >= 0")

    binary = build()
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT), "--git", git_describe()]
    if args.corrupt_answer:
        cmd.append("--corrupt-answer")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"harness exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if set(result["metrics"]) != want:
        sys.stderr.write(proc.stdout)
        fail(f"metrics {sorted(set(result['metrics']) ^ want)} disagree with BENCHMARK.json")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

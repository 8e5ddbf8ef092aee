#!/usr/bin/env python3
"""The benchmark's own test: the oracle gate must pass an honest run and
fail a run whose service answer was corrupted.

    python3 perfbench/selftest.py

Exits 0 when both hold.  Uses the smallest workload and short runs.
"""
import json
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def run(*extra):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "db_sensitive",
                           "--seed", "7", "--seconds", "2", "--trace", "0", *extra],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    rc, honest = run()
    assert rc == 0 and honest["correct"] and honest["failed"] == 0, (rc, honest)
    rc, bad = run("--corrupt-answer")
    assert rc == 1 and not bad["correct"] and bad["failed"] == 1, (rc, bad)
    print("selftest ok: honest run passes the oracle gate, corrupted answer caught")


if __name__ == "__main__":
    main()

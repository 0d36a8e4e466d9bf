#!/usr/bin/env python3
"""Tests that the benchmark's correctness checks fail the command.

Builds the benchmark, runs the unit tests of the check functions
(perfbench_checks_test), then runs each workload briefly with one
known-bad outcome injected and confirms the command exits non-zero,
names the right check on stderr, and prints no result line. A clean run
of each workload must pass.

    python3 perfbench/tests/run_checks.py

Run it from the root of a checkout. Exit 0 when every case behaves.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (perfbench/run.py: build helpers)

# (workload, injected outcome, check that must fire, traced run?)
CASES = [
    ("serve-mixed", "drop-report", "one-terminal-frame-per-request", "0"),
    ("repair-feret", "replay-digest", "staged-replay-digest", "1"),
    ("repair-feret", "resolved-survivor", "resolved-repair-leaves-no-mup", "0"),
    ("audit-stream", "stale-frontier", "incremental-frontier-equals-findmups", "0"),
]


def bench(binary, workload, trace, inject=None):
    cmd = [str(binary), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", trace]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def has_result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    try:
        return "correct" in json.loads(lines[-1])
    except ValueError:
        return False


def main():
    tree = run.build(["perfbench", "perfbench_checks_test"])
    failures = []
    unit = subprocess.run([str(tree / "perfbench_checks_test")])
    if unit.returncode != 0:
        failures.append("perfbench_checks_test failed")

    binary = tree / "perfbench"
    for workload, inject, check, trace in CASES:
        done = bench(binary, workload, trace, inject)
        ok = (done.returncode != 0 and f"[{check}:" in done.stderr
              and not has_result_line(done.stdout))
        print(f"{'ok  ' if ok else 'FAIL'} {workload} --inject {inject}: "
              f"exit {done.returncode}, {done.stderr.strip()[-160:]}")
        if not ok:
            failures.append(f"{workload}/{inject}")

    for workload in sorted({case[0] for case in CASES}):
        for trace in ("0", "1"):
            done = bench(binary, workload, trace)
            ok = done.returncode == 0 and has_result_line(done.stdout)
            print(f"{'ok  ' if ok else 'FAIL'} {workload} clean, trace {trace}")
            if not ok:
                failures.append(f"{workload} clean trace {trace}: "
                                f"{done.stderr.strip()[-200:]}")

    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

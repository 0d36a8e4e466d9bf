#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload repair-feret --seed 1 --seconds 20 --trace 0

Every argument is passed through to the binary (see README.md here). The
build goes to $CARGO_TARGET_DIR (default `.bench_build`) under the
checkout root; configure and build output go to stderr so that the last
line of stdout stays the binary's JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(targets) -> Path:
    """Configures (once) and builds `targets`; returns the build tree."""
    tree = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (tree / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "-j", jobs, "--target"]
                 + list(targets))
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            sys.exit(2)
    return tree


def main() -> int:
    tree = build(["perfbench"])
    sys.stdout.flush()
    done = subprocess.run([str(tree / "perfbench")] + sys.argv[1:], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

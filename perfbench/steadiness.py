#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

Runs each workload once per seed (untraced), interleaved: seed 1 of every
workload, then seed 2 of every workload, and so on, so that a change in
the host's speed during a set hits all workloads alike. Reports, per
workload and metric, the median over the runs and the spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above a third of the metric's bound in BENCHMARK.json is flagged "WIDE";
above the bound, "OVER".

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads repair-feret,serve-mixed] [--seconds S] [--out FILE]

    python3 perfbench/steadiness.py --compare FIRST.json SECOND.json

Run it from the root of a checkout. --out writes the raw values, medians
and spreads as JSON. --compare reads two such files and reports each
median's change from the first set to the second in the metric's worse
direction against its bound ("OVER" past it).

Exit status: 1 when any metric is OVER, setup_s included; 0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def flag(share, bound):
    return "OVER" if share > bound else "WIDE" if share > bound / 3 else "ok"


def measure(args, metrics):
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            runs[workload].append(
                run_once(workload, args.first_seed + i, args.seconds))
    report = {}
    over = False
    for workload in workloads:
        report[workload] = {}
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
        for name, metric in metrics.items():
            values = [r[name] for r in runs[workload]]
            median, share = spread(values)
            mark = flag(share, metric["bound"])
            over = over or mark == "OVER"
            report[workload][name] = {"values": values, "median": median,
                                      "spread": share,
                                      "bound": metric["bound"]}
            print(f"  {name:<18} median {median:<14.6g} spread "
                  f"{share:7.2%}  bound {metric['bound']:.0%}  {mark}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return over


def compare(first_path, second_path, metrics):
    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    over = False
    for workload in first:
        print(f"{workload}: second set against first")
        for name, metric in metrics.items():
            a = first[workload][name]["median"]
            b = second[workload][name]["median"]
            # Positive change means worse, whichever way the metric points.
            worse = b - a if metric["better"] == "lower" else a - b
            change = worse / a if a else float("inf")
            mark = "OVER" if change > metric["bound"] else "ok"
            over = over or mark == "OVER"
            print(f"  {name:<18} {a:<14.6g} -> {b:<14.6g} change "
                  f"{change:+8.2%}  bound {metric['bound']:.0%}  {mark}")
    return over


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.compare:
        over = compare(args.compare[0], args.compare[1], metrics)
    else:
        over = measure(args, metrics)
    print(f"overall: {'OVER' if over else 'ok'}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())

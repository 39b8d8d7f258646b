#!/usr/bin/env python3
"""Steadiness report for the evcap benchmark.

Runs each workload repeatedly (a different seed per run) and prints, for
every end-to-end metric, the median, the quartiles and the spread
(inter-quartile range as a share of the median) against the bound in
BENCHMARK.json. With --sets 2 it runs two sets back to back and also
reports how far the second set's median moved from the first, in the
metric's worse direction. Every metric is judged against its bound,
setup_s included, and every shift too; "steady" means all of them hold.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads replicate --runs 5 --first-seed 100

Quartiles follow statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace=0):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    # Build where the benchmark's own runs build.
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=True, env=env)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--workloads", nargs="*", help="default: all")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    opts = parser.parse_args()

    with open(opts.benchmark) as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    steady = True
    for workload in workloads:
        sets = []
        seed = opts.first_seed
        for _ in range(opts.sets):
            runs = []
            for _ in range(opts.runs):
                runs.append(run_once(bench["command"], workload, seed, seconds))
                seed += 1
            sets.append(runs)
        print(f"\n{workload}: {opts.runs} runs x {opts.sets} set(s), {seconds} s each")
        print(f"  {'metric':<18}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for i, runs in enumerate(sets):
                med, q1, q3, spread = summary([r[name] for r in runs])
                medians.append(med)
                ok = spread <= bound
                verdict = "ok" if ok else "TOO NOISY"
                if spread > bound / 3 and ok:
                    verdict = "ok (above a third of the bound)"
                steady &= ok
                print(f"  {name:<18}{i + 1:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.3f}{bound:>8.3f}  {verdict}")
            if len(medians) == 2:
                moved = worse_by(medians[0], medians[1], m["better"])
                ok = moved <= bound
                steady &= ok
                print(f"  {name:<18}{'2v1':>4}{'':>42}{moved:>9.3f}{bound:>8.3f}  "
                      f"{'ok' if ok else 'SETS DISAGREE'}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once per seed on each workload (from the
repository root) and prints, per metric, the median of the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. A benchmark is steady when every spread, setup_s included,
is below a third of its bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] \
        [--workloads hot_service,...] [--save runs.json] [--compare old.json]

--save writes the raw values; --compare reads such a file and also prints how
far each median moved against it (worse by more than the bound fails).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect answers\n{proc.stdout[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    old = json.load(open(args.compare)) if args.compare else {}
    saved = {}
    steady = True
    for workload in names:
        runs = [run_once(spec, workload, args.first_seed + i) for i in range(args.runs)]
        saved[workload] = runs
        print(f"{workload}: {args.runs} runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3
            steady &= ok
            line = f"  {name:<16} median {med:12.6f}  spread {spread:6.3f}  bound {bound:.2f}  {'ok' if ok else 'UNSTEADY'}"
            if workload in old:
                prev = statistics.median(r[name] for r in old[workload])
                moved = (med - prev) / prev
                worse = moved if metric["better"] == "lower" else -moved
                line += f"  moved {moved:+.3f} {'FAIL' if worse > bound else ''}"
            print(line)
    if args.save:
        json.dump(saved, open(args.save, "w"))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/report.py --seeds 1-10 --seconds 30 [--trace 0|1]
        [--workloads levels,bias-sweep,fit] [--out summary.json]

For each workload and metric it prints the median over seeds, the
quartile spread (Q3 - Q1) / median as ``statistics.quantiles(values, n=4)``
gives it, the unit, and the bound from BENCHMARK.json.  Runs are
sequential, one process at a time, so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {
                "unit": first["unit"],
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
            }
        summary[workload] = {
            "seeds": [r["seed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        print(f"\n{workload}: {len(runs)} runs, tasks per run {runs[0]['attempted']}.."
              f"{runs[-1]['attempted']}, failed {sum(r['failed'] for r in runs)}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"bound {bound:.2f}" + (" OVER" if m["spread"] > bound else "")
            print(f"  {name:<44} {m['median']:>12.6g} {m['unit']:<6} spread {m['spread']:7.2%}  {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

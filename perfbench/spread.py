"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads certify_presets cli_batch --seeds 1-10 --seconds 15

For every workload and end-to-end metric (untraced runs) it prints the
median and the interquartile range as a share of the median
(``statistics.quantiles`` with n=4), next to the metric's bound from
BENCHMARK.json.  ``--baseline FILE``
records the figures of the workloads it ran as their baseline, which every
result then carries.
Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), detail, wall


def spread_of(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--out", help="write every run's result here (JSON)")
    ap.add_argument("--baseline", help="write medians and spreads here as the recorded baseline")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = wl.seed_range(args.seeds)
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}, "runs": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result, detail, wall = run_once(workload, seed, seconds)
            runs.append({"seed": seed, "wall_s": wall, "result": result, "detail": detail})
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        report["runs"][workload] = runs
        report["environment"] = detail["environment"]
        summary = {}
        for name, m in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = dict(spread_of(values), unit=m["unit"])
        report["workloads"][workload] = summary
        mean_wall = statistics.mean(r["wall_s"] for r in runs)
        print(f"\n{workload} (median of {len(runs)} runs, mean wall {mean_wall:.1f} s)")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:28s} {s['median']:14.6g} {s['unit']:6s} spread {s['spread']:.4f}"
                  f" bound {bound}{flag}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    if args.baseline:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip()
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            baseline = {"workloads": {}}
        for workload, summary in report["workloads"].items():  # other workloads keep their entry
            baseline["workloads"][workload] = {"commit": commit, "seconds": seconds, "seeds": seeds,
                                               "environment": report["environment"],
                                               "metrics": summary}
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

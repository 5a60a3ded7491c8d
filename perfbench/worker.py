"""One benchmark worker process for the library workloads.

    python3 perfbench/worker.py --workload certify_presets --seed 1 --seconds 15 --trace 0 --role measure

The worker imports eulercert, builds the solutions, runs one untimed
warm-up operation per solution, and prints ``READY``; the parent times set-up
from spawning the worker to that line.  A ``setup`` worker exits there.  A
``measure`` worker waits for a line on stdin (the parent probes the host
first), then runs whole passes of the workload's operations, each one probed
before, during and after it (probe.py), until ``--seconds`` have elapsed and
at least the workload's minimum number of passes is done.  It prints one JSON
line with the measured and contention-corrected latencies and every failed
check.  With ``--trace 1`` it alternates untraced and traced passes and
reports per-layer figures for each traced pass instead.  For
``cli_batch`` the worker only writes the spec files the CLI operations read.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probe  # noqa: E402
import workloads as wl  # noqa: E402


def build_solutions(ec, workload: str) -> dict:
    ids = ec.catalog.preset_ids() if workload == "certify_presets" else wl.ANALYSIS_PRESETS
    return {pid: ec.catalog.preset(pid) for pid in ids}


def make_ops(ec, workload: str, sols: dict, seed: int, goldens: dict, seen: dict) -> list:
    if workload == "certify_presets":
        gold = goldens.get("certify_presets", {}).get(str(seed), {})
        return wl.certify_ops(ec, sols, seed, gold, seen=seen)
    return wl.analysis_ops(ec, sols, seed)


def run_pass(ec, ops: list, meter=None) -> tuple:
    """Time every operation; return ([(name, seconds, corrected seconds)], [failure messages]).

    With a ``probe.Meter`` each operation is probed before, during and after
    it, and its latency is also given corrected for contention (see
    probe.py); without one the corrected latency is the measured one.
    """
    clock = time.perf_counter
    latencies, failures = [], []
    for op in ops:
        error = None
        if meter:
            meter.start()
        t0 = clock()
        try:
            result = op.run(ec)
        except Exception:  # an operation that raises is a failed operation, not a crash
            error = f"{op.name}: {traceback.format_exc(limit=3).strip().splitlines()[-1]}"
        finally:
            if meter:
                meter.disarm()
        seconds = clock() - t0
        fixed = seconds
        if meter:
            seconds, fixed = meter.stop(seconds)
        latencies.append((op.name, seconds, fixed))
        if error:
            failures.append(error)
            continue
        try:
            msg = op.check(result)
        except Exception:
            msg = f"{op.name}: check raised {traceback.format_exc(limit=2).strip().splitlines()[-1]}"
        if msg:
            failures.append(msg)
    return latencies, failures


def warm_up(ec, workload: str, sols: dict, seed: int):
    if workload == "certify_presets":
        ops = wl.certify_ops(ec, sols, seed, {}, samples=wl.WARMUP_SAMPLES)
    else:
        ops = wl.analysis_ops(ec, sols, seed)
    run_pass(ec, ops)


def measure(ec, args, sols: dict, goldens: dict) -> dict:
    seen: dict = {}
    ops = make_ops(ec, args.workload, sols, args.seed, goldens, seen)
    latencies, failures = [], []
    passes = 0
    start = time.perf_counter()
    with probe.Meter(ticks=True) as meter:
        while True:
            lat, fail = run_pass(ec, ops, meter)
            latencies += lat
            failures += fail
            passes += 1
            if passes >= wl.MIN_PASSES[args.workload] and time.perf_counter() - start >= args.seconds:
                break
    return {"latencies": latencies, "failures": failures, "passes": passes,
            "ops_per_pass": len(ops), "wall_s": time.perf_counter() - start}


def measure_traced(ec, args, sols: dict, goldens: dict) -> dict:
    import spans as tr

    seen: dict = {}
    untraced_ops = make_ops(ec, args.workload, sols, args.seed, goldens, seen)
    tracer = tr.Tracer()
    untraced_walls, traced_walls, summaries, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        lat, fail = run_pass(ec, untraced_ops)
        untraced_walls.append(time.perf_counter() - t0)
        attempted += len(lat)
        failures += fail

        tracer.install()
        try:
            t0 = time.perf_counter()
            traced_sols = build_solutions(ec, args.workload)
            lat, fail = run_pass(ec, make_ops(ec, args.workload, traced_sols, args.seed, goldens, seen))
            traced_walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        attempted += len(lat)
        failures += fail
        summaries.append(tracer.summary())
        tracer = tr.Tracer()
    return {"summaries": summaries, "untraced_walls": untraced_walls,
            "traced_walls": traced_walls, "attempted": attempted, "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.MIN_PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--role", choices=["setup", "measure"], default="measure")
    ap.add_argument("--workdir", help="cli_batch: where to write the spec files")
    args = ap.parse_args(argv)

    import eulercert as ec

    if args.workload == "cli_batch":  # set-up only: the CLI runs in its own processes
        import eulercert.cli  # noqa: F401

        wl.write_cli_inputs(ec, args.workdir)
        print("READY", flush=True)
        return 0
    sols = build_solutions(ec, args.workload)
    warm_up(ec, args.workload, sols, args.seed)
    print("READY", flush=True)
    if args.role == "setup":
        return 0
    sys.stdin.readline()  # the parent probes the host, then says GO

    goldens = wl.load_goldens()
    result = (measure_traced if args.trace else measure)(ec, args, sols, goldens)
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The eulercert benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload certify_presets --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports eulercert from ``src/``.

Workloads (closed loop, one client, one operation in flight; at most the
benchmark process and one child run at a time):

* ``certify_presets``: library ``certify`` of all nine presets at 10^4
  samples, the headline user operation.  Sampling and the quad-driven
  pressure panel dominate it.
* ``analysis_suite``: norms, the planar energy, blow-up fits and ansatz
  probes.  They call the same catalog and expression code one scalar at a
  time through ``quad``, so a change that speeds batches but adds per-call
  cost shows here.
* ``cli_batch``: a fresh ``python3 -m eulercert.cli`` process per operation.
  Interpreter start, imports, schema validation and serialization dominate.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics (see ``spans.py``).  The line before it, prefixed
``perfbench-detail``, records the environment, the per-operation medians,
every failed check, and the recorded baseline for the workload.

Set-up is timed from spawning a fresh worker to its first timed operation
(import, building the solutions or spec files, one untimed warm-up op); it is
repeated ``SETUP_REPS`` times and the median reported.  BLAS and OpenMP
thread counts are pinned to 1 in every child process.

Every timed operation and every set-up is probed with a fixed reference
computation before and after it (and, in a worker, during it), and the
end-to-end times are corrected for the contention the probes measured
(``probe.py``): on a shared host the same operation's wall time drifts by
20-50% from minute to minute, while the corrected time repeats within a few
percent.  The benchmark and its children run pinned to one CPU, so the probes
and the operations see the same core.  So ``setup_s``, ``op_p50_ms``, ``op_tail_ms`` and
``slowest_op_ms`` are times at the probe's reference speed, and ``ops_per_s``
is the number of operations in a pass over the sum of their corrected
medians.  The measured wall times, and the median slowdown the probes saw,
are in the detail line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import probe  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("certify_presets", "analysis_suite", "cli_batch")
SETUP_REPS = 5
CHILD_TIMEOUT_S = 150.0
PINNED_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
BASELINE_PATH = os.path.join(HERE, "baseline.json")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Environment and child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_to_one_cpu():
    """Run this process and every child on one CPU, so that the probes and the
    operations they correct see the same core.  Parent and child never
    compute at the same time, so nothing waits for the CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    nproc = os.cpu_count()
    pinned = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"nproc": nproc, "pinned_cpus": pinned, "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "threads": PINNED_THREADS}


class Child:
    """A child process whose stdout is read against a deadline.

    No helper thread: reads wait in ``select``, and a child that misses its
    deadline is killed and reaped before the error is raised.
    """

    def __init__(self, cmd, env, stderr=None, timeout=CHILD_TIMEOUT_S, stdin=None):
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=stdin, stdout=subprocess.PIPE,
                                     stderr=stderr, bufsize=0)
        self.deadline = time.monotonic() + timeout
        self.pending = b""

    def read(self, line=False) -> bytes:
        """The next line of stdout (without its newline), or everything up to EOF."""
        fd = self.proc.stdout.fileno()
        while not (line and b"\n" in self.pending):
            remaining = self.deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                self.proc.kill()
                self.finish()
                raise BenchError(f"{' '.join(self.proc.args[1:3])} missed its deadline and was killed")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            self.pending += chunk
        if line:
            out, _, self.pending = self.pending.partition(b"\n")
            return out
        out, self.pending = self.pending, b""
        return out

    def go(self):
        """Tell a worker waiting on stdin to start measuring."""
        self.proc.stdin.write(b"GO\n")
        self.proc.stdin.close()

    def finish(self):
        """Wait for exit; return (exit code, max RSS in KB)."""
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode, usage.ru_maxrss


def spawn_worker(workload, args, role, env, workdir):
    """Start a worker and wait for READY; return (Child, set-up seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--workdir", workdir]
    t0 = time.perf_counter()
    child = Child(cmd, env, stdin=subprocess.PIPE)
    line = child.read(line=True)
    setup_s = time.perf_counter() - t0
    if line.strip() != b"READY":
        code, _ = child.finish()
        raise BenchError(f"{workload} worker failed during set-up (exit {code})")
    return child, setup_s


def finish_worker(child) -> dict:
    out = child.read()
    code, _ = child.finish()
    if code != 0:
        raise BenchError(f"worker exited with {code}")
    return json.loads(out.decode().strip().splitlines()[-1])


def run_cli(argv, env, workdir, shim_summary=None):
    """One CLI process; return (seconds, exit code, stdout, stderr, max RSS KB)."""
    if shim_summary:
        cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), shim_summary, "--", *argv]
    else:
        cmd = [sys.executable, "-m", "eulercert.cli", *argv]
    err_path = os.path.join(workdir, "stderr.txt")
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        child = Child(cmd, env, stderr=err, timeout=60.0)
        out = child.read()
        code, rss = child.finish()
    seconds = time.perf_counter() - t0
    with open(err_path, "rb") as fh:
        return seconds, code, out, fh.read(), rss


def timed_python(code: str, env, reps: int) -> float:
    """Median wall time of ``python3 -c code`` (or the time it prints)."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                             timeout=60, check=True).stdout
        wall = time.perf_counter() - t0
        samples.append(float(out) if out.strip() else wall)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_summary(latencies, ops_per_pass: int, workload: str) -> dict:
    """Statistics of (name, seconds) pairs pooled over whole passes."""
    per_op: dict = {}
    for name, sec in latencies:
        per_op.setdefault(name, []).append(sec)
    medians = {name: statistics.median(v) for name, v in per_op.items()}
    p = wl.tail_percentile(workload, ops_per_pass)
    secs = [s for _, s in latencies]
    return {"p50": statistics.median(secs), "tail": percentile(secs, p), "tail_percentile": p,
            "slowest": max(medians.values()), "pass_s": sum(medians.values()),
            "per_op_median_s": medians}


# ---------------------------------------------------------------------------
# Running the workloads
# ---------------------------------------------------------------------------


def library_workload(args, env, workdir) -> dict:
    """``SETUP_REPS`` set-ups, the last of which goes on to measure."""
    setups = []
    meter = probe.Meter()
    for rep in range(SETUP_REPS):
        role = "measure" if rep == SETUP_REPS - 1 else "setup"
        meter.start()
        child, setup_s = spawn_worker(args.workload, args, role, env, workdir)
        if role == "setup":
            child.read()
            if child.finish()[0] != 0:
                raise BenchError("set-up worker failed")
        setups.append(meter.stop(setup_s))
    child.go()
    res = finish_worker(child)
    res["setups"] = setups
    return res


def cli_setup(args, env, workdir) -> tuple:
    """Spawn to end of warm-up (the spec-writing worker, then one untimed
    ``list``): (measured, corrected) seconds."""
    meter = probe.Meter()
    meter.start()
    t0 = time.perf_counter()
    child, _ = spawn_worker("cli_batch", args, "setup", env, workdir)
    child.read()
    if child.finish()[0] != 0:
        raise BenchError("cli set-up worker failed")
    if run_cli(["list"], env, workdir)[1] != 0:
        raise BenchError("cli warm-up op failed")
    return meter.stop(time.perf_counter() - t0)


def cli_pass(args, env, workdir, goldens, seen, traced: bool, meter=None):
    """One pass of the CLI operations; latencies are (name, seconds, corrected
    seconds), with a ``probe.Meter`` probing before and after each process."""
    latencies, failures, summaries, rss, grid_rows = [], [], [], 0, 0
    for i, op in enumerate(wl.cli_ops(args.seed, workdir)):
        summary_path = os.path.join(workdir, f"spans-{i}.json") if traced else None
        if meter:
            meter.start()
        sec, code, out, err, op_rss = run_cli(list(op.argv), env, workdir, summary_path)
        fixed = sec
        if meter:
            sec, fixed = meter.stop(sec)
        if op.out_file and code == 0:
            with open(op.out_file, "rb") as fh:
                out = fh.read()
            grid_rows = max(out.count(b"\n") - 2, 0)
        latencies.append((op.name, sec, fixed))
        rss = max(rss, op_rss)
        msg = wl.check_cli(op, code, out, err, args.seed, goldens, seen)
        if msg:
            failures.append(msg)
        if traced:
            with open(summary_path) as fh:
                summaries.append(json.load(fh))
    return latencies, failures, summaries, rss, grid_rows


def cli_workload(args, env, workdir) -> dict:
    setups = [cli_setup(args, env, workdir) for _ in range(SETUP_REPS)]
    goldens = wl.load_goldens()
    seen: dict = {}
    if args.trace:
        untraced_walls, traced_walls, pass_summaries, failures, attempted = [], [], [], [], 0
        start = time.perf_counter()
        while not traced_walls or time.perf_counter() - start < args.seconds:
            for traced, walls in ((False, untraced_walls), (True, traced_walls)):
                t0 = time.perf_counter()
                lat, fail, sums, _, rows = cli_pass(args, env, workdir, goldens, seen, traced)
                walls.append(time.perf_counter() - t0)
                attempted += len(lat)
                failures += fail
                if traced:
                    merged = spans.merge(sums)
                    merged["grid_rows"] = rows
                    pass_summaries.append(merged)
        return {"summaries": pass_summaries, "untraced_walls": untraced_walls,
                "traced_walls": traced_walls, "attempted": attempted, "failures": failures,
                "setups": setups}
    latencies, failures, rss, passes = [], [], 0, 0
    meter = probe.Meter()
    start = time.perf_counter()
    while passes < wl.MIN_PASSES["cli_batch"] or time.perf_counter() - start < args.seconds:
        lat, fail, _, op_rss, _ = cli_pass(args, env, workdir, goldens, seen, False, meter)
        latencies += lat
        failures += fail
        rss = max(rss, op_rss)
        passes += 1
    return {"latencies": latencies, "failures": failures, "passes": passes,
            "ops_per_pass": len(wl.cli_ops(args.seed, workdir)), "wall_s": time.perf_counter() - start,
            "max_rss_kb": rss, "setups": setups}


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def end_to_end(res: dict, workload: str) -> tuple:
    lat = latency_summary([(n, c) for n, _, c in res["latencies"]], res["ops_per_pass"], workload)
    raw = latency_summary([(n, s) for n, s, _ in res["latencies"]], res["ops_per_pass"], workload)
    attempted = len(res["latencies"])
    failed = len(res["failures"])
    metrics = {
        "setup_s": (statistics.median(c for _, c in res["setups"]), "s"),
        "ops_per_s": (len(lat["per_op_median_s"]) / lat["pass_s"], "1/s"),
        "op_p50_ms": (1e3 * lat["p50"], "ms"),
        "op_tail_ms": (1e3 * lat["tail"], "ms"),
        "slowest_op_ms": (1e3 * lat["slowest"], "ms"),
        "ok_ops_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (res["max_rss_kb"] / 1024.0, "MB"),
    }
    measured = {"setup_s": statistics.median(s for s, _ in res["setups"]),
                "ops_per_s": attempted / res["wall_s"], "op_p50_ms": 1e3 * raw["p50"],
                "op_tail_ms": 1e3 * raw["tail"], "slowest_op_ms": 1e3 * raw["slowest"]}
    detail = {"passes": res["passes"], "ops_per_pass": res["ops_per_pass"],
              "tail_percentile": lat["tail_percentile"], "setups_s": res["setups"],
              "per_op_median_ms": {k: 1e3 * v for k, v in lat["per_op_median_s"].items()},
              "measured": measured, "probe_ref_s": probe.PROBE_REF_S,
              "median_slowdown": statistics.median(s / c for _, s, c in res["latencies"]),
              "failed_ops_ratio": failed / attempted}
    return metrics, attempted, failed, detail, True


def per_layer(res: dict, env) -> tuple:
    passes = [spans.layer_metrics(s) for s in res["summaries"]]
    mismatched = [k for k in spans.EXACT_COUNTS if len({p[k] for p in passes}) > 1]
    metrics = {}
    for name, (unit, _) in spans.PER_LAYER.items():
        exact = name in spans.EXACT_COUNTS  # identical in every pass, or flagged below
        metrics[name] = (passes[0][name] if exact else statistics.median(p[name] for p in passes), unit)
    metrics["cli.grid_rows"] = (res["summaries"][0].get("grid_rows", 0), "count")
    metrics["cli.interpreter_s"] = (timed_python("pass", env, 5), "s")
    metrics["cli.import_s"] = (timed_python(
        "import time; t = time.perf_counter(); import eulercert.cli; print(time.perf_counter() - t)",
        env, 3), "s")
    overhead = statistics.median(res["traced_walls"]) - statistics.median(res["untraced_walls"])
    metrics["trace.overhead_s"] = (overhead, "s")
    merged = spans.merge(res["summaries"])
    detail = {"traced_passes": len(passes), "setups_s": res.get("setups"),
              "untraced_pass_s": res["untraced_walls"], "traced_pass_s": res["traced_walls"],
              "absent_wrap_points": merged["absent"],
              "metrics_without_spans": spans.absent_metrics(merged),
              "counts": {k: passes[0][k] for k in spans.EXACT_COUNTS},
              "count_mismatch": mismatched}
    attempted = res["attempted"]
    return metrics, attempted, len(res["failures"]), detail, not mismatched


def baseline_for(workload: str):
    try:
        with open(BASELINE_PATH) as fh:
            return json.load(fh).get("workloads", {}).get(workload)
    except FileNotFoundError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="eulercert benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "eulercert", "__init__.py")):
        print(f"error: no eulercert sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    env = child_env()
    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == "cli_batch":
            res = cli_workload(args, env, workdir)
        else:
            res = library_workload(args, env, workdir)
        if args.trace:
            metrics, attempted, failed, detail, consistent = per_layer(res, env)
        else:
            metrics, attempted, failed, detail, consistent = end_to_end(res, args.workload)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass

    detail.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "failures": res["failures"][:20],
                   "environment": environment(), "baseline": baseline_for(args.workload)})
    print("perfbench-detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself (not collected by the repository's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import eulercert as ec  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def _certify_op(pid, gold, seed=0, samples=64):
    return wl.certify_ops(ec, {pid: ec.preset(pid)}, seed, gold, samples=samples)


def test_wrong_golden_is_counted_as_a_failed_op():
    right = wl.sha256(wl.report_bytes(_certify_op("ex_5_1_const", {})[0].run(ec)))
    lat, failures = worker.run_pass(ec, _certify_op("ex_5_1_const", {"ex_5_1_const": right}))
    assert len(lat) == 1 and failures == []

    lat, failures = worker.run_pass(ec, _certify_op("ex_5_1_const", {"ex_5_1_const": "0" * 64}))
    assert len(lat) == 1 and len(failures) == 1 and "golden" in failures[0]

    res = {"latencies": lat, "failures": failures, "passes": 1, "ops_per_pass": 1, "wall_s": 1.0,
           "max_rss_kb": 1024, "setups": [(1.0, 1.0)]}
    metrics, attempted, failed, _, _ = run.end_to_end(res, "certify_presets")
    assert (attempted, failed) == (1, 1)
    assert metrics["ok_ops_ratio"][0] == 0.0


def test_wrong_cli_golden_is_a_failure():
    op = wl.CliOp("blowup", ("blowup", "ex_2_6"), 0)
    goldens = {"cli_batch": {"static": {"blowup": "0" * 64}}}
    assert "golden" in wl.check_cli(op, 0, b"{}\n", b"", 0, goldens, {})
    assert wl.check_cli(op, 1, b"{}\n", b"", 0, {}, {}).startswith("blowup: exit 1")


def test_recorded_goldens_match_this_code():
    goldens = wl.load_goldens()
    gold = goldens["certify_presets"]["0"]
    ops = wl.certify_ops(ec, {"ex_5_1_const": ec.preset("ex_5_1_const")}, 0, gold)
    lat, failures = worker.run_pass(ec, ops)
    assert failures == []


def _traced_counts(points=spans.WRAP_POINTS):
    tracer = spans.Tracer(points)
    tracer.install()
    try:
        sol = ec.catalog.preset("ex_2_6")
        ec.verification.certify(sol, ec.verification.default_region(sol, count=300, seed=5))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    return summary, spans.layer_metrics(summary)


def test_traced_counts_repeat_exactly():
    _, first = _traced_counts()
    _, second = _traced_counts()
    counts = {k: first[k] for k in spans.EXACT_COUNTS}
    assert counts == {k: second[k] for k in spans.EXACT_COUNTS}
    for k in ("fields.admissible_calls", "verification.pressure_points", "catalog.quad_evals",
              "expressions.scalar_calls", "catalog.velocity_points"):
        assert counts[k] > 0, k


def test_missing_wrap_point_is_reported_absent():
    original = ec.verification._fd_panel
    points = tuple(p for p in spans.WRAP_POINTS if p.attr != "_fd_panel")
    points += (spans.WrapPoint("verification.fd_panel", "verification", "_renamed_fd_panel", "all"),)
    summary, metrics = _traced_counts(points)
    assert "verification._renamed_fd_panel" in summary["absent"]
    assert "verification.fd_panel_s" in spans.absent_metrics(summary)
    assert metrics["verification.fd_panel_s"] == 0
    assert metrics["verification.sample_s"] > 0
    assert ec.verification._fd_panel is original
    assert not hasattr(ec.verification._sample_arrays, "perfbench_span")


def test_refuses_to_run_without_sources(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_batch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    with pytest.raises(ValueError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")


def test_meter_samples_during_an_operation_and_restores_the_handler():
    import signal
    import time

    import probe

    handler = signal.getsignal(signal.SIGALRM)
    with probe.Meter(ticks=True) as meter:
        meter.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        meter.disarm()
        seconds = time.perf_counter() - t0
        net, fixed = meter.stop(seconds)
    assert len(meter.inside) >= 2
    assert 0 < net < seconds and fixed > 0
    assert signal.getsignal(signal.SIGALRM) is handler

"""Workload definitions for the eulercert benchmark: seeded inputs, the
operations each workload times, and the checks applied to every output.

Everything here is a pure function of the benchmark seed, so the same seed
gives the same inputs on every machine.  Library workloads look up every
eulercert entry point through its module at call time (``verification.certify``,
not a captured reference), so the tracer's wrappers see each call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

# A pass is one run through a workload's operation list.  Latency statistics
# pool whole passes only, so every run sees the same mix of operations, and
# each run makes at least this many passes so the tail percentile is the same
# on every run and every commit (see tail_percentile).
MIN_PASSES = {"certify_presets": 4, "analysis_suite": 13, "cli_batch": 3}

CERTIFY_SAMPLES = 10_000
WARMUP_SAMPLES = 16
CLI_SAMPLES = 1_000
CLI_CERTIFY_PRESET = "ex_3_10"  # a wave preset: the CLI ops stay dominated by start-up
GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def report_bytes(report) -> bytes:
    """A certification report serialized exactly as ``eulercert certify`` prints it."""
    return (json.dumps(report.to_dict(), indent=2) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_goldens(path: str = GOLDENS_PATH) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def seed_range(text: str) -> list:
    """Seeds from an inclusive range such as ``0-29`` (or a single seed)."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def tail_percentile(workload: str, ops_per_pass: int) -> int:
    """Highest whole percentile with at least ten operations beyond it in the
    smallest run the workload makes (MIN_PASSES whole passes).

    Fixing it per workload keeps the reported percentile the same when a
    faster commit fits more passes into the run.
    """
    n = MIN_PASSES[workload] * ops_per_pass
    return int(100 * (n - 10) // n)


@dataclass(frozen=True)
class Op:
    """One timed call.  ``run`` takes the imported eulercert package and
    returns the result; ``check`` returns None or a failure message."""

    name: str
    run: Callable
    check: Callable


# ---------------------------------------------------------------------------
# certify_presets
# ---------------------------------------------------------------------------


def certify_ops(ec, sols: dict, seed: int, gold: dict, samples: int = CERTIFY_SAMPLES,
                seen: Optional[dict] = None) -> list:
    """``certify(preset, default_region(seed=seed))`` for every preset.

    A report must pass, match its digest in ``gold`` (preset id -> sha256,
    the goldens recorded for this seed) when there is one, and repeat byte
    for byte across passes of the same run.
    """
    seen = {} if seen is None else seen
    ops = []
    for pid, sol in sols.items():
        def run(ec, sol=sol):
            region = ec.verification.default_region(sol, count=samples, seed=seed)
            return ec.verification.certify(sol, region)

        def check(report, pid=pid):
            if report.verdict != "pass":
                return f"{pid}: verdict {report.verdict}"
            digest = sha256(report_bytes(report))
            if pid in gold and gold[pid] != digest:
                return f"{pid}: report digest {digest[:12]} != golden {gold[pid][:12]}"
            if seen.setdefault(pid, digest) != digest:
                return f"{pid}: report differs from an earlier pass with the same seed"
            return None

        ops.append(Op(f"certify:{pid}", run, check))
    return ops


# ---------------------------------------------------------------------------
# analysis_suite
# ---------------------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def polar_l2_oracle(t: float, delta: float = 1.0, R: float = 2.0) -> float:
    """Squared L2 norm of ex_3_4_smooth over the annulus delta < r < R.

    u = (w, w - 1) with w = 1/(1 + xi^2)^2 and xi = x1 - x2 - t.  Gauss-Legendre
    in r and the trapezoid rule in the periodic angle, independent of the
    quadrature the library uses.
    """
    import numpy as np

    xg, wg = np.polynomial.legendre.leggauss(120)
    r = 0.5 * (R - delta) * xg + 0.5 * (R + delta)
    wr = 0.5 * (R - delta) * wg
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    rr, th = np.meshgrid(r, theta, indexing="ij")
    xi = rr * np.cos(th) - rr * np.sin(th) - t
    w = 1.0 / (1.0 + xi * xi) ** 2
    speed2 = w * w + (w - 1.0) ** 2
    ring = speed2.sum(axis=1) * (2.0 * math.pi / len(theta))
    return float(np.sum(wr * r * ring))


def analysis_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "t_radial": round(rng.uniform(0.0, 0.5), 6),
        "t_tail": round(rng.uniform(0.0, 0.5), 6),
        "t_polar": round(rng.uniform(0.0, 1.0), 6),
        "t_energy": round(rng.uniform(0.0, 1.0), 6),
        "probe_seed": seed,
    }


ANALYSIS_PRESETS = ("ex_2_5", "ex_2_6", "ex_3_2", "ex_3_4_smooth", "ex_5_1_blowup", "ex_6_1")


def analysis_ops(ec, sols: dict, seed: int) -> list:
    """Norms, energy, blow-up fits and ansatz probes: scalar callbacks through quad.

    Thirteen operations, so the median falls on the energy call inside the
    band of 20-35 ms operations rather than on a gap between two costs.
    """
    inp = analysis_inputs(seed)
    an = ec.analysis
    probe_region = ec.verification.SampleRegion(
        box=((1.0, 2.0), (1.0, 2.0)), time=(0.0, 0.5), count=2000, seed=inp["probe_seed"])

    def expect(cond, msg):
        return None if cond else msg

    t1, t2, t3, t4 = inp["t_radial"], inp["t_tail"], inp["t_polar"], inp["t_energy"]
    polar_ref = polar_l2_oracle(t3)
    return [
        Op("norm:radial_finite_R",
           lambda ec: an.annulus_lq_norm(sols["ex_2_5"], an.NormSpec(q=2.0, delta=1.0, R=math.e, t=t1)),
           lambda r: expect(_rel(r.value_pow_q, 2.0 * math.pi * (t1 - 1.0) ** 2) <= 1e-9,
                            f"ex_2_5 annulus L2^2 {r.value_pow_q!r} != 2 pi (t-1)^2")),
        Op("norm:radial_infinite_R",
           lambda ec: an.annulus_lq_norm(sols["ex_2_5"], an.NormSpec(q=3.0, delta=1.0, R=math.inf, t=t2)),
           lambda r: expect(_rel(r.value_pow_q, 2.0 * math.pi * abs(t2 - 1.0) ** 3) <= 1e-9
                            and "exact tail" in r.provenance,
                            f"ex_2_5 exterior L3^3 {r.value_pow_q!r} != 2 pi |t-1|^3 with exact tail")),
        Op("norm:boosted_infinite_R",
           lambda ec: an.annulus_lq_norm(sols["ex_3_2"], an.NormSpec(
               q=2.0, delta=1.0, R=math.inf, t=t2, subtract=(1.0, 1.0))),
           lambda r: expect(abs(r.value_pow_q - math.pi / 12) <= 1e-9 * math.pi / 12 + r.tail_bound,
                            f"ex_3_2 exterior L2^2 of u - C {r.value_pow_q!r} != pi/12")),
        Op("norm:polar",
           lambda ec: an.annulus_lq_norm(sols["ex_3_4_smooth"], an.NormSpec(q=2.0, delta=1.0, R=2.0, t=t3)),
           lambda r: expect(_rel(r.value_pow_q, polar_ref) <= 1e-7,
                            f"ex_3_4_smooth polar L2^2 {r.value_pow_q!r} != oracle {polar_ref!r}")),
        Op("energy:ex_3_2",
           lambda ec: an.l2_energy_difference(sols["ex_3_2"], (1.0, 1.0), t=t4),
           lambda r: expect(r.value is not None and _rel(r.value, math.pi / 6) <= 1e-9,
                            f"ex_3_2 energy {r.value!r} != pi/6")),
        Op("fit:ex_2_6_sup",
           lambda ec: an.blowup_exponent_fit(sols["ex_2_6"], an.RateFit(kind="sup")),
           lambda r: expect(abs(r.exponent + 1.0) <= 0.01, f"ex_2_6 sup exponent {r.exponent!r}")),
        Op("fit:ex_2_6_lq",
           lambda ec: an.blowup_exponent_fit(sols["ex_2_6"], an.RateFit(kind="lq")),
           lambda r: expect(abs(r.exponent + 1.0) <= 0.01, f"ex_2_6 lq exponent {r.exponent!r}")),
        Op("fit:ex_5_1_blowup_sup",
           lambda ec: an.blowup_exponent_fit(sols["ex_5_1_blowup"], an.RateFit(kind="sup")),
           lambda r: expect(abs(r.exponent + 1.0) <= 1e-9, f"ex_5_1_blowup exponent {r.exponent!r}")),
        Op("fit:ex_6_1_sup",
           lambda ec: an.blowup_exponent_fit(sols["ex_6_1"], an.RateFit(kind="sup")),
           lambda r: expect(abs(r.exponent + 0.5) <= 1e-9, f"ex_6_1 exponent {r.exponent!r}")),
        Op("probe:affine",
           lambda ec: an.affine_probe("x", "x", 0.0, 1.0, grid=probe_region),
           lambda r: expect(r.verdict.startswith("nonsolution") and r.count == 2000,
                            f"affine probe verdict {r.verdict!r}")),
        Op("probe:affine_constant",
           lambda ec: an.affine_probe("2", "3", 0.0, 1.0, grid=probe_region),
           lambda r: expect(r.verdict.startswith("solution") and r.sup_residual == 0.0,
                            f"constant affine probe verdict {r.verdict!r}")),
        Op("probe:twin_conforming",
           lambda ec: an.twin_wave_form_check("1/(1+x^2)", "1/(1+x^2)", 0.0, 1.0, 1.0, grid=probe_region),
           lambda r: expect(r.verdict.startswith("conforming"), f"twin-wave verdict {r.verdict!r}")),
        Op("probe:twin_nonconforming",
           lambda ec: an.twin_wave_form_check("1/(1+x^2)", "x^2", 0.0, 1.0, 1.0, grid=probe_region),
           lambda r: expect(r.verdict.startswith("nonconforming"), f"twin-wave verdict {r.verdict!r}")),
    ]


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    name: str
    argv: tuple
    exit_code: int
    out_file: Optional[str] = None  # digest this file instead of stdout
    seeded: bool = False  # golden digests exist per seed, not once


def cli_ops(seed: int, workdir: str) -> list:
    s = str(seed)
    n = str(CLI_SAMPLES)
    grid = os.path.join(workdir, "grid.csv")
    return [
        CliOp("list", ("list",), 0),
        CliOp("certify_preset", ("certify", CLI_CERTIFY_PRESET, "--samples", n, "--seed", s), 0,
              seeded=True),
        CliOp("certify_spec", ("certify", os.path.join(workdir, "spec.json"), "--samples", n,
                               "--seed", s), 0, seeded=True),
        CliOp("certify_wrong_sign", ("certify", "ex_6_1", "--pressure-sign", "-1", "--samples", n,
                                     "--seed", s), 1, seeded=True),
        CliOp("malformed_spec", ("certify", os.path.join(workdir, "malformed.json")), 2),
        CliOp("grid_dump", ("grid-dump", "ex_3_2", "--box", "-3", "3", "-3", "3", "--nx", "64",
                            "--nt", "3", "--out", grid), 0, out_file=grid),
        CliOp("blowup", ("blowup", "ex_2_6"), 0),
        CliOp("norm", ("norm", "ex_3_2", "--subtract-boost"), 0),
        CliOp("probe", ("probe", "--mode", "affine", "--v1", "x", "--v2", "x", "--seed", s), 0,
              seeded=True),
    ]


GRID_ROWS = 64 * 64 * 3


def write_cli_inputs(ec, workdir: str):
    """The exported spec file and a spec the schema must reject."""
    with open(os.path.join(workdir, "spec.json"), "w") as fh:
        json.dump(ec.cli.solution_spec_for_preset(CLI_CERTIFY_PRESET), fh, indent=2)
    with open(os.path.join(workdir, "malformed.json"), "w") as fh:
        json.dump({"format_version": 1, "family": "ij_vortex", "params": {"c": "1"},
                   "unknown_key": True}, fh)


def check_cli(op: CliOp, code: int, out: bytes, err: bytes, seed: int, goldens: dict,
              seen: dict) -> Optional[str]:
    """Exit code, golden digest of stdout (or the written file), and repeatability."""
    if code != op.exit_code:
        return f"{op.name}: exit {code}, expected {op.exit_code}: {err[-200:]!r}"
    if op.exit_code == 2:
        if out or not err.startswith(b"error: "):
            return f"{op.name}: usage error must print only 'error: ...' on stderr"
        return None
    if not out:
        return f"{op.name}: empty output"
    digest = sha256(out)
    gold = goldens.get("cli_batch", {})
    if op.seeded:
        ref = gold.get("seeded", {}).get(str(seed), {}).get(op.name)
    else:
        ref = gold.get("static", {}).get(op.name)
    if ref is not None and ref != digest:
        return f"{op.name}: output digest {digest[:12]} != golden {ref[:12]}"
    if seen.setdefault(op.name, digest) != digest:
        return f"{op.name}: output differs from an earlier pass"
    if op.name == "certify_spec" and seen.get("certify_preset", digest) != digest:
        return "certify_spec: report differs from certifying the preset it was exported from"
    rows = out.count(b"\n") - 2
    if op.name == "grid_dump" and rows != GRID_ROWS:
        return f"grid_dump: {rows} rows, expected {GRID_ROWS}"
    return None

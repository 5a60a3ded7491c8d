"""Command-line front end: certification runs, norm and blow-up analyses,
ansatz probes, and tabular field dumps.

All randomized commands take an explicit seed and produce byte-identical
output for identical invocations.  Structured results are single JSON
documents (stdout or --out); grid dumps are CSV with a fixed header and
floats rendered with 17 significant digits, which round-trips 64-bit
values exactly.

Exit codes: 0 all checks passed, 1 checks ran and failed, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from . import catalog
from .analysis import (
    NormSpec,
    RateFit,
    affine_probe,
    annulus_lq_norm,
    blowup_exponent_fit,
    l2_energy_difference,
    twin_wave_form_check,
)
from .catalog import PRESET_SUMMARIES, TransformSpec, preset, preset_ids
from .expressions import ExpressionError
from .fields import FieldError, SolutionPair
from .verification import RegionError, SampleRegion, Tolerances, certify, default_region

__all__ = ["main", "build_solution", "load_spec_file", "solution_spec_for_preset", "SPEC_SCHEMA"]


# ---------------------------------------------------------------------------
# Solution-spec files
# ---------------------------------------------------------------------------

_TRANSFORM_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["boost", "rotation", "rescale"]},
        "velocity": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 3},
        "angle": {"type": "number"},
        "lam": {"type": "number", "exclusiveMinimum": 0},
        "tau": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

SPEC_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "eulercert solution spec",
    "type": "object",
    "properties": {
        "format_version": {"const": 1},
        "name": {"type": "string"},
        "family": {
            "enum": ["preset", "ij_vortex", "twin_wave", "linear3d", "ns_halfspace_blowup"]
        },
        "preset": {"enum": sorted(PRESET_SUMMARIES)},
        "params": {
            "type": "object",
            "properties": {
                "c": {"type": ["string", "number"]},
                "h": {"type": "string"},
                "v": {"type": "string"},
                "f": {"type": "string"},
                "c1": {"type": "number"},
                "c2": {"type": "number"},
                "c3": {"type": "number"},
                "C": {"type": "array", "minItems": 3, "maxItems": 3,
                      "items": {"type": "array", "items": {"type": "number"},
                                "minItems": 3, "maxItems": 3}},
                "sigma": {"type": "number"},
                "T": {"type": "number"},
                "x0": {"type": "array", "items": {"type": "number"}},
                "pressure_sign": {"enum": [1, -1]},
                "values": {"type": "object", "additionalProperties": {"type": "number"}},
                "singular_xi": {"type": "array", "items": {"type": "number"}},
                "blowup_time": {"type": ["number", "null"]},
                "exclusion_radius": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "transforms": {"type": "array", "items": _TRANSFORM_SCHEMA},
        "overrides": {
            "type": "object",
            "properties": {
                "box": {"type": "array", "items": {"type": "array", "items": {"type": "number"},
                                                   "minItems": 2, "maxItems": 2}},
                "time": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
                "exclusion_radius": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "required": ["family"],
    "additionalProperties": False,
}


class SpecError(ValueError):
    pass


def validate_spec(doc: dict):
    if jsonschema is None:  # pragma: no cover
        raise SpecError("jsonschema is required to validate solution-spec files")
    try:
        jsonschema.validate(doc, SPEC_SCHEMA)
    except jsonschema.ValidationError as e:
        path = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise SpecError(f"spec file invalid at {path}: {e.message}") from None
    if doc["family"] == "preset" and "preset" not in doc:
        raise SpecError("family 'preset' requires a 'preset' key")


def build_solution(doc: dict) -> SolutionPair:
    """Construct a SolutionPair from a validated spec document."""
    validate_spec(doc)
    family = doc["family"]
    params = dict(doc.get("params", {}))
    values = dict(params.pop("values", {}))
    name = doc.get("name")

    try:
        if family == "preset":
            sol = preset(doc["preset"], overrides=params or None)
        elif family == "ij_vortex":
            sol = catalog.ij_vortex(
                params["c"], params["h"], params=values,
                blowup_time=params.get("blowup_time"),
                exclusion_radius=params.get("exclusion_radius", 1e-3),
                name=name or "ij_vortex",
            )
        elif family == "twin_wave":
            sol = catalog.twin_wave(
                params["v"], params.get("c1", 0.0), params.get("c2", 0.0),
                params.get("c3", 1.0), params=values,
                singular_offsets=tuple(params.get("singular_xi", ())),
                exclusion_radius=params.get("exclusion_radius", 1e-3),
                name=name or "twin_wave",
            )
        elif family == "linear3d":
            sol = catalog.linear3d(
                params["f"], np.asarray(params["C"], dtype=float),
                sigma=params.get("sigma", 0.0), params=values,
                blowup_time=params.get("blowup_time"),
                name=name or "linear3d",
            )
        elif family == "ns_halfspace_blowup":
            sol = catalog.ns_halfspace_blowup(
                T=params.get("T", 1.0), sigma=params.get("sigma", 1.0),
                c=params.get("c", 0.0), x0=tuple(params.get("x0", (0.0, 0.0, 0.0))),
                pressure_sign=int(params.get("pressure_sign", 1)),
                name=name or "ns_halfspace_blowup",
            )
            if "exclusion_radius" in params:
                sol = replace(sol, exclusion_radius=float(params["exclusion_radius"]))
        else:  # pragma: no cover - schema forbids
            raise SpecError(f"unknown family {family!r}")
    except KeyError as e:
        raise SpecError(f"family {family!r} is missing required parameter {e.args[0]!r}") from None

    for tr in doc.get("transforms", []):
        sol = catalog.apply_transform(sol, TransformSpec.from_dict(tr))
    if name:
        md = dict(sol.metadata)
        md["name"] = name
        sol = replace(sol, metadata=md)

    ov = doc.get("overrides", {})
    if "exclusion_radius" in ov:
        sol = replace(sol, exclusion_radius=float(ov["exclusion_radius"]))
    if "box" in ov or "time" in ov:
        md = dict(sol.metadata)
        if "box" in ov:
            md["default_box"] = tuple(tuple(map(float, b)) for b in ov["box"])
        if "time" in ov:
            md["default_time"] = tuple(map(float, ov["time"]))
        sol = replace(sol, metadata=md)
    return sol


def load_spec_file(path: str) -> SolutionPair:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SpecError(f"cannot read spec file: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecError(f"spec file is not valid JSON: {e}") from None
    return build_solution(doc)


def solution_spec_for_preset(preset_id: str) -> dict:
    """Full-fidelity spec document reconstructing a preset.

    Re-importing the document yields a solution whose certification report
    is identical to the preset's.
    """
    sol = preset(preset_id)
    family = sol.metadata["family"]
    raw = sol.metadata.get("params", {})
    chain = sol.metadata.get("transform_chain", [])
    params: dict = {}
    if family == "ij_vortex":
        params = {"c": raw["c"], "h": raw["h"], "values": dict(raw.get("values", {})),
                  "exclusion_radius": sol.exclusion_radius}
        T = sol.singular.blowup_time()
        if T is not None:
            params["blowup_time"] = T
    elif family == "twin_wave":
        params = {"v": raw["v"], "c1": raw["c1"], "c2": raw["c2"], "c3": raw["c3"],
                  "values": dict(raw.get("values", {})),
                  "exclusion_radius": sol.exclusion_radius}
        singular_xi = []
        for p in sol.singular.primitives:
            if hasattr(p, "b0"):
                # b0 is stored against the unit normal; rescale back to xi units
                singular_xi.append(p.b0 * math.hypot(raw["c3"], 1.0))
        if singular_xi:
            params["singular_xi"] = singular_xi
    elif family == "linear3d":
        params = {"f": raw["f"], "C": raw["C"], "sigma": raw["sigma"],
                  "values": dict(raw.get("values", {}))}
        T = sol.singular.blowup_time()
        if T is not None:
            params["blowup_time"] = T
    elif family == "ns_halfspace_blowup":
        params = {"T": raw["T"], "sigma": raw["sigma"], "c": raw["c"],
                  "x0": raw["x0"], "pressure_sign": raw["pressure_sign"],
                  "exclusion_radius": sol.exclusion_radius}
    if "values" in params and not params["values"]:
        del params["values"]
    return {
        "format_version": 1,
        "name": preset_id,
        "family": family,
        "params": params,
        "transforms": list(chain),
    }


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _emit(doc, out_path):
    text = json.dumps(_finite_or_null(doc), indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _resolve(spec_arg: str) -> SolutionPair:
    if spec_arg in PRESET_SUMMARIES:
        return preset(spec_arg)
    return load_spec_file(spec_arg)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_list(args) -> int:
    rows = []
    for pid in preset_ids():
        sol = preset(pid)
        family, construction = PRESET_SUMMARIES[pid]
        rows.append({
            "id": pid,
            "family": family,
            "construction": construction,
            "singular_set": sol.singular.describe(),
            "summary": sol.metadata.get("summary", ""),
        })
    if args.format == "json":
        _emit({"format_version": 1, "presets": rows}, args.out)
        return 0
    w_id = max(len(r["id"]) for r in rows)
    w_fam = max(len(r["family"]) for r in rows)
    print(f"{'id':{w_id}}  {'family':{w_fam}}  construction / singular set")
    print("-" * (w_id + w_fam + 40))
    for r in rows:
        print(f"{r['id']:{w_id}}  {r['family']:{w_fam}}  {r['construction']}")
        print(f"{'':{w_id}}  {'':{w_fam}}  singular: {r['singular_set']}")
    return 0


def cmd_certify(args) -> int:
    overrides = {}
    if args.pressure_sign is not None:
        overrides["pressure_sign"] = args.pressure_sign
    if args.spec in PRESET_SUMMARIES:
        sol = preset(args.spec, overrides=overrides or None)
    else:
        if overrides:
            raise SpecError("--pressure-sign applies to preset ids only")
        sol = load_spec_file(args.spec)
    region = default_region(sol, count=args.samples, seed=args.seed, until=args.until)
    if args.exclusion is not None:
        region = SampleRegion(box=region.box, time=region.time, count=region.count,
                              seed=region.seed, exclusion_radius=args.exclusion)
    tol = Tolerances(residual=args.tol_residual, divergence=args.tol_div,
                     fd=args.tol_fd, vorticity=args.tol_vorticity)
    report = certify(sol, region, tol)
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 1


def cmd_norm(args) -> int:
    sol = _resolve(args.spec)
    subtract = None
    if args.subtract_boost:
        subtract = tuple(sol.metadata.get("boost_total", (0.0,) * sol.dimension))
    if args.delta is None and args.R is None:
        if args.q != 2:
            raise SpecError("whole-plane energy is the q = 2 norm; pass --delta/--R for other q")
        res = l2_energy_difference(sol, subtract or (0.0,) * sol.dimension, t=args.t)
        doc = {
            "format_version": 1,
            "solution": sol.name,
            "quantity": "squared L2 norm over the plane"
                        + (" of u - C" if subtract else " of u"),
            "t": args.t,
            "value": res.value,
            "tail_bound": None if math.isinf(res.tail_bound) else res.tail_bound,
            "diagnosis": res.diagnosis,
        }
        _emit(doc, args.out)
        return 0 if res.value is not None else 1
    if args.delta is None or args.delta <= 0:
        raise SpecError("annulus norms require --delta > 0")
    R = math.inf if args.R is None else args.R
    res = annulus_lq_norm(sol, NormSpec(q=args.q, delta=args.delta, R=R,
                                        t=args.t, subtract=subtract))
    doc = {
        "format_version": 1,
        "solution": sol.name,
        "q": args.q,
        "delta": args.delta,
        "R": None if math.isinf(R) else R,
        "t": args.t,
        "value": res.value,
        "value_pow_q": res.value_pow_q,
        "tail_bound": res.tail_bound,
        "provenance": res.provenance,
    }
    _emit(doc, args.out)
    return 0


def cmd_blowup(args) -> int:
    sol = _resolve(args.spec)
    if sol.singular.blowup_time() is None:
        _emit({"format_version": 1, "solution": sol.name,
               "error": "no blow-up time in singular set"}, args.out)
        return 1
    fit = blowup_exponent_fit(sol, RateFit(kind=args.norm, K=args.K, q=args.q))
    doc = {
        "format_version": 1,
        "solution": sol.name,
        "norm": args.norm,
        "K": args.K,
        "blowup_time": fit.blowup_time,
        "alpha": fit.exponent,
        "regression_residual_rms": fit.residual_rms,
        "samples": [[t, n] for t, n in fit.samples],
    }
    _emit(doc, args.out)
    return 0


def cmd_probe(args) -> int:
    region = SampleRegion(
        box=((args.box[0], args.box[1]), (args.box[2], args.box[3])),
        time=(0.0, args.tmax), count=args.samples, seed=args.seed,
    )
    if args.mode == "affine":
        if args.v1 is None or args.v2 is None:
            raise SpecError("affine mode requires --v1 and --v2")
        result = affine_probe(args.v1, args.v2, args.c1, args.c2, grid=region)
        doc = {"format_version": 1, "mode": "affine",
               "profiles": {"v1": args.v1, "v2": args.v2, "c1": args.c1, "c2": args.c2}}
    else:
        if args.u1 is None or args.u2 is None:
            raise SpecError("twinwave mode requires --u1 and --u2")
        result = twin_wave_form_check(args.u1, args.u2, args.c1, args.c2, args.c3,
                                      grid=region)
        doc = {"format_version": 1, "mode": "twinwave",
               "profiles": {"u1": args.u1, "u2": args.u2,
                            "c1": args.c1, "c2": args.c2, "c3": args.c3}}
    doc.update({
        "samples": result.count,
        "seed": args.seed,
        "sup_residual": result.sup_residual,
        "verdict": result.verdict,
    })
    _emit(doc, args.out)
    return 0


def cmd_grid_dump(args) -> int:
    sol = _resolve(args.spec)
    dim = sol.dimension
    if args.box is not None:
        if len(args.box) != 2 * dim:
            raise SpecError(f"--box needs {2 * dim} numbers for a {dim}D solution")
        box = [(args.box[2 * i], args.box[2 * i + 1]) for i in range(dim)]
    else:
        box = [tuple(b) for b in sol.metadata.get("default_box", ((-3.0, 3.0),) * dim)]
    T = sol.singular.blowup_time()
    tmax = args.until * T if T is not None else sol.metadata.get("default_time", (0.0, 1.0))[1]
    axes = [np.linspace(lo, hi, args.nx) for lo, hi in box]
    ts = np.linspace(0.0, tmax, args.nt)

    from .verification import _residual_batch, _divergence_batch

    header_coords = ["x1", "x2", "x3"][:dim]
    lines = ["# format_version=1",
             ",".join(header_coords + ["t"] + [f"u{i+1}" for i in range(dim)]
                      + ["residual", "divergence"])]
    # row order: t outermost, then the last spatial axis, x1 fastest
    mesh = np.meshgrid(*axes, indexing="ij")
    Xflat = np.stack([m.reshape(-1, order="F") for m in mesh], axis=1)
    for t in ts:
        Tflat = np.full(len(Xflat), t)
        ok = sol.singular.admissible(Xflat, Tflat, sol.exclusion_radius)
        u = np.full((len(Xflat), dim), np.nan)
        res = np.full(len(Xflat), np.nan)
        div = np.full(len(Xflat), np.nan)
        if ok.any():
            Xa, Ta = Xflat[ok], Tflat[ok]
            u[ok] = sol.velocity(Xa, Ta)
            res[ok] = np.linalg.norm(_residual_batch(sol, Xa, Ta), axis=1)
            div[ok] = _divergence_batch(sol, Xa, Ta)
        bad = ~ok
        if bad.any():
            for i in np.flatnonzero(bad):
                try:
                    val = sol.velocity(Xflat[i:i + 1], Tflat[i:i + 1])[0]
                    if np.all(np.isfinite(val)):
                        u[i] = val
                except (FieldError, ExpressionError, FloatingPointError, ZeroDivisionError):
                    pass
        for i in range(len(Xflat)):
            cells = [_g17(c) for c in Xflat[i]] + [_g17(t)]
            cells += [(_g17(v) if math.isfinite(v) else "NA") for v in u[i]]
            cells.append(_g17(res[i]) if math.isfinite(res[i]) else "NA")
            cells.append(_g17(div[i]) if math.isfinite(div[i]) else "NA")
            lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eulercert",
        description="certify and analyze explicit incompressible-flow solutions",
        epilog="Profile expressions use +, -, *, /, ^ and exp, ln, sqrt, sin, cos, "
               "atan over one free variable. Absolute values are not in the grammar "
               "(not twice differentiable); write squared moduli as (...)^2.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list the built-in presets")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("certify", help="run the residual certification")
    p.add_argument("spec", help="preset id or solution-spec JSON file")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-residual", type=float, default=1e-8)
    p.add_argument("--tol-div", type=float, default=1e-10)
    p.add_argument("--tol-fd", type=float, default=1e-5)
    p.add_argument("--tol-vorticity", type=float, default=1e-8)
    p.add_argument("--until", type=float, default=0.9,
                   help="fraction of the blow-up time to certify up to")
    p.add_argument("--exclusion", type=float, default=None,
                   help="override the exclusion radius around singular primitives")
    p.add_argument("--pressure-sign", type=int, choices=[1, -1], default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("norm", help="annulus L^q norms and planar energy")
    p.add_argument("spec")
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--subtract-boost", action="store_true",
                   help="measure u minus the accumulated boost velocity")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("blowup", help="fit the blow-up exponent")
    p.add_argument("spec")
    p.add_argument("--norm", choices=["sup", "lq"], default="sup")
    p.add_argument("--K", type=int, default=48)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_blowup)

    p = sub.add_parser("probe", help="test affine / traveling-wave ansatz fields")
    p.add_argument("--mode", choices=["affine", "twinwave"], required=True)
    p.add_argument("--v1")
    p.add_argument("--v2")
    p.add_argument("--u1")
    p.add_argument("--u2")
    p.add_argument("--c1", type=float, default=0.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--c3", type=float, default=1.0)
    p.add_argument("--box", type=float, nargs=4, default=[1.0, 2.0, 1.0, 2.0],
                   metavar=("X1LO", "X1HI", "X2LO", "X2HI"))
    p.add_argument("--tmax", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("grid-dump", help="CSV dump of the field on a regular grid")
    p.add_argument("spec")
    p.add_argument("--box", type=float, nargs="+", default=None)
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--nt", type=int, default=3)
    p.add_argument("--until", type=float, default=0.9)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_grid_dump)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, ExpressionError, FieldError, RegionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

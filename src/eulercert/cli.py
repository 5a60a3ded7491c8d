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
import inspect
import json
import math
import numbers
import os
import sys
from dataclasses import replace

import numpy as np

from . import catalog
from .catalog import FAMILIES, PRESET_SUMMARIES, TransformSpec, preset, preset_ids
from .expressions import ExpressionError
from .fields import FieldError, SolutionPair, row_norm

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
        "family": {"enum": ["preset", *FAMILIES]},
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
                # a 3x3 strain matrix (linear3d) or the boost of ex_3_2
                "C": {"anyOf": [{"type": "array", "minItems": 3, "maxItems": 3,
                                 "items": {"type": "array", "items": {"type": "number"},
                                           "minItems": 3, "maxItems": 3}},
                                {"type": "array", "items": {"type": "number"},
                                 "minItems": 2, "maxItems": 2}]},
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


# SPEC_SCHEMA is checked by the walker below, not by jsonschema (~50 ms of
# start-up), which the tests hold it to: it reads the keywords SPEC_SCHEMA uses
# and ignores $schema and title.  JSON types: a bool is not a number, and True
# is not 1 in enum and const.
_JSON_TYPES = {"object": dict, "array": list, "string": str, "number": numbers.Number,
               "null": type(None)}


def _is_type(x, name: str) -> bool:
    return isinstance(x, _JSON_TYPES[name]) and not isinstance(x, bool)


def _schema_errors(x, schema: dict, path: tuple, out: list) -> list:
    """``out`` with the errors of instance ``x`` under ``schema`` appended in
    jsonschema's order (keyword by keyword, in the schema's order), each as
    (path, keyword, message, whether x is of the schema's type, sub-errors)."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    fits = any(_is_type(x, t) for t in types)
    for kw, v in schema.items():
        messages, context = [], []
        if kw == "type" and not fits:
            messages = [f"{x!r} is not of type {', '.join(map(repr, types))}"]
        elif kw in ("enum", "const") and not any(
                x == e and isinstance(x, bool) == isinstance(e, bool)
                for e in (v if kw == "enum" else [v])):
            messages = [f"{x!r} is not one of {v!r}" if kw == "enum" else f"{v!r} was expected"]
        elif kw == "properties" and isinstance(x, dict):
            for k, sub in v.items():
                if k in x:
                    _schema_errors(x[k], sub, path + (k,), out)
        elif kw == "required" and isinstance(x, dict):
            messages = [f"{k!r} is a required property" for k in v if k not in x]
        elif kw == "additionalProperties" and isinstance(x, dict):
            extras = [k for k in x if k not in schema.get("properties", {})]
            if isinstance(v, dict):
                for k in extras:
                    _schema_errors(x[k], v, path + (k,), out)
            elif not v and extras:
                names = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                messages = [f"Additional properties are not allowed ({names} {verb} unexpected)"]
        elif kw == "items" and isinstance(x, list):
            for i, item in enumerate(x):
                _schema_errors(item, v, path + (i,), out)
        elif kw == "minItems" and isinstance(x, list) and len(x) < v:
            messages = [f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}"]
        elif kw == "maxItems" and isinstance(x, list) and len(x) > v:
            messages = [f"{x!r} {'is expected to be empty' if v == 0 else 'is too long'}"]
        elif kw == "exclusiveMinimum" and _is_type(x, "number") and x <= v:
            messages = [f"{x!r} is less than or equal to the minimum of {v!r}"]
        elif kw == "anyOf":
            # an error only when every subschema fails, with the context of
            # jsonschema's loop, which stops at the first subschema x satisfies
            found = [_schema_errors(x, sub, path, []) for sub in v]
            if all(found):
                context = [e for errors in found for e in errors]
                messages = [f"{x!r} is not valid under any of the given schemas"]
        out += [(path, kw, m, fits, context) for m in messages]
    return out


def _relevance(error):
    # jsonschema.exceptions.relevance, less its constant "strong keyword" term
    path, kw, _, fits, _ = error
    return -len(path), path, kw != "anyOf", not fits


def _best_error(x, schema: dict):
    """The path ("a/0/b" or "<root>") and message of the error that
    ``jsonschema.exceptions.best_match`` picks, or None if ``x`` is valid:
    the most relevant error, then down anyOf sub-errors while the top two differ."""
    best = max(_schema_errors(x, schema, (), []), key=_relevance, default=None)
    while best is not None and best[4]:
        smallest = sorted(best[4], key=_relevance)[:2]
        if len(smallest) == 2 and _relevance(smallest[0]) == _relevance(smallest[1]):
            break
        best = smallest[0]
    return None if best is None else ("/".join(map(str, best[0])) or "<root>", best[2])


def validate_spec(doc: dict):
    """Raise SpecError with the path and message of the error that
    ``jsonschema.validate(doc, SPEC_SCHEMA)`` raises, or for a preset
    document without its 'preset' key."""
    error = _best_error(doc, SPEC_SCHEMA)
    if error is not None:
        raise SpecError("spec file invalid at %s: %s" % error)
    if doc["family"] == "preset" and "preset" not in doc:
        raise SpecError("family 'preset' requires a 'preset' key")


# constructor keyword -> spec key, where the two differ
_SPEC_KEYS = {"params": "values", "singular_offsets": "singular_xi"}


def _construct(family: str, params: dict) -> SolutionPair:
    """Call the constructor of ``family`` with the spec ``params``, which
    must be exactly keys it takes and include every key it requires."""
    # looked up on the module at call time, so that a wrapper set there applies
    ctor = getattr(catalog, family)
    keywords = {_SPEC_KEYS.get(k, k): p for k, p in inspect.signature(ctor).parameters.items()}
    for key in params:
        if key not in keywords:
            raise SpecError(f"family {family!r} does not take parameter {key!r}")
    for key, p in keywords.items():
        if p.default is p.empty and key not in params:
            raise SpecError(f"family {family!r} is missing required parameter {key!r}")
    return ctor(**{keywords[k].name: v for k, v in params.items()})


def build_solution(doc: dict) -> SolutionPair:
    """Construct a SolutionPair from a validated spec document."""
    validate_spec(doc)
    family = doc["family"]
    params = doc.get("params", {})
    if family == "preset":
        sol = preset(doc["preset"], overrides=params or None)
    else:
        sol = _construct(family, params)
    for tr in doc.get("transforms", []):
        sol = catalog.apply_transform(sol, TransformSpec.from_dict(tr))
    changes = {}
    if doc.get("name"):
        changes["metadata"] = {**sol.metadata, "name": doc["name"]}
    ov = doc.get("overrides", {})
    if "box" in ov:
        changes["default_box"] = tuple(tuple(map(float, b)) for b in ov["box"])
    if "time" in ov:
        T = sol.singular.blowup_time()
        if T is not None:
            raise SpecError(f"overrides.time does not apply: a solution with blow-up time {T} "
                            "is sampled from 0 up to --until times its blow-up time")
        changes["default_time"] = tuple(map(float, ov["time"]))
    if "exclusion_radius" in ov:
        changes["exclusion_radius"] = float(ov["exclusion_radius"])
    return replace(sol, **changes)


def _spec_int(text: str) -> int:
    """A JSON integer of a spec file; the builders read every number as a
    float, so one that no float can hold is an input error."""
    try:
        value = int(text)
        float(value)
    except (ValueError, OverflowError):  # past int's digit limit, or too large
        raise SpecError(f"spec file holds a {len(text.lstrip('-'))}-digit integer "
                        "that no float can hold") from None
    return value


def load_spec_file(path: str) -> SolutionPair:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=_spec_int)
    except OSError as e:
        raise SpecError(f"cannot read spec file: {e}") from None
    except UnicodeDecodeError as e:
        raise SpecError(f"spec file is not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecError(f"spec file is not valid JSON: {e}") from None
    except RecursionError:
        raise SpecError("spec file is not valid JSON: it nests too deeply to parse") from None
    return build_solution(doc)


def solution_spec_for_preset(preset_id: str) -> dict:
    """Full-fidelity spec document reconstructing a preset: the family and
    spec parameters its constructor recorded, and its transform chain.

    Re-importing the document yields a solution whose certification report
    is identical to the preset's.
    """
    md = preset(preset_id).metadata
    return {
        "format_version": 1,
        "name": preset_id,
        "family": md["family"],
        "params": dict(md["params"]),
        "transforms": list(md.get("transform_chain", [])),
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


def _write_stdout(text: str):
    """Write ``text`` to stdout and flush it.  A reader that closed the pipe
    early (``eulercert list | head -c 10``) is not an input error: the rest
    of the output is dropped and the command keeps its own exit code, with
    stdout pointed at os.devnull so that the interpreter's exit flush stays
    silent."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(doc, out_path):
    text = json.dumps(_finite_or_null(doc), indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        _write_stdout(text)


def _resolve(spec_arg: str, pressure_sign=None) -> SolutionPair:
    if spec_arg in PRESET_SUMMARIES:
        overrides = None if pressure_sign is None else {"pressure_sign": pressure_sign}
        return preset(spec_arg, overrides=overrides)
    if pressure_sign is not None:
        raise SpecError("--pressure-sign applies to preset ids only")
    return load_spec_file(spec_arg)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

# Each command imports the verification and analysis names it calls when it
# runs, so that `list` loads neither layer, and so that a tracer wrapping
# these names sees the calls.


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
    lines = [f"{'id':{w_id}}  {'family':{w_fam}}  construction / singular set",
             "-" * (w_id + w_fam + 40)]
    for r in rows:
        lines.append(f"{r['id']:{w_id}}  {r['family']:{w_fam}}  {r['construction']}")
        lines.append(f"{'':{w_id}}  {'':{w_fam}}  singular: {r['singular_set']}")
    _write_stdout("\n".join(lines) + "\n")
    return 0


def cmd_certify(args) -> int:
    sol = _resolve(args.spec, args.pressure_sign)  # a bad spec exits before the import

    from .verification import Tolerances, certify, default_region

    region = default_region(sol, count=args.samples, seed=args.seed, until=args.until)
    if args.exclusion is not None:
        region = replace(region, exclusion_radius=args.exclusion)
    # only the flags given: the defaults are Tolerances' own
    given = {"residual": args.tol_residual, "divergence": args.tol_div,
             "fd": args.tol_fd, "vorticity": args.tol_vorticity}
    tol = Tolerances(**{k: v for k, v in given.items() if v is not None})
    report = certify(sol, region, tol)
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 1


def cmd_norm(args) -> int:
    from .analysis import NormSpec, annulus_lq_norm, l2_energy_difference

    sol = _resolve(args.spec)
    subtract = None
    if args.subtract_boost:
        subtract = tuple(sol.boost_total or (0.0,) * sol.dimension)
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
    if not math.isfinite(res.value):
        raise FieldError("the norm is not finite: the speed overflows or is undefined "
                         "on the annulus")
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
    from .analysis import RateFit, blowup_exponent_fit

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
    from .analysis import affine_probe, twin_wave_form_check
    from .verification import SampleRegion

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


def _csv_cell(value: float) -> str:
    return "%.17g" % value if math.isfinite(value) else "NA"


def cmd_grid_dump(args) -> int:
    sol = _resolve(args.spec)
    dim = sol.dimension
    if args.box is not None and len(args.box) != 2 * dim:
        raise SpecError(f"--box needs {2 * dim} numbers for a {dim}D solution")
    if args.nx < 1 or args.nt < 1:
        raise SpecError(f"--nx and --nt must be >= 1, got {args.nx} and {args.nt}")

    from .verification import _divergence_batch, _residual_batch, _validate_region, default_region

    # certify's box and time interval, and the checks it applies: a finite
    # non-degenerate region ending strictly below any blow-up time
    region = default_region(sol, until=args.until)
    if args.box is not None:
        region = replace(region, box=tuple(zip(args.box[::2], args.box[1::2])))
    _validate_region(sol, region)
    axes = [np.linspace(lo, hi, args.nx) for lo, hi in region.box]
    ts = np.linspace(*region.time, args.nt)

    eval_errors = (FieldError, ExpressionError, FloatingPointError, ZeroDivisionError)
    header_coords = ["x1", "x2", "x3"][:dim]
    lines = ["# format_version=1",
             ",".join(header_coords + ["t"] + [f"u{i+1}" for i in range(dim)]
                      + ["residual", "divergence"])]
    # row order: t outermost, then the last spatial axis, x1 fastest
    mesh = np.meshgrid(*axes, indexing="ij")
    Xflat = np.stack([m.reshape(-1, order="F") for m in mesh], axis=1)
    # each coordinate and time is formatted once; the value columns go through
    # one %-format per pattern of non-finite cells, where a non-finite cell
    # prints the literal NA and "%.0s" consumes its value
    coords = [",".join(map(_csv_cell, row)) + "," for row in Xflat.tolist()]
    weights = 1 << np.arange(dim + 2)
    row_formats = {}
    for t in ts:
        Tflat = np.full(len(Xflat), t)
        ok = sol.singular.admissible(Xflat, Tflat, sol.exclusion_radius)
        u = np.full((len(Xflat), dim), np.nan)
        res = np.full(len(Xflat), np.nan)
        div = np.full(len(Xflat), np.nan)
        if ok.any():
            Xa, Ta = Xflat[ok], Tflat[ok]
            u[ok] = sol.velocity(Xa, Ta)
            jet = sol.velocity_jet(Xa, Ta)
            res[ok] = row_norm(_residual_batch(sol, Xa, Ta, jet))
            div[ok] = _divergence_batch(sol, Xa, Ta, jet)
        bad = np.flatnonzero(~ok)
        if len(bad):
            # one call over the inadmissible points; point by point only when
            # it raises.  A point keeps its velocity only if all of it is finite.
            try:
                vals = sol.velocity(Xflat[bad], Tflat[bad])
                whole = np.isfinite(vals).all(axis=1)
                u[bad[whole]] = vals[whole]
            except eval_errors:
                for i in bad:
                    try:
                        val = sol.velocity(Xflat[i:i + 1], Tflat[i:i + 1])[0]
                        if np.all(np.isfinite(val)):
                            u[i] = val
                    except eval_errors:
                        pass
        values = np.column_stack([u, res, div])
        patterns = (~np.isfinite(values)) @ weights
        t_cell = _csv_cell(float(t)) + ","
        for xs, row, pattern in zip(coords, values.tolist(), patterns.tolist()):
            fmt = row_formats.get(pattern)
            if fmt is None:
                fmt = row_formats[pattern] = ",".join(
                    "NA%.0s" if pattern >> i & 1 else "%.17g" for i in range(len(weights)))
            lines.append(xs + t_cell + fmt % tuple(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        _write_stdout(text)
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
    p.add_argument("--tol-residual", type=float, default=None)
    p.add_argument("--tol-div", type=float, default=None)
    p.add_argument("--tol-fd", type=float, default=None)
    p.add_argument("--tol-vorticity", type=float, default=None)
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
        # non-finite values are reported (certify's notes.non_finite_points) or
        # refused (a non-finite norm), not left to numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except (SpecError, ExpressionError, FieldError) as e:  # FieldError covers RegionError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

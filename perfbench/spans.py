"""Spans around eulercert's layer boundaries, recorded from outside the program.

The tracer replaces module-level names of the six eulercert modules with
timing wrappers, and wraps the callables of every SolutionPair the catalog
hands out.  Nothing under ``src/`` knows about it.  A span records its name,
start, end, parent and a size (rows, points or draws); self time is the
duration minus the time of the span's children.  A wrap point whose name
no longer exists in its module, or that no module binds any more, is
recorded as absent, so the traced run keeps working when a helper is renamed
and reports the missing span instead.  Wrap points of a module the process
never imported are skipped: that layer does not run there.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple, Optional

PACKAGE = "eulercert"


def _rows(args, result):
    return len(args[0])


def _rows_arg1(args, result):
    return len(args[1])


def _accepted(args, result):
    return len(result[0]) if result is not None else 0


def _eval_points(args, result):
    x = args[1]
    x = getattr(x, "value", x)  # eval_jet takes a Jet2 seed, eval_real a value
    return int(getattr(x, "size", 1))


class WrapPoint(NamedTuple):
    span: str
    module: str  # defining module, relative to the package
    attr: str  # "name" or "Class.method"
    scope: str  # "all": every binding; "callers": bindings outside the defining module;
    #             "here": the defining module only
    kind: str = "call"  # "call" | "quad" (also counts integrand evaluations) | "solution"
    size: Optional[Callable] = None


WRAP_POINTS = (
    # verification: certify and the stage helpers it calls
    WrapPoint("verification.certify", "verification", "certify", "all"),
    WrapPoint("verification.sample", "verification", "_sample_arrays", "all", size=_accepted),
    WrapPoint("verification.residual", "verification", "_residual_batch", "all"),
    WrapPoint("verification.divergence", "verification", "_divergence_batch", "all"),
    WrapPoint("verification.fd_panel", "verification", "_fd_panel", "all"),
    WrapPoint("verification.pressure_panel", "verification", "_fd_pressure_gradient", "all",
              size=_rows_arg1),
    WrapPoint("verification.vorticity", "verification", "_vorticity_transport_batch", "all"),
    # fields
    WrapPoint("fields.admissible", "fields", "SingularSetDescriptor.admissible", "all",
              size=_rows_arg1),
    # expressions, as called from the other layers (its own recursion stays unwrapped)
    WrapPoint("expressions.eval", "expressions", "eval_jet", "callers", size=_eval_points),
    WrapPoint("expressions.eval", "expressions", "eval_real", "callers", size=_eval_points),
    # catalog: constructors hand out traced solutions; quad drives the pressure value
    WrapPoint("catalog.build", "catalog", "preset", "all", kind="solution"),
    WrapPoint("catalog.build", "catalog", "ij_vortex", "all", kind="solution"),
    WrapPoint("catalog.build", "catalog", "twin_wave", "all", kind="solution"),
    WrapPoint("catalog.build", "catalog", "linear3d", "all", kind="solution"),
    WrapPoint("catalog.build", "catalog", "ns_halfspace_blowup", "all", kind="solution"),
    WrapPoint("catalog.build", "catalog", "apply_transform", "all", kind="solution"),
    WrapPoint("catalog.quad", "catalog", "quad", "here", kind="quad"),
    # analysis
    WrapPoint("analysis.norm", "analysis", "annulus_lq_norm", "all"),
    WrapPoint("analysis.energy", "analysis", "l2_energy_difference", "all"),
    WrapPoint("analysis.fit", "analysis", "blowup_exponent_fit", "all"),
    WrapPoint("analysis.probe", "analysis", "affine_probe", "all"),
    WrapPoint("analysis.probe", "analysis", "twin_wave_form_check", "all"),
    WrapPoint("analysis.quad", "analysis", "quad", "here", kind="quad"),
    # cli
    WrapPoint("cli.emit", "cli", "_emit", "here"),
    WrapPoint("cli.grid_dump", "cli", "cmd_grid_dump", "here"),
)

# SolutionPair fields wrapped on every solution the catalog returns.
SOLUTION_CALLABLES = (
    ("velocity", "catalog.velocity"),
    ("velocity_jet", "catalog.velocity_jet"),
    ("pressure_gradient", "catalog.pressure_gradient"),
    ("pressure_value", "catalog.pressure_value"),
)
RADIAL_SPEED_SPAN = "catalog.radial_speed"


class Tracer:
    """Installs the wrap points, keeps every span in memory, and summarizes.

    Spans are tuples (name, parent index, start, end, size, nested), where
    ``nested`` marks a span inside another span of the same name (a boosted
    velocity calling its base velocity); totals count only the outermost.
    """

    def __init__(self, points=WRAP_POINTS):
        self.points = tuple(points)
        self.spans: list = []
        self.stack: list = []
        self.active: dict = {}
        self.counts: Counter = Counter()
        self.installed: set = set()
        self.absent: list = []
        self._restore: list = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        spans, stack, active, clock = self.spans, self.stack, self.active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            depth = active.get(name, 0)
            active[name] = depth + 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                active[name] = depth
                n = size(args, result) if size is not None else 0
                spans[idx] = (name, parent, t0, t1, n, depth > 0)

        traced.perfbench_span = name
        return traced

    def _wrap_quad(self, name: str, quad: Callable) -> Callable:
        counts, key = self.counts, name + "_evals"

        def counting_quad(func, *args, **kwargs):
            def integrand(*a):
                counts[key] += 1
                return func(*a)

            return quad(integrand, *args, **kwargs)

        return self.wrap(name, functools.wraps(quad)(counting_quad))

    def wrap_solution(self, sol):
        """The same solution with its evaluators (and radial speed) traced."""
        if not dataclasses.is_dataclass(sol):
            return sol
        changes = {}
        for fieldname, span in SOLUTION_CALLABLES:
            fn = getattr(sol, fieldname, None)
            if callable(fn) and not hasattr(fn, "perfbench_span"):
                changes[fieldname] = self.wrap(span, fn, _rows)
                self.installed.add(span)
        md = getattr(sol, "metadata", None)
        speed = md.get("radial_speed") if isinstance(md, dict) else None
        if callable(speed) and not hasattr(speed, "perfbench_span"):
            md = dict(md)
            md["radial_speed"] = self.wrap(RADIAL_SPEED_SPAN, speed)
            self.installed.add(RADIAL_SPEED_SPAN)
            changes["metadata"] = md
        try:
            return dataclasses.replace(sol, **changes) if changes else sol
        except TypeError:  # the pair gained or renamed fields: leave it untraced
            return sol

    def _wrap_constructor(self, name: str, fn: Callable) -> Callable:
        wrap_solution = self.wrap_solution

        @functools.wraps(fn)
        def build(*args, **kwargs):
            return wrap_solution(fn(*args, **kwargs))

        return self.wrap(name, build)

    # -- installing --------------------------------------------------------

    def install(self):
        """Patch every wrap point that resolves; record the rest as absent."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for point in self.points:
            home = sys.modules.get(f"{PACKAGE}.{point.module}")
            if home is None:  # the process never loaded this layer, so none of its spans occur
                continue
            try:
                owner_name, _, method = point.attr.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = getattr(owner, method)
            except AttributeError:
                self.absent.append(f"{point.module}.{point.attr}")
                continue
            if point.kind == "quad":
                wrapped = self._wrap_quad(point.span, original)
            elif point.kind == "solution":
                wrapped = self._wrap_constructor(point.span, original)
            else:
                wrapped = self.wrap(point.span, original, point.size)
            if owner_name:
                targets = [owner]
            else:
                targets = [mod for mod in modules if vars(mod).get(method) is original
                           and not (point.scope == "here" and mod is not home)
                           and not (point.scope == "callers" and mod is home)]
            if not targets:  # nothing binds the name any more: the span cannot occur
                self.absent.append(f"{point.module}.{point.attr}")
            for target in targets:
                self._restore.append((target, method, vars(target)[method]))
                setattr(target, method, wrapped)
                self.installed.add(point.span)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- summarizing -------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name totals: every call and its self time; count, duration and
        size of the outermost spans only (so nested spans are not counted twice)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s is not None and s[1] >= 0:
                child[s[1]] += s[3] - s[2]
        agg: dict = defaultdict(lambda: {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0,
                                         "size": 0, "single_count": 0, "single_s": 0.0})
        rows_under: Counter = Counter()
        for i, s in enumerate(spans):
            if s is None:
                continue
            name, parent, t0, t1, size, nested = s
            a = agg[name]
            a["calls"] += 1
            a["self_s"] += (t1 - t0) - child[i]
            if nested:
                continue
            a["count"] += 1
            a["total_s"] += t1 - t0
            a["size"] += size
            if size == 1:
                a["single_count"] += 1
                a["single_s"] += t1 - t0
            if parent >= 0 and spans[parent] is not None:
                rows_under[f"{name}<{spans[parent][0]}"] += size
        return {"spans": dict(agg), "counts": dict(self.counts), "rows_under": dict(rows_under),
                "installed": sorted(self.installed), "absent": sorted(set(self.absent))}


def merge(summaries: list) -> dict:
    """Sum summaries from several processes or operations."""
    out = {"spans": {}, "counts": Counter(), "rows_under": Counter(), "installed": set(), "absent": set()}
    for s in summaries:
        for name, a in s["spans"].items():
            tgt = out["spans"].setdefault(name, dict.fromkeys(a, 0))
            for k, v in a.items():
                tgt[k] += v
        out["counts"].update(s["counts"])
        out["rows_under"].update(s["rows_under"])
        out["installed"].update(s["installed"])
        out["absent"].update(s["absent"])
    return {"spans": out["spans"], "counts": dict(out["counts"]), "rows_under": dict(out["rows_under"]),
            "installed": sorted(out["installed"]), "absent": sorted(out["absent"])}


# Every per-layer metric, its unit, and the spans it is computed from.  A
# metric whose spans were never installed is reported as absent.
PER_LAYER = {
    "verification.sample_s": ("s", ("verification.sample",)),
    "verification.sample_accept_ratio": ("ratio", ("verification.sample", "fields.admissible")),
    "fields.admissible_calls": ("count", ("fields.admissible",)),
    "fields.admissible_s": ("s", ("fields.admissible",)),
    "verification.pressure_panel_s": ("s", ("verification.pressure_panel",)),
    "verification.pressure_points": ("count", ("verification.pressure_panel",)),
    "catalog.quad_calls": ("count", ("catalog.quad",)),
    "catalog.quad_evals": ("count", ("catalog.quad",)),
    "catalog.pressure_value_s": ("s", ("catalog.pressure_value",)),
    "verification.residual_s": ("s", ("verification.residual",)),
    "verification.divergence_s": ("s", ("verification.divergence",)),
    "verification.fd_panel_s": ("s", ("verification.fd_panel",)),
    "verification.vorticity_s": ("s", ("verification.vorticity",)),
    "verification.certify_self_s": ("s", ("verification.certify",)),
    "expressions.scalar_calls": ("count", ("expressions.eval",)),
    "expressions.scalar_call_us": ("us", ("expressions.eval",)),
    "expressions.batch_calls": ("count", ("expressions.eval",)),
    "expressions.batch_ns_per_point": ("ns", ("expressions.eval",)),
    "catalog.build_s": ("s", ("catalog.build",)),
    "catalog.velocity_points": ("count", ("catalog.velocity",)),
    "catalog.velocity_s": ("s", ("catalog.velocity",)),
    "catalog.velocity_jet_s": ("s", ("catalog.velocity_jet",)),
    "catalog.pressure_gradient_s": ("s", ("catalog.pressure_gradient",)),
    "catalog.radial_speed_s": ("s", ("catalog.radial_speed",)),
    "analysis.norm_s": ("s", ("analysis.norm",)),
    "analysis.energy_s": ("s", ("analysis.energy",)),
    "analysis.fit_s": ("s", ("analysis.fit",)),
    "analysis.probe_s": ("s", ("analysis.probe",)),
    "analysis.quad_calls": ("count", ("analysis.quad",)),
    "analysis.quad_evals": ("count", ("analysis.quad",)),
    "cli.emit_s": ("s", ("cli.emit", "cli.grid_dump")),
    "cli.grid_rows_per_s": ("1/s", ("cli.grid_dump",)),
}

# Counts that must repeat exactly for the same inputs.
EXACT_COUNTS = (
    "fields.admissible_calls", "verification.pressure_points", "catalog.quad_calls",
    "catalog.quad_evals", "expressions.scalar_calls", "expressions.batch_calls",
    "catalog.velocity_points", "analysis.quad_calls", "analysis.quad_evals",
)


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values computed from a (merged) summary."""
    sp = summary["spans"]

    def get(name, key="total_s"):
        return sp.get(name, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    ev = sp.get("expressions.eval", {})
    batch_calls = ev.get("count", 0) - ev.get("single_count", 0)
    batch_points = ev.get("size", 0) - ev.get("single_count", 0)
    drawn = summary["rows_under"].get("fields.admissible<verification.sample", 0)
    grid_s = get("cli.grid_dump")
    values = {
        "verification.sample_s": get("verification.sample"),
        "verification.sample_accept_ratio": ratio(get("verification.sample", "size"), drawn),
        "fields.admissible_calls": get("fields.admissible", "count"),
        "fields.admissible_s": get("fields.admissible"),
        "verification.pressure_panel_s": get("verification.pressure_panel"),
        "verification.pressure_points": get("verification.pressure_panel", "size"),
        "catalog.quad_calls": get("catalog.quad", "calls"),
        "catalog.quad_evals": summary["counts"].get("catalog.quad_evals", 0),
        "catalog.pressure_value_s": get("catalog.pressure_value"),
        "verification.residual_s": get("verification.residual"),
        "verification.divergence_s": get("verification.divergence"),
        "verification.fd_panel_s": get("verification.fd_panel"),
        "verification.vorticity_s": get("verification.vorticity"),
        "verification.certify_self_s": get("verification.certify", "self_s"),
        "expressions.scalar_calls": ev.get("single_count", 0),
        "expressions.scalar_call_us": ratio(ev.get("single_s", 0.0), ev.get("single_count", 0), 1e6),
        "expressions.batch_calls": batch_calls,
        "expressions.batch_ns_per_point": ratio(ev.get("total_s", 0.0) - ev.get("single_s", 0.0),
                                                batch_points, 1e9),
        "catalog.build_s": get("catalog.build"),
        "catalog.velocity_points": get("catalog.velocity", "size"),
        "catalog.velocity_s": get("catalog.velocity"),
        "catalog.velocity_jet_s": get("catalog.velocity_jet"),
        "catalog.pressure_gradient_s": get("catalog.pressure_gradient"),
        "catalog.radial_speed_s": get("catalog.radial_speed"),
        "analysis.norm_s": get("analysis.norm"),
        "analysis.energy_s": get("analysis.energy"),
        "analysis.fit_s": get("analysis.fit"),
        "analysis.probe_s": get("analysis.probe"),
        "analysis.quad_calls": get("analysis.quad", "calls"),
        "analysis.quad_evals": summary["counts"].get("analysis.quad_evals", 0),
        "cli.emit_s": get("cli.emit") + get("cli.grid_dump", "self_s"),
        "cli.grid_rows_per_s": ratio(summary.get("grid_rows", 0), grid_s),
    }
    return values


def absent_metrics(summary: dict) -> list:
    """Per-layer metrics none of whose spans were installed: the layer did not
    run in the traced processes, or its wrap points are absent."""
    installed = set(summary["installed"])
    return sorted(m for m, (_, spans) in PER_LAYER.items() if not installed.intersection(spans))

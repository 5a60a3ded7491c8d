"""Constructors for the explicit solution families, symmetry transforms,
and named presets.

Each constructor returns an immutable SolutionPair whose evaluators are
closed-form in the supplied profile expressions.  The profile derivatives
come from the second-order jet kernel, so the velocity Jacobian, Laplacian
and time derivative are assembled analytically rather than numerically.

Families
--------
rotating vortex   u = (g(r,t) x2, -g(r,t) x1), g = c(t)/r^2 + h(r), with
                  grad p = -c'(t) (x2, -x1)/r^2 + g^2 (x1, x2)
traveling wave    u = (v(xi) + c1, c3 v(xi) + c2),
                  xi = c3 x1 - x2 - (c3 c1 - c2) t, pressure constant
linear strain     u = f(t) C x with C symmetric and trace free
half-space jet    u_i(s, t) built from exp(s^2/(12 sigma (T-t)) -
                  s/(sigma sqrt(T-t))), a viscous solution blowing up at T

Transforms: Galilean boost, planar rotation (2D), and parabolic rescaling
map solutions to solutions; rescaling a viscous pair by (lambda, tau)
yields a pair with viscosity sigma * lambda^2 / tau.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .expressions import ExprAst, Jet2, Num, compile_jet, compile_real, parse
from .fields import (
    BlowupTime,
    FieldError,
    HalfSpaceBoundary,
    InadmissiblePointError,
    MovingLine,
    MovingPoint,
    SingularSetDescriptor,
    SolutionPair,
    VelocityJet,
    phase_field_jet,
    phase_jacobian,
    radial_field_jet,
    radial_jacobian,
    row_congruence,
    row_matmul,
    row_matvec,
)

__all__ = [
    "TransformSpec",
    "ij_vortex",
    "twin_wave",
    "linear3d",
    "ns_halfspace_blowup",
    "apply_transform",
    "preset",
    "preset_ids",
    "FAMILIES",
    "PRESET_SUMMARIES",
]

ExprLike = Union[str, float]

# The family constructors, by name.  Callers look a constructor up on this
# module, so that a wrapper set on the module's attribute sees the call.
FAMILIES = ("ij_vortex", "twin_wave", "linear3d", "ns_halfspace_blowup")


def _as_ast(expr: ExprLike, variable: str) -> ExprAst:
    if isinstance(expr, str):
        return parse(expr, variable)
    return Num(float(expr))


def _recorded(**params) -> dict:
    """The spec ``params`` a constructor was built from, under their spec
    names, without the empty ones (no values, blow-up time or offsets)."""
    return {k: v for k, v in params.items()
            if not (v is None or isinstance(v, (dict, list)) and not v)}


def _require_params(ast: ExprAst, params: dict, what: str):
    missing = ast.param_names() - set(params)
    if missing:
        raise FieldError(f"{what}: unresolved parameter(s) {sorted(missing)}")


# ---------------------------------------------------------------------------
# Vectorized radial and angular quadrature
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_legendre():
    """Nodes and weights of 8-point Gauss-Legendre on [-1, 1].  Computed on
    first use, so that importing the package does not load numpy.polynomial."""
    return np.polynomial.legendre.leggauss(8)


@functools.cache
def _grading(m: int):
    """The exponents k/m, k = 0..m, of the graded panel edges a (b/a)^(k/m);
    read-only, since every call shares them."""
    powers = np.arange(m + 1) / m
    powers.flags.writeable = False
    return powers


QUAD_MAX_PANELS = 1024
ANGULAR_MAX_NODES = 2**10
BISECT_MAX_LEVELS = 40
BISECT_MAX_OPEN = 512
ANGULAR_CHUNK = 2**16


def _accept(est, prev, rows, values, abserr, epsrel, epsabs):
    """Store the estimates of the rows that are done and return their mask:
    rows whose estimate is not finite, or within max(epsabs, epsrel |est|)
    of the previous round's."""
    done = ~np.isfinite(est)
    if prev is not None:
        err = np.abs(est - prev)
        done |= err <= np.maximum(epsabs, epsrel * np.abs(est))
        abserr[rows[done]] = err[done]
    values[rows[done]] = est[done]
    return done


def _node_sum(p):
    """Sum over axis 0, the 8 Gauss nodes, in numpy's own pairwise order
    ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7)), by three whole-array
    adds: ``sum`` over a short axis takes numpy's slow path.  numpy's sum
    starts from +0.0, so the two differ only where negative zeros sum to
    -0.0 here; both callers wash that sign out."""
    p = p[0::2] + p[1::2]
    p = p[0::2] + p[1::2]
    return p[0] + p[1]


def quad(func, a, b, *, epsrel: float, epsabs: float):
    """Integrals of ``func`` from ``a[i]`` to ``b[i]`` for every row i at once.

    ``func(x, rows)`` evaluates the integrand of rows ``rows`` (an index
    array) at the nodes ``x``, whose second-to-last axis runs over the rows,
    so that a row's parameters broadcast as ``v[rows, None]``.  Each row
    uses 8-point Gauss-Legendre on m panels graded geometrically from a to
    b (both > 0), starting at m = 8 and doubling, until |I_2m - I_m| <=
    max(epsabs, epsrel |I_2m|) or the estimate is not finite.  A round
    evaluates the open rows in slices of at most ANGULAR_CHUNK nodes, one
    ``func`` call each, so the working set does not grow with the row
    count.  The nodes have shape (8, rows, m), node-major, so that
    ``_node_sum`` adds whole blocks; the panels are summed with ``sum``.
    Round 8 cannot close a finite row, having no previous estimate, so the
    first call of a slice covers rounds 8 and 16 at once, (8, rows, 8 + 16):
    the m = 8 edges are every other m = 16 edge (k/8 is 2k/16 exactly), and
    each round's estimate sums its own panels, so every value is the one
    the two rounds give one at a time.  A row still open after
    QUAD_MAX_PANELS panels (a kink or an interior singularity) goes on with
    ``_bisect`` on [a, b] (nodes of shape (panels, 8)), with that tolerance
    at its last estimate; it raises FieldError when the bisection cannot
    close the row either.  A row's value does not depend on the other rows.
    Returns ``(values, abserr)``.
    """
    if np.shape(a) != np.shape(b):
        a, b = np.broadcast_arrays(a, b)
    a, b = np.asarray(a, dtype=float).ravel(), np.asarray(b, dtype=float).ravel()
    ratio = b / a
    values, abserr = np.empty(len(a)), np.full(len(a), np.inf)
    rows, prev, m = np.arange(len(a)), None, 8
    nodes, weights = (v[:, None, None] for v in _gauss_legendre())
    while len(rows):
        opening = prev is None  # rounds m and 2m in one call
        fine = 2 * m if opening else m
        est, est2 = np.empty(len(rows)), np.empty(len(rows))
        for s in _slices(len(rows), 8 * (3 * m if opening else m)):
            edges = a[s, None] * ratio[s, None] ** _grading(fine)
            edges[:, -1] = b[s]
            lo, hi = edges[:, :-1], edges[:, 1:]
            if opening:  # k/m is 2k/2m exactly: every other edge is an m-panel edge
                lo = np.concatenate([edges[:, :-2:2], lo], axis=1)
                hi = np.concatenate([edges[:, 2::2], hi], axis=1)
            mid, half = (hi + lo) / 2, (hi - lo) / 2
            x = mid + half * nodes  # (node, row, panel)
            panels = _node_sum(func(x, rows[s]) * weights) * half
            if opening:
                est[s], est2[s] = panels[:, :m].sum(axis=1), panels[:, m:].sum(axis=1)
            else:
                est[s] = panels.sum(axis=1)
        if opening:  # round m stores only its non-finite rows: it has no previous estimate
            keep = ~_accept(est, None, rows, values, abserr, epsrel, epsabs)
            rows, prev, a, b, ratio = (v[keep] for v in (rows, est, a, b, ratio))
            est, m = est2[keep], fine
        keep = ~_accept(est, prev, rows, values, abserr, epsrel, epsabs)
        rows, prev, a, b, ratio = (v[keep] for v in (rows, est, a, b, ratio))
        if len(rows) and m >= QUAD_MAX_PANELS:
            tol = np.maximum(epsabs, epsrel * np.abs(prev))
            values[rows], abserr[rows] = _bisect(func, rows, a, b, tol,
                                                 "radial quadrature")
            break
        m *= 2
    return values, abserr


def _slices(count: int, width: int):
    """Slices of ``count`` rows holding at most ANGULAR_CHUNK points of
    ``width`` each (one row at least); rows are independent, so evaluating
    them slice by slice bounds the memory and changes no value."""
    step = max(1, ANGULAR_CHUNK // width)
    return [slice(i, i + step) for i in range(0, count, step)]


def angular_quad(func, count: int, *, epsrel: float, epsabs: float):
    """Integrals over theta in [0, 2 pi) of ``func`` for ``count`` rows at once.

    ``func(theta, rows)`` evaluates the integrand of rows ``rows`` at
    ``theta``, either one line of angles shared by the rows or one line per
    row, and returns one line per row.  Each row uses the periodic trapezoid
    rule on n = 16, 32, ... equispaced angles; a doubling evaluates only the
    n new midpoints, in one ``func`` call over the rows still open (split
    into row slices of at most ANGULAR_CHUNK points).  Acceptance,
    ``(values, abserr)`` and row independence are those of ``quad``.  A row
    still open after ANGULAR_MAX_NODES angles (a kink or a singularity on
    the ring) goes on with ``_bisect``.
    """
    values, abserr = np.empty(count), np.full(count, np.inf)
    rows, total, prev, n = np.arange(count), np.zeros(count), None, 16
    theta = 2.0 * np.pi * np.arange(n) / n
    while len(rows) and n <= ANGULAR_MAX_NODES:
        for s in _slices(len(rows), len(theta)):
            f = func(theta, rows[s])
            total[s] += np.broadcast_to(f, (len(total[s]), len(theta))).sum(axis=1)
        est = total * (2.0 * np.pi / n)
        done = _accept(est, prev, rows, values, abserr, epsrel, epsabs)
        rows, prev, total = rows[~done], est[~done], total[~done]
        theta = np.pi * (2.0 * np.arange(n) + 1.0) / n
        n *= 2
    if len(rows):
        tol = np.maximum(epsabs, epsrel * np.abs(prev))
        values[rows], abserr[rows] = _bisect(func, rows, np.zeros(len(rows)),
                                             np.full(len(rows), 2.0 * np.pi), tol,
                                             "angular quadrature")
    return values, abserr


def _bisect(func, rows, lo, hi, tol, what: str):
    """Adaptive 8-point Gauss-Legendre on [lo[i], hi[i]] for the rows ``rows``.

    The one fallback of both quadratures: ``quad`` passes its graded rows'
    intervals, ``angular_quad`` the ring [0, 2 pi).  ``func(x, rows)``
    is called with one line of nodes per panel and that panel's row.
    Every row starts from 16 equal panels.  A round halves all open panels
    at once and accepts a pair of halves whose sum is within the parent
    panel's share of ``tol`` (tol * width / (hi - lo)) of the parent's
    estimate, or is not finite, so the errors of a row add up to at most its
    ``tol``.  A kink needs 10-30 rounds and keeps a few panels open; a row
    with more than BISECT_MAX_OPEN open panels, or open after
    BISECT_MAX_LEVELS rounds (a singularity whose values swamp the
    tolerance), raises FieldError ("<what> did not converge").  A row's
    value does not depend on the other rows.
    """
    values, abserr = np.zeros(len(rows)), np.zeros(len(rows))
    idx, w, span = np.repeat(np.arange(len(rows)), 16), (hi - lo) / 16, (hi - lo) / 2
    a = (lo[:, None] + np.arange(16) * w[:, None]).ravel()
    nodes, weights = _gauss_legendre()

    def gl(a, idx):
        est, wp = np.empty(len(a)), w[idx]
        for s in _slices(len(a), 8):
            f = func(a[s, None] + wp[s, None] * (nodes + 1.0) / 2.0, rows[idx[s]])
            est[s] = _node_sum((np.broadcast_to(f, (len(est[s]), 8)) * weights).T) * (wp[s] / 2)
        return est

    whole = gl(a, idx)
    for _ in range(BISECT_MAX_LEVELS):
        w = w / 2.0
        left, right = gl(a, idx), gl(a + w[idx], idx)
        est = left + right
        err = np.abs(est - whole)
        done = ~np.isfinite(est) | (err <= tol[idx] * w[idx] / span[idx])
        np.add.at(values, idx[done], est[done])
        np.add.at(abserr, idx[done], err[done])
        keep = ~done
        if not keep.any():
            return values, abserr
        still_open = idx[keep]
        if np.bincount(still_open).max() > BISECT_MAX_OPEN:
            break
        a = np.concatenate([a[keep], a[keep] + w[still_open]])
        idx = np.concatenate([still_open, still_open])
        whole = np.concatenate([left[keep], right[keep]])
    width = np.abs(w[still_open]).max()
    raise FieldError(f"{what} did not converge: panels of width {width:.1e} are still open")


# ---------------------------------------------------------------------------
# Rotating vortex family
# ---------------------------------------------------------------------------


def _inverse_square(r):
    """1 / (r r) in one new array."""
    out = np.multiply(r, r)
    return np.divide(1.0, out, out=out)


def ij_vortex(
    c: ExprLike,
    h: ExprLike,
    params: Optional[dict] = None,
    blowup_time: Optional[float] = None,
    exclusion_radius: float = 1e-3,
) -> SolutionPair:
    """Planar vortex with circulation profile c(t) and radial profile h(r).

    The velocity is u = (g x2, -g x1) with g(r, t) = c(t)/r^2 + h(r); the
    pressure gradient closes the momentum equation exactly:

        grad p = -c'(t) (x2, -x1)/r^2 + g^2 (x1, x2).

    The pressure value (reported away from the branch cut) is
    -c'(t) * angle(x1, x2) + F(r, t) with F the radial quadrature of
    r g^2 normalized to F(1, t) = 0.
    """
    params = dict(params or {})
    c_ast = _as_ast(c, "t")
    h_ast = _as_ast(h, "r")
    _require_params(c_ast, params, "c(t)")
    _require_params(h_ast, params, "h(r)")
    c_real, c_jet = compile_real(c_ast, params), compile_jet(c_ast, params)
    h_real, h_jet = compile_real(h_ast, params), compile_jet(h_ast, params)

    def _g_jet(r: np.ndarray, T: np.ndarray, order: int = 2):
        """Jet of g in r (first-order for ``order`` 1), plus the
        time-derivative coefficient c'(t)."""
        cjet, hjet = c_jet(Jet2.variable(T, order)), h_jet(Jet2.variable(r, order))
        cv, ir2 = cjet.value, _inverse_square(r)
        value = np.multiply(cv, ir2)
        value += hjet.value  # c / r^2 + h
        d1 = np.multiply(-2.0, cv, out=np.empty_like(r))
        d1 *= ir2
        d1 /= r
        d1 += hjet.d1  # -2 c / r^3 + h'
        d2 = None
        if hjet.d2 is not None:
            d2 = np.multiply(6.0, cv, out=np.empty_like(r))
            d2 *= ir2
            d2 *= ir2
            d2 += hjet.d2  # 6 c / r^4 + h''
        return Jet2(value, d1, d2), cjet.d1

    def _radius(X):
        r = np.multiply(X[:, 0], X[:, 0])
        r += np.multiply(X[:, 1], X[:, 1])
        if not r.all():
            raise InadmissiblePointError("vortex field is singular at r = 0")
        return np.sqrt(r, out=r)

    def _rotated(g, X):
        """(g x2, -g x1); overwrites ``g``."""
        u = np.empty((len(X), 2), order="F")
        np.multiply(g, X[:, 1], out=u[:, 0])
        np.negative(g, out=g)
        np.multiply(g, X[:, 0], out=u[:, 1])
        return u

    def velocity(X, T):
        r = _radius(X)
        ir2 = _inverse_square(r)
        g = np.multiply(c_real(T), ir2, out=ir2)
        g += h_real(r)  # the value of _g_jet's g
        return _rotated(g, X)

    def velocity_jet(X, T):
        r = _radius(X)
        g, cdot = _g_jet(r, T)
        value, jac, lap = radial_field_jet(g, X, r)
        gt = np.multiply(r, r)
        np.divide(cdot, gt, out=gt)
        return VelocityJet(value, jac, lap, _rotated(gt, X))

    def velocity_jacobian(X, T):
        r = _radius(X)
        return radial_jacobian(_g_jet(r, T, order=1)[0], X, r)

    def pressure_gradient(X, T):
        r = _radius(X)
        g, cdot = _g_jet(r, T, order=1)
        y1, y2 = X[:, 0], X[:, 1]
        ir2 = _inverse_square(r)
        g2 = g.value * g.value
        return np.stack([-cdot * ir2 * y2 + g2 * y1, cdot * ir2 * y1 + g2 * y2]).T

    def _speed_profile(r, t):
        """|u| as a function of radius and time: |g(r,t)| * r, with ``t`` a
        number or an array that broadcasts against ``r``."""
        r = np.asarray(r, dtype=float)
        gval = c_real(np.asarray(t, dtype=float)) / (r * r)
        if not isinstance(gval, np.ndarray):  # a number for a scalar r and t
            return np.abs(gval + h_real(r)) * r
        gval += h_real(r)
        np.abs(gval, out=gval)
        gval *= r
        return gval

    def pressure_val(X, T):
        n = len(X)
        cjet = c_jet(Jet2.variable(T))
        cv, cdot = (np.broadcast_to(v, (n,)) for v in (cjet.value, cjet.d1))
        # libm's hypot and atan2, row by row: numpy's SIMD arctan2 and hypot
        # differ from them in the last bit on some inputs and hosts
        y1, y2 = X[:, 0].tolist(), X[:, 1].tolist()
        r = np.fromiter(map(math.hypot, y1, y2), float, n)
        angle = np.fromiter(map(math.atan2, y1, y2), float, n)

        def integrand(rho, rows):
            g = cv[rows, None] / (rho * rho) + h_real(rho)
            return rho * g * g

        F, _ = quad(integrand, 1.0, r, epsrel=1e-11, epsabs=1e-13)
        return -cdot * angle + F

    def cut_clearance(X, T):
        y1, y2 = X[:, 0], X[:, 1]
        return np.where(y2 < 0.0, np.minimum(np.abs(y1), np.abs(y2)), np.abs(y2))

    primitives = [MovingPoint((0.0, 0.0), (0.0, 0.0))]
    if blowup_time is not None:
        primitives.append(BlowupTime(blowup_time))
    singular = SingularSetDescriptor(
        primitives=tuple(primitives),
        pressure_cut=(MovingLine((0.0, 1.0), 0.0, 0.0),),
    )

    metadata = {
        "family": "ij_vortex",
        "params": _recorded(c=c, h=h, values=dict(params),
                            exclusion_radius=exclusion_radius, blowup_time=blowup_time),
        "pressure_branch": "angle(y1, y2) in (-pi, pi] of the point y in the vortex frame, "
                           "before any transform; cut on {y1 = 0, y2 <= 0}",
    }
    return SolutionPair(
        dimension=2,
        viscosity=0.0,
        velocity=velocity,
        velocity_jet=velocity_jet,
        velocity_jacobian=velocity_jacobian,
        pressure_gradient=pressure_gradient,
        pressure_value=pressure_val,
        pressure_cut_clearance=cut_clearance,
        singular=singular,
        exclusion_radius=exclusion_radius,
        metadata=metadata,
        radial_speed=_speed_profile,
    )


# ---------------------------------------------------------------------------
# Fields of one scalar phase: traveling waves and the analysis probes
# ---------------------------------------------------------------------------


def _wave_phase(c3: float, speed: float):
    """The traveling-wave phase xi = c3 x1 - x2 - speed t, linear in x."""
    def phase(X, T):
        xi = np.multiply(c3, X[:, 0])
        xi -= X[:, 1]
        xi -= np.multiply(speed, T)
        return xi, (c3, -1.0), None, -speed
    return phase


def _phase_pair(profiles, params: dict, coeffs, offsets, phase, **pair) -> SolutionPair:
    """Inviscid planar pair u_i = a_i V_i(eta) + c_i of one phase, zero pressure:
    ``profiles`` is one shared AST or a tuple of two; ``coeffs``, ``offsets``
    and ``phase(X, T) -> (eta, grad, lap, dt)`` are as ``phase_field_jet``
    takes them.  ``velocity`` compiles the profiles on first use (a probe reads
    only jets) and folds a_i and c_i as the jet does: it is the jet's value bit
    for bit.  Errors come in the order phase, profile 1, profile 2."""
    asts = profiles if isinstance(profiles, tuple) else (profiles,)
    reals = functools.cache(lambda: [compile_real(ast, params) for ast in asts])
    jet_fns = functools.cache(lambda: [compile_jet(ast, params) for ast in asts])

    def both(values):  # a shared profile is evaluated once, for both components
        return values if len(values) == 2 else values * 2

    def jets(X, T, order):
        eta, grad, lap, dt = phase(X, T)
        seed = Jet2.variable(eta, order=order)
        return both([f(seed) for f in jet_fns()]), grad, lap, dt

    def velocity(X, T):
        eta = phase(X, T)[0]
        value = np.empty((len(X), 2), order="F")
        for i, (v, a) in enumerate(zip(both([f(eta) for f in reals()]), coeffs)):
            if a != 1.0:
                v = np.multiply(a, v, out=value[:, i])
            if offsets is not None:
                np.add(v, offsets[i], out=value[:, i])
            elif a == 1.0:
                value[:, i] = v
        return value

    def velocity_jet(X, T):
        profile_jets, grad, lap, dt = jets(X, T, 2)
        return phase_field_jet(len(X), profile_jets, coeffs, offsets, grad, lap, dt)

    def velocity_jacobian(X, T):
        profile_jets, grad, _, _ = jets(X, T, 1)
        return phase_jacobian(len(X), profile_jets, coeffs, grad)

    return SolutionPair(dimension=2, viscosity=0.0, velocity=velocity, velocity_jet=velocity_jet,
                        velocity_jacobian=velocity_jacobian,
                        pressure_gradient=lambda X, T: np.zeros((len(X), 2), order="F"),
                        pressure_value=lambda X, T: np.zeros(len(X)), **pair)


def twin_wave(
    v: ExprLike,
    c1: float = 0.0,
    c2: float = 0.0,
    c3: float = 1.0,
    params: Optional[dict] = None,
    singular_offsets: Sequence[float] = (),
    exclusion_radius: float = 1e-3,
) -> SolutionPair:
    """Traveling wave u = (v(xi) + c1, c3 v(xi) + c2) with constant pressure.

    xi = c3 x1 - x2 - (c3 c1 - c2) t.  The pressure is normalized to zero
    (only its gradient enters the momentum equation).  ``singular_offsets``
    lists xi-values where the profile has poles; each becomes a moving-line
    singular primitive.
    """
    params = dict(params or {})
    v_ast = _as_ast(v, "x")
    _require_params(v_ast, params, "v(xi)")
    speed = c3 * c1 - c2
    lines = tuple(MovingLine((c3, -1.0), float(off), speed) for off in singular_offsets)
    metadata = {
        "family": "twin_wave",
        "params": _recorded(v=v, c1=c1, c2=c2, c3=c3, values=dict(params),
                            exclusion_radius=exclusion_radius,
                            singular_xi=list(singular_offsets)),
    }
    return _phase_pair(v_ast, params, (1.0, c3), (c1, c2), _wave_phase(c3, speed),
                       singular=SingularSetDescriptor(lines),
                       exclusion_radius=exclusion_radius, metadata=metadata)


# ---------------------------------------------------------------------------
# Linear strain family
# ---------------------------------------------------------------------------


def linear3d(
    f: ExprLike,
    C: np.ndarray,
    sigma: float = 0.0,
    params: Optional[dict] = None,
    blowup_time: Optional[float] = None,
) -> SolutionPair:
    """Linear field u = f(t) C x with C symmetric and trace free.

    The Laplacian vanishes identically, so the pair solves both the
    inviscid and the viscous equations for any sigma >= 0, with

        grad p = -f(t)^2 C^2 x - f'(t) C x.
    """
    params = dict(params or {})
    f_ast = _as_ast(f, "t")
    _require_params(f_ast, params, "f(t)")
    f_real, f_jet = compile_real(f_ast, params), compile_jet(f_ast, params)
    C = np.asarray(C, dtype=float)
    if C.shape != (3, 3):
        raise FieldError("C must be a 3x3 matrix")
    if not np.allclose(C, C.T, rtol=0.0, atol=1e-12):
        raise FieldError("C must be symmetric")
    if abs(C[0, 0] + C[1, 1] + C[2, 2]) > 1e-12 * (1.0 + np.abs(C).max()):
        raise FieldError("C must be trace free (c33 = -c11 - c22), otherwise div u != 0")
    C = 0.5 * (C + C.T)
    C[2, 2] = -(C[0, 0] + C[1, 1])  # snap so the assembled trace is exactly zero
    C2 = C @ C
    spectral = float(np.max(np.abs(np.linalg.eigvalsh(C))))

    def _f_columns(T, n):
        """f(t) and f'(t) as (n,) columns."""
        fj = f_jet(Jet2.variable(T))
        return (np.broadcast_to(np.asarray(fj.value, dtype=float), (n,)),
                np.broadcast_to(np.asarray(fj.d1, dtype=float), (n,)))

    def velocity(X, T):
        fv = np.asarray(f_real(T))
        Cx = row_matmul(X, C)
        if not fv.ndim:
            return np.multiply(fv, Cx, out=Cx)
        for k in range(3):
            np.multiply(fv, Cx[:, k], out=Cx[:, k])
        return Cx

    def velocity_jet(X, T):
        n = len(X)
        fv, fd = _f_columns(T, n)
        Cx = row_matmul(X, C)
        value = fv[:, None] * Cx
        jac = np.multiply(fv[:, None, None], C[None, :, :], out=np.empty((n, 3, 3), order="F"))
        lap = np.zeros((n, 3), order="F")
        dt = fd[:, None] * Cx
        return VelocityJet(value, jac, lap, dt)

    def pressure_gradient(X, T):
        fv, fd = _f_columns(T, len(X))
        return -(fv * fv)[:, None] * row_matmul(X, C2) - fd[:, None] * row_matmul(X, C)

    def pressure_val(X, T):
        fv, fd = _f_columns(T, len(X))
        Cx = row_matmul(X, C)
        return -0.5 * fv * fv * np.sum(Cx * Cx, axis=1) - 0.5 * fd * np.sum(X * Cx, axis=1)

    primitives = (BlowupTime(blowup_time),) if blowup_time is not None else ()
    metadata = {
        "family": "linear3d",
        "params": _recorded(f=f, C=C.tolist(), sigma=sigma, values=dict(params),
                            blowup_time=blowup_time),
    }
    return SolutionPair(
        dimension=3,
        viscosity=float(sigma),
        velocity=velocity,
        velocity_jet=velocity_jet,
        pressure_gradient=pressure_gradient,
        pressure_value=pressure_val,
        singular=SingularSetDescriptor(primitives=primitives),
        metadata=metadata,
        sup_speed_unit_ball=lambda t: abs(float(f_real(float(t)))) * spectral,
    )


# ---------------------------------------------------------------------------
# Half-space viscous blow-up family
# ---------------------------------------------------------------------------


def ns_halfspace_blowup(
    T: float = 1.0,
    sigma: float = 1.0,
    c: float = 0.0,
    x0: Sequence[float] = (0.0, 0.0, 0.0),
    pressure_sign: int = 1,
    exclusion_radius: float = 0.01,
) -> SolutionPair:
    """Viscous half-space solution blowing up at finite time T.

    With s = sum_i (x_i - x0_i), tau = T - t and
    E = exp(s^2 / (12 sigma tau) - s / (sigma sqrt(tau))):

        u1 = u2 = tau^(-1/2) (-1 + E)
        u3      = -tau^(-1/2) (1 + 2 E)
        p       = pressure_sign * tau^(-1) (s / (2 sqrt(tau)) + c)

    The component sum is -3 tau^(-1/2), independent of s, so the field is
    exactly divergence free; all derivatives reduce to d/ds and d/dt of the
    scalar profiles.  Both pressure signs are constructible so that the
    residual engine can discriminate which one actually closes the
    momentum equation (the certified sign is +1).  Admissible points keep
    at least ``exclusion_radius`` from the blow-up time and the boundary.
    """
    if T <= 0:
        raise FieldError("blow-up time T must be positive")
    if sigma <= 0:
        raise FieldError("viscosity sigma must be positive for this family")
    if pressure_sign not in (1, -1):
        raise FieldError("pressure_sign must be +1 or -1")
    x0 = tuple(float(v) for v in x0)
    if len(x0) != 3:
        raise FieldError("x0 must be a 3-vector")
    sign = float(pressure_sign)
    exclusion_radius = float(exclusion_radius)

    def _parts(X, T_):
        tau = np.subtract(T, T_)
        if np.any(tau <= 0.0):
            raise InadmissiblePointError("time at or beyond the blow-up time")
        s, term = np.subtract(X[:, 0], x0[0]), np.subtract(X[:, 1], x0[1])
        s += term
        s += np.subtract(X[:, 2], x0[2], out=term)
        isq = np.sqrt(tau)
        np.divide(1.0, isq, out=isq)
        E = np.multiply(s, s)  # A = s^2 / (12 sigma tau) - s isq / sigma, then E = exp(A)
        E /= np.multiply(12.0 * sigma, tau, out=term)
        np.multiply(s, isq, out=term)
        term /= sigma
        E -= term
        return tau, s, isq, np.exp(E, out=E)

    def velocity(X, T_):
        _, u12, isq, E = _parts(X, T_)
        u = np.empty((len(X), 3), order="F")
        np.add(-1.0, E, out=u12)
        np.multiply(isq, u12, out=u[:, 0])  # isq (-1 + E)
        u[:, 1] = u[:, 0]
        np.multiply(2.0, E, out=E)
        np.add(1.0, E, out=E)
        np.negative(isq, out=isq)
        np.multiply(isq, E, out=u[:, 2])  # -isq (1 + 2 E)
        return u

    def velocity_jet(X, T_):
        n = len(X)
        tau, s, isq, E = _parts(X, T_)
        A_s = s / (6.0 * sigma * tau) - isq / sigma
        A_ss = 1.0 / (6.0 * sigma * tau)
        A_t = s * s / (12.0 * sigma * tau * tau) - 0.5 * s * isq / (sigma * tau)
        u12 = isq * (-1.0 + E)
        u3 = -isq * (1.0 + 2.0 * E)
        value = np.stack([u12, u12, u3]).T  # (n, 3) F-order, as every stack here
        # d/ds of the components: (w, w, -2w); every spatial direction sees
        # the same derivative, which makes the Jacobian trace exactly zero.
        w = isq * E * A_s
        jac = np.empty((n, 3, 3), order="F")
        jac[...] = np.stack([w, w, -2.0 * w]).T[:, :, None]
        w2 = isq * E * (A_s * A_s + A_ss)
        lap = 3.0 * np.stack([w2, w2, -2.0 * w2]).T
        halftau32 = 0.5 * isq / tau
        u12_t = halftau32 * (-1.0 + E) + isq * E * A_t
        u3_t = -(halftau32 * (1.0 + 2.0 * E) + 2.0 * isq * E * A_t)
        dt = np.stack([u12_t, u12_t, u3_t]).T
        return VelocityJet(value, jac, lap, dt)

    def pressure_gradient(X, T_):
        tau, s, isq, E = _parts(X, T_)
        ps = sign * 0.5 * isq / tau
        return np.stack([ps, ps, ps]).T

    def pressure_val(X, T_):
        tau, s, isq, E = _parts(X, T_)
        return sign * (0.5 * s * isq + c) / tau

    singular = SingularSetDescriptor(
        primitives=(BlowupTime(T), HalfSpaceBoundary(x0)),
    )
    metadata = {
        "family": "ns_halfspace_blowup",
        "params": {"T": T, "sigma": sigma, "c": c, "x0": list(x0),
                   "pressure_sign": int(pressure_sign), "exclusion_radius": exclusion_radius},
    }
    return SolutionPair(
        dimension=3,
        viscosity=float(sigma),
        velocity=velocity,
        velocity_jet=velocity_jet,
        pressure_gradient=pressure_gradient,
        pressure_value=pressure_val,
        singular=singular,
        exclusion_radius=exclusion_radius,
        metadata=metadata,
        boundary_speed=lambda t: 3.0 / math.sqrt(T - float(t)),
        default_box=((-1.0, 1.0),) * 3,
    )


# ---------------------------------------------------------------------------
# Symmetry transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformSpec:
    """One of: galilean boost (velocity), planar rotation (angle, 2D only),
    or parabolic rescale (lam > 0, tau > 0)."""

    kind: str  # "boost" | "rotation" | "rescale"
    velocity: Optional[tuple] = None
    angle: Optional[float] = None
    lam: Optional[float] = None
    tau: Optional[float] = None

    @staticmethod
    def boost(velocity: Sequence[float]) -> "TransformSpec":
        try:
            return TransformSpec(kind="boost", velocity=tuple(float(v) for v in velocity))
        except TypeError:
            raise FieldError(f"boost velocity must be a vector of numbers, got {velocity!r}") from None

    @staticmethod
    def rotation(angle: float) -> "TransformSpec":
        return TransformSpec(kind="rotation", angle=float(angle))

    @staticmethod
    def rescale(lam: float, tau: float) -> "TransformSpec":
        if lam <= 0 or tau <= 0:
            raise FieldError("rescale requires lam > 0 and tau > 0")
        lam, tau = float(lam), float(tau)
        try:  # the factors _step derives, computed as it does
            representable = all(math.isfinite(f) and f != 0.0
                                for f in (lam / tau, lam / tau**2, lam * tau, lam * lam / tau))
        except (ZeroDivisionError, OverflowError):
            representable = False
        if not representable:
            raise FieldError(f"rescale by lam={lam!r}, tau={tau!r} overflows or underflows: "
                             "lam/tau, lam/tau^2, lam*tau and lam^2/tau must be finite and > 0")
        return TransformSpec(kind="rescale", lam=lam, tau=tau)

    @staticmethod
    def from_dict(d: dict) -> "TransformSpec":
        kind = d.get("kind")
        try:
            if kind == "boost":
                return TransformSpec.boost(d["velocity"])
            if kind == "rotation":
                return TransformSpec.rotation(d["angle"])
            if kind == "rescale":
                return TransformSpec.rescale(d["lam"], d["tau"])
        except KeyError as e:
            raise FieldError(f"{kind} transform is missing {e.args[0]!r}") from None
        raise FieldError(f"unknown transform kind {kind!r}")


def _step(sol: SolutionPair, entry: dict, lam: float = 1.0, tau: float = 1.0,
          Q: Optional[np.ndarray] = None, C: Optional[np.ndarray] = None) -> SolutionPair:
    """The pair w(x,t) = (lam/tau) Q^T u(Q (x - C t)/lam, t/tau) + C, with
    grad pbar = (lam/tau^2) Q^T grad p and pbar = (lam/tau)^2 p at the same
    point, viscosity sigma lam^2 / tau, exclusion radius lam r, default box
    lam times and default time interval and form-symmetry time tau times the
    pair's (a boost or a rotation keeps them), and the singular set
    (``SingularSetDescriptor.moved``) and facts moved alike.

    ``entry`` extends the transform chain, the one ``metadata`` entry a
    transform changes.  A factor that is exactly 1, or an absent Q or C, is
    skipped: no bit changes, and the hot paths skip its work.
    """
    base_v, base_j, base_jac = sol.velocity, sol.velocity_jet, sol.velocity_jacobian
    base_pg, base_pv = sol.pressure_gradient, sol.pressure_value
    base_cut = sol.pressure_cut_clearance
    amp, scaled = lam / tau, (lam, tau) != (1.0, 1.0)

    def pull(X, T):
        X0 = X
        if C is not None:
            X = np.empty_like(X0)
            for k, c in enumerate(C):
                np.multiply(T, c, out=X[:, k])
                np.subtract(X0[:, k], X[:, k], out=X[:, k])
        if Q is not None:
            X = row_matmul(X, Q.T)
        if not scaled:
            return X, T
        return np.divide(X, lam, out=None if X is X0 else X), T / tau

    def velocity(X, T):
        u = base_v(*pull(X, T))
        own = Q is not None  # only arrays made here are written in place
        if own:
            u = row_matmul(u, Q)
        if scaled:
            u = np.multiply(amp, u, out=u if own else None)
            own = True
        if C is None:
            return u
        w = u if own else np.empty_like(u)
        for k, c in enumerate(C):
            np.add(u[:, k], c, out=w[:, k])
        return w

    def velocity_jet(X, T):
        jet = base_j(*pull(X, T))
        value, jac, lap, dt = jet.value, jet.jacobian, jet.laplacian, jet.dt
        if Q is not None:
            value, lap, dt = row_matmul(value, Q), row_matmul(lap, Q), row_matmul(dt, Q)
            jac = row_congruence(Q, jac)
        if scaled:
            value, jac, lap, dt = amp * value, jac / tau, lap / (lam * tau), (lam / tau**2) * dt
        if C is not None:
            value, dt = value + C, dt - row_matvec(jac, C)
        return VelocityJet(value, jac, lap, dt)

    def velocity_jacobian(X, T):
        # the jet's Jacobian arithmetic; a boost leaves the Jacobian unchanged
        jac = base_jac(*pull(X, T))
        if Q is not None:
            jac = row_congruence(Q, jac)
        return jac / tau if scaled else jac

    def pressure_gradient(X, T):
        g = base_pg(*pull(X, T))
        if Q is not None:
            g = row_matmul(g, Q)
        return (lam / tau**2) * g if scaled else g

    def pressure_val(X, T):
        p = base_pv(*pull(X, T))
        return amp * amp * p if scaled else p

    def cut(X, T):
        c = base_cut(*pull(X, T))
        return lam * c if scaled else c

    chain = sol.metadata.get("transform_chain", []) + [entry]
    mapped = {}  # the scaled constants, the sampling region and the analytic facts
    if C is not None or sol.boost_total is not None:
        total = np.zeros(sol.dimension) if sol.boost_total is None else np.asarray(sol.boost_total)
        if Q is not None:
            total = Q.T @ total
        if scaled:
            total = amp * total
        mapped["boost_total"] = tuple(map(float, total if C is None else total + C))
    # the facts describe |w - boost_total|, which a boost or a rotation keeps
    if scaled:
        t0, t1 = sol.default_time
        mapped.update(viscosity=sol.viscosity * lam * lam / tau,
                      exclusion_radius=lam * sol.exclusion_radius,
                      default_box=tuple((lam * lo, lam * hi) for lo, hi in sol.default_box),
                      default_time=(tau * t0, tau * t1))
        if sol.form_symmetry_time is not None:
            mapped["form_symmetry_time"] = tau * sol.form_symmetry_time
        speed, boundary, ball = sol.radial_speed, sol.boundary_speed, sol.sup_speed_unit_ball
        if speed is not None:
            mapped["radial_speed"] = lambda r, t: amp * speed(np.asarray(r) / lam,
                                                              np.asarray(t) / tau)
        if boundary is not None:
            mapped["boundary_speed"] = lambda t: amp * boundary(t / tau)
        if ball is not None:
            # the unit ball pulls back to the ball of radius 1/lam: 1/lam times the
            # sup for a field linear in x, as linear3d's (the one family with it)
            mapped["sup_speed_unit_ball"] = lambda t: amp / lam * ball(t / tau)
        if sol.decay_envelope is not None:
            kappa, m, exact = sol.decay_envelope
            try:
                gain = amp * lam ** m
            except OverflowError:  # no envelope is stated past the float range
                mapped["decay_envelope"] = None
            else:
                mapped["decay_envelope"] = (lambda t: gain * kappa(t / tau), m, exact)
    return replace(
        sol,
        velocity=velocity,
        velocity_jet=velocity_jet,
        velocity_jacobian=velocity_jacobian if base_jac is not None else None,
        pressure_gradient=pressure_gradient,
        pressure_value=pressure_val if base_pv is not None else None,
        pressure_cut_clearance=cut if base_cut is not None else None,
        singular=sol.singular.moved(lam, tau, Q, C),
        metadata={**sol.metadata, "transform_chain": chain},
        **mapped,
    )


def apply_transform(sol: SolutionPair, tr: TransformSpec) -> SolutionPair:
    """Apply a solution-preserving symmetry; transforms compose freely.

    Each kind is one ``_step``:
    boost:    w(x,t) = u(x - C t, t) + C
    rotation: w(x,t) = Q^T u(Q x, t), grad pbar = Q^T grad p(Q x, t)
    rescale:  w(x,t) = (lam/tau) u(x/lam, t/tau),
              grad pbar = (lam/tau^2) grad p(x/lam, t/tau),
              viscosity sigma -> sigma lam^2 / tau
    """
    if tr.kind == "boost":
        C = np.asarray(tr.velocity, dtype=float)
        if len(C) != sol.dimension:
            raise FieldError("boost velocity dimension must match the solution dimension")
        return _step(sol, {"kind": "boost", "velocity": list(map(float, C))}, C=C)
    if tr.kind == "rotation":
        if sol.dimension != 2:
            raise FieldError("rotation is only defined for 2D solutions")
        ca, sa = math.cos(tr.angle), math.sin(tr.angle)
        Q = np.array([[ca, -sa], [sa, ca]])
        return _step(sol, {"kind": "rotation", "angle": float(tr.angle)}, Q=Q)
    if tr.kind == "rescale":
        return _step(sol, {"kind": "rescale", "lam": float(tr.lam), "tau": float(tr.tau)},
                     lam=tr.lam, tau=tr.tau)
    raise FieldError(f"unknown transform kind {tr.kind!r}")


# ---------------------------------------------------------------------------
# Presets
#
# Exclusion radii are calibration constants: they are chosen so that every
# certified metric clears its tolerance with at least a 10x margin in
# double precision (derivative magnitudes grow like inverse powers of the
# distance to the singular set, and the FD cross-checks amplify rounding
# noise by 1/step).  See the README for the calibration notes.
#
# A builder takes the overrides as keyword parameters and returns the
# solution with what the preset adds to its family; ``preset`` sets the name
# and summary, and refuses an override key that the builder does not take.
# ---------------------------------------------------------------------------


def _preset_ex_2_5(exclusion_radius=0.3):
    sol = ij_vortex("t", "-1/r^2", exclusion_radius=exclusion_radius)
    return replace(sol, decay_envelope=(lambda t: abs(t - 1.0), 1, True))


def _preset_ex_2_6(T=1.0, exclusion_radius=0.7):
    T = float(T)
    sol = ij_vortex("1/(T - t)", "-1/r^2", params={"T": T}, blowup_time=T,
                    exclusion_radius=exclusion_radius)
    return replace(sol, decay_envelope=(lambda t: abs(1.0 / (T - t) - 1.0), 1, True))


def _preset_ex_3_2(C=(1.0, 1.0), exclusion_radius=0.12):
    base = ij_vortex("1", "-1/r^2 + 1/(1+r^2)^2", exclusion_radius=exclusion_radius)
    sol = apply_transform(base, TransformSpec.boost(tuple(C)))
    return replace(sol, decay_envelope=(lambda t: 1.0, 3, False))


def _preset_ex_3_10(T=1.0, c1=1.0, c2=0.0, c3=1.0, exclusion_radius=0.45):
    T, c1, c2, c3 = map(float, (T, c1, c2, c3))
    sol = twin_wave("1/(x + T*(c1 - c2))^2", c1, c2, c3,
                    params={"T": T, "c1": c1, "c2": c2},
                    singular_offsets=(-T * (c1 - c2),),
                    exclusion_radius=exclusion_radius)
    return replace(sol, form_symmetry_time=T)


def _preset_ex_3_4_smooth(c1=1.0, c2=0.0, c3=1.0, exclusion_radius=1e-3):
    c1, c2, c3 = map(float, (c1, c2, c3))
    return twin_wave("1/(1+x^2)^2 - c1", c1, c2, c3, params={"c1": c1},
                     exclusion_radius=exclusion_radius)


def _preset_ex_3_4_singular(c1=1.0, c2=0.0, c3=1.0, exclusion_radius=0.45):
    return twin_wave("1/x^2", *map(float, (c1, c2, c3)), singular_offsets=(0.0,),
                     exclusion_radius=exclusion_radius)


_C_DEFAULT = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -2.0))


def _preset_ex_5_1_const(C=_C_DEFAULT, sigma=0.0):
    return linear3d("1", np.asarray(C), sigma=float(sigma))


def _preset_ex_5_1_blowup(T=1.0, C=_C_DEFAULT, sigma=0.0):
    T = float(T)
    return linear3d("1/(T - t)", np.asarray(C), sigma=float(sigma), params={"T": T},
                    blowup_time=T)


def _preset_ex_6_1(T=1.0, sigma=1.0, c=0.0, x0=(0.0, 0.0, 0.0), pressure_sign=1,
                   exclusion_radius=0.01):
    return ns_halfspace_blowup(T=float(T), sigma=float(sigma), c=float(c), x0=tuple(x0),
                               pressure_sign=int(pressure_sign),
                               exclusion_radius=float(exclusion_radius))


# id: (builder, family, construction, summary)
_PRESETS = {
    "ex_2_5": (_preset_ex_2_5, "ij_vortex", "c(t) = t, h(r) = -1/r^2",
               "vortex with circulation growing linearly in time; finite energy only at t = 1"),
    "ex_2_6": (_preset_ex_2_6, "ij_vortex", "c(t) = 1/(T-t), h(r) = -1/r^2",
               "vortex blowing up at t = T, singular at the origin"),
    "ex_3_2": (_preset_ex_3_2, "ij_vortex + boost",
               "c = 1, h = -1/r^2 + 1/(1+r^2)^2, C = (1,1)",
               "globally smooth traveling vortex; u - C has finite planar energy"),
    "ex_3_10": (_preset_ex_3_10, "twin_wave", "v = 1/(xi + T(c1-c2))^2, c3 = 1",
                "traveling wave whose components match in form exactly at t = T"),
    "ex_3_4_smooth": (_preset_ex_3_4_smooth, "twin_wave", "v = 1/(1+xi^2)^2 - c1, c3 = 1",
                      "globally smooth traveling wave with a single bump profile"),
    "ex_3_4_singular": (_preset_ex_3_4_singular, "twin_wave", "v = 1/xi^2, c3 = 1",
                        "traveling wave singular on a moving line"),
    "ex_5_1_const": (_preset_ex_5_1_const, "linear3d", "f = 1, C = diag(1, 1, -2)",
                     "steady linear strain field, valid for any viscosity"),
    "ex_5_1_blowup": (_preset_ex_5_1_blowup, "linear3d", "f = 1/(T-t), C = diag(1, 1, -2)",
                      "linear strain field with amplitude blowing up at t = T"),
    "ex_6_1": (_preset_ex_6_1, "ns_halfspace_blowup", "T = 1, sigma = 1, pressure_sign = +1",
               "viscous half-space solution blowing up at t = T"),
}

PRESET_SUMMARIES = {pid: (family, construction)
                    for pid, (_, family, construction, _) in _PRESETS.items()}


def preset_ids():
    return list(_PRESETS)


def preset(preset_id: str, overrides: Optional[dict] = None) -> SolutionPair:
    """Build a named preset with its documented default parameters.

    ``overrides`` may replace the numeric defaults that the preset reads:
    its builder's keyword parameters (among T, sigma, c1, c2, c3, C, x0, c,
    pressure_sign and exclusion_radius); any other key raises FieldError.
    """
    try:
        builder, _, _, summary = _PRESETS[preset_id]
    except KeyError:
        raise FieldError(
            f"unknown preset {preset_id!r}; known presets: {', '.join(_PRESETS)}"
        ) from None
    overrides = dict(overrides or {})
    keys = list(inspect.signature(builder).parameters)
    unknown = sorted(set(overrides) - set(keys))
    if unknown:
        raise FieldError(f"preset {preset_id!r} does not take override(s) {unknown}; "
                         f"it takes {keys}")
    sol = builder(**overrides)
    return replace(sol, metadata={**sol.metadata, "name": preset_id, "summary": summary})

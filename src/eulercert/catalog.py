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

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .expressions import ExprAst, Jet2, compile_real, eval_jet, parse
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
    radial_field_jet,
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
    "PRESET_SUMMARIES",
]

ExprLike = Union[str, ExprAst]


def _as_ast(expr: ExprLike, variable: str) -> ExprAst:
    if isinstance(expr, str):
        return parse(expr, variable)
    return expr


def _require_params(ast: ExprAst, params: dict, what: str):
    missing = ast.param_names() - set(params)
    if missing:
        raise FieldError(f"{what}: unresolved parameter(s) {sorted(missing)}")


# ---------------------------------------------------------------------------
# Vectorized radial quadrature
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
QUAD_MAX_PANELS = 1024


def quad(func, a, b, *, epsrel: float, epsabs: float):
    """Integrals of ``func`` from ``a[i]`` to ``b[i]`` for every row i at once.

    ``func(x, rows)`` evaluates the integrand of rows ``rows`` (an index
    array) at ``x``, an array with one line of nodes per row.  Each row uses
    8-point Gauss-Legendre on m panels graded geometrically from a to b
    (both > 0), starting at m = 8 and doubling, in one ``func`` call per
    round over the rows still open, until |I_2m - I_m| <= max(epsabs,
    epsrel |I_2m|) or the estimate is not finite.  A row's value does not
    depend on the other rows.  Returns ``(values, abserr)``; raises
    FieldError when a row needs more than QUAD_MAX_PANELS panels.
    """
    a, b = (np.ravel(v).astype(float) for v in np.broadcast_arrays(a, b))
    values, abserr = np.empty(len(a)), np.full(len(a), np.inf)
    rows, prev, m = np.arange(len(a)), None, 8
    while len(rows):
        edges = a[rows, None] * (b[rows] / a[rows])[:, None] ** (np.arange(m + 1) / m)
        edges[:, -1] = b[rows]
        mid, half = (edges[:, 1:] + edges[:, :-1]) / 2, (edges[:, 1:] - edges[:, :-1]) / 2
        x = (mid[:, :, None] + half[:, :, None] * _GL_NODES).reshape(len(rows), -1)
        f = np.broadcast_to(func(x, rows), x.shape).reshape(len(rows), m, 8)
        est = ((f * _GL_WEIGHTS).sum(axis=2) * half).sum(axis=1)
        done = ~np.isfinite(est)
        if prev is not None:
            err = np.abs(est - prev)
            done |= err <= np.maximum(epsabs, epsrel * np.abs(est))
            abserr[rows[done]] = err[done]
        values[rows[done]] = est[done]
        rows, prev = rows[~done], est[~done]
        if len(rows) and m >= QUAD_MAX_PANELS:
            raise FieldError(f"radial quadrature did not converge with {m} panels")
        m *= 2
    return values, abserr


# ---------------------------------------------------------------------------
# Rotating vortex family
# ---------------------------------------------------------------------------


def ij_vortex(
    c: ExprLike,
    h: ExprLike,
    params: Optional[dict] = None,
    blowup_time: Optional[float] = None,
    exclusion_radius: float = 1e-3,
    name: str = "ij_vortex",
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
    c_real = compile_real(c_ast, params)
    h_real = compile_real(h_ast, params)

    def _g_jet(r: np.ndarray, T: np.ndarray):
        """Jet of g in r, plus the time-derivative coefficient c'(t)."""
        cjet = eval_jet(c_ast, Jet2.variable(T), params)
        hjet = eval_jet(h_ast, Jet2.variable(r), params)
        ir2 = 1.0 / (r * r)
        g = Jet2(
            cjet.value * ir2 + hjet.value,
            -2.0 * cjet.value * ir2 / r + hjet.d1,
            6.0 * cjet.value * ir2 * ir2 + hjet.d2,
        )
        return g, cjet.d1

    def _radius(X):
        r2 = X[:, 0] * X[:, 0] + X[:, 1] * X[:, 1]
        if np.any(r2 == 0.0):
            raise InadmissiblePointError("vortex field is singular at r = 0")
        return np.sqrt(r2)

    def velocity(X, T):
        r = _radius(X)
        g = c_real(T) * (1.0 / (r * r)) + h_real(r)  # the value of _g_jet's g
        return np.stack([g * X[:, 1], -g * X[:, 0]], axis=1)

    def velocity_jet(X, T):
        r = _radius(X)
        g, cdot = _g_jet(r, T)
        value, jac, lap = radial_field_jet(g, X, r)
        gt = cdot / (r * r)
        dt = np.stack([gt * X[:, 1], -gt * X[:, 0]], axis=1)
        return VelocityJet(value, jac, lap, dt)

    def pressure_gradient(X, T):
        r = _radius(X)
        g, cdot = _g_jet(r, T)
        y1, y2 = X[:, 0], X[:, 1]
        ir2 = 1.0 / (r * r)
        g2 = g.value * g.value
        return np.stack(
            [-cdot * ir2 * y2 + g2 * y1, cdot * ir2 * y1 + g2 * y2], axis=1
        )

    def _speed_profile(r, t):
        """|u| as a function of radius at fixed time: |g(r,t)| * r."""
        r = np.asarray(r, dtype=float)
        gval = c_real(float(t)) / (r * r) + h_real(r)
        return np.abs(gval) * r

    def pressure_val(X, T):
        n = len(X)
        cv, cdot, r, angle = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
        for i in range(n):
            y1, y2 = float(X[i, 0]), float(X[i, 1])
            cjet = eval_jet(c_ast, Jet2.variable(float(T[i])), params)
            cv[i], cdot[i] = float(cjet.value), float(cjet.d1)
            r[i], angle[i] = math.hypot(y1, y2), math.atan2(y1, y2)

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

    tmax = 0.9 * blowup_time if blowup_time is not None else 1.0
    metadata = {
        "name": name,
        "family": "ij_vortex",
        "params": {"c": str(c) if isinstance(c, str) else "<ast>",
                   "h": str(h) if isinstance(h, str) else "<ast>",
                   "values": dict(params)},
        "ij_index": (1, 2),
        "default_box": ((-3.0, 3.0), (-3.0, 3.0)),
        "default_time": (0.0, tmax),
        "radial_speed": _speed_profile,
        "pressure_branch": "angle(x1, x2) in (-pi, pi], cut on {x1 = 0, x2 <= 0}",
        "transform_chain": [],
    }
    return SolutionPair(
        dimension=2,
        viscosity=0.0,
        velocity=velocity,
        velocity_jet=velocity_jet,
        pressure_gradient=pressure_gradient,
        pressure_value=pressure_val,
        pressure_cut_clearance=cut_clearance,
        singular=singular,
        exclusion_radius=exclusion_radius,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Traveling-wave family
# ---------------------------------------------------------------------------


def twin_wave(
    v: ExprLike,
    c1: float,
    c2: float,
    c3: float,
    params: Optional[dict] = None,
    singular_offsets: Sequence[float] = (),
    exclusion_radius: float = 1e-3,
    name: str = "twin_wave",
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
    v_real = compile_real(v_ast, params)
    speed = c3 * c1 - c2

    def _xi(X, T):
        return c3 * X[:, 0] - X[:, 1] - speed * T

    def velocity(X, T):
        val = v_real(_xi(X, T))
        val = np.broadcast_to(np.asarray(val, dtype=float), (len(X),))
        return np.stack([val + c1, c3 * val + c2], axis=1)

    def velocity_jet(X, T):
        n = len(X)
        jet = eval_jet(v_ast, Jet2.variable(_xi(X, T)), params)
        val = np.broadcast_to(np.asarray(jet.value, dtype=float), (n,))
        vp = np.broadcast_to(np.asarray(jet.d1, dtype=float), (n,))
        vpp = np.broadcast_to(np.asarray(jet.d2, dtype=float), (n,))
        c3vp = c3 * vp
        jac = np.empty((n, 2, 2))
        jac[:, 0, 0] = c3vp
        jac[:, 0, 1] = -vp
        jac[:, 1, 0] = c3 * c3vp
        jac[:, 1, 1] = -c3vp
        lapfac = (1.0 + c3 * c3) * vpp
        lap = np.stack([lapfac, c3 * lapfac], axis=1)
        dt = np.stack([-speed * vp, -speed * c3vp], axis=1)
        value = np.stack([val + c1, c3 * val + c2], axis=1)
        return VelocityJet(value, jac, lap, dt)

    def pressure_gradient(X, T):
        return np.zeros((len(X), 2))

    def pressure_val(X, T):
        return np.zeros(len(X))

    norm = math.hypot(c3, 1.0)
    primitives = tuple(
        MovingLine((c3, -1.0), float(off), speed) for off in singular_offsets
    )
    singular = SingularSetDescriptor(primitives=primitives)

    metadata = {
        "name": name,
        "family": "twin_wave",
        "params": {"v": str(v) if isinstance(v, str) else "<ast>",
                   "c1": c1, "c2": c2, "c3": c3, "values": dict(params)},
        "ij_index": (1, 3),
        "default_box": ((-3.0, 3.0), (-3.0, 3.0)),
        "default_time": (0.0, 1.0),
        "wave_speed": speed,
        "wave_normal": (c3 / norm, -1.0 / norm),
        "transform_chain": [],
    }
    return SolutionPair(
        dimension=2,
        viscosity=0.0,
        velocity=velocity,
        velocity_jet=velocity_jet,
        pressure_gradient=pressure_gradient,
        pressure_value=pressure_val,
        singular=singular,
        exclusion_radius=exclusion_radius,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Linear strain family
# ---------------------------------------------------------------------------


def linear3d(
    f: ExprLike,
    C: np.ndarray,
    sigma: float = 0.0,
    params: Optional[dict] = None,
    blowup_time: Optional[float] = None,
    name: str = "linear3d",
) -> SolutionPair:
    """Linear field u = f(t) C x with C symmetric and trace free.

    The Laplacian vanishes identically, so the pair solves both the
    inviscid and the viscous equations for any sigma >= 0, with

        grad p = -f(t)^2 C^2 x - f'(t) C x.
    """
    params = dict(params or {})
    f_ast = _as_ast(f, "t")
    _require_params(f_ast, params, "f(t)")
    f_real = compile_real(f_ast, params)
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

    def _f_jet(T):
        return eval_jet(f_ast, Jet2.variable(T), params)

    def velocity(X, T):
        fv = np.asarray(f_real(T))
        return (fv[:, None] if fv.ndim else fv) * (X @ C)

    def velocity_jet(X, T):
        n = len(X)
        fj = _f_jet(T)
        fv = np.broadcast_to(np.asarray(fj.value, dtype=float), (n,))
        fd = np.broadcast_to(np.asarray(fj.d1, dtype=float), (n,))
        Cx = X @ C
        value = fv[:, None] * Cx
        jac = fv[:, None, None] * C[None, :, :]
        lap = np.zeros((n, 3))
        dt = fd[:, None] * Cx
        return VelocityJet(value, jac, lap, dt)

    def pressure_gradient(X, T):
        fj = _f_jet(T)
        n = len(X)
        fv = np.broadcast_to(np.asarray(fj.value, dtype=float), (n,))
        fd = np.broadcast_to(np.asarray(fj.d1, dtype=float), (n,))
        return -(fv * fv)[:, None] * (X @ C2) - fd[:, None] * (X @ C)

    def pressure_val(X, T):
        fj = _f_jet(T)
        n = len(X)
        fv = np.broadcast_to(np.asarray(fj.value, dtype=float), (n,))
        fd = np.broadcast_to(np.asarray(fj.d1, dtype=float), (n,))
        Cx = X @ C
        return -0.5 * fv * fv * np.sum(Cx * Cx, axis=1) - 0.5 * fd * np.sum(X * Cx, axis=1)

    primitives = (BlowupTime(blowup_time),) if blowup_time is not None else ()
    tmax = 0.9 * blowup_time if blowup_time is not None else 1.0

    def _sup_speed_unit_ball(t):
        return abs(float(f_real(float(t)))) * spectral

    metadata = {
        "name": name,
        "family": "linear3d",
        "params": {"f": str(f) if isinstance(f, str) else "<ast>",
                   "C": C.tolist(), "sigma": sigma, "values": dict(params)},
        "ij_index": (1, 1),
        "default_box": ((-3.0, 3.0),) * 3,
        "default_time": (0.0, tmax),
        "sup_speed_unit_ball": _sup_speed_unit_ball,
        "transform_chain": [],
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
    )


# ---------------------------------------------------------------------------
# Half-space viscous blow-up family
# ---------------------------------------------------------------------------


def ns_halfspace_blowup(
    T: float,
    sigma: float,
    c: float = 0.0,
    x0: Sequence[float] = (0.0, 0.0, 0.0),
    pressure_sign: int = 1,
    name: str = "ns_halfspace_blowup",
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
    momentum equation (the certified sign is +1).
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

    def _parts(X, T_):
        tau = T - T_
        if np.any(tau <= 0.0):
            raise InadmissiblePointError("time at or beyond the blow-up time")
        s = np.sum(X - np.asarray(x0), axis=1)
        isq = 1.0 / np.sqrt(tau)
        A = s * s / (12.0 * sigma * tau) - s * isq / sigma
        E = np.exp(A)
        return tau, s, isq, E

    def velocity(X, T_):
        tau, s, isq, E = _parts(X, T_)
        u12 = isq * (-1.0 + E)
        u3 = -isq * (1.0 + 2.0 * E)
        return np.stack([u12, u12, u3], axis=1)

    def velocity_jet(X, T_):
        n = len(X)
        tau, s, isq, E = _parts(X, T_)
        A_s = s / (6.0 * sigma * tau) - isq / sigma
        A_ss = 1.0 / (6.0 * sigma * tau)
        A_t = s * s / (12.0 * sigma * tau * tau) - 0.5 * s * isq / (sigma * tau)
        u12 = isq * (-1.0 + E)
        u3 = -isq * (1.0 + 2.0 * E)
        value = np.stack([u12, u12, u3], axis=1)
        # d/ds of the components: (w, w, -2w); every spatial direction sees
        # the same derivative, which makes the Jacobian trace exactly zero.
        w = isq * E * A_s
        us = np.stack([w, w, -2.0 * w], axis=1)
        jac = np.repeat(us[:, :, None], 3, axis=2)
        w2 = isq * E * (A_s * A_s + A_ss)
        lap = 3.0 * np.stack([w2, w2, -2.0 * w2], axis=1)
        halftau32 = 0.5 * isq / tau
        u12_t = halftau32 * (-1.0 + E) + isq * E * A_t
        u3_t = -(halftau32 * (1.0 + 2.0 * E) + 2.0 * isq * E * A_t)
        dt = np.stack([u12_t, u12_t, u3_t], axis=1)
        return VelocityJet(value, jac, lap, dt)

    def pressure_gradient(X, T_):
        tau, s, isq, E = _parts(X, T_)
        ps = sign * 0.5 * isq / tau
        return np.repeat(ps[:, None], 3, axis=1)

    def pressure_val(X, T_):
        tau, s, isq, E = _parts(X, T_)
        return sign * (0.5 * s * isq + c) / tau

    def _boundary_speed(t):
        tau = T - float(t)
        return 3.0 / math.sqrt(tau)

    singular = SingularSetDescriptor(
        primitives=(BlowupTime(T), HalfSpaceBoundary(x0)),
    )
    metadata = {
        "name": name,
        "family": "ns_halfspace_blowup",
        "params": {"T": T, "sigma": sigma, "c": c, "x0": list(x0),
                   "pressure_sign": pressure_sign},
        "default_box": ((-1.0, 1.0),) * 3,
        "default_time": (0.0, 0.9 * T),
        "boundary_speed": _boundary_speed,
        "boundary_point": x0,
        "transform_chain": [],
    }
    return SolutionPair(
        dimension=3,
        viscosity=float(sigma),
        velocity=velocity,
        velocity_jet=velocity_jet,
        pressure_gradient=pressure_gradient,
        pressure_value=pressure_val,
        singular=singular,
        exclusion_radius=0.01,
        metadata=metadata,
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
        return TransformSpec(kind="boost", velocity=tuple(float(v) for v in velocity))

    @staticmethod
    def rotation(angle: float) -> "TransformSpec":
        return TransformSpec(kind="rotation", angle=float(angle))

    @staticmethod
    def rescale(lam: float, tau: float) -> "TransformSpec":
        if lam <= 0 or tau <= 0:
            raise FieldError("rescale requires lam > 0 and tau > 0")
        return TransformSpec(kind="rescale", lam=float(lam), tau=float(tau))

    def as_dict(self) -> dict:
        if self.kind == "boost":
            return {"kind": "boost", "velocity": list(self.velocity)}
        if self.kind == "rotation":
            return {"kind": "rotation", "angle": self.angle}
        return {"kind": "rescale", "lam": self.lam, "tau": self.tau}

    @staticmethod
    def from_dict(d: dict) -> "TransformSpec":
        kind = d.get("kind")
        if kind == "boost":
            return TransformSpec.boost(d["velocity"])
        if kind == "rotation":
            return TransformSpec.rotation(d["angle"])
        if kind == "rescale":
            return TransformSpec.rescale(d["lam"], d["tau"])
        raise FieldError(f"unknown transform kind {kind!r}")


def _chain_metadata(sol: SolutionPair, entry: dict, **extra) -> dict:
    md = dict(sol.metadata)
    md["transform_chain"] = list(md.get("transform_chain", [])) + [entry]
    md.update(extra)
    return md


def _boosted(sol: SolutionPair, C: np.ndarray) -> SolutionPair:
    if len(C) != sol.dimension:
        raise FieldError("boost velocity dimension must match the solution dimension")
    base_v, base_j = sol.velocity, sol.velocity_jet
    base_pg, base_pv = sol.pressure_gradient, sol.pressure_value
    base_cut = sol.pressure_cut_clearance

    def pull(X, T):
        return X - np.outer(T, C)

    def velocity(X, T):
        return base_v(pull(X, T), T) + C

    def velocity_jet(X, T):
        jet = base_j(pull(X, T), T)
        dt = jet.dt - np.einsum("nij,j->ni", jet.jacobian, C)
        return VelocityJet(jet.value + C, jet.jacobian, jet.laplacian, dt)

    def pressure_gradient(X, T):
        return base_pg(pull(X, T), T)

    pv = (lambda X, T: base_pv(pull(X, T), T)) if base_pv is not None else None
    cut = (lambda X, T: base_cut(pull(X, T), T)) if base_cut is not None else None

    total = np.asarray(sol.metadata.get("boost_total", np.zeros(sol.dimension))) + C
    md = _chain_metadata(sol, {"kind": "boost", "velocity": list(map(float, C))},
                         boost_total=tuple(map(float, total)))
    return replace(
        sol,
        velocity=velocity,
        velocity_jet=velocity_jet,
        pressure_gradient=pressure_gradient,
        pressure_value=pv,
        pressure_cut_clearance=cut,
        singular=sol.singular.boosted(C),
        metadata=md,
    )


def _rotated(sol: SolutionPair, angle: float) -> SolutionPair:
    if sol.dimension != 2:
        raise FieldError("rotation is only defined for 2D solutions")
    ca, sa = math.cos(angle), math.sin(angle)
    Q = np.array([[ca, -sa], [sa, ca]])
    base_v, base_j = sol.velocity, sol.velocity_jet
    base_pg, base_pv = sol.pressure_gradient, sol.pressure_value
    base_cut = sol.pressure_cut_clearance

    def pull(X):
        return X @ Q.T

    def velocity(X, T):
        return base_v(pull(X), T) @ Q

    def velocity_jet(X, T):
        jet = base_j(pull(X), T)
        jac = np.einsum("ji,njk,kl->nil", Q, jet.jacobian, Q)
        return VelocityJet(jet.value @ Q, jac, jet.laplacian @ Q, jet.dt @ Q)

    def pressure_gradient(X, T):
        return base_pg(pull(X), T) @ Q

    pv = (lambda X, T: base_pv(pull(X), T)) if base_pv is not None else None
    cut = (lambda X, T: base_cut(pull(X), T)) if base_cut is not None else None

    md = _chain_metadata(sol, {"kind": "rotation", "angle": float(angle)})
    if "boost_total" in md:
        md["boost_total"] = tuple(map(float, Q.T @ np.asarray(md["boost_total"])))
    return replace(
        sol,
        velocity=velocity,
        velocity_jet=velocity_jet,
        pressure_gradient=pressure_gradient,
        pressure_value=pv,
        pressure_cut_clearance=cut,
        singular=sol.singular.rotated(Q),
        metadata=md,
    )


def _rescaled(sol: SolutionPair, lam: float, tau: float) -> SolutionPair:
    base_v, base_j = sol.velocity, sol.velocity_jet
    base_pg, base_pv = sol.pressure_gradient, sol.pressure_value
    base_cut = sol.pressure_cut_clearance
    amp = lam / tau

    def pull(X, T):
        return X / lam, T / tau

    def velocity(X, T):
        Y, S = pull(X, T)
        return amp * base_v(Y, S)

    def velocity_jet(X, T):
        Y, S = pull(X, T)
        jet = base_j(Y, S)
        return VelocityJet(
            amp * jet.value,
            jet.jacobian / tau,
            jet.laplacian / (lam * tau),
            (lam / tau**2) * jet.dt,
        )

    def pressure_gradient(X, T):
        Y, S = pull(X, T)
        return (lam / tau**2) * base_pg(Y, S)

    pv = (lambda X, T: amp * amp * base_pv(*pull(X, T))) if base_pv is not None else None
    cut = (lambda X, T: lam * base_cut(*pull(X, T))) if base_cut is not None else None

    md = _chain_metadata(sol, {"kind": "rescale", "lam": float(lam), "tau": float(tau)})
    if "boost_total" in md:
        md["boost_total"] = tuple(amp * v for v in md["boost_total"])
    if "default_box" in md:
        md["default_box"] = tuple((lam * lo, lam * hi) for lo, hi in md["default_box"])
    if "default_time" in md:
        t0, t1 = md["default_time"]
        md["default_time"] = (tau * t0, tau * t1)
    if "radial_speed" in md:
        base_speed = md["radial_speed"]
        md["radial_speed"] = lambda r, t: amp * base_speed(np.asarray(r) / lam, t / tau)
    return replace(
        sol,
        viscosity=sol.viscosity * lam * lam / tau,
        velocity=velocity,
        velocity_jet=velocity_jet,
        pressure_gradient=pressure_gradient,
        pressure_value=pv,
        pressure_cut_clearance=cut,
        singular=sol.singular.rescaled(lam, tau),
        exclusion_radius=lam * sol.exclusion_radius,
        metadata=md,
    )


def apply_transform(sol: SolutionPair, tr: TransformSpec) -> SolutionPair:
    """Apply a solution-preserving symmetry; transforms compose freely.

    boost:    w(x,t) = u(x - C t, t) + C
    rotation: w(x,t) = Q^T u(Q x, t), grad pbar = Q^T grad p(Q x, t)
    rescale:  w(x,t) = (lam/tau) u(x/lam, t/tau),
              grad pbar = (lam/tau^2) grad p(x/lam, t/tau),
              viscosity sigma -> sigma lam^2 / tau
    """
    if tr.kind == "boost":
        return _boosted(sol, np.asarray(tr.velocity, dtype=float))
    if tr.kind == "rotation":
        return _rotated(sol, tr.angle)
    if tr.kind == "rescale":
        return _rescaled(sol, tr.lam, tr.tau)
    raise FieldError(f"unknown transform kind {tr.kind!r}")


# ---------------------------------------------------------------------------
# Presets
#
# Exclusion radii are calibration constants: they are chosen so that every
# certified metric clears its tolerance with at least a 10x margin in
# double precision (derivative magnitudes grow like inverse powers of the
# distance to the singular set, and the FD cross-checks amplify rounding
# noise by 1/step).  See the README for the calibration notes.
# ---------------------------------------------------------------------------


def _decay(md, kappa, power, exact):
    md["decay_envelope"] = {"kappa": kappa, "power": power, "exact": exact}
    return md


def _preset_ex_2_5(ov):
    sol = ij_vortex("t", "-1/r^2", exclusion_radius=ov.get("exclusion_radius", 0.3),
                    name="ex_2_5")
    md = dict(sol.metadata)
    _decay(md, lambda t: abs(t - 1.0), 1, True)
    md["summary"] = "vortex with circulation growing linearly in time; finite energy only at t = 1"
    return replace(sol, metadata=md)


def _preset_ex_2_6(ov):
    T = float(ov.get("T", 1.0))
    sol = ij_vortex("1/(T - t)", "-1/r^2", params={"T": T}, blowup_time=T,
                    exclusion_radius=ov.get("exclusion_radius", 0.7), name="ex_2_6")
    md = dict(sol.metadata)
    _decay(md, lambda t: abs(1.0 / (T - t) - 1.0), 1, True)
    md["summary"] = "vortex blowing up at t = T, singular at the origin"
    return replace(sol, metadata=md)


def _preset_ex_3_2(ov):
    C = tuple(ov.get("C", (1.0, 1.0)))
    base = ij_vortex("1", "-1/r^2 + 1/(1+r^2)^2",
                     exclusion_radius=ov.get("exclusion_radius", 0.12), name="ex_3_2")
    sol = apply_transform(base, TransformSpec.boost(C))
    md = dict(sol.metadata)
    md["name"] = "ex_3_2"
    _decay(md, 1.0, 3, False)
    md["summary"] = "globally smooth traveling vortex; u - C has finite planar energy"
    return replace(sol, metadata=md)


def _preset_ex_3_10(ov):
    T = float(ov.get("T", 1.0))
    c1, c2, c3 = (float(ov.get(k, d)) for k, d in (("c1", 1.0), ("c2", 0.0), ("c3", 1.0)))
    offset = -T * (c1 - c2)
    sol = twin_wave("1/(x + T*(c1 - c2))^2", c1, c2, c3,
                    params={"T": T, "c1": c1, "c2": c2},
                    singular_offsets=(offset,),
                    exclusion_radius=ov.get("exclusion_radius", 0.45), name="ex_3_10")
    md = dict(sol.metadata)
    md["form_symmetry_time"] = T
    md["summary"] = "traveling wave whose components match in form exactly at t = T"
    return replace(sol, metadata=md)


def _preset_ex_3_4_smooth(ov):
    c1, c2, c3 = (float(ov.get(k, d)) for k, d in (("c1", 1.0), ("c2", 0.0), ("c3", 1.0)))
    sol = twin_wave("1/(1+x^2)^2 - c1", c1, c2, c3, params={"c1": c1},
                    exclusion_radius=ov.get("exclusion_radius", 1e-3),
                    name="ex_3_4_smooth")
    md = dict(sol.metadata)
    md["summary"] = "globally smooth traveling wave with a single bump profile"
    return replace(sol, metadata=md)


def _preset_ex_3_4_singular(ov):
    c1, c2, c3 = (float(ov.get(k, d)) for k, d in (("c1", 1.0), ("c2", 0.0), ("c3", 1.0)))
    sol = twin_wave("1/x^2", c1, c2, c3, singular_offsets=(0.0,),
                    exclusion_radius=ov.get("exclusion_radius", 0.45),
                    name="ex_3_4_singular")
    md = dict(sol.metadata)
    md["summary"] = "traveling wave singular on a moving line"
    return replace(sol, metadata=md)


_C_DEFAULT = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -2.0))


def _preset_ex_5_1_const(ov):
    sigma = float(ov.get("sigma", 0.0))
    sol = linear3d("1", np.asarray(ov.get("C", _C_DEFAULT)), sigma=sigma,
                   name="ex_5_1_const")
    md = dict(sol.metadata)
    md["summary"] = "steady linear strain field, valid for any viscosity"
    return replace(sol, metadata=md)


def _preset_ex_5_1_blowup(ov):
    T = float(ov.get("T", 1.0))
    sigma = float(ov.get("sigma", 0.0))
    sol = linear3d("1/(T - t)", np.asarray(ov.get("C", _C_DEFAULT)), sigma=sigma,
                   params={"T": T}, blowup_time=T, name="ex_5_1_blowup")
    md = dict(sol.metadata)
    md["summary"] = "linear strain field with amplitude blowing up at t = T"
    return replace(sol, metadata=md)


def _preset_ex_6_1(ov):
    sol = ns_halfspace_blowup(
        T=float(ov.get("T", 1.0)),
        sigma=float(ov.get("sigma", 1.0)),
        c=float(ov.get("c", 0.0)),
        x0=tuple(ov.get("x0", (0.0, 0.0, 0.0))),
        pressure_sign=int(ov.get("pressure_sign", 1)),
        name="ex_6_1",
    )
    if "exclusion_radius" in ov:
        sol = replace(sol, exclusion_radius=float(ov["exclusion_radius"]))
    md = dict(sol.metadata)
    md["summary"] = "viscous half-space solution blowing up at t = T"
    return replace(sol, metadata=md)


_PRESETS = {
    "ex_2_5": _preset_ex_2_5,
    "ex_2_6": _preset_ex_2_6,
    "ex_3_2": _preset_ex_3_2,
    "ex_3_10": _preset_ex_3_10,
    "ex_3_4_smooth": _preset_ex_3_4_smooth,
    "ex_3_4_singular": _preset_ex_3_4_singular,
    "ex_5_1_const": _preset_ex_5_1_const,
    "ex_5_1_blowup": _preset_ex_5_1_blowup,
    "ex_6_1": _preset_ex_6_1,
}

PRESET_SUMMARIES = {
    "ex_2_5": ("ij_vortex", "c(t) = t, h(r) = -1/r^2"),
    "ex_2_6": ("ij_vortex", "c(t) = 1/(T-t), h(r) = -1/r^2"),
    "ex_3_2": ("ij_vortex + boost", "c = 1, h = -1/r^2 + 1/(1+r^2)^2, C = (1,1)"),
    "ex_3_10": ("twin_wave", "v = 1/(xi + T(c1-c2))^2, c3 = 1"),
    "ex_3_4_smooth": ("twin_wave", "v = 1/(1+xi^2)^2 - c1, c3 = 1"),
    "ex_3_4_singular": ("twin_wave", "v = 1/xi^2, c3 = 1"),
    "ex_5_1_const": ("linear3d", "f = 1, C = diag(1, 1, -2)"),
    "ex_5_1_blowup": ("linear3d", "f = 1/(T-t), C = diag(1, 1, -2)"),
    "ex_6_1": ("ns_halfspace_blowup", "T = 1, sigma = 1, pressure_sign = +1"),
}


def preset_ids():
    return list(_PRESETS)


def preset(preset_id: str, overrides: Optional[dict] = None) -> SolutionPair:
    """Build a named preset with its documented default parameters.

    ``overrides`` may replace the numeric defaults (T, sigma, c1, c2, c3,
    C, x0, c, pressure_sign, exclusion_radius) where applicable.
    """
    try:
        builder = _PRESETS[preset_id]
    except KeyError:
        raise FieldError(
            f"unknown preset {preset_id!r}; known presets: {', '.join(_PRESETS)}"
        ) from None
    return builder(dict(overrides or {}))

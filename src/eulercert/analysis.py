"""Quantitative claims beyond pointwise residuals: annulus L^q norms,
planar energy of boosted fields, blow-up exponent fitting, and numeric
probes that corroborate the nonexistence and completeness statements.

Improper integrals are truncated at R_MAX with an analytic tail per
family: when the registered decay envelope is exact the tail is integrated
in closed form and added to the value; otherwise the envelope only bounds
the truncation error, which is reported as a width.  Without an envelope
the result is a divergence diagnosis rather than a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expressions import ExprAst, ExpressionError, Jet2, eval_jet, parse
from .fields import (
    FieldError,
    MovingLine,
    SingularSetDescriptor,
    SolutionPair,
    VelocityJet,
)
from .verification import SampleRegion, _residual_batch, _divergence_batch, _sample_arrays

__all__ = [
    "NormSpec",
    "NormResult",
    "EnergyResult",
    "RateFit",
    "FitResult",
    "ProbeResult",
    "annulus_lq_norm",
    "l2_energy_difference",
    "blowup_exponent_fit",
    "affine_probe",
    "twin_wave_form_check",
]

R_MAX = 1e3
QUAD_OPTS = dict(epsrel=1e-11, epsabs=1e-14, limit=300)


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first use: only the norms and the
    energy need it, and importing it takes longer than most other commands."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


@dataclass(frozen=True)
class NormSpec:
    """L^q norm specification over an annulus delta < r < R at fixed time.

    ``subtract`` removes a constant vector before taking the modulus (used
    for boosted fields, where u minus the boost decays).  R may be inf.
    """

    q: float
    delta: float
    R: float
    t: float
    subtract: Optional[tuple] = None

    def __post_init__(self):
        if self.q < 1:
            raise FieldError("norm exponent q must be >= 1")
        if self.delta <= 0:
            raise FieldError("annulus inner radius delta must be > 0")
        if not (self.R > self.delta):
            raise FieldError("annulus requires R > delta")


@dataclass(frozen=True)
class NormResult:
    value: float  # the L^q norm
    value_pow_q: float  # norm**q, the quantity the closed forms describe
    tail_bound: float
    provenance: str


@dataclass(frozen=True)
class EnergyResult:
    value: Optional[float]  # squared L^2 norm over the plane, None if divergent
    tail_bound: float
    diagnosis: Optional[str]


def _radial_speed(sol: SolutionPair, spec_subtract) -> "callable":
    """Speed-versus-radius profile for radially structured solutions.

    Valid when either nothing is subtracted and the solution is unboosted,
    or exactly the accumulated boost is subtracted (then the profile lives
    in the co-moving frame).
    """
    speed = sol.metadata.get("radial_speed")
    if speed is None:
        return None
    boost = np.asarray(sol.metadata.get("boost_total", np.zeros(sol.dimension)))
    sub = np.zeros(sol.dimension) if spec_subtract is None else np.asarray(spec_subtract)
    if not np.array_equal(sub, boost):
        return None
    return speed


def _envelope(sol: SolutionPair, t: float):
    env = sol.metadata.get("decay_envelope")
    if env is None:
        return None
    kappa = env["kappa"]
    k = kappa(t) if callable(kappa) else float(kappa)
    return k, env["power"], env["exact"]


def _tail_integral(kappa: float, m: float, q: float, R: float) -> float:
    """integral over r > R of 2 pi r (kappa / r^m)^q dr, finite when m q > 2."""
    p = m * q - 2.0
    if p <= 0:
        return math.inf
    return 2.0 * math.pi * kappa**q * R ** (-p) / p


def annulus_lq_norm(sol: SolutionPair, spec: NormSpec) -> NormResult:
    """L^q norm of the (possibly boost-subtracted) speed over an annulus.

    Radially structured solutions reduce to a single radial quadrature
    of 2 pi r |u(r)|^q; other 2D solutions integrate over polar angle as
    well.  An infinite outer radius requires an exact decay envelope.
    """
    t = spec.t
    speed = _radial_speed(sol, spec.subtract)
    if speed is not None:

        def integrand(r):
            return 2.0 * math.pi * r * float(speed(r, t)) ** spec.q

        finite_R = min(spec.R, R_MAX)
        val, _ = quad(integrand, spec.delta, finite_R, **QUAD_OPTS)
        tail = 0.0
        provenance = f"radial quadrature on [{spec.delta}, {finite_R}]"
        if spec.R > R_MAX:
            env = _envelope(sol, t)
            if env is None:
                raise FieldError("improper norm needs a registered decay envelope")
            kappa, m, exact = env
            tail = _tail_integral(kappa, m, spec.q, R_MAX)
            if not math.isfinite(tail):
                raise FieldError(
                    f"L^{spec.q} norm diverges: envelope decay r^-{m} is not integrable"
                )
            if exact:
                val += tail
                provenance += f"; exact tail r > {R_MAX} added in closed form"
                tail = 0.0
            else:
                provenance += f"; tail bounded by the r^-{m} envelope"
        return NormResult(val ** (1.0 / spec.q), val, tail, provenance)

    if sol.dimension != 2:
        raise FieldError("annulus norms are implemented for 2D solutions")
    if not math.isfinite(spec.R):
        raise FieldError("improper norm needs a radially structured solution")
    sub = np.zeros(2) if spec.subtract is None else np.asarray(spec.subtract)

    def ring(r):
        def along(theta):
            X = np.asarray([[r * math.cos(theta), r * math.sin(theta)]])
            u = sol.velocity(X, np.asarray([t]))[0] - sub
            return float(np.linalg.norm(u)) ** spec.q

        val, _ = quad(along, 0.0, 2.0 * math.pi, epsrel=1e-9, epsabs=1e-12, limit=200)
        return r * val

    val, _ = quad(ring, spec.delta, spec.R, epsrel=1e-9, epsabs=1e-12, limit=200)
    return NormResult(val ** (1.0 / spec.q), val, 0.0,
                      f"polar tensor quadrature on the annulus ({spec.delta}, {spec.R})")


def l2_energy_difference(sol: SolutionPair, C: Sequence[float], t: float = 0.0) -> EnergyResult:
    """Squared L^2 norm of u - C over the whole plane, with a tail bound.

    Needs a registered decay envelope faster than 1/r; a 1/r envelope is
    reported as log-divergent, anything absent as divergent or unknown.
    """
    speed = _radial_speed(sol, tuple(C))
    if speed is None:
        return EnergyResult(None, math.inf, "divergent or unknown: no decay envelope for u - C")
    env = _envelope(sol, t)
    if env is None:
        return EnergyResult(None, math.inf, "divergent or unknown: no decay envelope registered")
    kappa, m, exact = env
    if 2.0 * m <= 2.0:
        kind = "log-divergent" if 2.0 * m == 2.0 else "divergent"
        return EnergyResult(None, math.inf, f"{kind}: envelope decays like r^-{m}")

    def integrand(r):
        return 2.0 * math.pi * r * float(speed(r, t)) ** 2

    val, _ = quad(integrand, 0.0, R_MAX, **QUAD_OPTS)
    tail = _tail_integral(kappa, m, 2.0, R_MAX)
    if exact:
        return EnergyResult(val + tail, 0.0, None)
    return EnergyResult(val, tail, None)


# ---------------------------------------------------------------------------
# Blow-up exponent fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Norm-versus-time power-law fit approaching the blow-up time.

    Sample times are t_k = T (1 - 2^-k) for k = 1..K; the fit is plain
    least squares of log norm against log (T - t_k).
    """

    kind: str = "sup"  # "sup" | "lq"
    K: int = 48
    annulus: tuple = (1.0, 2.0)  # sup / lq region for radial families
    q: float = 2.0  # exponent for kind == "lq"

    def __post_init__(self):
        if self.K < 6:
            raise FieldError("rate fit needs K >= 6 sample times")
        if self.K > 50:
            raise FieldError("K > 50 makes T - t_k unresolvable in double precision")
        if self.kind not in ("sup", "lq"):
            raise FieldError("fit kind must be 'sup' or 'lq'")


@dataclass(frozen=True)
class FitResult:
    exponent: float
    residual_rms: float
    blowup_time: float
    samples: tuple  # ((t_k, norm_k), ...)


def _sup_norm_at(sol: SolutionPair, t: float, annulus: tuple) -> float:
    boundary = sol.metadata.get("boundary_speed")
    if boundary is not None:
        return float(boundary(t))
    unit_ball = sol.metadata.get("sup_speed_unit_ball")
    if unit_ball is not None:
        return float(unit_ball(t))
    speed = sol.metadata.get("radial_speed")
    if speed is not None:
        r = np.linspace(annulus[0], annulus[1], 4001)
        return float(np.max(speed(r, t)))
    raise FieldError("no sup-norm evaluator is registered for this family")


def blowup_exponent_fit(sol: SolutionPair, fit: Optional[RateFit] = None) -> FitResult:
    """Fit norm(t) ~ (T - t)^alpha on a dyadic approach to the blow-up time."""
    fit = fit or RateFit()
    T = sol.singular.blowup_time()
    if T is None:
        raise FieldError("no blow-up time in singular set")
    ts, norms = [], []
    for k in range(1, fit.K + 1):
        t = T * (1.0 - 2.0 ** -k)
        if fit.kind == "sup":
            nrm = _sup_norm_at(sol, t, fit.annulus)
        else:
            nrm = annulus_lq_norm(
                sol, NormSpec(q=fit.q, delta=fit.annulus[0], R=fit.annulus[1], t=t)
            ).value
        if not (math.isfinite(nrm) and nrm > 0):
            raise FieldError(f"norm evaluation failed at t = {t}")
        ts.append(t)
        norms.append(nrm)
    x = np.log([T - t for t in ts])
    y = np.log(norms)
    xm, ym = x.mean(), y.mean()
    slope = float(math.fsum((x - xm) * (y - ym)) / math.fsum((x - xm) ** 2))
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    rms = float(np.sqrt(np.mean(resid * resid)))
    return FitResult(exponent=slope, residual_rms=rms, blowup_time=T,
                     samples=tuple(zip(ts, norms)))


# ---------------------------------------------------------------------------
# Theorem probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    sup_residual: float
    count: int
    verdict: str


DEFAULT_PROBE_REGION = SampleRegion(box=((1.0, 2.0), (1.0, 2.0)), time=(0.0, 0.5),
                                    count=2000, seed=0)


def _probe_sup(sol: SolutionPair, region: SampleRegion, include_divergence: bool) -> ProbeResult:
    X, T = _sample_arrays(region, sol.singular, sol.exclusion_radius)
    values = np.linalg.norm(_residual_batch(sol, X, T), axis=1)
    if include_divergence:
        values = values + np.abs(_divergence_batch(sol, X, T))
    if not np.all(np.isfinite(values)):
        raise FieldError("probe field is not finite on the grid")
    return ProbeResult(float(values.max()), len(values), "")


def _affine_solution(v1: ExprAst, v2: ExprAst, c1: float, c2: float,
                     params: dict) -> SolutionPair:
    """Field depending on space-time only through eta = (x1-c1 t)/(x2-c2 t),
    with x-independent pressure."""

    def _eta_parts(X, T):
        a = X[:, 0] - c1 * T
        b = X[:, 1] - c2 * T
        if np.any(b == 0.0):
            raise FieldError("affine ansatz is singular on the line x2 = c2 t")
        return a, b, a / b

    def velocity(X, T):
        _, _, eta = _eta_parts(X, T)
        seed = Jet2.variable(eta)
        n = len(X)
        u1 = np.broadcast_to(np.asarray(eval_jet(v1, seed, params).value, float), (n,))
        u2 = np.broadcast_to(np.asarray(eval_jet(v2, seed, params).value, float), (n,))
        return np.stack([u1, u2], axis=1)

    def velocity_jet(X, T):
        n = len(X)
        a, b, eta = _eta_parts(X, T)
        seed = Jet2.variable(eta)
        j1 = eval_jet(v1, seed, params)
        j2 = eval_jet(v2, seed, params)
        e1 = 1.0 / b  # d eta / d x1
        e2 = -a / (b * b)  # d eta / d x2
        lap_eta = 2.0 * a / (b * b * b)
        et = (-c1 + c2 * eta) / b
        grad2 = e1 * e1 + e2 * e2
        jac = np.empty((n, 2, 2))
        lap = np.empty((n, 2))
        dt = np.empty((n, 2))
        value = np.empty((n, 2))
        for i, jet in enumerate((j1, j2)):
            vp = np.broadcast_to(np.asarray(jet.d1, float), (n,))
            vpp = np.broadcast_to(np.asarray(jet.d2, float), (n,))
            value[:, i] = np.broadcast_to(np.asarray(jet.value, float), (n,))
            jac[:, i, 0] = vp * e1
            jac[:, i, 1] = vp * e2
            lap[:, i] = vpp * grad2 + vp * lap_eta
            dt[:, i] = vp * et
        return VelocityJet(value, jac, lap, dt)

    def pressure_gradient(X, T):
        return np.zeros((len(X), 2))

    singular = SingularSetDescriptor(primitives=(MovingLine((0.0, 1.0), 0.0, c2),))
    return SolutionPair(
        dimension=2,
        viscosity=0.0,
        velocity=velocity,
        velocity_jet=velocity_jet,
        pressure_gradient=pressure_gradient,
        singular=singular,
        metadata={"name": "affine_probe", "family": "affine_probe",
                  "ij_index": (1, 4), "transform_chain": []},
    )


def affine_probe(v1, v2, c1: float, c2: float,
                 grid: Optional[SampleRegion] = None,
                 params: Optional[dict] = None) -> ProbeResult:
    """Sup over the grid of |momentum residual| + |divergence| for the
    affine ansatz u = (v1(eta), v2(eta)), eta = (x1 - c1 t)/(x2 - c2 t).

    Constant profiles give zero (the only solutions of this form); any
    nonconstant profile should leave a residual bounded away from zero.
    """
    if c2 == 0.0:
        raise FieldError("affine ansatz requires c2 != 0")
    params = dict(params or {})
    v1 = parse(v1, "x") if isinstance(v1, str) else v1
    v2 = parse(v2, "x") if isinstance(v2, str) else v2
    grid = grid or DEFAULT_PROBE_REGION
    sol = _affine_solution(v1, v2, c1, c2, params)
    result = _probe_sup(sol, grid, include_divergence=True)
    verdict = (
        "solution (constant profiles)"
        if result.sup_residual <= 1e-10
        else "nonsolution; consistent with nonexistence of nonconstant affine solutions"
    )
    return ProbeResult(result.sup_residual, result.count, verdict)


def twin_wave_form_check(u1_profile, u2_profile, c1: float, c2: float, c3: float,
                         grid: Optional[SampleRegion] = None,
                         params: Optional[dict] = None) -> ProbeResult:
    """Residual of u = (u1p(xi) + c1, u2p(xi) + c2) under the traveling-wave
    phase xi = c3 x1 - x2 - speed t.

    A constant offset between u2p and c3 u1p is absorbed into the constant
    part before the wave speed is formed (profiles are only defined up to
    constants that shift between v and c2), so conforming pairs with
    u2p = c3 u1p + const report zero residual.
    """
    params = dict(params or {})
    p1 = parse(u1_profile, "x") if isinstance(u1_profile, str) else u1_profile
    p2 = parse(u2_profile, "x") if isinstance(u2_profile, str) else u2_profile
    grid = grid or DEFAULT_PROBE_REGION

    offset = None
    for probe_xi in (0.0, 1.0, -1.0, 0.5, 2.0):
        try:
            seed = Jet2.variable(probe_xi)
            k = float(eval_jet(p2, seed, params).value) - c3 * float(eval_jet(p1, seed, params).value)
        except (ExpressionError, FieldError, ArithmeticError):
            continue
        if math.isfinite(k):
            offset = k
            break
    if offset is None:
        raise FieldError("could not evaluate the profiles at any reference phase")
    speed = c3 * c1 - (c2 + offset)

    def _xi(X, T):
        return c3 * X[:, 0] - X[:, 1] - speed * T

    def velocity(X, T):
        n = len(X)
        seed = Jet2.variable(_xi(X, T))
        u1 = np.broadcast_to(np.asarray(eval_jet(p1, seed, params).value, float), (n,))
        u2 = np.broadcast_to(np.asarray(eval_jet(p2, seed, params).value, float), (n,))
        return np.stack([u1 + c1, u2 + c2], axis=1)

    def velocity_jet(X, T):
        n = len(X)
        seed = Jet2.variable(_xi(X, T))
        j1 = eval_jet(p1, seed, params)
        j2 = eval_jet(p2, seed, params)
        jac = np.empty((n, 2, 2))
        lap = np.empty((n, 2))
        dt = np.empty((n, 2))
        value = np.empty((n, 2))
        for i, (jet, c) in enumerate(((j1, c1), (j2, c2))):
            vp = np.broadcast_to(np.asarray(jet.d1, float), (n,))
            vpp = np.broadcast_to(np.asarray(jet.d2, float), (n,))
            value[:, i] = np.broadcast_to(np.asarray(jet.value, float), (n,)) + c
            jac[:, i, 0] = c3 * vp
            jac[:, i, 1] = -vp
            lap[:, i] = (1.0 + c3 * c3) * vpp
            dt[:, i] = -speed * vp
        return VelocityJet(value, jac, lap, dt)

    sol = SolutionPair(
        dimension=2,
        viscosity=0.0,
        velocity=velocity,
        velocity_jet=velocity_jet,
        pressure_gradient=lambda X, T: np.zeros((len(X), 2)),
        singular=SingularSetDescriptor(),
        metadata={"name": "twin_wave_form_check", "family": "twin_wave_probe",
                  "transform_chain": []},
    )
    result = _probe_sup(sol, grid, include_divergence=False)
    verdict = (
        "conforming traveling-wave pair (solution)"
        if result.sup_residual <= 1e-8
        else "nonconforming pair (not a solution)"
    )
    return ProbeResult(result.sup_residual, result.count, verdict)

"""Quantitative claims beyond pointwise residuals: annulus L^q norms,
planar energy of boosted fields, blow-up exponent fitting, and numeric
probes that corroborate the nonexistence and completeness statements.

Closed forms come from the pair's analytic facts (``SolutionPair``'s
``radial_speed`` to ``boost_total``), which state the co-moving speed
|u - boost_total|.  Improper integrals are truncated at R_MAX with an
analytic tail: when the decay envelope is exact the tail is integrated in
closed form and added to the value; otherwise the envelope only bounds the
truncation error, reported as a width.  Without an envelope the result is
a divergence diagnosis rather than a number.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import catalog
from .expressions import EvalDomainError, ExprAst, compile_real, parse
from .fields import (
    FieldError,
    MovingLine,
    SingularSetDescriptor,
    SolutionPair,
    row_norm,
)

if TYPE_CHECKING:  # the probes import verification when they run
    from .verification import SampleRegion

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


def quad(func, a, b, **opts):
    """``(value, abserr)`` of QUADPACK's ``qagse`` (``quadpack.qagse``), imported
    on first use: only the planar energy integrates with it.  ``func`` maps an
    array of abscissae to as many values."""
    from .quadpack import qagse

    out = qagse(func, a, b, **opts)
    return out.result, out.abserr


@dataclass(frozen=True)
class NormSpec:
    """L^q norm specification over an annulus delta < r < R at fixed time.

    ``subtract`` removes a constant vector before taking the modulus (used
    for boosted fields, where u minus the boost decays).  R may be inf.
    The annulus is about the origin, except when ``subtract`` is exactly a
    vortex's accumulated boost C: then it is about the moving centre C t.
    """

    q: float
    delta: float
    R: float
    t: float
    subtract: Optional[tuple] = None

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q >= 1):
            raise FieldError(f"norm exponent q must be finite and >= 1, got {self.q}")
        if not math.isfinite(self.t):
            raise FieldError(f"norm time t must be finite, got {self.t}")
        if self.subtract is not None and not all(map(math.isfinite, self.subtract)):
            raise FieldError(f"subtract must be finite, got {tuple(self.subtract)}")
        if not (self.delta > 0):
            raise FieldError("annulus inner radius delta must be > 0")
        if not (self.R > self.delta):
            raise FieldError("annulus requires R > delta")


@dataclass(frozen=True)
class NormResult:
    """An L^q norm over an annulus or the plane, with its tail bound and provenance."""

    value: float  # the L^q norm
    value_pow_q: float  # norm**q, the quantity the closed forms describe
    tail_bound: float
    provenance: str


@dataclass(frozen=True)
class EnergyResult:
    """The planar L^2 energy of ``u - C``, or why it diverges or is unknown."""

    value: Optional[float]  # squared L^2 norm over the plane, None if divergent
    tail_bound: float
    diagnosis: Optional[str]


def _radial_speed(sol: SolutionPair, spec_subtract) -> "callable":
    """Speed-versus-radius profile for radially structured solutions.

    Valid when either nothing is subtracted and the solution is unboosted,
    or exactly the accumulated boost is subtracted (then the profile lives
    in the co-moving frame).
    """
    boost = np.zeros(sol.dimension) if sol.boost_total is None else np.asarray(sol.boost_total)
    sub = np.zeros(sol.dimension) if spec_subtract is None else np.asarray(spec_subtract)
    return sol.radial_speed if np.array_equal(sub, boost) else None


def _envelope(sol: SolutionPair, t: float):
    if sol.decay_envelope is None:
        return None
    kappa, m, exact = sol.decay_envelope
    return kappa(t), m, exact


def _check_vector(sol: SolutionPair, v, name: str):
    if v is not None and (len(v) != sol.dimension or not all(map(math.isfinite, v))):
        raise FieldError(f"{name} must be {sol.dimension} finite numbers, got {tuple(v)}")


def _tail_integral(kappa: float, m: float, q: float, R: float) -> float:
    """integral over r > R of 2 pi r (kappa / r^m)^q dr, finite when m q > 2
    or kappa = 0 (the field vanishes); a finite integral that overflows a
    float is an error."""
    if kappa == 0.0:
        return 0.0
    p = m * q - 2.0
    if p <= 0:
        return math.inf
    try:
        tail = 2.0 * math.pi * kappa**q * R ** (-p) / p
    except OverflowError:
        tail = math.inf
    if tail == math.inf:
        raise FieldError(f"tail bound beyond r = {R} is not representable: "
                         f"(kappa / r^{m})^{q} with kappa = {kappa} overflows a float")
    return tail


def _radial_norms(sol: SolutionPair, speed, spec: NormSpec, times) -> list:
    """The radial-path NormResult of ``spec`` at each of ``times``.

    One ``catalog.quad`` call integrates 2 pi r |u(r, t)|^q from delta to
    min(R, R_MAX), one row per time, at epsrel 1e-11 and epsabs 1e-14; a
    row's value does not depend on the other times.  Beyond R_MAX the
    envelope's tail is added (exact) or reported as a bound.
    """
    ts = np.asarray(times, dtype=float)
    finite_R = min(spec.R, R_MAX)
    tails, add_tails = [0.0] * len(ts), False
    provenance = f"radial quadrature on [{spec.delta}, {finite_R}]"
    if spec.R > R_MAX:
        for i, t in enumerate(ts.tolist()):
            env = _envelope(sol, t)
            if env is None:
                raise FieldError("improper norm needs a registered decay envelope")
            kappa, m, exact = env
            tails[i] = _tail_integral(kappa, m, spec.q, R_MAX)
            if not math.isfinite(tails[i]):
                raise FieldError(
                    f"L^{spec.q} norm diverges: envelope decay r^-{m} is not integrable"
                )
        add_tails = exact
        if exact:
            provenance += f"; exact tail r > {R_MAX} added in closed form"
        else:
            provenance += f"; tail bounded by the r^-{m} envelope"

    def integrand(r, rows):
        return 2.0 * math.pi * r * speed(r, ts[rows, None]) ** spec.q

    vals, _ = catalog.quad(integrand, np.full(len(ts), spec.delta), np.full(len(ts), finite_R),
                           epsrel=1e-11, epsabs=1e-14)
    results = []
    for val, tail in zip(vals.tolist(), tails):
        if add_tails:
            val, tail = val + tail, 0.0
        results.append(NormResult(val ** (1.0 / spec.q), val, tail, provenance))
    return results


def _speed_pow(sol: SolutionPair, X, t: float, sub, q: float):
    """|u - sub|^q at the axis-major points ``X`` (shape (2, N)) at time t,
    the one kernel of the plane-wave and polar paths: it integrates
    (|u - sub|^2)^(q/2), since libm's hypot costs ~15 ns a point."""
    u = sol.velocity(X.T, np.full(X.shape[1], t))
    if sub is not None:  # u - 0.0 is u bit for bit, so nothing is subtracted then
        for k, c in enumerate(sub):
            u[:, k] -= c
    speed = u[:, 0] * u[:, 0]
    speed += u[:, 1] * u[:, 1]
    speed **= q / 2.0
    return speed


def _plane_wave_norm(sol: SolutionPair, spec: NormSpec) -> NormResult:
    """The annulus norm of a field that depends on x only through s = n.x:
    the integral over -R < s < R of (f(s) + f(-s)) l(s), where f(s) =
    |u(s n, t) - subtract|^q and l(s) = 2 sqrt(R^2 - s^2) - 2 sqrt(max(delta^2
    - s^2, 0)) is the length of the chord at distance s from the centre.

    One ``catalog.quad`` call of two rows, at the radial path's epsrel 1e-11
    and epsabs 1e-14, in variables in which the weight is smooth: s = R sin
    theta on delta <= s <= R, weight 2 R^2 cos^2 theta; s = delta sin phi
    inside, weight 2 (R^2 - delta^2) delta |cos phi| / (sqrt(R^2 - s^2) +
    delta |cos phi|), with no cancellation.  phi runs over (pi/2, pi), not
    (0, pi/2), because ``quad`` grades its panels from a > 0.
    """
    R, delta = spec.R, spec.delta
    n, scale = np.asarray(sol.wave_normal), np.array([R, delta])
    gap = (R - delta) * (R + delta)

    def integrand(x, rows):
        rho = scale[rows, None]
        s, c = rho * np.sin(x), np.abs(np.cos(x))
        X = np.multiply.outer(n, np.stack([s, -s]))  # axis-major: (axis, sign, ...)
        f = _speed_pow(sol, X.reshape(2, -1), spec.t, spec.subtract, spec.q).reshape(X.shape[1:])
        inner = gap / (np.sqrt((R - s) * (R + s)) + delta * c)
        return (f[0] + f[1]) * (2.0 * rho * c) * np.where(rows[:, None] == 0, rho * c, inner)

    vals, _ = catalog.quad(integrand, np.array([math.asin(delta / R), math.pi / 2]),
                           np.array([math.pi / 2, math.pi]), epsrel=1e-11, epsabs=1e-14)
    val = float(vals[0] + vals[1])
    return NormResult(val ** (1.0 / spec.q), val, 0.0,
                      f"plane-wave chord quadrature on the annulus ({delta}, {R})")


def annulus_lq_norm(sol: SolutionPair, spec: NormSpec) -> NormResult:
    """L^q norm of the (possibly boost-subtracted) speed over an annulus.

    Three paths, tried in this order:

    - radially structured solutions (``radial_speed``, and ``subtract`` the
      pair's ``boost_total``) reduce to a single radial quadrature of
      2 pi r |u(r)|^q (``_radial_norms``: graded Gauss-Legendre through
      ``catalog.quad``, with adaptive bisection where a kink keeps the graded
      rule from settling);
    - plane waves (``wave_normal``, a finite R) to one quadrature across the
      annulus against the chord length (``_plane_wave_norm``);
    - other 2D solutions integrate over the polar angle as well.

    An infinite outer radius requires an exact decay envelope.

    The plane-wave and polar paths integrate |u - subtract|^q as
    (|u - subtract|^2)^(q/2) (``_speed_pow``), so the squared speed must
    stay in double's range: a speed above about 1.3e154 on the annulus
    gives a norm that is not finite, at every q (for q >= 2, |u|^q
    overflows no later than |u|^2), and a speed below about 1.5e-154
    gives 0.

    The radial path integrates the co-moving profile, so for a boosted
    vortex with ``subtract`` = ``boost_total`` = C it measures the annulus
    about C t, not about the origin (the two agree at t = 0).  ex_3_2 at
    q = 2, (delta, R) = (0.5, 3), t = 0.5 gives norm^q 0.4545 about C t
    and 0.4406 about the origin.
    """
    _check_vector(sol, spec.subtract, "subtract")
    speed = _radial_speed(sol, spec.subtract)
    if speed is not None:
        return _radial_norms(sol, speed, spec, [spec.t])[0]

    if sol.dimension != 2:
        raise FieldError("annulus norms are implemented for 2D solutions")
    if not math.isfinite(spec.R):
        raise FieldError("improper norm needs a radially structured solution")
    if sol.wave_normal is not None:
        return _plane_wave_norm(sol, spec)
    t, q, sub = spec.t, spec.q, spec.subtract

    def rings(x, _):
        r = x.ravel()

        def along(theta, rows):
            """|u - subtract|^q at the points r e^(i theta) of rows ``rows``;
            ``theta`` is one line shared by the rows or one line per row."""
            radius = r[rows, None]
            shape = np.broadcast_shapes(radius.shape, np.shape(theta))
            X = np.empty((2,) + shape)  # the points axis-major, as every batch
            np.multiply(radius, np.cos(theta), out=X[0])
            np.multiply(radius, np.sin(theta), out=X[1])
            return _speed_pow(sol, X.reshape(2, -1), t, sub, q).reshape(shape)

        ring, _ = catalog.angular_quad(along, len(r), epsrel=1e-9, epsabs=1e-12)
        return (r * ring).reshape(x.shape)

    val = float(catalog.quad(rings, spec.delta, spec.R, epsrel=1e-9, epsabs=1e-12)[0][0])
    return NormResult(val ** (1.0 / spec.q), val, 0.0,
                      f"polar tensor quadrature on the annulus ({spec.delta}, {spec.R})")


def l2_energy_difference(sol: SolutionPair, C: Sequence[float], t: float = 0.0) -> EnergyResult:
    """Squared L^2 norm of u - C over the whole plane, with a tail bound.

    Needs a registered decay envelope faster than 1/r; a 1/r envelope is
    reported as log-divergent, anything absent as divergent or unknown.
    """
    if not math.isfinite(t):
        raise FieldError(f"energy time t must be finite, got {t}")
    _check_vector(sol, C, "C")
    speed = _radial_speed(sol, tuple(C))
    if speed is None:
        return EnergyResult(None, math.inf, "divergent or unknown: no decay envelope for u - C")
    env = _envelope(sol, t)
    if env is None:
        return EnergyResult(None, math.inf, "divergent or unknown: no decay envelope registered")
    kappa, m, exact = env
    if kappa != 0.0 and 2.0 * m <= 2.0:
        kind = "log-divergent" if 2.0 * m == 2.0 else "divergent"
        return EnergyResult(None, math.inf, f"{kind}: envelope decays like r^-{m}")

    def integrand(r):
        # squared one value at a time with float ** 2 (libm pow), as the golden
        # energy was recorded: x * x and numpy's ** 2 differ from it in the last bit
        return [2.0 * math.pi * ri * si ** 2 for ri, si in zip(r.tolist(), speed(r, t).tolist())]

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
    least squares of log norm against log (T - t_k).  A time at which the
    norm is exactly 0 (the field vanishes there) is left out; a norm that
    is not finite, or negative, fails the fit, as do fewer than 6 times
    left.
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
    """A blow-up rate fit: the slope of log norm against log (T - t), and its samples."""

    exponent: float
    residual_rms: float
    blowup_time: float
    samples: tuple  # ((t_k, norm_k), ...)


def _sup_norms(sol: SolutionPair, ts: list, annulus: tuple):
    """Yield the sup norm at each time of ``ts`` in order, each computed only
    when the one before it has been read.

    The norm is of the co-moving speed |u - boost_total|.  A closed form
    (``sol.boundary_speed``, else ``sol.sup_speed_unit_ball``) is evaluated
    one time at a time.  Otherwise it is the max of ``sol.radial_speed`` over
    4001 equispaced radii of the annulus, a lower bound on the sup.  All
    times share that grid: each slice of at most ANGULAR_CHUNK points
    (``catalog._slices``) is one ``speed(r, t)`` call with ``t`` a column.
    A slice whose call raises is evaluated again one time at a time, so the
    earliest failing time raises as it would alone.
    """
    closed = sol.boundary_speed or sol.sup_speed_unit_ball
    if closed is not None:
        yield from (float(closed(t)) for t in ts)
        return
    speed = sol.radial_speed
    if speed is None:
        raise FieldError("no sup-norm evaluator is registered for this family")
    r = np.linspace(annulus[0], annulus[1], 4001)
    for s in catalog._slices(len(ts), len(r)):
        t = np.array(ts[s])[:, None]
        try:
            block = np.broadcast_to(speed(r, t), (len(t), len(r))).max(axis=1)
        except Exception:  # only a time alone tells which one failed first
            yield from (float(np.max(speed(r, t))) for t in ts[s])
        else:
            yield from block.tolist()


def blowup_exponent_fit(sol: SolutionPair, fit: Optional[RateFit] = None) -> FitResult:
    """Fit norm(t) ~ (T - t)^alpha on a dyadic approach to the blow-up time."""
    fit = fit or RateFit()
    T = sol.singular.blowup_time()
    if T is None:
        raise FieldError("no blow-up time in singular set")
    if fit.kind == "lq" and sol.radial_speed is None:
        raise FieldError("lq rate fit needs a radially structured solution")
    ts = [T * (1.0 - 2.0 ** -k) for k in range(1, fit.K + 1)]
    if fit.kind == "sup":
        norms = _sup_norms(sol, ts, fit.annulus)
    else:  # the co-moving |u - boost_total| as the sup fit reads, one row per time
        spec = NormSpec(q=fit.q, delta=fit.annulus[0], R=fit.annulus[1], t=ts[0])
        norms = [r.value for r in _radial_norms(sol, sol.radial_speed, spec, ts)]
    checked = []
    for t, nrm in zip(ts, norms):
        if not (math.isfinite(nrm) and nrm >= 0):
            raise FieldError(f"norm evaluation failed at t = {t}")
        checked.append(nrm)
    if 0.0 in checked:  # the field vanishes there: log 0 says nothing about the rate
        ts = [t for t, nrm in zip(ts, checked) if nrm != 0.0]
        checked = [nrm for nrm in checked if nrm != 0.0]
    if len(checked) < 6:
        raise FieldError(f"rate fit needs 6 sample times with a nonzero norm, {len(checked)} remain")
    x = np.log([T - t for t in ts])
    y = np.log(checked)
    xm, ym = x.mean(), y.mean()
    slope = float(math.fsum((x - xm) * (y - ym)) / math.fsum((x - xm) ** 2))
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    rms = float(np.sqrt(np.mean(resid * resid)))
    return FitResult(exponent=slope, residual_rms=rms, blowup_time=T,
                     samples=tuple(zip(ts, checked)))


# ---------------------------------------------------------------------------
# Theorem probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    """An ansatz probe: the sup residual over the probe region and the verdict."""

    sup_residual: float
    count: int
    verdict: str


@functools.cache
def _default_probe_region():
    """The probes' grid, built on first use: a ``SampleRegion`` needs
    ``verification``, which only the probes load."""
    from .verification import SampleRegion

    return SampleRegion(box=((1.0, 2.0), (1.0, 2.0)), time=(0.0, 0.5), count=2000, seed=0)


def _profile(expr) -> ExprAst:
    """A probe's profile: an expression in x, parsed if it is text."""
    return parse(expr, "x") if isinstance(expr, str) else expr


def _probe_sup(sol: SolutionPair, region, tol: float, passed: str, failed: str,
               divergence: bool = False) -> ProbeResult:
    """The probe's sup residual over ``region`` (by default the probes' grid),
    of the momentum residual plus, with ``divergence``, |div u|; the verdict
    is ``passed`` if it is at most ``tol`` and ``failed`` otherwise."""
    from .verification import _divergence_batch, _residual_batch, _sample_arrays

    region = region or _default_probe_region()
    X, T = _sample_arrays(region, sol.singular, sol.exclusion_radius)
    jet = sol.velocity_jet(X, T)
    values = row_norm(_residual_batch(sol, X, T, jet))
    if divergence:
        values = values + np.abs(_divergence_batch(sol, X, T, jet))
    if not np.all(np.isfinite(values)):
        raise FieldError("probe field is not finite on the grid")
    sup = float(values.max())
    return ProbeResult(sup, len(values), passed if sup <= tol else failed)


def _affine_solution(v1: ExprAst, v2: ExprAst, c1: float, c2: float,
                     params: dict) -> SolutionPair:
    """Field depending on space-time only through eta = (x1-c1 t)/(x2-c2 t),
    with x-independent pressure."""

    def phase(X, T):
        a = X[:, 0] - c1 * T
        b = X[:, 1] - c2 * T
        if np.any(b == 0.0):
            raise FieldError("affine ansatz is singular on the line x2 = c2 t")
        eta = a / b
        # grad eta = (1/b, -a/b^2), lap eta = 2a/b^3, d_t eta = (c2 eta - c1)/b
        return eta, (1.0 / b, -a / (b * b)), 2.0 * a / (b * b * b), (-c1 + c2 * eta) / b

    return catalog._phase_pair(
        (v1, v2), params, (1.0, 1.0), None, phase,
        singular=SingularSetDescriptor(primitives=(MovingLine((0.0, 1.0), 0.0, c2),)),
        metadata={"name": "affine_probe", "family": "affine_probe"},
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
    sol = _affine_solution(_profile(v1), _profile(v2), c1, c2, dict(params or {}))
    return _probe_sup(sol, grid, 1e-10, "solution (constant profiles)",
                      "nonsolution; consistent with nonexistence of nonconstant affine solutions",
                      divergence=True)


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
    p1, p2 = _profile(u1_profile), _profile(u2_profile)

    offset = None
    f1, f2 = compile_real(p1, params), compile_real(p2, params)
    for probe_xi in (0.0, 1.0, -1.0, 0.5, 2.0):
        try:
            k = float(f2(probe_xi)) - c3 * float(f1(probe_xi))
        except (EvalDomainError, FieldError, ArithmeticError):
            continue
        if math.isfinite(k):
            offset = k
            break
    if offset is None:
        raise FieldError("could not evaluate the profiles at any reference phase")
    speed = c3 * c1 - (c2 + offset)

    sol = catalog._phase_pair(
        (p1, p2), params, (1.0, 1.0), (c1, c2), catalog._wave_phase(c3, speed),
        singular=SingularSetDescriptor(),
        metadata={"name": "twin_wave_form_check", "family": "twin_wave_probe"},
    )
    return _probe_sup(sol, grid, 1e-8, "conforming traveling-wave pair (solution)",
                      "nonconforming pair (not a solution)")

"""Pointwise PDE residuals, finite-difference cross-validation, seeded
sampling, and aggregate certification.

The momentum residual u_t + (u . grad) u + grad p - sigma lap u and the
divergence are assembled from the analytic velocity jets; the
finite-difference cross-check recomputes every jet entry from pure value
evaluations with 4th-order central stencils and is the authority whenever
a chain-rule identity is in doubt.  Sampling uses an explicit splitmix64
generator so that reports are bit-identical across platforms for a given
seed.  The generator is counter-based (draw k mixes seed + (k+1) * golden
mod 2^64), so points are drawn and tested for admissibility in blocks; the
accepted points are exactly those of drawing one value at a time with
``splitmix64_stream``, in the same order.

The per-point kernels (here and in ``catalog`` and ``fields``) write their
intermediates in place, into arrays they allocated themselves; they keep
every operand and the order of every operation, so each value is bit for
bit that of the same formula written as one numpy expression.  The rule: a
kernel overwrites only arrays it allocated, never its inputs and never an
array that a ``SolutionPair`` callable returned, which may be an input or
a view of one.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .fields import (
    FieldError,
    InadmissiblePointError,
    SingularSetDescriptor,
    SolutionPair,
    SpaceTimePoint,
    VelocityJet,
    row_matvec,
    row_max as _row_max,
    row_norm,
    vorticity_batch,
)

__all__ = [
    "RegionError",
    "SampleRegion",
    "Tolerances",
    "CertificationReport",
    "momentum_residual",
    "divergence",
    "vorticity_transport_residual",
    "fd_crosscheck",
    "sample_points",
    "certify",
    "splitmix64_stream",
]

# Finite-difference step policy.  Base steps follow the coordinate
# magnitude; near a singular set every step is additionally capped by a
# fraction of the clearance so that 4th-order stencils stay both admissible
# and inside the region where the field varies smoothly.
FD_STEP1 = 1e-4
FD_STEP2_FACTOR = 10.0
FD_CLEARANCE_FRACTION = 1.0 / 80.0
VORT_STEP = 1e-3
VORT_CLEARANCE_FRACTION = 5e-4

PRESSURE_FD_SUBSET = 200  # pressure-value stencils need quadrature; cap the panel


class RegionError(FieldError):
    pass


@dataclass(frozen=True)
class SampleRegion:
    """Axis-aligned box, time interval, and sampling controls.

    ``exclusion_radius`` of None means "use the solution's own radius".
    The time interval must stay strictly below any blow-up time.
    """

    box: tuple  # ((lo, hi), ...) per spatial axis
    time: tuple  # (t0, t1)
    count: int = 10_000
    seed: int = 0
    exclusion_radius: Optional[float] = None

    def __post_init__(self):
        for name, value in (("sample count", self.count), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise RegionError(f"{name} must be an integer, got {value!r}")
        if self.count < 1:
            raise RegionError("sample count must be >= 1")
        for lo, hi in self.box:
            if not (hi > lo):
                raise RegionError("box must be non-degenerate")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise RegionError(f"box must be finite, got ({lo}, {hi})")
            if not math.isfinite(hi - lo):  # lo + u (hi - lo) would sample inf
                raise RegionError(f"box width must be finite, got ({lo}, {hi})")
        if not (self.time[1] > self.time[0]):
            raise RegionError("time interval must be non-degenerate")
        if not (math.isfinite(self.time[0]) and math.isfinite(self.time[1])):
            raise RegionError(f"time interval must be finite, got {tuple(self.time)}")
        if not math.isfinite(self.time[1] - self.time[0]):
            raise RegionError(f"time interval length must be finite, got {tuple(self.time)}")
        r = self.exclusion_radius
        if r is not None and not (math.isfinite(r) and r > 0):
            raise RegionError(f"exclusion radius must be finite and > 0, got {r}")

    @property
    def dim(self):
        return len(self.box)


@dataclass(frozen=True)
class Tolerances:
    """The bound each certified metric's maximum must not exceed."""

    residual: float = 1e-8
    divergence: float = 1e-10
    fd: float = 1e-5
    vorticity: float = 1e-8

    def __post_init__(self):
        for name in ("residual", "divergence", "fd", "vorticity"):
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol >= 0):
                raise FieldError(f"{name} tolerance must be finite and >= 0, got {tol}")


@dataclass(frozen=True)
class CertificationReport:
    """The outcome of ``certify``: the region, each metric's maximum, the verdict."""

    solution: str
    family: str
    dimension: int
    viscosity: float
    count: int
    seed: int
    exclusion_radius: float
    box: tuple
    time: tuple
    max_residual: float
    mean_residual: float
    max_divergence: float
    max_fd_discrepancy: float
    max_vorticity_transport: Optional[float]
    fd_pressure_points: int
    tolerances: Tolerances
    verdict: str  # "pass" | "fail"
    worst_points: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        """The report as JSON data: the format version, then the fields in
        order, with ``count`` written as ``"samples"``.  The fields are read as
        they are: ``asdict(self)`` would deep-copy the worst points and notes."""
        d = {"format_version": 1}
        for f in fields(self):
            d["samples" if f.name == "count" else f.name] = getattr(self, f.name)
        d["box"], d["time"] = [list(b) for b in self.box], list(self.time)
        d["tolerances"] = asdict(self.tolerances)
        return d


# ---------------------------------------------------------------------------
# Deterministic sampling (splitmix64)
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_stream(seed: int):
    """Infinite stream of doubles uniform in [0, 1).

    state_{k+1} = state_k + 0x9E3779B97F4A7C15 (mod 2^64); each output is
    the mixed state (xor-shift 30 / mul / xor-shift 27 / mul / xor-shift 31)
    mapped to [0, 1) via the top 53 bits.  Pure integer arithmetic, hence
    identical on every platform.  This is the per-draw reference; the
    sampler computes the same draws in blocks (``_splitmix64_block``).
    """
    state = seed & _MASK64
    while True:
        state = (state + _GOLDEN) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z = z ^ (z >> 31)
        yield (z >> 11) * (2.0 ** -53)


def _splitmix64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Draws ``start .. start + count - 1`` of ``splitmix64_stream(seed)``.

    Draw k mixes the state ``seed + (k + 1) * 0x9E3779B97F4A7C15 (mod 2^64)``,
    so any block is computed directly in wrapping uint64 arithmetic and
    equals the per-draw stream bit for bit.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    shifted = np.empty_like(z)  # the one scratch buffer of the mixing
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0 ** -53
    return u


_BLOCK_DRAWS = 1 << 16  # values drawn per block at most, bounding peak memory


def _sample_arrays(region: SampleRegion, sing: SingularSetDescriptor, radius: float):
    """The first ``count`` admissible points of the draw sequence, in order.

    Each point takes ``dim + 1`` consecutive draws (x1, ..., xd, t); blocks
    of candidate points are tested by one ``admissible`` call.  The result,
    and the error past ``max(1000, 200 * count)`` candidates, are those of
    drawing and testing one point at a time.
    """
    dim = region.dim
    n = region.count
    t0, t1 = region.time
    xs, ts = [], []
    accepted = drawn = 0
    max_attempts = max(1000, 200 * n)
    while accepted < n:
        if drawn >= max_attempts:
            raise RegionError(
                f"rejection rate above 99%: {accepted} accepted in {drawn} draws; "
                "the region is mostly inside the singular-set exclusion"
            )
        # candidates expected to yield the missing points, with a margin; the
        # first block assumes every candidate is admissible (count + 8 rows)
        per_point = 1.25 * drawn / max(accepted, 1) if drawn else 1.0
        rows = min(math.ceil((n - accepted) * per_point) + 8,
                   _BLOCK_DRAWS // (dim + 1), max_attempts - drawn)
        u = _splitmix64_block(region.seed, drawn * (dim + 1), rows * (dim + 1))
        u = u.reshape(rows, dim + 1)
        X = np.empty((rows, dim), order="F")
        for k, (lo, hi) in enumerate(region.box):
            np.multiply(u[:, k], hi - lo, out=X[:, k])
            np.add(lo, X[:, k], out=X[:, k])
        T = np.multiply(u[:, dim], t1 - t0)
        np.add(t0, T, out=T)
        keep = np.flatnonzero(sing.admissible(X, T, radius))[:n - accepted]
        if len(keep) and keep[-1] == len(keep) - 1:  # a prefix: slice it, not gather
            xs.append(X[:len(keep)])
            ts.append(T[:len(keep)])
        else:
            xs.append(_take_rows(X, keep))
            ts.append(T[keep])
        accepted += len(ts[-1])
        drawn += rows
    if len(xs) == 1:
        return xs[0], ts[0]
    return np.concatenate(xs), np.concatenate(ts)


def _take_rows(X, rows):
    """``X[rows]`` for an index array ``rows``, gathered column by column so
    that the points stay axis-major (``X[rows]`` is row-major)."""
    return np.take(X.T, rows, axis=1).T


def sample_points(region: SampleRegion, sing: SingularSetDescriptor,
                  exclusion_radius: float = 1e-3):
    """Deterministic pseudo-random admissible points; same seed, same list."""
    X, T = _sample_arrays(region, sing, exclusion_radius)
    return [SpaceTimePoint(tuple(float(c) for c in x), float(t)) for x, t in zip(X, T)]


# ---------------------------------------------------------------------------
# Pointwise checks
# ---------------------------------------------------------------------------


def _residual_batch(sol: SolutionPair, X: np.ndarray, T: np.ndarray, jet) -> np.ndarray:
    """Momentum residual rows; ``jet`` is ``sol.velocity_jet(X, T)``."""
    grad_p = sol.pressure_gradient(X, T)
    res = row_matvec(jet.jacobian, jet.value)  # the convection term
    np.add(jet.dt, res, out=res)
    res += grad_p
    if sol.viscosity != 0.0:
        res -= sol.viscosity * jet.laplacian
    return res


def momentum_residual(sol: SolutionPair, point: SpaceTimePoint) -> np.ndarray:
    """u_t + (u . grad) u + grad p - sigma lap u at one admissible point."""
    X, T = sol.check_admissible(point)
    return _residual_batch(sol, X, T, sol.velocity_jet(X, T))[0]


def divergence(sol: SolutionPair, point: SpaceTimePoint) -> float:
    """Trace of the velocity Jacobian."""
    X, T = sol.check_admissible(point)
    return float(_divergence_batch(sol, X, T, sol.velocity_jet(X, T))[0])


def _divergence_batch(sol: SolutionPair, X, T, jet) -> np.ndarray:
    return np.einsum("nii->n", jet.jacobian)


def _clearance_cap(clear, fraction):
    """``fraction`` of the clearance where it is finite, inf elsewhere."""
    cap = np.multiply(fraction, clear)
    cap[~np.isfinite(clear)] = np.inf
    return cap


def _shift_points(X, T, axis, h):
    """The points moved by -2h, -h, h, 2h along ``axis``, as (X, T) pairs,
    where axes 0 .. dim-1 are the coordinates and axis dim is time; ``h`` is
    a step per point, shape (N,)."""
    def moved(m):  # a fresh array per shift: a callable may return a view of it
        step = m * h
        if axis == X.shape[1]:
            return X, np.add(T, step, out=step)
        Xs = X.copy(order="K")
        Xs[:, axis] += step
        return Xs, T

    return map(moved, (-2, -1, 1, 2))


def _shifted(f, X, T, axis, h):
    """``f`` at each set of ``_shift_points``, one call per shift, each set
    freed before the next is built.  Stacking the four sets into one call,
    or calling on views into one four-copy block, is bit-identical but
    measured slower over the nine presets."""
    return list(itertools.starmap(f, _shift_points(X, T, axis, h)))


def _per_point(num, den):
    """``num / den`` for a per-point ``den`` of shape (N,), divided in place
    one column at a time when ``num`` has shape (N, dim)."""
    if num.ndim == 1:
        return np.divide(num, den, out=num)
    for k in range(num.shape[1]):
        np.divide(num[:, k], den, out=num[:, k])
    return num


def _fd1(values, h):
    """4th-order first derivative; ``h`` is a step per point, shape (N,)."""
    fm2, fm1, fp1, fp2 = values
    num, term = np.negative(fp2), np.multiply(8.0, fp1)  # -fp2 + 8 fp1 - 8 fm1 + fm2
    num += term
    num -= np.multiply(8.0, fm1, out=term)
    num += fm2
    return _per_point(num, 12.0 * h)


def _fd2(values, f0, h):
    """4th-order second derivative; ``h`` is a step per point, shape (N,)."""
    fm2, fm1, fp1, fp2 = values
    num, term = np.negative(fp2), np.multiply(16.0, fp1)  # -fp2 + 16 fp1 - 30 f0 + 16 fm1 - fm2
    num += term
    num -= np.multiply(30.0, f0, out=term)
    num += np.multiply(16.0, fm1, out=term)
    num -= fm2
    den = 12.0 * h
    den *= h
    return _per_point(num, den)


def _fd_steps(X, T, clear):
    """The default ``steps`` (hx1, ht1, hx2) of ``_fd_velocity_jet``, by the
    module's step policy: ``FD_STEP1 * max(1, |coord|)``, ``FD_STEP2_FACTOR``
    times that for hx2, each capped by the clearance ``clear``."""
    cap = _clearance_cap(clear, FD_CLEARANCE_FRACTION)
    scale = np.empty(X.shape, order="F")  # the stencils read one axis at a time
    np.abs(X, out=scale)
    np.maximum(1.0, scale, out=scale)
    ht1 = np.abs(T)
    np.maximum(1.0, ht1, out=ht1)
    hx1 = np.multiply(FD_STEP1, scale, order="F")
    hx2 = np.multiply(FD_STEP2_FACTOR * FD_STEP1, scale, out=scale)
    for h in (hx1, hx2):
        np.minimum(h, cap[:, None], out=h)
    ht1 *= FD_STEP1
    return hx1, np.minimum(ht1, cap, out=ht1), hx2


def _fd_velocity_jet(sol: SolutionPair, X, T, steps, u):
    """Jacobian, Laplacian and time derivative from 4th-order value stencils.

    ``steps`` is (hx1, ht1, hx2): first-derivative steps in x and in t and
    second-derivative steps in x; ``u`` is the velocity at the points.
    """
    n, dim = X.shape
    hx1, ht1, hx2 = steps
    jac = np.empty((n, dim, dim), order="F")
    lap = np.zeros((n, dim), order="F")
    for j in range(dim):
        jac[:, :, j] = _fd1(_shifted(sol.velocity, X, T, j, hx1[:, j]), hx1[:, j])
        lap += _fd2(_shifted(sol.velocity, X, T, j, hx2[:, j]), u, hx2[:, j])
    dt = _fd1(_shifted(sol.velocity, X, T, dim, ht1), ht1)
    return jac, lap, dt


def _fd_pressure_gradient(sol: SolutionPair, X, T):
    """4th-order stencil of the pressure value in each coordinate, from one
    ``pressure_value`` call over the ``_shift_points`` of every axis; a
    pressure value's rows are independent, so each value is the one a call
    per shift returns."""
    hx = _fd_steps(X, T, sol.singular.clearance(X, T))[0]
    n, dim = X.shape
    Xs, Ts = zip(*(pt for j in range(dim) for pt in _shift_points(X, T, j, hx[:, j])))
    p = sol.pressure_value(np.concatenate(Xs), np.concatenate(Ts)).reshape(dim, 4, n)
    grad = np.empty(X.shape, order="F")
    for j in range(dim):
        grad[:, j] = _fd1(p[j], hx[:, j])
    return grad


def _rel_discrepancy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise |a - b| / max(1, |a|, |b|)."""
    scale, d = np.abs(a), np.abs(b)
    np.maximum(scale, d, out=scale)
    np.maximum(1.0, scale, out=scale)
    np.subtract(a, b, out=d)
    np.abs(d, out=d)
    d /= scale
    return d


def fd_crosscheck(sol: SolutionPair, point: SpaceTimePoint, h: Optional[float] = None) -> float:
    """Max relative discrepancy between analytic jets and 4th-order stencils.

    With an explicit ``h`` the first-derivative stencils use that step and
    the second-derivative stencils ten times it; the stencil must stay
    admissible, and ``h`` must be finite and > 0.  Without it the
    clearance-capped default policy applies.
    """
    if h is not None and not (math.isfinite(h) and h > 0):
        raise FieldError(f"finite-difference step must be finite and > 0, got {h}")
    X, T = sol.check_admissible(point)
    if h is None:
        return float(_fd_panel(sol, X, T)[0])
    if float(sol.singular.clearance(X, T)[0]) < 2.5 * FD_STEP2_FACTOR * h:
        raise InadmissiblePointError("finite-difference stencil leaves the admissible region")
    hx = np.full(X.shape, float(h))
    steps = (hx, hx[:, 0], FD_STEP2_FACTOR * hx)
    return float(_fd_panel(sol, X, T, sol.velocity_jet(X, T), sol.velocity(X, T), steps)[0])


def _fd_panel(sol, X, T, jet=None, u=None, steps=None) -> np.ndarray:
    """Per-point max relative discrepancy between the analytic jet and the
    stencils.

    ``jet``, ``u`` and ``steps`` are the velocity jet and the velocity at the
    points and the ``_fd_velocity_jet`` steps; called with ``(sol, X, T)``
    alone it evaluates all three, with the default steps.
    """
    if jet is None:
        jet, u = sol.velocity_jet(X, T), sol.velocity(X, T)
        steps = _fd_steps(X, T, sol.singular.clearance(X, T))
    jac_fd, lap_fd, dt_fd = _fd_velocity_jet(sol, X, T, steps, u)
    d = _row_max(_rel_discrepancy(jet.jacobian, jac_fd).reshape(len(X), -1, order="F"))
    np.maximum(d, _row_max(_rel_discrepancy(jet.laplacian, lap_fd)), out=d)
    return np.maximum(d, _row_max(_rel_discrepancy(jet.dt, dt_fd)), out=d)


def residual_fd_only(sol: SolutionPair, X, T) -> np.ndarray:
    """Momentum residual with every velocity derivative from finite differences.

    Independent of the analytic jet path; the pressure gradient stays
    closed-form.  Used as the oracle-independence check.
    """
    u = sol.velocity(X, T)
    steps = _fd_steps(X, T, sol.singular.clearance(X, T))
    return _residual_batch(sol, X, T, VelocityJet(u, *_fd_velocity_jet(sol, X, T, steps, u)))


def _vorticity_transport_batch(sol: SolutionPair, X, T, u, clear) -> np.ndarray:
    """omega_t + u . grad omega by central differences of the vorticity;
    ``u`` and ``clear`` are the velocity and the clearance at the points."""
    h = _clearance_cap(clear, VORT_CLEARANCE_FRACTION)
    np.minimum(VORT_STEP, h, out=h)
    omega = functools.partial(vorticity_batch, sol)
    d1, d2, dt = (_fd1(_shifted(omega, X, T, axis, h), h) for axis in range(3))  # x1, x2, t
    np.multiply(u[:, 0], d1, out=d1)  # u1 d1 + u2 d2 + dt, in the stencils' arrays
    np.multiply(u[:, 1], d2, out=d2)
    d1 += d2
    d1 += dt
    return d1


def vorticity_transport_residual(sol: SolutionPair, point: SpaceTimePoint) -> float:
    """Residual of the planar vorticity transport law at one point."""
    if sol.dimension != 2:
        raise FieldError("vorticity transport is defined for 2D solutions only")
    X, T = sol.check_admissible(point)
    u, clear = sol.velocity(X, T), sol.singular.clearance(X, T)
    return float(_vorticity_transport_batch(sol, X, T, u, clear)[0])


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def default_region(sol: SolutionPair, count: int = 10_000, seed: int = 0,
                   until: float = 0.9) -> SampleRegion:
    """Solution-appropriate sampling region.

    The pair's ``default_box`` and ``default_time``; for entries with a
    blow-up time the interval ends at ``until`` times it instead.
    """
    T = sol.singular.blowup_time()
    time = sol.default_time if T is None else (0.0, until * T)
    return SampleRegion(box=tuple(sol.default_box), time=tuple(time), count=count, seed=seed)


def _validate_region(sol: SolutionPair, region: SampleRegion):
    if region.dim != sol.dimension:
        raise RegionError("region dimension does not match the solution")
    T = sol.singular.blowup_time()
    if T is not None and region.time[1] >= T:
        raise RegionError(f"time interval must end strictly below the blow-up time {T}")


_LOW = (1 << 26) - 1  # the 26 lowest fraction bits, which a row's low part keeps
_EXPONENT_ALL_ONES = 0x7FF0000000000000  # +inf; NaN and every set sign bit lie above
_EXACT_SUM_ROWS = 1 << 26  # a bin's sum stays below 2^53 of its unit, so exact


def _exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())`` for a 1-D float64 array, without the list.

    A finite row >= +0.0 splits exactly into a high part (its bits with the
    26 lowest fraction bits cleared) and the low part ``x - high``.  Within
    one exponent, whose unit in the last place is u, a high part is a
    multiple of 2^26 u and a low part a multiple of u, each below 2^27 of
    its unit, so ``np.bincount`` sums each part per exponent exactly;
    ``fsum`` of those sums rounds the exact total once, as it rounds the
    rows.  An array with a non-finite or sign-bit-set row, and a bin sum
    that overflows (so does the total), go to ``fsum`` itself.
    """
    bits = x.view(np.uint64)
    if not 0 < len(x) <= _EXACT_SUM_ROWS or bits.max() >= _EXPONENT_ALL_ONES:
        return math.fsum(x.tolist())
    bits = bits.view(np.int64)
    e = bits >> 52
    high = (bits & ~_LOW).view(np.float64)
    sums = np.concatenate((np.bincount(e, weights=high), np.bincount(e, weights=x - high)))
    if not math.isfinite(sums.max()):
        return math.fsum(x.tolist())
    return math.fsum(sums.tolist())


def certify(sol: SolutionPair, region: Optional[SampleRegion] = None,
            tolerances: Optional[Tolerances] = None) -> CertificationReport:
    """Sample the region and aggregate the four pointwise checks.

    Deterministic for a fixed seed: the sample sequence is platform
    independent, maxima are order independent, and the mean is the exact
    sum of the residuals, rounded once (``_exact_sum``, which equals
    ``math.fsum``), divided by the count.
    """
    region = region or default_region(sol)
    tolerances = tolerances or Tolerances()
    _validate_region(sol, region)
    radius = region.exclusion_radius if region.exclusion_radius is not None else sol.exclusion_radius
    X, T = _sample_arrays(region, sol.singular, radius)
    # every stage reads the same jet, velocity and clearance at the samples
    jet, u, clear = sol.velocity_jet(X, T), sol.velocity(X, T), sol.singular.clearance(X, T)

    res = row_norm(_residual_batch(sol, X, T, jet))
    div = _divergence_batch(sol, X, T, jet)
    np.abs(div, out=div)
    fd = _fd_panel(sol, X, T, jet, u, _fd_steps(X, T, clear))

    n_pressure = 0
    if sol.pressure_value is not None:
        sel = np.arange(len(X))
        if sol.pressure_cut_clearance is not None:
            hmax = 2.5 * FD_STEP1 * np.maximum(1.0, _row_max(np.abs(X)))
            sel = sel[sol.pressure_cut_clearance(X, T) > 0.05 + 4.0 * hmax]
        sel = sel[:PRESSURE_FD_SUBSET]
        if len(sel):
            n_pressure = len(sel)
            Xp, Tp = _take_rows(X, sel), T[sel]
            grad_fd = _fd_pressure_gradient(sol, Xp, Tp)
            grad = sol.pressure_gradient(Xp, Tp)
            fd_p = _row_max(_rel_discrepancy(grad, grad_fd))
            fd[sel] = np.maximum(fd[sel], fd_p)

    vort = None
    if sol.dimension == 2:
        vort = _vorticity_transport_batch(sol, X, T, u, clear)
        np.abs(vort, out=vort)

    metrics = {"residual": (res, tolerances.residual),
               "divergence": (div, tolerances.divergence),
               "fd_discrepancy": (fd, tolerances.fd)}
    if vort is not None:
        metrics["vorticity_transport"] = (vort, tolerances.vorticity)
    peak = {k: float(v.max()) for k, (v, _) in metrics.items()}
    # every metric is >= 0 or NaN, so it has a non-finite row exactly when its
    # maximum is not finite; a non-finite maximum fails the check
    non_finite = {k: 0 if math.isfinite(peak[k]) else int(np.count_nonzero(~np.isfinite(v)))
                  for k, (v, _) in metrics.items()}
    checks = [peak[k] <= tol for k, (_, tol) in metrics.items()]

    def worst(values, non_finite):
        i = int(np.argmax(~np.isfinite(values)) if non_finite else np.argmax(values))
        return {"x": [float(v) for v in X[i]], "t": float(T[i]), "value": float(values[i])}

    worst_points = {k: worst(v, non_finite[k]) for k, (v, _) in metrics.items()}

    notes = {}
    if any(non_finite.values()):
        notes["non_finite_points"] = {k: n for k, n in non_finite.items() if n}
    if "pressure_sign" in sol.metadata.get("params", {}):
        notes["pressure_sign"] = sol.metadata["params"]["pressure_sign"]
    if sol.metadata.get("transform_chain"):
        notes["transform_chain"] = sol.metadata["transform_chain"]

    return CertificationReport(
        solution=sol.name,
        family=sol.metadata.get("family", "custom"),
        dimension=sol.dimension,
        viscosity=sol.viscosity,
        count=region.count,
        seed=region.seed,
        exclusion_radius=radius,
        box=tuple(tuple(b) for b in region.box),
        time=tuple(region.time),
        max_residual=peak["residual"],
        mean_residual=_exact_sum(res) / len(res),
        max_divergence=peak["divergence"],
        max_fd_discrepancy=peak["fd_discrepancy"],
        max_vorticity_transport=peak.get("vorticity_transport"),
        fd_pressure_points=n_pressure,
        tolerances=tolerances,
        verdict="pass" if all(checks) else "fail",
        worst_points=worst_points,
        notes=notes,
    )

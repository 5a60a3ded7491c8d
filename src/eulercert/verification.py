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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import (
    FieldError,
    InadmissiblePointError,
    SingularSetDescriptor,
    SolutionPair,
    SpaceTimePoint,
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
        if not isinstance(self.count, numbers.Integral):
            raise RegionError(f"sample count must be an integer, got {self.count!r}")
        if self.count < 1:
            raise RegionError("sample count must be >= 1")
        for lo, hi in self.box:
            if not (hi > lo):
                raise RegionError("box must be non-degenerate")
        if not (self.time[1] > self.time[0]):
            raise RegionError("time interval must be non-degenerate")
        r = self.exclusion_radius
        if r is not None and not (math.isfinite(r) and r > 0):
            raise RegionError(f"exclusion radius must be finite and > 0, got {r}")

    @property
    def dim(self):
        return len(self.box)


@dataclass(frozen=True)
class Tolerances:
    residual: float = 1e-8
    divergence: float = 1e-10
    fd: float = 1e-5
    vorticity: float = 1e-8


@dataclass(frozen=True)
class CertificationReport:
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
        return {
            "format_version": 1,
            "solution": self.solution,
            "family": self.family,
            "dimension": self.dimension,
            "viscosity": self.viscosity,
            "samples": self.count,
            "seed": self.seed,
            "exclusion_radius": self.exclusion_radius,
            "box": [list(b) for b in self.box],
            "time": list(self.time),
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "max_divergence": self.max_divergence,
            "max_fd_discrepancy": self.max_fd_discrepancy,
            "max_vorticity_transport": self.max_vorticity_transport,
            "fd_pressure_points": self.fd_pressure_points,
            "tolerances": {
                "residual": self.tolerances.residual,
                "divergence": self.tolerances.divergence,
                "fd": self.tolerances.fd,
                "vorticity": self.tolerances.vorticity,
            },
            "verdict": self.verdict,
            "worst_points": self.worst_points,
            "notes": self.notes,
        }


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
    k = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + k * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


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
    lo = np.array([b[0] for b in region.box])
    hi = np.array([b[1] for b in region.box])
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
        # candidates expected to yield the missing points, with a margin
        per_point = 1.25 * drawn / max(accepted, 1) if drawn else 2.0
        rows = min(math.ceil((n - accepted) * per_point) + 8,
                   _BLOCK_DRAWS // (dim + 1), max_attempts - drawn)
        u = _splitmix64_block(region.seed, drawn * (dim + 1), rows * (dim + 1))
        u = u.reshape(rows, dim + 1)
        X = lo + u[:, :dim] * (hi - lo)
        T = t0 + u[:, dim] * (t1 - t0)
        keep = np.flatnonzero(sing.admissible(X, T, radius))[:n - accepted]
        xs.append(X[keep])
        ts.append(T[keep])
        accepted += len(keep)
        drawn += rows
    return np.concatenate(xs), np.concatenate(ts)


def sample_points(region: SampleRegion, sing: SingularSetDescriptor,
                  exclusion_radius: float = 1e-3):
    """Deterministic pseudo-random admissible points; same seed, same list."""
    X, T = _sample_arrays(region, sing, exclusion_radius)
    return [SpaceTimePoint(tuple(float(c) for c in x), float(t)) for x, t in zip(X, T)]


# ---------------------------------------------------------------------------
# Pointwise checks
# ---------------------------------------------------------------------------


def _residual_batch(sol: SolutionPair, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    jet = sol.velocity_jet(X, T)
    grad_p = sol.pressure_gradient(X, T)
    convect = np.einsum("nij,nj->ni", jet.jacobian, jet.value)
    res = jet.dt + convect + grad_p
    if sol.viscosity != 0.0:
        res = res - sol.viscosity * jet.laplacian
    return res


def momentum_residual(sol: SolutionPair, point: SpaceTimePoint) -> np.ndarray:
    """u_t + (u . grad) u + grad p - sigma lap u at one admissible point."""
    sol.check_admissible(point)
    X, T = point.arrays()
    return _residual_batch(sol, X, T)[0]


def divergence(sol: SolutionPair, point: SpaceTimePoint) -> float:
    """Trace of the velocity Jacobian."""
    sol.check_admissible(point)
    X, T = point.arrays()
    jet = sol.velocity_jet(X, T)
    return float(np.trace(jet.jacobian[0]))


def _divergence_batch(sol: SolutionPair, X, T) -> np.ndarray:
    jet = sol.velocity_jet(X, T)
    return np.einsum("nii->n", jet.jacobian)


def _clearance_capped_steps(sol, X, T, base, fraction):
    """Per-point steps: base * max(1, |coord|), capped near the singular set."""
    clear = sol.singular.clearance(X, T)
    cap = np.where(np.isfinite(clear), fraction * clear, np.inf)
    hx = np.minimum(base * np.maximum(1.0, np.abs(X)), cap[:, None])
    ht = np.minimum(base * np.maximum(1.0, np.abs(T)), cap)
    return hx, ht


def _fd1(fm2, fm1, fp1, fp2, h):
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def _fd2(fm2, fm1, f0, fp1, fp2, h):
    return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)


def _fd_velocity_jet(sol: SolutionPair, X, T):
    """Jacobian, Laplacian and time derivative from 4th-order value stencils."""
    n, dim = X.shape
    hx1, ht1 = _clearance_capped_steps(sol, X, T, FD_STEP1, FD_CLEARANCE_FRACTION)
    hx2, _ = _clearance_capped_steps(sol, X, T, FD_STEP2_FACTOR * FD_STEP1,
                                     FD_CLEARANCE_FRACTION)

    f0 = sol.velocity(X, T)
    jac = np.empty((n, dim, dim))
    lap = np.zeros((n, dim))
    for j in range(dim):
        h1 = hx1[:, j]
        h2 = hx2[:, j]

        def shifted(mult, h):
            Xs = X.copy()
            Xs[:, j] = Xs[:, j] + mult * h
            return sol.velocity(Xs, T)

        jac[:, :, j] = _fd1(shifted(-2, h1), shifted(-1, h1),
                            shifted(1, h1), shifted(2, h1), h1[:, None])
        lap += _fd2(shifted(-2, h2), shifted(-1, h2), f0,
                    shifted(1, h2), shifted(2, h2), h2[:, None])

    dt = _fd1(sol.velocity(X, T - 2 * ht1), sol.velocity(X, T - ht1),
              sol.velocity(X, T + ht1), sol.velocity(X, T + 2 * ht1), ht1[:, None])
    return jac, lap, dt


def _fd_pressure_gradient(sol: SolutionPair, X, T):
    n, dim = X.shape
    hx, _ = _clearance_capped_steps(sol, X, T, FD_STEP1, FD_CLEARANCE_FRACTION)
    grad = np.empty((n, dim))
    for j in range(dim):
        h = hx[:, j]
        def shifted(mult):
            Xs = X.copy()
            Xs[:, j] = Xs[:, j] + mult * h
            return sol.pressure_value(Xs, T)
        grad[:, j] = _fd1(shifted(-2), shifted(-1), shifted(1), shifted(2), h)
    return grad


def _rel_discrepancy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise |a - b| / max(1, |a|, |b|)."""
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) / scale


def fd_crosscheck(sol: SolutionPair, point: SpaceTimePoint, h: Optional[float] = None) -> float:
    """Max relative discrepancy between analytic jets and 4th-order stencils.

    With an explicit ``h`` the first-derivative stencils use that step and
    the second-derivative stencils ten times it; the stencil must stay
    admissible.  Without it the clearance-capped default policy applies.
    """
    sol.check_admissible(point)
    X, T = point.arrays()
    if h is not None:
        clear = float(sol.singular.clearance(X, T)[0])
        if clear < 2.5 * FD_STEP2_FACTOR * h:
            raise InadmissiblePointError("finite-difference stencil leaves the admissible region")
        return float(_fd_panel_fixed(sol, X, T, h)[0])
    return float(_fd_panel(sol, X, T)[0])


def _fd_panel(sol, X, T) -> np.ndarray:
    jet = sol.velocity_jet(X, T)
    jac_fd, lap_fd, dt_fd = _fd_velocity_jet(sol, X, T)
    d = _rel_discrepancy(jet.jacobian, jac_fd).reshape(len(X), -1).max(axis=1)
    d = np.maximum(d, _rel_discrepancy(jet.laplacian, lap_fd).max(axis=1))
    d = np.maximum(d, _rel_discrepancy(jet.dt, dt_fd).max(axis=1))
    return d


def _fd_panel_fixed(sol, X, T, h) -> np.ndarray:
    n, dim = X.shape
    jet = sol.velocity_jet(X, T)
    f0 = sol.velocity(X, T)
    h2 = FD_STEP2_FACTOR * h
    d = np.zeros(n)
    lap = np.zeros((n, dim))
    for j in range(dim):
        def shifted(mult, step):
            Xs = X.copy()
            Xs[:, j] = Xs[:, j] + mult * step
            return sol.velocity(Xs, T)
        col = _fd1(shifted(-2, h), shifted(-1, h), shifted(1, h), shifted(2, h), h)
        d = np.maximum(d, _rel_discrepancy(jet.jacobian[:, :, j], col).max(axis=1))
        lap += _fd2(shifted(-2, h2), shifted(-1, h2), f0, shifted(1, h2), shifted(2, h2), h2)
    d = np.maximum(d, _rel_discrepancy(jet.laplacian, lap).max(axis=1))
    dt = _fd1(sol.velocity(X, T - 2 * h), sol.velocity(X, T - h),
              sol.velocity(X, T + h), sol.velocity(X, T + 2 * h), h)
    d = np.maximum(d, _rel_discrepancy(jet.dt, dt).max(axis=1))
    return d


def residual_fd_only(sol: SolutionPair, X, T) -> np.ndarray:
    """Momentum residual with every velocity derivative from finite differences.

    Independent of the analytic jet path; the pressure gradient stays
    closed-form.  Used as the oracle-independence check.
    """
    u = sol.velocity(X, T)
    jac_fd, lap_fd, dt_fd = _fd_velocity_jet(sol, X, T)
    res = dt_fd + np.einsum("nij,nj->ni", jac_fd, u) + sol.pressure_gradient(X, T)
    if sol.viscosity != 0.0:
        res = res - sol.viscosity * lap_fd
    return res


def _vorticity_transport_batch(sol: SolutionPair, X, T) -> np.ndarray:
    """omega_t + u . grad omega by central differences of the vorticity."""
    clear = sol.singular.clearance(X, T)
    cap = np.where(np.isfinite(clear), VORT_CLEARANCE_FRACTION * clear, np.inf)
    h = np.minimum(VORT_STEP, cap)
    u = sol.velocity(X, T)
    res = None
    for axis in range(3):  # x1, x2, t
        if axis < 2:
            def om(mult):
                Xs = X.copy()
                Xs[:, axis] = Xs[:, axis] + mult * h
                return vorticity_batch(sol, Xs, T)
        else:
            def om(mult):
                return vorticity_batch(sol, X, T + mult * h)
        deriv = _fd1(om(-2), om(-1), om(1), om(2), h)
        term = deriv if axis == 2 else u[:, axis] * deriv
        res = term if res is None else res + term
    return res


def vorticity_transport_residual(sol: SolutionPair, point: SpaceTimePoint) -> float:
    """Residual of the planar vorticity transport law at one point."""
    if sol.dimension != 2:
        raise FieldError("vorticity transport is defined for 2D solutions only")
    sol.check_admissible(point)
    X, T = point.arrays()
    return float(_vorticity_transport_batch(sol, X, T)[0])


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def default_region(sol: SolutionPair, count: int = 10_000, seed: int = 0,
                   until: float = 0.9) -> SampleRegion:
    """Solution-appropriate sampling region.

    Box and time interval come from the solution metadata; for entries with
    a blow-up time the interval ends at ``until`` times it.
    """
    box = sol.metadata.get("default_box", ((-3.0, 3.0),) * sol.dimension)
    T = sol.singular.blowup_time()
    if T is not None:
        time = (0.0, until * T)
    else:
        time = sol.metadata.get("default_time", (0.0, 1.0))
    return SampleRegion(box=tuple(box), time=tuple(time), count=count, seed=seed)


def _validate_region(sol: SolutionPair, region: SampleRegion):
    if region.dim != sol.dimension:
        raise RegionError("region dimension does not match the solution")
    T = sol.singular.blowup_time()
    if T is not None and region.time[1] >= T:
        raise RegionError(f"time interval must end strictly below the blow-up time {T}")


def certify(sol: SolutionPair, region: Optional[SampleRegion] = None,
            tolerances: Optional[Tolerances] = None) -> CertificationReport:
    """Sample the region and aggregate the four pointwise checks.

    Deterministic for a fixed seed: the sample sequence is platform
    independent, maxima are order independent, and the mean uses exact
    (fsum) accumulation.
    """
    region = region or default_region(sol)
    tolerances = tolerances or Tolerances()
    _validate_region(sol, region)
    radius = region.exclusion_radius if region.exclusion_radius is not None else sol.exclusion_radius
    X, T = _sample_arrays(region, sol.singular, radius)

    res = np.linalg.norm(_residual_batch(sol, X, T), axis=1)
    div = np.abs(_divergence_batch(sol, X, T))
    fd = _fd_panel(sol, X, T)

    n_pressure = 0
    if sol.pressure_value is not None:
        sel = np.arange(len(X))
        if sol.pressure_cut_clearance is not None:
            hmax = 2.5 * FD_STEP1 * np.maximum(1.0, np.abs(X).max(axis=1))
            sel = sel[sol.pressure_cut_clearance(X, T) > 0.05 + 4.0 * hmax]
        sel = sel[:PRESSURE_FD_SUBSET]
        if len(sel):
            n_pressure = len(sel)
            grad_fd = _fd_pressure_gradient(sol, X[sel], T[sel])
            grad = sol.pressure_gradient(X[sel], T[sel])
            fd_p = _rel_discrepancy(grad, grad_fd).max(axis=1)
            fd[sel] = np.maximum(fd[sel], fd_p)

    vort = None
    max_vort = None
    if sol.dimension == 2:
        vort = np.abs(_vorticity_transport_batch(sol, X, T))
        max_vort = float(vort.max())

    metrics = {"residual": (res, tolerances.residual),
               "divergence": (div, tolerances.divergence),
               "fd_discrepancy": (fd, tolerances.fd)}
    if vort is not None:
        metrics["vorticity_transport"] = (vort, tolerances.vorticity)
    non_finite = {k: int(np.count_nonzero(~np.isfinite(v))) for k, (v, _) in metrics.items()}
    checks = [not non_finite[k] and float(v.max()) <= tol for k, (v, tol) in metrics.items()]

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
        max_residual=float(res.max()),
        mean_residual=float(math.fsum(res) / len(res)),
        max_divergence=float(div.max()),
        max_fd_discrepancy=float(fd.max()),
        max_vorticity_transport=max_vort,
        fd_pressure_points=n_pressure,
        tolerances=tolerances,
        verdict="pass" if all(checks) else "fail",
        worst_points=worst_points,
        notes=notes,
    )

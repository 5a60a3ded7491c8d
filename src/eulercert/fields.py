"""Space-time field types, singular-set geometry, and radial and phase jets.

Velocity fields are evaluated in batches: positions are float64 arrays of
shape (N, dim) and times arrays of shape (N,).  A VelocityJet bundles the
values with the spatial Jacobian, the per-component Laplacian, and the
time derivative, which is everything the momentum residual needs.

Pressure for the rotational vortex families is multivalued (its angular
part lives on a branch cut), so solutions expose the pressure gradient as
the primary object and the pressure value only away from the cut.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .expressions import Jet2


def _set_allocator_policy() -> None:
    """Fix glibc's mmap and trim thresholds for the whole process.

    Setting them explicitly also turns off glibc's dynamic thresholds, so
    the cost of a stage no longer depends on what the process allocated
    before it.  Only memory placement changes, never arithmetic.  Without
    glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        # M_MMAP_THRESHOLD: per-point temporaries of a 10^4-point certify
        # reach 720 KB; from the heap, a freed one is reused by the next
        # stage instead of being unmapped and faulted in again.
        mallopt(-3, 8 << 20)
        # M_TRIM_THRESHOLD: one certify stage keeps a few MB live; freed
        # heap below this stays with the process for the next stage.
        mallopt(-1, 16 << 20)
    except (OSError, AttributeError, TypeError):
        pass


_set_allocator_policy()

__all__ = [
    "FieldError",
    "InadmissiblePointError",
    "SpaceTimePoint",
    "VelocityJet",
    "PressureInfo",
    "MovingPoint",
    "MovingLine",
    "BlowupTime",
    "HalfSpaceBoundary",
    "SingularSetDescriptor",
    "SolutionPair",
    "DEFAULT_EXCLUSION_RADIUS",
    "row_norm",
    "row_max",
    "row_matmul",
    "row_matvec",
    "row_congruence",
    "radial_jacobian",
    "radial_field_jet",
    "phase_jacobian",
    "phase_field_jet",
    "vorticity",
    "pressure_value",
]

DEFAULT_EXCLUSION_RADIUS = 1e-3


class FieldError(ValueError):
    pass


class InadmissiblePointError(FieldError):
    """Point lies on or too close to the singular set of a solution."""


@dataclass(frozen=True)
class SpaceTimePoint:
    """Position (2 or 3 nondimensional coordinates) and time."""

    x: tuple
    t: float

    def __post_init__(self):
        if len(self.x) not in (2, 3):
            raise FieldError("dimension must be 2 or 3")
        if not all(math.isfinite(c) for c in self.x) or not math.isfinite(self.t):
            raise FieldError("coordinates must be finite")

    @property
    def dim(self) -> int:
        return len(self.x)

    def arrays(self):
        """Batch-of-one arrays for the batched evaluators."""
        return np.asarray([self.x], dtype=float), np.asarray([self.t], dtype=float)


@dataclass(frozen=True)
class VelocityJet:
    """Velocity with the derivatives the momentum equation consumes.

    Batched shapes: value (N, d), jacobian (N, d, d) with [n, i, j] equal
    to du_i/dx_j, laplacian (N, d), dt (N, d).
    """

    value: np.ndarray
    jacobian: np.ndarray
    laplacian: np.ndarray
    dt: np.ndarray


@dataclass(frozen=True)
class PressureInfo:
    """The pressure gradient at a point and, where defined, the value and its branch."""

    gradient: np.ndarray
    value: Optional[float] = None
    branch: Optional[str] = None


# ---------------------------------------------------------------------------
# Row reductions over the point axis
#
# Per-point arrays have shape (N, dim) or (N, dim, dim) with dim = 2 or 3,
# and they are axis-major (F-order), the one layout for point batches:
# ``verification._sample_arrays`` draws the points so, ``_shift_points``
# keeps the layout when it copies, and every kernel allocates its outputs
# so.  A column X[:, k] or an entry jac[:, i, j] is then one contiguous run.
# numpy broadcasts and reduces over such a short trailing axis several times
# more slowly than it works on whole columns, so the hot paths work one
# column at a time.  Column folds run left to right, which for 2-3 columns
# is numpy's own order, so every value equals its numpy form.  Products with
# a 2x2 or 3x3 right operand (``row_matmul``), sums over an axis and the
# Gauss-Legendre sums of ``catalog.quad`` keep numpy's order, which gives
# the same bits in either layout.  Three contractions do not; they are
# pinned to the order numpy takes on C-contiguous operands, which every
# pinned report digest and benchmark golden holds:
#   - einsum 'nij,nj->ni' (the convection term) and 'nij,j->ni' (a boost's
#     correction) sum three terms as (j0 + j2) + j1; ``row_matvec``;
#   - einsum 'ji,njk,kl->nil' (a rotated Jacobian) sums (Q_ji J_jk) Q_kl
#     over j, then k, left to right; ``row_congruence``;
#   - a matrix-vector product fuses multiply-adds, and its column-major
#     kernel rounds some rows differently; ``MovingLine.distance`` forms it
#     from a C-contiguous copy of the points.
# einsum sums from +0.0, so ``_einsum_fold`` does too: a zero sum is +0.0.
# ---------------------------------------------------------------------------


def _offsets(X, T, origin, vel):
    """Columns x_k - (origin_k + vel_k t) of the points about an origin that
    moves at constant velocity."""
    return (X[:, k] - (p + T * v) for k, (p, v) in enumerate(zip(origin, vel)))


def _fold_sum(columns) -> np.ndarray:
    columns = iter(columns)
    out = next(columns) + next(columns, 0.0)
    for c in columns:
        out += c
    return out


def _fold_norm(columns) -> np.ndarray:
    columns = iter(columns)
    c = next(columns)
    out = c * c
    for c in columns:
        out += c * c
    return np.sqrt(out, out=out)


def row_norm(A: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(A, axis=1)`` for a 2-D ``A`` with a few columns,
    without numpy's slow reduction over a short trailing axis:
    sqrt((a0*a0 + a1*a1) + a2*a2), the squares folded left to right, which is
    numpy's order below 8 columns.  Same values, NaN, inf and overflow
    included."""
    return _fold_norm(A.T)


def row_max(A: np.ndarray) -> np.ndarray:
    """``A.max(axis=1)`` for a 2-D ``A`` with a few columns, without numpy's
    slow reduction over a short trailing axis: the columns are folded left to
    right.  Same values, NaN included."""
    out = A[:, 0].copy()
    for j in range(1, A.shape[1]):
        np.maximum(out, A[:, j], out=out)
    return out


def row_matmul(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``A @ M`` for an (N, dim) ``A`` and a small ``M``, as an F-order array;
    the same bits as ``A @ M`` in either layout of ``A``."""
    return np.matmul(A, M, out=np.empty((len(A), M.shape[1]), order="F"))


def _einsum_fold(products, out: np.ndarray) -> np.ndarray:
    """Sum the columns ``products`` into ``out`` left to right from +0.0."""
    products = iter(products)
    np.add(0.0, next(products), out=out)
    for p in products:
        out += p
    return out


_MATVEC_ORDER = {2: (0, 1), 3: (0, 2, 1)}  # einsum's over a C-contiguous axis


def row_matvec(J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.einsum('nij,nj->ni', J, v)`` (``'nij,j->ni'`` for a 1-D ``v``)
    as numpy sums it on C-contiguous operands, whatever their layout; an
    F-order (N, dim) array."""
    n, d = J.shape[:2]
    out = np.empty((n, d), order="F")
    for i in range(d):
        _einsum_fold((J[:, i, j] * v[..., j] for j in _MATVEC_ORDER[d]), out[:, i])
    return out


def row_congruence(Q: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Q^T J Q at every point, ``np.einsum('ji,njk,kl->nil', Q, J, Q)`` as
    numpy sums it on a C-contiguous ``J``, whatever its layout; an F-order
    (N, dim, dim) array."""
    n, d = J.shape[:2]
    out = np.empty((n, d, d), order="F")
    for i in range(d):
        for m in range(d):
            _einsum_fold((Q[j, i] * J[:, j, k] * Q[k, m] for j in range(d) for k in range(d)),
                         out[:, i, m])
    return out


# ---------------------------------------------------------------------------
# Singular-set primitives
#
# Each primitive states its geometry once, as a signed distance that is
# exactly zero on its own locus and negative on its excluded side (a locus
# with no such side, a point or a line, is never negative).  It moves with
# its field: ``moved`` maps it by x -> lam Q^T x + C t, t -> tau t.
# ---------------------------------------------------------------------------


def _moved_origin(pos, vel, lam, tau, Q, C):
    """``moved`` for the origin pos + vel t; an absent Q or C is skipped."""
    if Q is not None:
        pos, vel = Q.T @ np.asarray(pos), Q.T @ np.asarray(vel)
    vel = tuple(lam * v / tau for v in vel)
    if C is not None:
        vel = tuple(v + c for v, c in zip(vel, C))
    return tuple(lam * p for p in pos), vel


@dataclass(frozen=True)
class MovingPoint:
    """Point singularity travelling at constant velocity: x = pos0 + vel*t."""

    pos0: tuple
    vel: tuple

    def __post_init__(self):
        object.__setattr__(self, "pos0", tuple(float(v) for v in self.pos0))
        object.__setattr__(self, "vel", tuple(float(v) for v in self.vel))

    def distance(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        return _fold_norm(_offsets(X, T, self.pos0, self.vel))

    def moved(self, lam=1.0, tau=1.0, Q=None, C=None):
        return MovingPoint(*_moved_origin(self.pos0, self.vel, lam, tau, Q, C))

    def describe(self):
        if all(v == 0.0 for v in self.vel):
            return f"point x = {self.pos0}"
        return f"moving point x = {self.pos0} + {self.vel} t"


@dataclass(frozen=True)
class MovingLine:
    """Line {a.x = b0 + b1*t} with unit normal a."""

    normal: tuple
    b0: float
    b1: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        scale = np.linalg.norm(n)
        if scale == 0.0:
            raise FieldError("line normal must be nonzero")
        object.__setattr__(self, "normal", tuple(float(v) for v in n / scale))
        object.__setattr__(self, "b0", float(self.b0 / scale))
        object.__setattr__(self, "b1", float(self.b1 / scale))

    def distance(self, X, T):
        # pinned to the row-major product (see "Row reductions" above)
        return np.abs(np.ascontiguousarray(X) @ np.asarray(self.normal) - self.b0 - self.b1 * T)

    def moved(self, lam=1.0, tau=1.0, Q=None, C=None):
        normal = self.normal if Q is None else tuple(Q.T @ np.asarray(self.normal))
        b1 = lam * self.b1 / tau
        return MovingLine(normal, lam * self.b0, b1 if C is None else b1 + float(np.dot(normal, C)))

    def describe(self):
        n = tuple(round(v, 12) for v in self.normal)
        if self.b1 == 0.0:
            return f"line {n}.x = {self.b0}"
        return f"moving line {n}.x = {self.b0} + {self.b1} t"


@dataclass(frozen=True)
class BlowupTime:
    """Finite blow-up time t = T; everything at and beyond T is excluded."""

    T: float

    def distance(self, X, T):
        return self.T - T

    def moved(self, lam=1.0, tau=1.0, Q=None, C=None):
        return BlowupTime(tau * self.T)

    def describe(self):
        return f"blow-up time t = {self.T}"


@dataclass(frozen=True)
class HalfSpaceBoundary:
    """Boundary s = 0 of the admissible half-space s >= 0.

    s is the sum of the shifted coordinates, s = sum_i (x_i - x0_i - vel_i t);
    the signed Euclidean distance to the plane is s / sqrt(dim), negative
    outside the domain.
    """

    x0: tuple
    vel: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        object.__setattr__(self, "vel", tuple(float(v) for v in self.vel))

    def distance(self, X, T):
        return _fold_sum(_offsets(X, T, self.x0, self.vel)) / math.sqrt(len(self.x0))

    def moved(self, lam=1.0, tau=1.0, Q=None, C=None):
        if Q is not None:
            raise FieldError("rotation is only defined for 2D solutions")
        return HalfSpaceBoundary(*_moved_origin(self.x0, self.vel, lam, tau, None, C))

    def describe(self):
        return f"half-space boundary s = 0 about x0 = {self.x0}"


@dataclass(frozen=True)
class SingularSetDescriptor:
    """Machine-checkable locus where a solution is not smooth.

    ``primitives`` restrict where the field may be evaluated; ``pressure_cut``
    primitives only restrict where the (multivalued) pressure value may be
    reported and do not affect field admissibility.
    """

    primitives: tuple = ()
    pressure_cut: tuple = ()

    def clearance(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """Least signed distance over the hard primitives: negative on the
        excluded side of one, inf when there is none.  At an admissible point
        it is the distance to the nearest primitive."""
        if not self.primitives:
            return np.full(len(X), np.inf)
        return functools.reduce(np.minimum, (p.distance(X, T) for p in self.primitives))

    def admissible(self, X, T, radius) -> np.ndarray:
        """Points whose clearance is at least ``radius``.  A NaN coordinate or
        time makes the clearance NaN, so with any primitive such a point is
        not admissible."""
        return self.clearance(X, T) >= radius

    def blowup_time(self) -> Optional[float]:
        times = [p.T for p in self.primitives if isinstance(p, BlowupTime)]
        return min(times) if times else None

    def moved(self, lam=1.0, tau=1.0, Q=None, C=None) -> "SingularSetDescriptor":
        """The set with every primitive moved by the same transform."""
        return SingularSetDescriptor(tuple(p.moved(lam, tau, Q, C) for p in self.primitives),
                                     tuple(p.moved(lam, tau, Q, C) for p in self.pressure_cut))

    def describe(self) -> str:
        if not self.primitives and not self.pressure_cut:
            return "none (globally smooth)"
        parts = [p.describe() for p in self.primitives]
        parts += [p.describe() + " (pressure value only)" for p in self.pressure_cut]
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# Solution pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolutionPair:
    """An immutable evaluable velocity/pressure pair.

    All evaluators are pure and take batched arrays (X of shape (N, dim),
    T of shape (N,)); they are total on the admissible region (clearance of
    at least ``exclusion_radius`` from every hard singular primitive).
    ``viscosity`` is exactly 0.0 for inviscid entries.

    ``velocity_jacobian``, where given, is ``velocity_jet(X, T).jacobian``
    bit for bit, computed without the value, Laplacian and time derivative;
    ``vorticity_batch`` reads it and falls back to the full jet when it is
    None.  A transform (``catalog._step``) must map it the way it maps the
    jet's Jacobian, and a pair that replaces ``velocity_jet`` with another
    Jacobian must replace or clear it too.
    """

    dimension: int
    viscosity: float
    velocity: Callable  # (X, T) -> (N, dim) values
    velocity_jet: Callable  # (X, T) -> VelocityJet
    pressure_gradient: Callable  # (X, T) -> (N, dim)
    singular: SingularSetDescriptor
    # (X, T) -> (N,); row i's bits depend on X[i] and T[i] alone, because
    # the pressure panel evaluates all its shifted points in one call
    pressure_value: Optional[Callable] = None
    pressure_cut_clearance: Optional[Callable] = None  # (X, T) -> (N,)
    velocity_jacobian: Optional[Callable] = None  # (X, T) -> (N, dim, dim)
    exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS
    metadata: dict = field(default_factory=dict)
    # Analytic facts, None where a family has none, mapped by ``catalog._step``
    # with the field.  The speed facts state the co-moving speed |w - boost_total|.
    radial_speed: Optional[Callable] = None  # (r, t) -> speed at distance r from the centre
    decay_envelope: Optional[tuple] = None  # (kappa, m, exact): speed <= kappa(t)/r^m, = if exact
    boundary_speed: Optional[Callable] = None  # t -> speed on the half-space boundary
    sup_speed_unit_ball: Optional[Callable] = None  # t -> sup of the speed on the unit ball
    boost_total: Optional[tuple] = None  # accumulated boost C, the co-moving frame's velocity
    wave_normal: Optional[tuple] = None  # unit n: w depends on x only through n.x (a plane wave)
    # The default sampling region, mapped by ``catalog._step`` with the field:
    # a box ((lo, hi), ...), (-3, 3) on every axis unless given, and a time
    # interval, which a blow-up time overrides (``verification.default_region``).
    default_box: Optional[tuple] = None
    default_time: tuple = (0.0, 1.0)
    # The time at which ex_3_10 takes its symmetric form (the preset's profile
    # is 1/(x1 - x2)^2 then); ``catalog._step`` scales it by tau.
    form_symmetry_time: Optional[float] = None

    def __post_init__(self):
        if self.default_box is None:
            object.__setattr__(self, "default_box", ((-3.0, 3.0),) * self.dimension)

    # -- single-point conveniences ------------------------------------------

    def check_admissible(self, point: SpaceTimePoint):
        """The batch-of-one ``(X, T)`` of an admissible point of the pair's
        dimension; raises FieldError for any other point."""
        if point.dim != self.dimension:
            raise FieldError(f"point dimension {point.dim} != solution dimension {self.dimension}")
        X, T = point.arrays()
        if not bool(self.singular.admissible(X, T, self.exclusion_radius)[0]):
            raise InadmissiblePointError(
                f"point {point.x} at t={point.t} is within {self.exclusion_radius} of the singular set"
            )
        return X, T

    def velocity_at(self, point: SpaceTimePoint) -> np.ndarray:
        return self.velocity(*self.check_admissible(point))[0]

    def pressure_gradient_at(self, point: SpaceTimePoint) -> np.ndarray:
        return self.pressure_gradient(*self.check_admissible(point))[0]

    @property
    def name(self) -> str:
        return self.metadata.get("name", self.metadata.get("family", "solution"))


# ---------------------------------------------------------------------------
# Radial rotational pattern
#
# Fields of the form u = (phi(r) x2, -phi(r) x1) around a center.  The
# chain-rule identities used here:
#     d1(phi x2) = phi' x1 x2 / r          d2(phi x2) = phi + phi' x2^2 / r
#     lap(phi x2) = x2 (phi'' + 3 phi'/r)
# and the mirrored forms for -phi x1.  The finite-difference cross-check in
# the verification module is the authority for these identities.
# ---------------------------------------------------------------------------


def radial_jacobian(phi: Jet2, Y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Jacobian (N,2,2) of u = (phi(r) y2, -phi(r) y1); reads only the value
    and first derivative of ``phi``.  The trace vanishes exactly because the
    two diagonal entries are the same computed product with opposite signs.
    """
    y1, y2 = Y[:, 0], Y[:, 1]
    q = np.divide(phi.d1, r)
    term = np.multiply(q, y1)
    jac = np.empty((len(r), 2, 2), order="F")
    np.multiply(term, y2, out=jac[:, 0, 0])  # q y1 y2
    np.negative(jac[:, 0, 0], out=jac[:, 1, 1])
    np.multiply(q, y2, out=term)
    term *= y2
    np.add(phi.value, term, out=jac[:, 0, 1])  # phi + q y2 y2
    np.multiply(q, y1, out=term)
    term *= y1
    np.add(phi.value, term, out=term)
    np.negative(term, out=jac[:, 1, 0])  # -(phi + q y1 y1)
    return jac


def radial_field_jet(phi: Jet2, Y: np.ndarray, r: np.ndarray):
    """Assemble value/jacobian/laplacian of u = (phi(r) y2, -phi(r) y1).

    ``phi`` is the profile jet in r evaluated at ``r = |Y|`` (batched).
    Returns (value (N,2), jacobian (N,2,2), laplacian (N,2)).
    """
    y1, y2 = Y[:, 0], Y[:, 1]
    jac = radial_jacobian(phi, Y, r)
    n = len(r)
    value, lap, lapfac = np.empty((n, 2), order="F"), np.empty((n, 2), order="F"), np.empty(n)
    np.multiply(phi.value, y2, out=value[:, 0])
    np.negative(phi.value, out=value[:, 1])
    value[:, 1] *= y1  # -phi y1
    np.multiply(3.0, phi.d1, out=lapfac)
    lapfac /= r
    np.add(phi.d2, lapfac, out=lapfac)  # phi'' + 3 phi' / r
    np.multiply(lapfac, y2, out=lap[:, 0])
    np.negative(lapfac, out=lapfac)
    np.multiply(lapfac, y1, out=lap[:, 1])
    return value, jac, lap


def phase_field_jet(n: int, profiles, coeffs, offsets, grad, lap, dt) -> VelocityJet:
    """Jet of the planar field u_i = a_i V_i(eta) + c_i of one scalar phase eta.

    ``profiles[i]`` is the jet of V_i at eta (components may share one jet),
    ``coeffs`` holds the a_i and ``offsets`` the c_i (None for zero).  The
    phase enters through its gradient ``grad`` = (d1 eta, d2 eta), its
    Laplacian ``lap`` (None when eta is linear) and its time derivative
    ``dt``; each is a scalar or has shape (n,).  By the chain rule
    du_i/dx_j = d_j eta a_i V_i', lap u_i = a_i (|grad eta|^2 V_i'' +
    lap eta V_i') and du_i/dt = d_t eta a_i V_i'.
    """
    value, lap_u, dt_u = (np.empty((n, 2), order="F") for _ in range(3))
    grad2 = grad[0] * grad[0] + grad[1] * grad[1]
    for i, (V, a) in enumerate(zip(profiles, coeffs)):
        v, vp, vpp = V.value, V.d1, V.d2
        curv = grad2 * vpp if lap is None else grad2 * vpp + vp * lap
        if a != 1.0:
            v, vp, curv = a * v, a * vp, a * curv
        value[:, i] = v if offsets is None else v + offsets[i]
        lap_u[:, i] = curv
        dt_u[:, i] = dt * vp
    return VelocityJet(value, phase_jacobian(n, profiles, coeffs, grad), lap_u, dt_u)


def phase_jacobian(n: int, profiles, coeffs, grad) -> np.ndarray:
    """Jacobian (n,2,2) of the ``phase_field_jet`` field, du_i/dx_j =
    d_j eta a_i V_i'; reads only the first derivative of each profile."""
    jac = np.empty((n, 2, 2), order="F")
    for i, (V, a) in enumerate(zip(profiles, coeffs)):
        vp = V.d1 if a == 1.0 else np.multiply(a, V.d1, out=jac[:, i, 1])
        np.multiply(grad[0], vp, out=jac[:, i, 0])
        np.multiply(grad[1], vp, out=jac[:, i, 1])
    return jac


def vorticity(sol: SolutionPair, point: SpaceTimePoint) -> float:
    """Scalar vorticity du2/dx1 - du1/dx2 of a 2D solution."""
    if sol.dimension != 2:
        raise FieldError("vorticity is defined for 2D solutions only")
    return float(vorticity_batch(sol, *sol.check_admissible(point))[0])


def vorticity_batch(sol: SolutionPair, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Vorticity at the points, from ``velocity_jacobian`` when the pair has
    one and from the full velocity jet otherwise."""
    if sol.dimension != 2:
        raise FieldError("vorticity is defined for 2D solutions only")
    if sol.velocity_jacobian is not None:
        jac = sol.velocity_jacobian(X, T)
    else:
        jac = sol.velocity_jet(X, T).jacobian
    return jac[:, 1, 0] - jac[:, 0, 1]


def pressure_value(sol: SolutionPair, point: SpaceTimePoint) -> PressureInfo:
    """Pressure gradient plus, where defined, a branch-consistent value."""
    X, T = sol.check_admissible(point)
    grad = sol.pressure_gradient(X, T)[0]
    if sol.pressure_value is None:
        return PressureInfo(gradient=grad)
    if sol.pressure_cut_clearance is not None:
        if float(sol.pressure_cut_clearance(X, T)[0]) <= 0.0:
            raise InadmissiblePointError("pressure value is not defined on its branch cut")
    val = float(sol.pressure_value(X, T)[0])
    return PressureInfo(gradient=grad, value=val, branch=sol.metadata.get("pressure_branch"))


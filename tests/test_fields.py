import ctypes
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulercert import fields
from eulercert.catalog import TransformSpec, apply_transform, ij_vortex, preset, twin_wave
from eulercert.expressions import Jet2, eval_jet, parse
from eulercert.fields import (
    BlowupTime,
    FieldError,
    HalfSpaceBoundary,
    InadmissiblePointError,
    MovingLine,
    MovingPoint,
    SingularSetDescriptor,
    SpaceTimePoint,
    pressure_value,
    radial_field_jet,
    row_max,
    row_norm,
    vorticity,
)
from eulercert.verification import SampleRegion, certify, default_region, sample_points


def pt(*x, t=0.0):
    return SpaceTimePoint(tuple(x), t)


class TestRadialFieldJet:
    def test_rigid_rotation(self):
        # phi == 1 gives the solid-body field (x2, -x1)
        Y = np.array([[0.0, 1.0]])
        r = np.array([1.0])
        phi = Jet2(np.array([1.0]), np.array([0.0]), np.array([0.0]))
        value, jac, lap = radial_field_jet(phi, Y, r)
        assert value[0].tolist() == [1.0, 0.0]
        assert jac[0].tolist() == [[0.0, 1.0], [-1.0, 0.0]]
        assert lap[0].tolist() == [0.0, 0.0]

    def test_inverse_square_profile_value(self):
        Y = np.array([[1.0, 0.0]])
        r = np.array([1.0])
        phi = Jet2(np.array([1.0]), np.array([-2.0]), np.array([6.0]))  # r^-2 jet at r=1
        value, _, _ = radial_field_jet(phi, Y, r)
        assert value[0].tolist() == [0.0, -1.0]

    def test_jacobian_matches_finite_differences(self):
        # phi = 1/(1+r^2)^2 at the point (0, 1)
        ast = parse("1/(1+r^2)^2", "r")

        def field(y1, y2):
            r = math.hypot(y1, y2)
            phi = eval_jet(ast, Jet2.variable(r)).value
            return np.array([phi * y2, -phi * y1])

        Y = np.array([[0.0, 1.0]])
        r = np.array([1.0])
        phi = eval_jet(ast, Jet2.variable(r))
        _, jac, _ = radial_field_jet(phi, Y, r)
        h = 1e-6
        fd = np.empty((2, 2))
        fd[:, 0] = (field(h, 1.0) - field(-h, 1.0)) / (2 * h)
        fd[:, 1] = (field(0.0, 1.0 + h) - field(0.0, 1.0 - h)) / (2 * h)
        assert np.max(np.abs(jac[0] - fd) / (1.0 + np.abs(fd))) <= 1e-6


class TestVorticity:
    def test_rigid_rotation_constant(self):
        sol = ij_vortex("0", "1")  # g == 1: solid-body rotation
        for p in (pt(0.0, 1.0), pt(2.0, -1.5, t=0.3), pt(-0.7, 0.4)):
            assert vorticity(sol, p) == pytest.approx(-2.0, abs=1e-12)

    def test_twin_wave_matches_profile_derivative(self):
        c1, c2, c3 = 1.0, 0.0, 2.0
        sol = twin_wave("1/(1+x^2)^2", c1, c2, c3)
        vp_ast = parse("1/(1+x^2)^2", "x")
        for p in (pt(0.5, 0.2, t=0.1), pt(-1.0, 2.0, t=0.7)):
            xi = c3 * p.x[0] - p.x[1] - (c3 * c1 - c2) * p.t
            vp = eval_jet(vp_ast, Jet2.variable(xi)).d1
            assert vorticity(sol, p) == pytest.approx((c3**2 + 1.0) * vp, rel=1e-12)

    def test_constant_field_has_zero_vorticity(self):
        sol = twin_wave("0", 1.0, 2.0, 1.0)
        assert vorticity(sol, pt(0.3, 0.4, t=0.2)) == 0.0

    def test_dimension_guard(self):
        from eulercert.catalog import linear3d

        sol = linear3d("1", np.diag([1.0, 1.0, -2.0]))
        with pytest.raises(FieldError):
            vorticity(sol, pt(1.0, 1.0, 1.0))


class TestPressureValue:
    def test_radial_antiderivative_closed_form(self):
        # g = 1/(1+r^2)^2 integrates to F(r) = -1/(6 (1+r^2)^3) + const
        sol = ij_vortex("1", "-1/r^2 + 1/(1+r^2)^2")
        p1 = pressure_value(sol, pt(0.0, 1.0)).value
        p2 = pressure_value(sol, pt(0.0, 2.0)).value
        assert p1 - p2 == pytest.approx(-1.0 / 48.0 + 1.0 / 750.0, abs=1e-10)

    def test_inverse_square_family_radial_part(self):
        # F(r, t) + (t-1)^2 / (2 r^2) is independent of r
        sol = ij_vortex("t", "-1/r^2")
        t = 0.25
        vals = []
        for r in (1.0, 1.5, 2.0):
            p = pressure_value(sol, SpaceTimePoint((0.0, r), t)).value
            vals.append(p + (t - 1.0) ** 2 / (2.0 * r * r))
        assert max(vals) - min(vals) <= 1e-10

    def test_constant_circulation_has_no_angular_part(self):
        sol = ij_vortex("1", "-1/r^2 + 1/(1+r^2)^2")
        r = 1.3
        a = pressure_value(sol, pt(r * math.sin(0.3), r * math.cos(0.3))).value
        b = pressure_value(sol, pt(r * math.sin(1.2), r * math.cos(1.2))).value
        assert a == pytest.approx(b, abs=1e-12)

    def test_value_consistent_with_gradient(self):
        sol = ij_vortex("t", "-1/r^2")
        x = np.array([0.8, 1.1])
        t = 0.4
        grad = sol.pressure_gradient(x[None, :], np.array([t]))[0]
        h = 1e-6
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            pp = sol.pressure_value((x + step)[None, :], np.array([t]))[0]
            pm = sol.pressure_value((x - step)[None, :], np.array([t]))[0]
            assert (pp - pm) / (2 * h) == pytest.approx(grad[j], rel=1e-6, abs=1e-7)

    def test_gradient_is_curl_free(self):
        sol = ij_vortex("t", "-1/r^2")
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(0.5, 3.0, size=2)
            t = rng.uniform(0.0, 1.0)
            h = 1e-5

            def grad(y1, y2):
                return sol.pressure_gradient(np.array([[y1, y2]]), np.array([t]))[0]

            d1_of_p2 = (grad(x[0] + h, x[1])[1] - grad(x[0] - h, x[1])[1]) / (2 * h)
            d2_of_p1 = (grad(x[0], x[1] + h)[0] - grad(x[0], x[1] - h)[0]) / (2 * h)
            assert abs(d1_of_p2 - d2_of_p1) <= 1e-6

    def test_branch_plane_rejected(self):
        sol = ij_vortex("t", "-1/r^2")
        with pytest.raises(InadmissiblePointError):
            pressure_value(sol, pt(1.0, 0.0))

    def test_branch_is_stated_in_the_vortex_frame(self):
        # boosted by C = (1, 0), the cut {y1 = 0, y2 <= 0} of the vortex frame
        # y = x - C t lies on x1 = 0.5 at t = 0.5; x1 = 0 is no cut there
        sol = apply_transform(preset("ex_2_5"), TransformSpec.boost((1.0, 0.0)))

        def p(x1):
            return pressure_value(sol, pt(x1, -1.0, t=0.5))

        assert p(0.5 - 1e-7).value - p(0.5 + 1e-7).value == pytest.approx(2.0 * math.pi, rel=1e-6)
        assert p(-1e-7).value == pytest.approx(p(1e-7).value, abs=1e-6)
        assert p(0.3).branch == pressure_value(preset("ex_2_5"), pt(0.3, -1.0)).branch
        assert "vortex frame" in p(0.3).branch and "{y1 = 0, y2 <= 0}" in p(0.3).branch


class TestSpaceTimePoint:
    def test_dimension_validation(self):
        with pytest.raises(FieldError):
            SpaceTimePoint((1.0,), 0.0)
        with pytest.raises(FieldError):
            SpaceTimePoint((1.0, 2.0, 3.0, 4.0), 0.0)

    def test_finite_validation(self):
        with pytest.raises(FieldError):
            SpaceTimePoint((math.nan, 0.0), 0.0)


class TestSingularPrimitives:
    def test_moving_point_distance_zero_on_locus(self):
        p = MovingPoint((1.0, 0.0), (2.0, -1.0))
        X = np.array([[1.0 + 2.0 * 0.5, -0.5]])
        assert p.distance(X, np.array([0.5]))[0] == 0.0

    def test_moving_line_distance_is_euclidean(self):
        line = MovingLine((1.0, -1.0), 0.0, 0.0)
        X = np.array([[1.0, 0.0]])
        assert line.distance(X, np.array([0.0]))[0] == pytest.approx(math.sqrt(0.5))

    def test_blowup_time_excludes_beyond(self):
        sing = SingularSetDescriptor((BlowupTime(1.0),))
        X = np.zeros((3, 2))
        ok = sing.admissible(X, np.array([1.5, 0.995, 0.9]), 0.01)
        assert ok.tolist() == [False, False, True]

    def test_halfspace_excludes_outside(self):
        sing = SingularSetDescriptor((HalfSpaceBoundary((0.0, 0.0, 0.0)),))
        X = np.array([[-1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        T = np.zeros(2)
        assert sing.admissible(X, T, 0.01).tolist() == [False, True]

    def test_blowup_distance_is_negative_after_blowup(self):
        d = BlowupTime(1.0).distance(np.zeros((3, 2)), np.array([0.75, 1.0, 1.5]))
        assert d.tolist() == [0.25, 0.0, -0.5]

    def test_halfspace_distance_is_negative_outside(self):
        hs = HalfSpaceBoundary((0.0, 0.0, 0.0))
        X = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        d = hs.distance(X, np.zeros(3))
        assert d.tolist() == [-1.0 / math.sqrt(3), 0.0, 3.0 / math.sqrt(3)]

    def test_clearance_is_negative_outside_the_domain(self):
        # ex_6_1: the half-space s >= 0 up to the blow-up time t = 1
        sing = preset("ex_6_1").singular
        X = np.array([[-1.0, -1.0, -1.0], [2.0, 2.0, 2.0], [2.0, 2.0, 2.0]])
        T = np.array([0.5, 1.5, 0.5])
        clear = sing.clearance(X, T)
        assert clear[0] < 0.0 and clear[1] < 0.0 and clear[2] > 0.0
        assert sing.admissible(X, T, 1e-3).tolist() == [False, False, True]

    def test_clearance_without_primitives_is_inf(self):
        sing = SingularSetDescriptor()
        X, T = np.array([[0.0, 0.0], [np.nan, 0.0]]), np.zeros(2)
        assert sing.clearance(X, T).tolist() == [math.inf, math.inf]
        assert sing.admissible(X, T, 1e-3).tolist() == [True, True]

    @pytest.mark.parametrize("primitive, dim", [
        (MovingPoint((0.0, 0.0), (0.0, 0.0)), 2),
        (MovingLine((0.0, 1.0), 0.0, 0.0), 2),
        (HalfSpaceBoundary((0.0, 0.0, 0.0)), 3),
    ], ids=["point", "line", "half_space"])
    def test_nan_coordinate_is_inadmissible(self, primitive, dim):
        sing = SingularSetDescriptor((primitive, BlowupTime(1.0)))
        X = np.full((2, dim), 2.0)
        X[1, 0] = np.nan
        T = np.array([0.5, 0.5])
        assert sing.admissible(X, T, 1e-3).tolist() == [True, False]
        assert sing.admissible(X[:1], np.array([np.nan]), 1e-3).tolist() == [False]

    def test_boosted_line_follows_frame(self):
        line = MovingLine((0.0, 1.0), 0.0, 0.0).moved(C=np.array([0.0, 2.0]))
        # locus x2 = 2t
        X = np.array([[5.0, 1.0]])
        assert line.distance(X, np.array([0.5]))[0] == 0.0


class TestSampling:
    def test_branch_cut_does_not_reject_samples(self):
        # the pressure-only cut must not shrink the certification region
        sol = ij_vortex("t", "-1/r^2")
        region = SampleRegion(box=((-3.0, 3.0), (-3.0, 3.0)), time=(0.0, 1.0),
                              count=500, seed=2)
        pts = sample_points(region, sol.singular, exclusion_radius=0.3)
        assert any(abs(p.x[1]) < 0.05 for p in pts)
        assert all(math.hypot(*p.x) >= 0.3 for p in pts)


# Rows of 2 or 3 floats with the edge values forced in often: signed zeros,
# subnormals, the extremes that overflow when squared, infinities and NaN.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.7e308, -1.7e308,
               math.inf, -math.inf, math.nan]
row_arrays = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 40), st.sampled_from([2, 3])),
    elements=st.one_of(st.floats(width=64), st.sampled_from(EDGE_VALUES)),
)


class TestRowReductions:
    """The column folds equal numpy's reductions over the short axis (signed
    zeros compare equal, NaN equals NaN)."""

    @given(A=row_arrays)
    @settings(max_examples=150, deadline=None)
    def test_row_sum(self, A):
        with np.errstate(all="ignore"):
            assert np.array_equal(fields._fold_sum(A.T), A.sum(axis=1), equal_nan=True)

    @given(A=row_arrays)
    @settings(max_examples=150, deadline=None)
    def test_row_norm(self, A):
        with np.errstate(all="ignore"):
            assert np.array_equal(row_norm(A), np.linalg.norm(A, axis=1), equal_nan=True)

    @given(A=row_arrays)
    @settings(max_examples=150, deadline=None)
    def test_row_max(self, A):
        assert np.array_equal(row_max(A), A.max(axis=1), equal_nan=True)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_any_layout_and_input_unchanged(self, layout):
        A = np.random.default_rng(3).standard_normal((50, 3))
        if layout == "F":
            A = np.asfortranarray(A)
        elif layout == "strided":
            A = A[::2]
        before = A.copy()
        assert fields._fold_sum(A.T).tobytes() == A.sum(axis=1).tobytes()
        assert row_norm(A).tobytes() == np.linalg.norm(A, axis=1).tobytes()
        assert row_max(A).tobytes() == A.max(axis=1).tobytes()
        assert np.array_equal(A, before)


def _points(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, (n, dim)), rng.uniform(0.0, 2.0, n)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


MOVING_POINTS = {
    "static": MovingPoint((0.4, -0.3), (0.0, 0.0)),
    "moving": MovingPoint((0.4, -0.3), (1.1, -0.6)),
    "moving_3d": MovingPoint((0.4, -0.3, 0.2), (1.1, -0.6, 0.25)),
    "boosted": MovingPoint((0.4, -0.3), (1.1, -0.6)).moved(C=(0.7, -1.3)),
    "rotated": MovingPoint((0.4, -0.3), (1.1, -0.6)).moved(Q=_rotation(0.8)),
    "rescaled": MovingPoint((0.4, -0.3), (1.1, -0.6)).moved(1.7, 0.6),
}

HALF_SPACES = {
    "shifted": HalfSpaceBoundary((0.3, -0.2, 0.1)),
    "boosted": HalfSpaceBoundary((0.3, -0.2, 0.1)).moved(C=(0.2, -0.1, 0.3)),
    "boosted_rescaled": HalfSpaceBoundary((0.3, -0.2, 0.1)).moved(C=(0.2, -0.1, 0.3))
                                                          .moved(1.5, 2.0),
}


class TestPrimitiveParity:
    """The per-column distances equal the broadcast expressions they replaced,
    bit for bit."""

    @pytest.mark.parametrize("n", [1, 10_000])
    @pytest.mark.parametrize("case", sorted(MOVING_POINTS))
    def test_moving_point_distance(self, case, n):
        p = MOVING_POINTS[case]
        X, T = _points(n, len(p.pos0))
        center = np.asarray(p.pos0) + np.outer(T, np.asarray(p.vel))
        assert _bits(p.distance(X, T)) == _bits(np.linalg.norm(X - center, axis=1))

    @pytest.mark.parametrize("n", [1, 10_000])
    @pytest.mark.parametrize("case", sorted(HALF_SPACES))
    def test_half_space_distance_and_exclusion(self, case, n):
        b = HALF_SPACES[case]
        X, T = _points(n, 3, seed=1)
        s = np.sum(X - (np.asarray(b.x0) + np.outer(T, np.asarray(b.vel))), axis=1)
        assert _bits(b.distance(X, T)) == _bits(s / math.sqrt(3))
        sing = SingularSetDescriptor((b,))
        for radius in (0.01, 0.5):
            assert np.array_equal(sing.admissible(X, T, radius), ~(s / math.sqrt(3) < radius))


# name: (primitive, dimension of its points)
PRIMITIVES = {
    "point": (MovingPoint((0.4, -0.3), (1.1, -0.6)), 2),
    "point_3d": (MovingPoint((0.4, -0.3, 0.2), (1.1, -0.6, 0.25)), 3),
    "line": (MovingLine((1.0, 2.0), 0.5, -0.7), 2),
    "blowup": (BlowupTime(1.5), 2),
    "half_space": (HalfSpaceBoundary((0.3, -0.2, 0.1), (0.2, 0.4, -0.3)), 3),
}

MOVES = {
    "boost": {"C": (0.7, -1.3, 0.45)},
    "rotation": {"Q": _rotation(0.8)},
    "rescale": {"lam": 1.7, "tau": 0.6},
    "boost_rescale": {"lam": 1.7, "tau": 0.6, "C": (0.7, -1.3, 0.45)},
    "chain": {"lam": 1.7, "tau": 0.6, "Q": _rotation(0.8), "C": (0.7, -1.3, 0.45)},
}

# rotations are planar, so they move only the 2D primitives
EQUIVARIANCE_CASES = [(case, move) for case in sorted(PRIMITIVES) for move in sorted(MOVES)
                      if PRIMITIVES[case][1] == 2 or "Q" not in MOVES[move]]


class TestMovedEquivariance:
    """A moved primitive is the image of its locus under the field's map
    x -> lam Q^T x + C t, t -> tau t: its distance at (X, T) is lam times the
    base distance at the pulled-back points (Q (X - C T)/lam, T/tau), and tau
    times it for a blow-up time."""

    @pytest.mark.parametrize("case, move", EQUIVARIANCE_CASES)
    def test_distance_is_pulled_back(self, case, move):
        p, dim = PRIMITIVES[case]
        kw = dict(MOVES[move])
        lam, tau = kw.get("lam", 1.0), kw.get("tau", 1.0)
        Q, C = kw.get("Q", np.eye(dim)), np.asarray(kw.get("C", (0.0,) * dim))[:dim]
        if "C" in kw:
            kw["C"] = C
        X, T = _points(500, dim, seed=4)
        Y = (X - np.outer(T, C)) @ Q.T / lam
        factor = tau if isinstance(p, BlowupTime) else lam
        np.testing.assert_allclose(p.moved(**kw).distance(X, T),
                                   factor * p.distance(Y, T / tau), rtol=1e-12, atol=0.0)

    def test_half_space_rejects_rotation(self):
        with pytest.raises(FieldError, match="rotation"):
            PRIMITIVES["half_space"][0].moved(Q=np.eye(3))


def _has_glibc_mallopt() -> bool:
    try:
        libc = ctypes.CDLL(None)
        return hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")
    except (OSError, TypeError):
        return False


class TestAllocatorPolicy:
    """``fields`` fixes glibc's mmap and trim thresholds once, at import."""

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        fields._set_allocator_policy()
        assert calls == [(-3, 8 << 20), (-1, 16 << 20)]

    @pytest.mark.parametrize("error", [OSError, TypeError])
    def test_unloadable_library_is_a_silent_noop(self, monkeypatch, error):
        def cdll(name):
            raise error("no C library")

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert fields._set_allocator_policy() is None

    def test_library_without_mallopt_is_a_silent_noop(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert fields._set_allocator_policy() is None

    @pytest.mark.parametrize("preset_id", ["ex_5_1_const", "ex_6_1"])
    def test_repeated_certify_reuses_freed_memory(self, preset_id):
        # Without the policy glibc unmaps the freed per-point temporaries and
        # the second certify faults them in again: 3.7k-4.0k minor faults.
        resource = pytest.importorskip(
            "resource", reason="minor fault counts need the resource module")
        if not _has_glibc_mallopt():
            pytest.skip("the policy needs glibc's mallopt")
        sol = preset(preset_id)
        region = default_region(sol, count=10_000)
        certify(sol, region)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        certify(sol, region)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercert.catalog import (
    TransformSpec,
    apply_transform,
    ij_vortex,
    linear3d,
    preset,
    preset_ids,
    twin_wave,
)
from eulercert.cli import build_solution
from eulercert.fields import (
    FieldError,
    InadmissiblePointError,
    SingularSetDescriptor,
    MovingPoint,
    SpaceTimePoint,
    VelocityJet,
    row_norm,
)
from eulercert.verification import (
    FD_STEP1,
    PRESSURE_FD_SUBSET,
    RegionError,
    SampleRegion,
    Tolerances,
    certify,
    default_region,
    divergence,
    fd_crosscheck,
    momentum_residual,
    residual_fd_only,
    sample_points,
    splitmix64_stream,
    vorticity_transport_residual,
    _exact_sum,
    _fd1,
    _fd2,
    _divergence_batch,
    _fd_panel,
    _fd_pressure_gradient,
    _fd_steps,
    _fd_velocity_jet,
    _rel_discrepancy,
    _residual_batch,
    _row_max,
    _sample_arrays,
    _shifted,
    _splitmix64_block,
)


def pt(*x, t=0.0):
    return SpaceTimePoint(tuple(x), t)


class TestMomentumResidual:
    def test_constant_field(self):
        sol = twin_wave("0", 2.0, -1.0, 1.0)
        assert momentum_residual(sol, pt(0.5, 0.5, t=0.3)).tolist() == [0.0, 0.0]

    def test_traveling_vortex_pointwise(self):
        sol = preset("ex_3_2")
        res = momentum_residual(sol, pt(1.0, 1.0, t=0.5))
        assert np.linalg.norm(res) <= 1e-10

    def test_flipped_angular_pressure_detected(self):
        sol = ij_vortex("t", "-1/r^2")
        base = sol.pressure_gradient

        def flipped(X, T):
            # reverse the sign of the circulation-rate term in grad p
            y1, y2 = X[:, 0], X[:, 1]
            ir2 = 1.0 / (y1 * y1 + y2 * y2)
            return base(X, T) + 2.0 * np.stack([ir2 * y2, -ir2 * y1], axis=1)

        bad = replace(sol, pressure_gradient=flipped)
        res = momentum_residual(bad, pt(1.0, 1.0, t=0.0))
        assert np.linalg.norm(res) >= 0.5

    def test_inadmissible_point_rejected(self):
        sol = preset("ex_2_6")
        with pytest.raises(InadmissiblePointError):
            momentum_residual(sol, pt(0.01, 0.0, t=0.5))


class TestDivergence:
    def test_vortex_exactly_solenoidal(self):
        sol = ij_vortex("1/(T - t)", "-1/r^2", params={"T": 2.0})
        for t in (0.0, 0.5, 1.5):
            assert abs(divergence(sol, pt(1.0, 1.0, t=t))) <= 1e-12

    def test_halfspace_jet(self):
        sol = preset("ex_6_1")
        p = pt(2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0, t=0.3)  # s = 2
        assert abs(divergence(sol, p)) <= 1e-12

    def test_linear_field_exact_zero(self):
        sol = linear3d("1", np.diag([1.0, 1.0, -2.0]))
        assert divergence(sol, pt(0.7, -2.1, 1.3)) == 0.0


class TestVorticityTransport:
    def test_vortex_time_independent_radial(self):
        sol = preset("ex_2_5")
        for p in (pt(1.0, 1.0, t=0.2), pt(-2.0, 0.8, t=0.9)):
            assert abs(vorticity_transport_residual(sol, p)) <= 1e-8

    def test_twin_wave_cancellation(self):
        sol = preset("ex_3_4_smooth")
        for p in (pt(1.0, 0.7, t=0.1), pt(-0.5, 1.4, t=0.6)):
            assert abs(vorticity_transport_residual(sol, p)) <= 1e-8

    def test_constant_field(self):
        sol = twin_wave("0", 1.0, 1.0, 1.0)
        assert vorticity_transport_residual(sol, pt(0.2, 0.9)) == 0.0


class TestFdCrosscheck:
    def test_traveling_vortex_explicit_step(self):
        sol = preset("ex_3_2")
        region = default_region(sol, count=100, seed=12)
        pts = sample_points(region, sol.singular, sol.exclusion_radius)
        worst = max(fd_crosscheck(sol, p, h=1e-3) for p in pts)
        assert worst <= 1e-5

    def test_linear_field_first_derivatives_exact(self):
        # dyadic point and step keep every stencil node exactly representable,
        # so the 4th-order first differences reproduce the Jacobian exactly
        sol = linear3d("1", np.diag([1.0, 1.0, -2.0]))
        x = np.array([0.5, -0.25, 1.0])
        t = 0.5
        h = 2.0 ** -13
        jet = sol.velocity_jet(x[None, :], np.array([t]))
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            f = lambda s: sol.velocity((x + s * step)[None, :], np.array([t]))[0]
            fd = (-f(2) + 8 * f(1) - 8 * f(-1) + f(-2)) / (12 * h)
            assert np.max(np.abs(fd - jet.jacobian[0, :, j])) <= 1e-12

    def test_default_policy_on_linear_field(self):
        sol = linear3d("1", np.diag([1.0, 1.0, -2.0]))
        assert fd_crosscheck(sol, pt(0.5, -0.25, 1.0, t=0.5)) <= 1e-9

    def test_scaled_laplacian_detected(self):
        sol = ij_vortex("1", "-1/r^2 + 1/(1+r^2)^2")
        base = sol.velocity_jet

        def mutated(X, T):
            jet = base(X, T)
            return VelocityJet(jet.value, jet.jacobian, 1.01 * jet.laplacian, jet.dt)

        bad = replace(sol, velocity_jet=mutated)
        assert fd_crosscheck(bad, pt(0.0, 1.0)) >= 1e-3

    @pytest.mark.parametrize("h", [0.0, -0.05, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, h):
        # a negative step would make the admissibility guard vacuous: at
        # (0.5, 0) a stencil of step -0.05 reaches r = 0
        with pytest.raises(FieldError, match="step"):
            fd_crosscheck(preset("ex_2_5"), pt(0.5, 0.0, t=0.5), h=h)

    def test_stencil_admissibility_guard(self):
        sol = preset("ex_2_5")  # exclusion radius 0.3
        p = pt(0.35, 0.0, t=0.5)
        with pytest.raises(InadmissiblePointError):
            fd_crosscheck(sol, p, h=0.02)  # stencil would span the exclusion


GOLDEN_SEED42_UNIT_BOX = [
    ((0.7415648787718233, 0.1599103928769201), 0.27860113025513866),
    ((0.34419071652363753, 0.03803016854024621), 0.8682280765465323),
    ((0.21840519371218436, 0.8006318767135033), 0.3399310389170206),
    ((0.6184820663561348, 0.20490183179877552), 0.4929891857946924),
    ((0.5133961163221494, 0.5200132996032402), 0.6651594107997011),
]


class TestSamplePoints:
    def test_golden_sequence(self):
        region = SampleRegion(box=((0.0, 1.0), (0.0, 1.0)), time=(0.0, 1.0),
                              count=5, seed=42)
        pts = sample_points(region, SingularSetDescriptor())
        got = [(p.x, p.t) for p in pts]
        assert got == GOLDEN_SEED42_UNIT_BOX

    def test_same_seed_same_points(self):
        sol = preset("ex_2_5")
        region = default_region(sol, count=50, seed=77)
        a = sample_points(region, sol.singular, sol.exclusion_radius)
        b = sample_points(region, sol.singular, sol.exclusion_radius)
        assert a == b

    def test_fully_excluded_region_errors(self):
        sing = SingularSetDescriptor(primitives=(MovingPoint((0.0, 0.0), (0.0, 0.0)),))
        region = SampleRegion(box=((-1.0, 1.0), (-1.0, 1.0)), time=(0.0, 1.0),
                              count=10, seed=0)
        with pytest.raises(RegionError, match="99%"):
            sample_points(region, sing, exclusion_radius=5.0)

    def test_zero_count_rejected(self):
        with pytest.raises(RegionError):
            SampleRegion(box=((0.0, 1.0), (0.0, 1.0)), time=(0.0, 1.0), count=0)

    def test_degenerate_box_rejected(self):
        with pytest.raises(RegionError):
            SampleRegion(box=((1.0, 1.0), (0.0, 1.0)), time=(0.0, 1.0), count=5)


class TestCertify:
    def test_report_is_deterministic(self):
        sol = preset("ex_3_4_smooth")
        region = default_region(sol, count=500, seed=5)
        a = json.dumps(certify(sol, region).to_dict())
        b = json.dumps(certify(sol, region).to_dict())
        assert a == b

    def test_region_must_end_before_blowup(self):
        sol = preset("ex_2_6")
        region = SampleRegion(box=((-3.0, 3.0), (-3.0, 3.0)), time=(0.0, 1.0),
                              count=10, seed=0)
        with pytest.raises(RegionError, match="blow-up"):
            certify(sol, region)

    def test_linear_wave_profile_certifies(self):
        rep = certify(twin_wave("x", 0.0, 0.0, 1.0),
                      SampleRegion(box=((-3.0, 3.0), (-3.0, 3.0)), time=(0.0, 1.0),
                                   count=500, seed=1))
        assert rep.passed
        assert rep.max_residual <= 1e-12

    def test_failing_report_names_metric(self):
        bad = preset("ex_6_1", {"pressure_sign": -1})
        rep = certify(bad, default_region(bad, count=500, seed=0))
        assert not rep.passed
        assert rep.max_residual >= 0.1
        assert rep.notes["pressure_sign"] == -1

    def test_tolerances_respected(self):
        sol = preset("ex_3_4_smooth")
        rep = certify(sol, default_region(sol, count=200, seed=0),
                      Tolerances(residual=1e-30, divergence=0.0, fd=1e-30, vorticity=1e-30))
        assert not rep.passed

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_tolerance_rejected(self, value):
        for field in ("residual", "divergence", "fd", "vorticity"):
            with pytest.raises(FieldError, match=f"{field} tolerance"):
                Tolerances(**{field: value})

    @pytest.mark.parametrize("pid, jets, jacobians",
                             [("ex_3_4_smooth", 1, 12), ("ex_5_1_const", 1, 0)])
    def test_one_base_point_jet_per_certify(self, pid, jets, jacobians):
        # one jet at the samples for the residual, the divergence and the FD
        # panel; in 2D, twelve Jacobians at the vorticity stencil points
        sol = preset(pid)
        calls = {"jet": 0, "jacobian": 0}

        def counting(name, fn):
            def evaluate(X, T):
                calls[name] += 1
                return fn(X, T)
            return evaluate if fn is not None else None

        counted = replace(sol, velocity_jet=counting("jet", sol.velocity_jet),
                          velocity_jacobian=counting("jacobian", sol.velocity_jacobian))
        certify(counted, default_region(sol, count=200, seed=0))
        assert calls == {"jet": jets, "jacobian": jacobians}


class TestOracleIndependence:
    @pytest.mark.parametrize("pid", ["ex_3_2", "ex_3_4_smooth", "ex_5_1_blowup", "ex_6_1"])
    def test_fd_only_residual_agrees(self, pid):
        sol = preset(pid)
        region = default_region(sol, count=200, seed=6)
        X, T = _sample_arrays(region, sol.singular, sol.exclusion_radius)
        analytic = np.stack([momentum_residual(sol, SpaceTimePoint(tuple(map(float, x)), float(t)))
                             for x, t in zip(X, T)])
        fd = residual_fd_only(sol, X, T)
        assert np.max(np.abs(analytic - fd)) <= 1e-5


def _per_draw_samples(region, sing, radius):
    """Reference sampler: one splitmix64 draw and one admissibility test at a time."""
    dim, n = region.dim, region.count
    stream = splitmix64_stream(region.seed)
    lo = np.array([b[0] for b in region.box])
    hi = np.array([b[1] for b in region.box])
    t0, t1 = region.time
    xs, ts = [], []
    attempts = 0
    while len(xs) < n:
        if attempts >= max(1000, 200 * n):
            raise RegionError(f"{len(xs)} accepted in {attempts} draws")
        attempts += 1
        u = np.array([next(stream) for _ in range(dim + 1)])
        x = lo + u[:dim] * (hi - lo)
        t = t0 + u[dim] * (t1 - t0)
        if bool(sing.admissible(x[None, :], np.array([t]), radius)[0]):
            xs.append(x)
            ts.append(t)
    return np.asarray(xs), np.asarray(ts)


class TestBlockSamplerParity:
    @pytest.mark.parametrize("pid", preset_ids())
    @pytest.mark.parametrize("seed", [0, 17, 123456789])
    def test_matches_per_draw_reference(self, pid, seed):
        sol = preset(pid)
        region = default_region(sol, count=300, seed=seed)
        X, T = _sample_arrays(region, sol.singular, sol.exclusion_radius)
        X_ref, T_ref = _per_draw_samples(region, sol.singular, sol.exclusion_radius)
        assert np.array_equal(X, X_ref) and np.array_equal(T, T_ref)

    @pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**64 + 5, -1, -(2**40)])
    def test_seed_masking(self, seed):
        sol = preset("ex_6_1")  # half the box is outside the domain
        region = default_region(sol, count=200, seed=seed)
        X, T = _sample_arrays(region, sol.singular, sol.exclusion_radius)
        X_ref, T_ref = _per_draw_samples(region, sol.singular, sol.exclusion_radius)
        assert np.array_equal(X, X_ref) and np.array_equal(T, T_ref)

    @pytest.mark.parametrize("start,count", [(0, 7), (5, 300), (1001, 64)])
    def test_block_equals_stream(self, start, count):
        for seed in (0, 42, 2**63 + 1, -5):
            stream = splitmix64_stream(seed)
            ref = [next(stream) for _ in range(start + count)][start:]
            assert _splitmix64_block(seed, start, count).tolist() == ref

    @pytest.mark.parametrize("count", [1, 10, 37])
    def test_fully_excluded_counts_match_reference(self, count):
        sing = SingularSetDescriptor(primitives=(MovingPoint((0.0, 0.0), (0.0, 0.0)),))
        region = SampleRegion(box=((-1.0, 1.0), (-1.0, 1.0)), time=(0.0, 1.0),
                              count=count, seed=3)
        with pytest.raises(RegionError) as ref:
            _per_draw_samples(region, sing, 5.0)
        with pytest.raises(RegionError, match="99%") as got:
            _sample_arrays(region, sing, 5.0)
        assert str(ref.value) in str(got.value)

    @pytest.mark.parametrize("pid, count", [("ex_3_4_smooth", 1), ("ex_3_4_smooth", 8),
                                            ("ex_3_4_smooth", 9), ("ex_3_4_smooth", 2000),
                                            ("ex_2_6", 2000), ("ex_6_1", 2000)])
    def test_block_edges_match_reference(self, pid, count):
        # ex_3_4_smooth accepts every draw, so its first block of count + 8
        # candidates suffices; ex_2_6 and ex_6_1 reject some and need a second
        sol = preset(pid)
        region = default_region(sol, count=count, seed=4)
        X, T = _sample_arrays(region, sol.singular, sol.exclusion_radius)
        X_ref, T_ref = _per_draw_samples(region, sol.singular, sol.exclusion_radius)
        assert np.array_equal(X, X_ref) and np.array_equal(T, T_ref)

    def test_mostly_excluded_region_matches_reference(self):
        # about 3% of the box is admissible: many blocks, each sized from the rate so far
        sing = SingularSetDescriptor(primitives=(MovingPoint((0.0, 0.0), (0.0, 0.0)),))
        region = SampleRegion(box=((-1.0, 1.0), (-1.0, 1.0)), time=(0.0, 1.0),
                              count=40, seed=9)
        X, T = _sample_arrays(region, sing, 1.25)
        X_ref, T_ref = _per_draw_samples(region, sing, 1.25)
        assert np.array_equal(X, X_ref) and np.array_equal(T, T_ref)


class TestRegionValidation:
    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_rejected(self, radius):
        with pytest.raises(RegionError, match="exclusion radius"):
            SampleRegion(box=((0.0, 1.0), (0.0, 1.0)), time=(0.0, 1.0),
                         count=5, exclusion_radius=radius)

    def test_fractional_count_rejected(self):
        # the block sampler stops at exactly ``count`` points, so it must be whole
        with pytest.raises(RegionError, match="integer"):
            SampleRegion(box=((0.0, 1.0), (0.0, 1.0)), time=(0.0, 1.0), count=2.5)

    @pytest.mark.parametrize("count", [True, False])
    def test_bool_count_rejected(self, count):
        with pytest.raises(RegionError, match="sample count must be an integer"):
            SampleRegion(box=((0.0, 1.0), (0.0, 1.0)), time=(0.0, 1.0), count=count)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(RegionError, match="seed must be an integer"):
            SampleRegion(box=((0.0, 1.0), (0.0, 1.0)), time=(0.0, 1.0), count=5, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        region = SampleRegion(box=((0.0, 1.0), (0.0, 1.0)), time=(0.0, 1.0),
                              count=5, seed=np.int64(7))
        assert region.seed == 7

    def test_positive_radius_accepted(self):
        region = SampleRegion(box=((0.0, 1.0), (0.0, 1.0)), time=(0.0, 1.0),
                              count=5, exclusion_radius=0.25)
        assert region.exclusion_radius == 0.25

    @pytest.mark.parametrize("box, time, message", [
        (((0.0, math.inf), (0.0, 1.0)), (0.0, 1.0), "box must be finite"),
        (((-math.inf, 0.0), (0.0, 1.0)), (0.0, 1.0), "box must be finite"),
        (((0.0, 1.0), (0.0, 1.0)), (0.0, math.inf), "time interval must be finite"),
        (((0.0, 1.0), (0.0, 1.0)), (-math.inf, 1.0), "time interval must be finite"),
    ])
    def test_non_finite_box_or_time_rejected(self, box, time, message):
        with pytest.raises(RegionError, match=message):
            SampleRegion(box=box, time=time, count=5)

    # finite bounds whose difference overflows: the sampler's lo + u (hi - lo)
    # would draw inf
    @pytest.mark.parametrize("box, time, message", [
        (((-1e308, 1e308), (-1.0, 1.0)), (0.0, 1.0), "box width must be finite"),
        (((-1.0, 1.0), (-1.7e308, 1.7e308)), (0.0, 1.0), "box width must be finite"),
        (((-1.0, 1.0), (-1.0, 1.0)), (-1e308, 1e308), "time interval length must be finite"),
    ])
    def test_overflowing_width_rejected(self, box, time, message):
        with pytest.raises(RegionError, match=message):
            SampleRegion(box=box, time=time, count=5)

    def test_widest_finite_box_accepted(self):
        region = SampleRegion(box=((-8e307, 8e307), (0.0, 1.7976931348623157e308)),
                              time=(0.0, 1.0), count=5)
        X, _ = _sample_arrays(region, SingularSetDescriptor(), 1.0)
        assert np.isfinite(X).all()


class TestRowMax:
    @pytest.mark.parametrize("cols", [1, 2, 3, 4, 9])
    def test_equals_numpy_max_with_nan_and_inf(self, cols):
        a = np.random.default_rng(cols).standard_normal((500, cols))
        a[3, cols - 1] = np.nan
        a[7, 0] = np.nan
        a[11, cols // 2] = np.inf
        a[13, :] = -np.inf
        got = _row_max(a)
        assert np.array_equal(got, a.max(axis=1), equal_nan=True)
        assert np.isnan(got[[3, 7]]).all()

    def test_leaves_its_input_unchanged(self):
        a = np.arange(12.0).reshape(4, 3)  # the maxima are not in column 0
        _row_max(a)
        assert np.array_equal(a, np.arange(12.0).reshape(4, 3))


class TestNonFiniteMetrics:
    def test_non_finite_metric_fails_and_is_named(self):
        sol = ij_vortex("exp(1000*t)", "-1/r^2")
        with np.errstate(all="ignore"):
            rep = certify(sol, default_region(sol, count=300, seed=0))
        assert not rep.passed
        counts = rep.notes["non_finite_points"]
        assert counts["residual"] > 0 and all(n > 0 for n in counts.values())
        for metric in counts:
            assert not math.isfinite(rep.worst_points[metric]["value"])

    def test_finite_report_has_no_non_finite_note(self):
        sol = preset("ex_3_2")
        rep = certify(sol, default_region(sol, count=300, seed=0))
        assert "non_finite_points" not in rep.notes


def _chained_vortex():
    sol = apply_transform(preset("ex_2_5"), TransformSpec.rotation(0.7))
    sol = apply_transform(sol, TransformSpec.rescale(1.5, 0.8))
    return apply_transform(sol, TransformSpec.boost((0.3, -0.2)))


# Pairs with a pressure value: the three vortex presets, a vortex under
# rotate, rescale and boost, a vortex built from a spec document, and the
# two 3D presets whose pressure value is closed-form.
PRESSURE_PANEL_CASES = {
    "ex_2_5": lambda: preset("ex_2_5"),
    "ex_2_6": lambda: preset("ex_2_6"),
    "ex_3_2": lambda: preset("ex_3_2"),
    "rotated_rescaled_boosted": _chained_vortex,
    "spec_ij_vortex": lambda: build_solution({
        "family": "ij_vortex",
        "params": {"c": "exp(-t) + 1/(T - t)", "h": "-1/r^2 + exp(-r^2)", "values": {"T": 1.5},
                   "blowup_time": 1.5}}),
    "ex_5_1_blowup": lambda: preset("ex_5_1_blowup"),
    "ex_6_1": lambda: preset("ex_6_1"),
}


def _pressure_panel_points(sol, seed):
    """The points ``certify`` hands the pressure panel."""
    X, T = _sample_arrays(default_region(sol, count=2000, seed=seed), sol.singular,
                          sol.exclusion_radius)
    sel = np.arange(len(X))
    if sol.pressure_cut_clearance is not None:
        hmax = 2.5 * FD_STEP1 * np.maximum(1.0, np.abs(X).max(axis=1))
        sel = sel[sol.pressure_cut_clearance(X, T) > 0.05 + 4.0 * hmax]
    sel = sel[:PRESSURE_FD_SUBSET]
    return X[sel], T[sel]


class TestFusedPressurePanel:
    """The pressure panel evaluates all 4 * dim shifted copies of its points
    in one ``pressure_value`` call; each value must be the one a call per
    shift returns."""

    @pytest.mark.parametrize("case", sorted(PRESSURE_PANEL_CASES))
    def test_matches_one_call_per_shift_bit_for_bit(self, case):
        sol = PRESSURE_PANEL_CASES[case]()
        X, T = _pressure_panel_points(sol, seed=3)
        calls = []

        def counting(Y, S):
            calls.append(len(Y))
            return sol.pressure_value(Y, S)

        got = _fd_pressure_gradient(replace(sol, pressure_value=counting), X, T)
        hx = _fd_steps(X, T, sol.singular.clearance(X, T))[0]
        want = np.stack([_fd1(_shifted(sol.pressure_value, X, T, j, hx[:, j]), hx[:, j])
                         for j in range(X.shape[1])], axis=1)
        assert len(X) == PRESSURE_FD_SUBSET
        assert calls == [4 * X.shape[1] * len(X)]
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# In-place kernels: a kernel overwrites only arrays it allocated, and every
# value keeps the bits of the one-line expression it replaced.
# ---------------------------------------------------------------------------


def _read_only(a):
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def _guarded(sol, calls):
    """``sol`` with every callable reading read-only views of its inputs and
    returning read-only views of its results, so that a write to either
    raises; ``calls`` collects each input with a copy of its bytes."""
    def guard(f, jet=False):
        def call(X, T):
            calls.append((X, X.tobytes(), T, T.tobytes()))
            out = f(_read_only(X), _read_only(T))
            if jet:
                return VelocityJet(*map(_read_only, (out.value, out.jacobian, out.laplacian,
                                                     out.dt)))
            return _read_only(out)
        return None if f is None else call

    return replace(sol, velocity=guard(sol.velocity), velocity_jet=guard(sol.velocity_jet, True),
                   velocity_jacobian=guard(sol.velocity_jacobian),
                   pressure_gradient=guard(sol.pressure_gradient),
                   pressure_value=guard(sol.pressure_value),
                   pressure_cut_clearance=guard(sol.pressure_cut_clearance))


def _report_bytes(sol, count=500):
    report = certify(sol, default_region(sol, count=count, seed=2))
    return json.dumps(report.to_dict(), indent=2).encode()


# Transforms of a guarded pair, so that ``catalog._step`` reads read-only
# arrays from the pair it maps.
GUARDED_BASE_TRANSFORMS = {
    "ex_2_5_rotated_rescaled_boosted": ("ex_2_5", (TransformSpec.rotation(0.7),
                                                   TransformSpec.rescale(1.5, 0.8),
                                                   TransformSpec.boost((0.3, -0.2)))),
    "ex_3_4_smooth_boosted": ("ex_3_4_smooth", (TransformSpec.boost((0.5, 0.25)),)),
    "ex_6_1_boosted_rescaled": ("ex_6_1", (TransformSpec.boost((0.2, -0.1, 0.3)),
                                           TransformSpec.rescale(1.5, 2.0))),
}


class TestKernelOwnership:
    @pytest.mark.parametrize("pid", preset_ids())
    def test_read_only_pair_certifies_to_the_same_bytes(self, pid):
        calls = []
        got = _report_bytes(_guarded(preset(pid), calls))
        assert got == _report_bytes(preset(pid))
        assert calls and all(X.tobytes() == xb and T.tobytes() == tb for X, xb, T, tb in calls)

    @pytest.mark.parametrize("case", sorted(GUARDED_BASE_TRANSFORMS))
    def test_transform_of_a_read_only_pair(self, case):
        pid, transforms = GUARDED_BASE_TRANSFORMS[case]
        inner, outer = [], []
        plain, guarded = preset(pid), _guarded(preset(pid), inner)
        for tr in transforms:
            plain, guarded = apply_transform(plain, tr), apply_transform(guarded, tr)
        assert _report_bytes(_guarded(guarded, outer)) == _report_bytes(plain)
        for calls in (inner, outer):
            assert calls and all(X.tobytes() == xb and T.tobytes() == tb
                                 for X, xb, T, tb in calls)


_SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1e308, -1e308, 1.0, -1.0, 3.0])
_ENTRY = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True,
                                       allow_subnormal=True))


@st.composite
def _stencil_inputs(draw):
    """Five value arrays of one shape, (n,) or (n, dim), and per-point steps."""
    n, dim = draw(st.integers(1, 6)), draw(st.sampled_from([None, 2, 3]))
    shape = (n,) if dim is None else (n, dim)
    size = n * (dim or 1)
    arrays = [np.array(draw(st.lists(_ENTRY, min_size=size, max_size=size))).reshape(shape)
              for _ in range(5)]
    h = np.array(draw(st.lists(_ENTRY, min_size=n, max_size=n)))
    return arrays, h


def _same_bits(got, want):
    """Bit for bit, NaN payloads included.  numpy runs an in-place add on a
    one-element array as a reduction, which keeps the second operand's NaN
    when both are NaN; there a NaN only has to stay a NaN."""
    if got.size == 1 and np.isnan(got).all() and np.isnan(want).all():
        return True
    bits = [np.ascontiguousarray(a, dtype=np.float64).view(np.uint64) for a in (got, want)]
    return np.array_equal(*bits)


class TestInPlaceStencilBits:
    """The in-place stencils and discrepancy against the one-line
    expressions they replaced, bit for bit."""

    @given(_stencil_inputs())
    @settings(max_examples=300, deadline=None)
    def test_fd1_fd2_and_discrepancy(self, inputs):
        (fm2, fm1, f0, fp1, fp2), h = inputs
        before = [a.tobytes() for a in (fm2, fm1, f0, fp1, fp2, h)]
        per_point = (lambda d: d) if f0.ndim == 1 else (lambda d: d[:, None])
        with np.errstate(all="ignore"):
            want1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / per_point(12.0 * h)
            want2 = ((-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2)
                     / per_point(12.0 * h * h))
            want_d = np.abs(fp1 - fm1) / np.maximum(1.0, np.maximum(np.abs(fp1), np.abs(fm1)))
            got1 = _fd1((fm2, fm1, fp1, fp2), h)
            got2 = _fd2((fm2, fm1, fp1, fp2), f0, h)
            got_d = _rel_discrepancy(fp1, fm1)
        assert _same_bits(got1, want1)
        assert _same_bits(got2, want2)
        assert _same_bits(got_d, want_d)
        assert [a.tobytes() for a in (fm2, fm1, f0, fp1, fp2, h)] == before


_BOUNDARY_FLOATS = [0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
                    1.0, 1.9999999999999998, 1.7e308, 1.7976931348623157e308]
_NONNEG_ROW = st.one_of(
    st.sampled_from(_BOUNDARY_FLOATS),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    # the bit patterns of every finite double >= +0.0, so every exponent
    st.integers(0, 0x7FEFFFFFFFFFFFFF).map(lambda b: float(np.int64(b).view(np.float64))),
)
# rows that send the array to fsum: a sign bit set, NaN or an infinity
_FALLBACK_ROW = st.sampled_from([-0.0, -5e-324, -1.0, -1.7e308, math.nan, -math.nan,
                                 math.inf, -math.inf])


def _fsum_outcome(f, x):
    """The bits of ``f(x)``, or the type and text of what it raised."""
    try:
        return np.float64(f(x)).view(np.uint64)
    except (OverflowError, ValueError) as e:  # an overflow, or inf - inf
        return type(e), str(e)


class TestExactSum:
    """certify's exact mean sums the residuals without a Python list; the sum
    is ``math.fsum`` of the list, bit for bit."""

    @given(rows=st.lists(_NONNEG_ROW, min_size=1, max_size=40),
           fallback=st.lists(_FALLBACK_ROW, max_size=2), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_fsum_of_the_list(self, rows, fallback, data):
        for row in fallback:
            rows.insert(data.draw(st.integers(0, len(rows))), row)
        x = np.array(rows, dtype=np.float64)
        assert _fsum_outcome(_exact_sum, x) == _fsum_outcome(lambda a: math.fsum(a.tolist()), x)

    @pytest.mark.parametrize("x", [
        np.array([5e-324]), np.array([1.7976931348623157e308]), np.array([0.0]),
        np.full(3, 1.7976931348623157e308),  # overflows: fsum's OverflowError
        np.full(100_000, 1.9999999999999998),  # 10^5 full significands in one bin
        np.full(100_000, 5e-324),
        np.random.default_rng(3).random(10_000) * np.logspace(-300, 300, 10_000),
    ], ids=["min-subnormal", "max", "zero", "overflow", "full-bin", "subnormal-bin", "spread"])
    def test_edge_arrays(self, x):
        assert _fsum_outcome(_exact_sum, x) == _fsum_outcome(lambda a: math.fsum(a.tolist()), x)

    def test_certify_mean_is_the_fsum_mean(self):
        sol = preset("ex_3_4_smooth")
        region = default_region(sol, count=2000, seed=3)
        X, T = _sample_arrays(region, sol.singular, sol.exclusion_radius)
        res = row_norm(_residual_batch(sol, X, T, sol.velocity_jet(X, T)))
        assert certify(sol, region).mean_residual == math.fsum(res.tolist()) / len(res)


def _preset_samples(pid, count=25, seed=9):
    sol = preset(pid)
    X, T = _sample_arrays(default_region(sol, count=count, seed=seed), sol.singular,
                          sol.exclusion_radius)
    return sol, X, T


class TestSinglePointThroughBatchKernels:
    """The single-point checks and ``residual_fd_only`` run certify's batch
    kernels; each value is bit for bit the formula they replaced."""

    @pytest.mark.parametrize("pid", preset_ids())
    def test_divergence_is_the_batch_row_and_the_trace(self, pid):
        sol, X, T = _preset_samples(pid)
        rows = _divergence_batch(sol, X, T, sol.velocity_jet(X, T))
        for i, (x, t) in enumerate(zip(X.tolist(), T.tolist())):
            got = divergence(sol, SpaceTimePoint(tuple(x), t))
            one = sol.velocity_jet(X[i:i + 1], T[i:i + 1]).jacobian[0]
            assert got.hex() == float(rows[i]).hex() == float(np.trace(one)).hex()

    @pytest.mark.parametrize("pid", preset_ids())
    def test_fd_only_residual_is_the_written_out_formula(self, pid):
        sol, X, T = _preset_samples(pid)
        u = sol.velocity(X, T)
        steps = _fd_steps(X, T, sol.singular.clearance(X, T))
        jac_fd, lap_fd, dt_fd = _fd_velocity_jet(sol, X, T, steps, u)
        # numpy's sum order on C-contiguous operands, which ``row_matvec`` pins
        conv = np.einsum("nij,nj->ni", np.ascontiguousarray(jac_fd), np.ascontiguousarray(u))
        want = dt_fd + conv + sol.pressure_gradient(X, T)
        if sol.viscosity != 0.0:
            want = want - sol.viscosity * lap_fd
        assert residual_fd_only(sol, X, T).tobytes() == want.tobytes()

    def test_check_admissible_returns_the_batch_of_one(self):
        sol = preset("ex_3_2")
        p = SpaceTimePoint((0.4, -1.2), 0.3)
        X, T = sol.check_admissible(p)
        want_X, want_T = p.arrays()
        assert X.tobytes() == want_X.tobytes() and T.tobytes() == want_T.tobytes()


# Presets and a rotated, boosted pair of each planar family: rotation is the
# one transform no preset takes.
LAYOUT_PAIRS = {pid: (lambda pid=pid: preset(pid)) for pid in preset_ids()}
LAYOUT_PAIRS.update({
    f"{pid}_rotated": (lambda pid=pid: apply_transform(
        apply_transform(preset(pid), TransformSpec.rotation(0.7)), TransformSpec.boost((0.3, -0.4))))
    for pid in ("ex_2_6", "ex_3_10")
})


class TestAxisMajorBatches:
    """Point batches are axis-major end to end, and a batch's layout never
    changes a bit: every kernel gives the same bytes on a row-major copy."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_PAIRS))
    def test_kernels_are_axis_major_and_layout_free(self, name):
        sol = LAYOUT_PAIRS[name]()
        X, T = _sample_arrays(default_region(sol, count=300, seed=2), sol.singular,
                              sol.exclusion_radius)
        assert X.strides[0] == 8

        def outputs(X):
            jet = sol.velocity_jet(X, T)
            got = [sol.velocity(X, T), jet.value, jet.jacobian, jet.laplacian, jet.dt,
                   sol.pressure_gradient(X, T), _residual_batch(sol, X, T, jet)]
            if sol.velocity_jacobian is not None:
                got.append(sol.velocity_jacobian(X, T))
            return got, [sol.singular.clearance(X, T), _fd_panel(sol, X, T)]

        axis_major, scalars = outputs(X)
        row_major, row_scalars = outputs(np.ascontiguousarray(X))
        assert all(a.strides[0] == 8 for a in axis_major + row_major)
        for a, b in zip(axis_major + scalars, row_major + row_scalars):
            assert a.tobytes() == b.tobytes()

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from eulercert.catalog import ij_vortex, linear3d, preset, preset_ids, twin_wave
from eulercert.fields import (
    InadmissiblePointError,
    SingularSetDescriptor,
    MovingPoint,
    SpaceTimePoint,
    VelocityJet,
)
from eulercert.verification import (
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
    _sample_arrays,
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

    def test_positive_radius_accepted(self):
        region = SampleRegion(box=((0.0, 1.0), (0.0, 1.0)), time=(0.0, 1.0),
                              count=5, exclusion_radius=0.25)
        assert region.exclusion_radius == 0.25


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

import math

import mpmath
import numpy as np
import pytest

from eulercert import catalog
from eulercert.catalog import (
    TransformSpec,
    apply_transform,
    ij_vortex,
    linear3d,
    ns_halfspace_blowup,
    preset,
    preset_ids,
    twin_wave,
)
from eulercert.fields import FieldError, InadmissiblePointError, SpaceTimePoint
from eulercert.verification import (
    FD_STEP1,
    PRESSURE_FD_SUBSET,
    _fd_pressure_gradient,
    _rel_discrepancy,
    _sample_arrays,
    certify,
    default_region,
    divergence,
    momentum_residual,
    sample_points,
    SampleRegion,
)


def pt(*x, t=0.0):
    return SpaceTimePoint(tuple(x), t)


class TestIjVortex:
    def test_vanishing_at_critical_time(self):
        sol = ij_vortex("t", "-1/r^2")
        for p in (pt(1.0, 1.0, t=1.0), pt(-2.0, 0.3, t=1.0)):
            assert np.allclose(sol.velocity_at(p), 0.0)

    def test_bump_profile_value(self):
        sol = ij_vortex("1", "-1/r^2 + 1/(1+r^2)^2")
        assert sol.velocity_at(pt(0.0, 1.0)).tolist() == [0.25, 0.0]

    def test_origin_inadmissible(self):
        sol = ij_vortex("1", "-1/r^2")
        with pytest.raises(InadmissiblePointError):
            sol.velocity_at(pt(0.0, 0.0))

    def test_unresolved_parameter_rejected(self):
        with pytest.raises(FieldError, match="unresolved"):
            ij_vortex("1/(T - t)", "-1/r^2")


class TestTwinWave:
    def test_zero_profile_gives_constant_flow(self):
        sol = twin_wave("0", 1.5, -0.5, 1.0)
        p = pt(0.3, 0.8, t=0.2)
        assert sol.velocity_at(p).tolist() == [1.5, -0.5]
        assert np.linalg.norm(momentum_residual(sol, p)) == 0.0

    def test_linear_profile_residual_cancels(self):
        # v = xi with zero constants: u = (x1 - x2, x1 - x2)
        sol = twin_wave("x", 0.0, 0.0, 1.0)
        p = pt(1.2, -0.4, t=0.3)
        assert sol.velocity_at(p).tolist() == [1.6, 1.6]
        assert np.linalg.norm(momentum_residual(sol, p)) == 0.0
        assert divergence(sol, p) == 0.0

    def test_singular_line_declared(self):
        sol = twin_wave("1/x^2", 1.0, 0.0, 1.0, singular_offsets=(0.0,))
        with pytest.raises(InadmissiblePointError):
            sol.velocity_at(pt(1.3, 1.0, t=0.3))  # x1 - x2 - t = 0


class TestLinear3d:
    def test_value_and_pressure_balance(self):
        sol = linear3d("1", np.diag([1.0, 1.0, -2.0]))
        p = pt(1.0, 1.0, 1.0)
        assert sol.velocity_at(p).tolist() == [1.0, 1.0, -2.0]
        # (u . grad) u = (1, 1, 4) must be exactly minus the pressure gradient
        assert sol.pressure_gradient_at(p).tolist() == [-1.0, -1.0, -4.0]
        assert np.linalg.norm(momentum_residual(sol, p)) == 0.0

    def test_asymmetric_matrix_rejected(self):
        C = np.diag([1.0, 1.0, -2.0])
        C[0, 1] = 0.5
        with pytest.raises(FieldError, match="symmetric"):
            linear3d("1", C)

    def test_non_trace_free_rejected(self):
        with pytest.raises(FieldError, match="trace"):
            linear3d("1", np.diag([1.0, 1.0, -1.0]))

    def test_blowup_amplitude_scaling(self):
        T = 1.0
        sol = linear3d("1/(T - t)", np.diag([1.0, 1.0, -2.0]), params={"T": T},
                       blowup_time=T)
        sup = sol.metadata["sup_speed_unit_ball"]
        for t in (0.0, 0.5, 0.875):
            assert sup(t) * (T - t) == pytest.approx(2.0)

    def test_viscosity_configurable(self):
        sol = linear3d("1", np.diag([1.0, 1.0, -2.0]), sigma=0.7)
        p = pt(0.5, -0.3, 1.1)
        # laplacian is identically zero, so the residual is sigma independent
        assert np.linalg.norm(momentum_residual(sol, p)) == 0.0


class TestHalfspaceBlowup:
    def test_boundary_value(self):
        sol = ns_halfspace_blowup(T=1.0, sigma=1.0)
        for t in (0.0, 0.5, 0.75):
            u = sol.velocity(np.array([[0.0, 0.0, 0.0]]), np.array([t]))[0]
            expected = 3.0 / math.sqrt(1.0 - t)
            assert u.tolist() == [0.0, 0.0, -expected]

    def test_divergence_vanishes_exactly(self):
        sol = ns_halfspace_blowup(T=1.0, sigma=1.0)
        region = default_region(sol, count=1000, seed=9)
        pts = sample_points(region, sol.singular, sol.exclusion_radius)
        for p in pts[:200]:
            assert abs(divergence(sol, p)) <= 1e-12

    def test_wrong_pressure_sign_fails_momentum(self):
        bad = ns_halfspace_blowup(T=1.0, sigma=1.0, pressure_sign=-1)
        p = pt(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, t=0.5)  # s = 1, t = T/2
        assert np.linalg.norm(momentum_residual(bad, p)) >= 0.1

    def test_time_beyond_blowup_rejected(self):
        sol = ns_halfspace_blowup(T=1.0, sigma=1.0)
        with pytest.raises(InadmissiblePointError):
            sol.velocity_at(pt(0.5, 0.5, 0.5, t=1.5))

    def test_parameter_validation(self):
        with pytest.raises(FieldError):
            ns_halfspace_blowup(T=-1.0, sigma=1.0)
        with pytest.raises(FieldError):
            ns_halfspace_blowup(T=1.0, sigma=0.0)
        with pytest.raises(FieldError):
            ns_halfspace_blowup(T=1.0, sigma=1.0, pressure_sign=2)


class TestTransforms:
    def test_boost_of_constant_flow(self):
        sol = apply_transform(twin_wave("0", 0.0, 0.0, 1.0),
                              TransformSpec.boost((2.0, -1.0)))
        p = pt(0.4, 0.6, t=0.8)
        assert sol.velocity_at(p).tolist() == [2.0, -1.0]
        assert np.linalg.norm(momentum_residual(sol, p)) == 0.0

    def test_boost_values_pull_back(self):
        base = preset("ex_2_5")
        C = np.array([1.0, 2.0])
        sol = apply_transform(base, TransformSpec.boost(C))
        p = pt(1.7, 0.9, t=0.4)
        y = np.asarray(p.x) - C * p.t
        expected = base.velocity(y[None, :], np.array([p.t]))[0] + C
        assert np.allclose(sol.velocity_at(p), expected, rtol=0, atol=0)

    def test_identity_rotation_is_identity(self):
        base = preset("ex_3_2")
        sol = apply_transform(base, TransformSpec.rotation(0.0))
        region = default_region(base, count=100, seed=4)
        for p in sample_points(region, base.singular, base.exclusion_radius):
            assert np.allclose(sol.velocity_at(p), base.velocity_at(p), atol=0.0)

    def test_full_turn_rotation_is_identity(self):
        base = preset("ex_3_2")
        sol = apply_transform(base, TransformSpec.rotation(2.0 * math.pi))
        region = default_region(base, count=100, seed=4)
        for p in sample_points(region, base.singular, base.exclusion_radius):
            assert np.allclose(sol.velocity_at(p), base.velocity_at(p), atol=1e-12)

    def test_rotation_rejected_for_3d(self):
        with pytest.raises(FieldError, match="2D"):
            apply_transform(preset("ex_5_1_const"), TransformSpec.rotation(0.3))

    def test_rescale_values(self):
        base = preset("ex_3_4_smooth")
        lam, tau = 2.0, 3.0
        sol = apply_transform(base, TransformSpec.rescale(lam, tau))
        p = pt(1.0, -0.8, t=0.6)
        inner = base.velocity(np.array([[p.x[0] / lam, p.x[1] / lam]]),
                              np.array([p.t / tau]))[0]
        assert np.allclose(sol.velocity_at(p), (lam / tau) * inner, atol=0.0)

    def test_rescale_adjusts_viscosity(self):
        base = preset("ex_6_1")
        sol = apply_transform(base, TransformSpec.rescale(2.0, 3.0))
        assert sol.viscosity == pytest.approx(base.viscosity * 4.0 / 3.0)
        rep = certify(sol, default_region(sol, count=1000, seed=1))
        assert rep.passed

    def test_rescale_moves_blowup_time(self):
        base = preset("ex_2_6")
        sol = apply_transform(base, TransformSpec.rescale(2.0, 3.0))
        assert sol.singular.blowup_time() == pytest.approx(3.0)

    def test_transform_chain_recorded(self):
        sol = apply_transform(
            apply_transform(preset("ex_2_5"), TransformSpec.boost((1.0, 0.0))),
            TransformSpec.rotation(0.5),
        )
        kinds = [e["kind"] for e in sol.metadata["transform_chain"]]
        assert kinds == ["boost", "rotation"]

    def test_boost_dimension_mismatch(self):
        with pytest.raises(FieldError):
            apply_transform(preset("ex_2_5"), TransformSpec.boost((1.0, 0.0, 0.0)))


class TestPresets:
    def test_nine_presets(self):
        assert len(preset_ids()) == 9
        assert preset_ids()[0] == "ex_2_5" and preset_ids()[-1] == "ex_6_1"

    def test_unknown_preset(self):
        with pytest.raises(FieldError, match="unknown preset"):
            preset("ex_9_9")

    def test_all_construct_and_describe(self):
        for pid in preset_ids():
            sol = preset(pid)
            assert sol.metadata["name"] == pid
            assert sol.singular.describe()

    def test_form_symmetry_at_critical_time(self):
        sol = preset("ex_3_10")
        T = sol.metadata["form_symmetry_time"]
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = tuple(rng.uniform(-3, 3, size=2))
            p = SpaceTimePoint(x, T)
            X, Tarr = p.arrays()
            if not bool(sol.singular.admissible(X, Tarr, sol.exclusion_radius)[0]):
                continue
            u = sol.velocity_at(p)
            assert u[0] - 1.0 == pytest.approx(u[1] - 0.0, rel=1e-12)

    def test_traveling_vortex_is_shifted_rotational_field(self):
        # with equal boost components, u - C is (y2, -y1)/(1+|y|^2)^2
        sol = preset("ex_3_2")
        C = np.array(sol.metadata["boost_total"])
        assert C.tolist() == [1.0, 1.0]
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(100):
            x = rng.uniform(-3, 3, size=2)
            t = rng.uniform(0.0, 1.0)
            y = x - C * t
            if np.linalg.norm(y) < sol.exclusion_radius + 0.05:
                continue
            u = sol.velocity(x[None, :], np.array([t]))[0]
            g = 1.0 / (1.0 + y @ y) ** 2
            assert np.allclose(u - C, [g * y[1], -g * y[0]], rtol=1e-10, atol=1e-14)
            checked += 1
        assert checked > 50

    def test_smooth_wave_peak_speed(self):
        sol = preset("ex_3_4_smooth")
        # u1 = 1/(1+xi^2)^2 peaks at 1 on the line xi = 0
        p = pt(1.0, 1.0, t=0.0)
        assert sol.velocity_at(p)[0] == pytest.approx(1.0)
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = tuple(rng.uniform(-3, 3, size=2))
            u1 = sol.velocity_at(SpaceTimePoint(x, float(rng.uniform(0, 1))))[0]
            assert abs(u1) <= 1.0 + 1e-12

    def test_preset_overrides(self):
        sol = preset("ex_6_1", {"pressure_sign": -1, "sigma": 2.0})
        assert sol.metadata["params"]["pressure_sign"] == -1
        assert sol.viscosity == 2.0


# Integrands of the radial quadrature: the three vortex presets' r g(r, t)^2
# at a fixed c(t), and two generic smooth profiles.  Each entry is
# (numpy integrand, mpmath integrand).
def _vortex_integrand(c, h, mp_h):
    return (lambda x: x * (c / (x * x) + h(x)) ** 2,
            lambda x: x * (c / (x * x) + mp_h(x)) ** 2)


RADIAL_INTEGRANDS = {
    "ex_2_5": _vortex_integrand(0.37, lambda x: -1 / x**2, lambda x: -1 / x**2),
    "ex_2_6": _vortex_integrand(1 / (1 - 0.8), lambda x: -1 / x**2, lambda x: -1 / x**2),
    "ex_3_2": _vortex_integrand(1.0, lambda x: -1 / x**2 + 1 / (1 + x**2) ** 2,
                                lambda x: -1 / x**2 + 1 / (1 + x**2) ** 2),
    "exp(-r^2)": (lambda x: np.exp(-x * x), lambda x: mpmath.exp(-x * x)),
    "sin(3*r)/r^2": (lambda x: np.sin(3 * x) / x**2, lambda x: mpmath.sin(3 * x) / x**2),
}
QUAD_TOL = dict(epsrel=1e-11, epsabs=1e-13)


class TestRadialQuadrature:
    @pytest.mark.parametrize("name", sorted(RADIAL_INTEGRANDS))
    def test_matches_mpmath(self, name):
        f, mp_f = RADIAL_INTEGRANDS[name]
        r = np.geomspace(0.05, 10.0, 9)
        F, err = catalog.quad(lambda x, rows: f(x), 1.0, r, **QUAD_TOL)
        with mpmath.workdps(50):
            ref = [float(mpmath.quad(mp_f, [1, mpmath.mpf(float(b))])) for b in r]
        for b, got, want, e in zip(r, F, ref, err):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (b, got, want)
            assert e <= 1e-11 * max(1.0, abs(want))

    def test_empty_interval_is_exactly_zero(self):
        F, err = catalog.quad(lambda x, rows: 1.0 / x, [0.5, 3.0], [0.5, 3.0], **QUAD_TOL)
        assert F.tolist() == [0.0, 0.0]
        assert err.tolist() == [0.0, 0.0]

    def test_row_value_independent_of_the_batch(self):
        # Rows converge after different numbers of refinements (the
        # frequency k grows with the row), so the batch shrinks as it goes.
        r = np.geomspace(0.05, 10.0, 1600)
        k = np.linspace(0.5, 60.0, 1600)

        def wave(rows):
            return lambda x, sub: x * np.cos(k[rows][sub, None] * x) ** 2

        full, full_err = catalog.quad(wave(np.arange(1600)), 1.0, r, **QUAD_TOL)
        for i in (0, 737, 1599):
            one, one_err = catalog.quad(wave(np.array([i])), 1.0, r[i:i + 1], **QUAD_TOL)
            assert one.tobytes() == full[i:i + 1].tobytes()
            assert one_err.tobytes() == full_err[i:i + 1].tobytes()

    def test_non_finite_integrand_returns_without_raising(self):
        with np.errstate(all="ignore"):
            F, _ = catalog.quad(lambda x, rows: np.where(rows[:, None] == 1, np.nan,
                                                         np.exp(1000.0 * x * rows[:, None])),
                                1.0, [2.0, 2.0, 3.0], **QUAD_TOL)
        assert F[0] == pytest.approx(1.0)
        assert np.isnan(F[1]) and np.isinf(F[2])

    def test_unresolvable_oscillation_raises(self):
        with pytest.raises(FieldError, match="did not converge"):
            catalog.quad(lambda x, rows: np.sin(1e5 * x), 1.0, [2.0], **QUAD_TOL)

    @pytest.mark.parametrize("pid", ["ex_2_5", "ex_2_6", "ex_3_2"])
    def test_pressure_value_matches_its_gradient(self, pid):
        sol = preset(pid)
        X, T = _sample_arrays(default_region(sol, count=2000, seed=0), sol.singular,
                              sol.exclusion_radius)
        hmax = 2.5 * FD_STEP1 * np.maximum(1.0, np.abs(X).max(axis=1))
        sel = np.flatnonzero(sol.pressure_cut_clearance(X, T) > 0.05 + 4.0 * hmax)
        sel = sel[:PRESSURE_FD_SUBSET]
        grad_fd = _fd_pressure_gradient(sol, X[sel], T[sel])
        grad = sol.pressure_gradient(X[sel], T[sel])
        assert len(sel) == PRESSURE_FD_SUBSET
        assert _rel_discrepancy(grad, grad_fd).max() <= 1e-10

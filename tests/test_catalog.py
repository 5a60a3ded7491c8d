import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from eulercert import catalog
from eulercert.analysis import _affine_solution
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
from eulercert.expressions import Jet2, compile_jet, compile_real, eval_jet, parse
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
        sup = sol.sup_speed_unit_ball
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

    # each pair makes a factor _step derives 0 or non-finite: lam/tau^2 divides
    # by an underflowed tau^2 or overflows, lam/tau, lam*tau or lam^2/tau leave
    # the float range
    @pytest.mark.parametrize("lam, tau", [
        (1.0, 1e-180), (1.0, 1e200), (1e-300, 1e10), (1e300, 1e-10), (1e200, 1.0),
        (1e-200, 1e-200), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
    ])
    def test_rescale_with_an_unrepresentable_factor_refused(self, lam, tau):
        with pytest.raises(FieldError, match="rescale"):
            TransformSpec.rescale(lam, tau)

    @pytest.mark.parametrize("lam, tau", [(1e150, 1.0), (1.0, 1e-150), (1e-150, 1e-150)])
    def test_rescale_near_the_float_range_still_builds(self, lam, tau):
        tr = TransformSpec.rescale(lam, tau)
        assert (tr.lam, tr.tau) == (lam, tau)
        apply_transform(preset("ex_2_5"), tr)

    def test_rescale_whose_envelope_gain_overflows_drops_the_envelope(self):
        # ex_3_2's envelope decays like r^-3, so its gain lam/tau lam^3 overflows
        # at lam = 1e120 while every factor of the field itself is finite
        sol = apply_transform(preset("ex_3_2"), TransformSpec.rescale(1e120, 1.0))
        assert sol.decay_envelope is None
        kept = apply_transform(preset("ex_3_2"), TransformSpec.rescale(2.0, 0.5))
        assert kept.decay_envelope[0](0.3) == 2.0 / 0.5 * 2.0 ** 3

    @pytest.mark.parametrize("lam, tau", [(2.0, 0.5), (1.0, 2.0), (0.3, 3.0)])
    def test_rescaled_boundary_speed_is_the_speed_on_the_boundary(self, lam, tau):
        sol = apply_transform(preset("ex_6_1"), TransformSpec.rescale(lam, tau))
        X = np.array([[0.3, -0.1, -0.2], [1.0, 0.5, -1.5]])  # s = 0
        for t in (0.1, 0.4 * tau, 0.9 * tau):
            speed = np.linalg.norm(sol.velocity(X, np.full(2, t)), axis=1)
            np.testing.assert_allclose(speed, sol.boundary_speed(t), rtol=1e-12)

    @pytest.mark.parametrize("lam, tau", [(2.0, 0.5), (1.0, 2.0), (0.3, 3.0)])
    def test_rescaled_unit_ball_sup_is_the_speed_on_the_stretching_axis(self, lam, tau):
        # C = diag(1, 1, -2): on the unit ball |u| peaks at x = e3
        sol = apply_transform(preset("ex_5_1_blowup"), TransformSpec.rescale(lam, tau))
        for t in (0.1, 0.4 * tau, 0.9 * tau):
            speed = np.linalg.norm(sol.velocity(np.array([[0.0, 0.0, 1.0]]), np.array([t])))
            assert speed == pytest.approx(sol.sup_speed_unit_ball(t), rel=1e-12)


def _callables(obj):
    """The callables inside nested dicts, lists and tuples."""
    if isinstance(obj, dict):
        return [c for v in obj.values() for c in _callables(v)]
    if isinstance(obj, (list, tuple)):
        return [c for v in obj for c in _callables(v)]
    return [obj] if callable(obj) else []


def _chain(sol, C=(0.5, -1.5, 0.25), angle=0.7, lam=2.0, tau=0.5):
    """boost -> rotation (2D only) -> rescale."""
    sol = apply_transform(sol, TransformSpec.boost(C[:sol.dimension]))
    if sol.dimension == 2:
        sol = apply_transform(sol, TransformSpec.rotation(angle))
    return apply_transform(sol, TransformSpec.rescale(lam, tau))


FACTS = ("radial_speed", "decay_envelope", "boundary_speed", "sup_speed_unit_ball")


class TestAnalyticFacts:
    """Facts are pair fields that every transform maps, and each states the
    co-moving speed |w - boost_total|."""

    @pytest.mark.parametrize("pid", preset_ids())
    @pytest.mark.parametrize("chained", [False, True], ids=["preset", "chain"])
    def test_metadata_holds_no_callable(self, pid, chained):
        sol = _chain(preset(pid)) if chained else preset(pid)
        assert _callables(sol.metadata) == []
        for name in FACTS:  # a chain keeps every fact the preset has
            assert (getattr(sol, name) is None) == (getattr(preset(pid), name) is None), name

    def test_chain_boost_total(self):
        # the README's rule, (lam/tau) Q^T C, one step at a time
        C, angle, lam, tau = (0.5, -1.5), 0.7, 2.0, 0.5
        ca, sa = math.cos(angle), math.sin(angle)
        Q = np.array([[ca, -sa], [sa, ca]])
        want = tuple(map(float, (lam / tau) * (Q.T @ np.array(C))))
        assert _chain(preset("ex_2_5"), C, angle, lam, tau).boost_total == want
        assert preset("ex_2_5").boost_total is None

    def test_boosted_boundary_speed_is_the_co_moving_speed(self):
        C = np.array([1.0, 0.0, 0.0])
        sol = apply_transform(preset("ex_6_1"), TransformSpec.boost(C))
        base = np.array([[0.3, -0.1, -0.2], [1.0, 0.5, -1.5]])  # s = 0
        for t in (0.1, 0.5, 0.9):
            X = base + C * t  # on the moved boundary
            speed = np.linalg.norm(sol.velocity(X, np.full(2, t)) - C, axis=1)
            np.testing.assert_allclose(speed, sol.boundary_speed(t), rtol=1e-12)
            assert sol.boundary_speed(t) == pytest.approx(3.0 / math.sqrt(1.0 - t), rel=1e-15)

    def test_boosted_unit_ball_sup_is_the_co_moving_speed(self):
        C = np.array([0.5, -1.0, 2.0])
        sol = apply_transform(preset("ex_5_1_blowup"), TransformSpec.boost(C))
        for t in (0.1, 0.5, 0.9):
            X = (C * t + [0.0, 0.0, 1.0])[None, :]
            speed = np.linalg.norm(sol.velocity(X, np.array([t]))[0] - C)
            assert speed == pytest.approx(sol.sup_speed_unit_ball(t), rel=1e-12)


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
        T = sol.form_symmetry_time
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = tuple(rng.uniform(-3, 3, size=2))
            p = SpaceTimePoint(x, T)
            X, Tarr = p.arrays()
            if not bool(sol.singular.admissible(X, Tarr, sol.exclusion_radius)[0]):
                continue
            u = sol.velocity_at(p)
            assert u[0] - 1.0 == pytest.approx(u[1] - 0.0, rel=1e-12)

    @pytest.mark.parametrize("lam, tau", [(1.0, 2.0), (1.5, 0.5)])
    def test_rescaled_form_symmetry_time(self, lam, tau):
        # w = (lam/tau) u(x/lam, t/tau): at t = tau T the profile is
        # (lam/tau) lam^2/(x1 - x2)^2, and at t = T (tau != 1) it is not
        sol = apply_transform(preset("ex_3_10"), TransformSpec.rescale(lam, tau))
        assert sol.form_symmetry_time == tau * 1.0
        amp = lam / tau
        X = np.array([[0.3, -0.9], [1.2, 2.9]])
        want = amp * lam * lam / (X[:, 0] - X[:, 1]) ** 2
        at = sol.velocity(X, np.full(2, sol.form_symmetry_time))
        assert at[:, 0] - amp * 1.0 == pytest.approx(want, rel=1e-12)
        assert at[:, 1] - amp * 0.0 == pytest.approx(want, rel=1e-12)
        off = sol.velocity(X, np.full(2, 1.0))
        assert not np.allclose(off[:, 0] - amp, want, rtol=1e-3)

    def test_traveling_vortex_is_shifted_rotational_field(self):
        # with equal boost components, u - C is (y2, -y1)/(1+|y|^2)^2
        sol = preset("ex_3_2")
        C = np.array(sol.boost_total)
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

    @pytest.mark.parametrize("pid, overrides", [
        ("ex_2_5", {"pressure_sign": -1}),
        ("ex_2_5", {"sigma": 2.0}),
        ("ex_3_4_smooth", {"T": 2.0, "c1": 0.5}),
        ("ex_5_1_const", {"exclusion_radius": 0.1}),
    ])
    def test_override_the_preset_does_not_read_is_refused(self, pid, overrides):
        with pytest.raises(FieldError, match=f"preset '{pid}' does not take override"):
            preset(pid, overrides)


PLANAR_PRESETS = ("ex_2_5", "ex_2_6", "ex_3_2", "ex_3_10", "ex_3_4_smooth", "ex_3_4_singular")
TRANSFORM_CHAINS = {
    "rotation": (TransformSpec.rotation(0.7),),
    "rescale": (TransformSpec.rescale(1.5, 0.8),),
    "boost_rotation_rescale": (TransformSpec.rescale(0.6, 1.3), TransformSpec.rotation(-1.1),
                               TransformSpec.boost((0.4, -0.9))),
}


def _samples(sol, count=400, seed=2):
    return _sample_arrays(default_region(sol, count=count, seed=seed), sol.singular,
                          sol.exclusion_radius)


class TestVelocityJacobian:
    """``velocity_jacobian`` is the jet's Jacobian, bit for bit."""

    @staticmethod
    def assert_jet_jacobian(sol, count=400):
        X, T = _samples(sol, count)
        assert np.array_equal(sol.velocity_jacobian(X, T), sol.velocity_jet(X, T).jacobian)

    @pytest.mark.parametrize("pid", PLANAR_PRESETS)
    def test_planar_presets(self, pid):
        self.assert_jet_jacobian(preset(pid))

    @pytest.mark.parametrize("pid", ["ex_2_5", "ex_3_4_smooth"])
    @pytest.mark.parametrize("chain", sorted(TRANSFORM_CHAINS))
    def test_transformed(self, pid, chain):
        sol = preset(pid)
        for tr in TRANSFORM_CHAINS[chain]:
            sol = apply_transform(sol, tr)
        self.assert_jet_jacobian(sol)

    @pytest.mark.parametrize("doc", [
        {"family": "ij_vortex", "params": {"c": "a*t + 1", "h": "1/(1+r^2)",
                                           "values": {"a": 0.5}, "exclusion_radius": 0.2}},
        {"family": "twin_wave", "params": {"v": "1/x^2", "c1": 0.5, "c2": -1.0, "c3": 2.0,
                                           "singular_xi": [0.0], "exclusion_radius": 0.3}},
    ])
    def test_spec_documents(self, doc):
        from eulercert.cli import build_solution

        assert doc["family"] in catalog.FAMILIES
        self.assert_jet_jacobian(build_solution(doc))

    @pytest.mark.parametrize("pid", ["ex_5_1_const", "ex_6_1"])
    def test_three_dimensional_families_have_none(self, pid):
        assert preset(pid).velocity_jacobian is None

    def test_pair_without_it_has_the_same_vorticity(self):
        from eulercert.fields import vorticity_batch

        affine = _affine_solution(parse("1/(1+x^2)", "x"), parse("x", "x"), 0.3, 1.0, {})
        affine = replace(affine, velocity_jacobian=None)
        X, T = _samples(affine)
        jac = affine.velocity_jet(X, T).jacobian
        assert np.array_equal(vorticity_batch(affine, X, T), jac[:, 1, 0] - jac[:, 0, 1])
        wave = preset("ex_3_4_smooth")
        X, T = _samples(wave)
        bare = replace(wave, velocity_jacobian=None)
        assert np.array_equal(vorticity_batch(bare, X, T), vorticity_batch(wave, X, T))


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


def _round_by_round_quad(func, a, b, *, epsrel, epsabs):
    """``catalog.quad``'s graded rounds one integrand call per round and row
    slice, m = 8, 16, 32, ..., as they ran before its first call covered
    rounds 8 and 16 together; rows must close within QUAD_MAX_PANELS."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    a, b = a.ravel(), b.ravel()
    ratio = b / a
    values, abserr = np.empty(len(a)), np.full(len(a), np.inf)
    rows, prev, m = np.arange(len(a)), None, 8
    nodes, weights = (v[:, None, None] for v in catalog._gauss_legendre())
    while len(rows):
        assert m <= catalog.QUAD_MAX_PANELS
        est = np.empty(len(rows))
        for s in catalog._slices(len(rows), 8 * m):
            edges = a[s, None] * ratio[s, None] ** (np.arange(m + 1) / m)
            edges[:, -1] = b[s]
            mid, half = (edges[:, 1:] + edges[:, :-1]) / 2, (edges[:, 1:] - edges[:, :-1]) / 2
            x = mid + half * nodes
            est[s] = (catalog._node_sum(func(x, rows[s]) * weights) * half).sum(axis=1)
        keep = ~catalog._accept(est, prev, rows, values, abserr, epsrel, epsabs)
        rows, prev, a, b, ratio = (v[keep] for v in (rows, est, a, b, ratio))
        m *= 2
    return values, abserr


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
        # Round 1 (64 nodes a row) spans two row slices: rows 0-1023, 1024-.
        r = np.geomspace(0.05, 10.0, 1600)
        k = np.linspace(0.5, 60.0, 1600)
        assert 1600 * 64 > catalog.ANGULAR_CHUNK

        def wave(rows):
            return lambda x, sub: x * np.cos(k[rows][sub, None] * x) ** 2

        full, full_err = catalog.quad(wave(np.arange(1600)), 1.0, r, **QUAD_TOL)
        for i in (0, 737, 1023, 1024, 1599):
            one, one_err = catalog.quad(wave(np.array([i])), 1.0, r[i:i + 1], **QUAD_TOL)
            assert one.tobytes() == full[i:i + 1].tobytes()
            assert one_err.tobytes() == full_err[i:i + 1].tobytes()

    def test_evaluation_in_slices_changes_no_value(self, monkeypatch):
        r = np.geomspace(0.05, 10.0, 1600)
        k = np.linspace(0.5, 60.0, 1600)
        sizes = []

        def wave(x, rows):
            sizes.append(x.size)
            return x * np.cos(k[rows, None] * x) ** 2

        F, err = catalog.quad(wave, 1.0, r, **QUAD_TOL)
        assert max(sizes) <= catalog.ANGULAR_CHUNK
        sizes.clear()
        monkeypatch.setattr(catalog, "ANGULAR_CHUNK", 2**30)
        F_whole, err_whole = catalog.quad(wave, 1.0, r, **QUAD_TOL)
        assert max(sizes) > 2**16
        assert F_whole.tobytes() == F.tobytes() and err_whole.tobytes() == err.tobytes()

    def test_opening_rounds_share_one_call_per_slice(self):
        # rounds m = 8 and 16 in one call of 8 + 16 panels a row; a round
        # after them evaluates its own m panels
        shapes = []

        def f(x, rows):
            shapes.append(x.shape)
            return np.exp(-x)

        catalog.quad(f, 1.0, [2.0, 3.0], **QUAD_TOL)
        assert shapes == [(8, 2, 24)]
        shapes.clear()
        per_slice = catalog.ANGULAR_CHUNK // (8 * 24)
        catalog.quad(f, 1.0, np.full(2 * per_slice + 5, 2.0), **QUAD_TOL)
        assert shapes == [(8, per_slice, 24)] * 2 + [(8, 5, 24)]
        shapes.clear()
        catalog.quad(lambda x, rows: f(x, rows) + np.cos(40.0 * x), 1.0, [9.0], **QUAD_TOL)
        assert len(shapes) > 2
        assert [s[2] for s in shapes] == [24] + [32 * 2**i for i in range(len(shapes) - 1)]

    @pytest.mark.parametrize("name", sorted(RADIAL_INTEGRANDS))
    def test_fused_opening_matches_round_by_round_bits(self, name):
        f = RADIAL_INTEGRANDS[name][0]
        r = np.geomspace(0.05, 10.0, 9)
        with np.errstate(all="ignore"):
            got = catalog.quad(lambda x, rows: f(x), 1.0, r, **QUAD_TOL)
            want = _round_by_round_quad(lambda x, rows: f(x), 1.0, r, **QUAD_TOL)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    def test_fused_opening_matches_round_by_round_bits_across_slices(self):
        r = np.geomspace(0.05, 10.0, 1600)
        k = np.linspace(0.5, 60.0, 1600)

        def wave(x, rows):
            return np.where(rows[:, None] % 7 == 3, np.inf, x * np.cos(k[rows, None] * x) ** 2)

        got = catalog.quad(wave, 1.0, r, **QUAD_TOL)
        want = _round_by_round_quad(wave, 1.0, r, **QUAD_TOL)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

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


# Vortices whose pressure value is checked row by row: (c, h, params,
# transforms).  The first three are built as their presets are; the last
# evaluates a transcendental c(t) through array ufuncs.
PRESSURE_VORTICES = {
    "ex_2_5": ("t", "-1/r^2", {}, ()),
    "ex_2_6": ("1/(T - t)", "-1/r^2", {"T": 1.0}, ()),
    "ex_3_2": ("1", "-1/r^2 + 1/(1+r^2)^2", {}, (TransformSpec.boost((1.0, 1.0)),)),
    "rotated_rescaled": ("1/(T - t)", "-1/r^2 + exp(-r^2)", {"T": 1.0},
                         (TransformSpec.rotation(0.7), TransformSpec.rescale(1.5, 0.8))),
    "transcendental_c": ("exp(-t) + sin(3*t) + sqrt(1 + t^2) + ln(2 + t)", "-1/r^2", {}, ()),
}


def _scalar_pressure(c, h, params, y1, y2, s):
    """The vortex pressure value at one point, one row at a time: a scalar
    jet of c, libm's hypot and atan2, and a one-row radial quadrature."""
    cjet = eval_jet(parse(c, "t"), Jet2.variable(s), params)
    cv, cdot = float(cjet.value), float(cjet.d1)
    h_real = compile_real(parse(h, "r"), params)

    def integrand(rho, rows):
        g = cv / (rho * rho) + h_real(rho)
        return rho * g * g

    F, _ = catalog.quad(integrand, 1.0, np.array([math.hypot(y1, y2)]),
                        epsrel=1e-11, epsabs=1e-13)
    return -cdot * math.atan2(y1, y2) + F[0]


def _recorded_vortex(name):
    """The vortex ``name``, and the list of (points, times, values) that its
    untransformed pressure value sees and returns."""
    c, h, params, transforms = PRESSURE_VORTICES[name]
    base = ij_vortex(c, h, params=params, blowup_time=params.get("T"))
    calls = []

    def recording(Y, S):
        p = base.pressure_value(Y, S)
        calls.append((Y.copy(), S.copy(), p))
        return p

    sol = replace(base, pressure_value=recording)
    for tr in transforms:
        sol = apply_transform(sol, tr)
    return sol, calls


class TestBatchedPressureValue:
    @pytest.mark.parametrize("name", sorted(PRESSURE_VORTICES))
    def test_matches_the_per_row_reference_bit_for_bit(self, name):
        sol, calls = _recorded_vortex(name)
        X, T = _sample_arrays(default_region(sol, count=500, seed=4), sol.singular,
                              sol.exclusion_radius)
        p = sol.pressure_value(X, T)
        if name in preset_ids():
            assert p.tobytes() == preset(name).pressure_value(X, T).tobytes()
        (Y, S, base_p), = calls
        c, h, params, _ = PRESSURE_VORTICES[name]
        ref = [_scalar_pressure(c, h, params, float(y1), float(y2), float(s))
               for (y1, y2), s in zip(Y, S)]
        assert base_p.tobytes() == np.array(ref).tobytes()

    def test_one_circulation_jet_per_call(self, monkeypatch):
        """The pair compiles its jets once, when it is built; each
        ``pressure_value`` call runs the circulation's jet once, whatever the
        number of points."""
        compiled, counted = [], []

        def counting_compile(ast, params=None):
            compiled.append(ast)
            f = compile_jet(ast, params)

            def run(seed):
                counted.append(ast)
                return f(seed)
            return run

        monkeypatch.setattr(catalog, "compile_jet", counting_compile)
        sol = preset("ex_2_6")
        circulation = parse("1/(T - t)", "t")
        assert circulation in compiled
        built = len(compiled)
        X, T = _sample_arrays(default_region(sol, count=500, seed=1), sol.singular,
                              sol.exclusion_radius)
        per_call = []
        for n in (1, 10, 500):
            counted.clear()
            sol.pressure_value(X[:n], T[:n])
            per_call.append(counted.count(circulation))
        assert per_call == [1, 1, 1]
        assert len(compiled) == built


# 2 pi I_0(k) = integral over one period of exp(k cos theta); rows with a
# larger k need more doublings of the periodic trapezoid rule.
ANGULAR_K = np.linspace(0.1, 40.0, 64)
ANGULAR_TOL = dict(epsrel=1e-9, epsabs=1e-12)


def _bessel_rows(rows):
    return lambda theta, sub: np.exp(ANGULAR_K[rows][sub, None] * np.cos(theta))


class TestAngularQuadrature:
    def test_matches_bessel_closed_form(self):
        F, err = catalog.angular_quad(_bessel_rows(np.arange(64)), 64, **ANGULAR_TOL)
        for k, got, e in zip(ANGULAR_K, F, err):
            want = float(2 * mpmath.pi * mpmath.besseli(0, float(k)))
            assert abs(got - want) <= 1e-12 * want, (k, got, want)
            assert e <= 1e-9 * want

    def test_row_value_independent_of_the_batch(self):
        full, full_err = catalog.angular_quad(_bessel_rows(np.arange(64)), 64, **ANGULAR_TOL)
        for i in (0, 31, 63):
            one, one_err = catalog.angular_quad(_bessel_rows(np.array([i])), 1, **ANGULAR_TOL)
            assert one.tobytes() == full[i:i + 1].tobytes()
            assert one_err.tobytes() == full_err[i:i + 1].tobytes()

    def test_each_angle_is_evaluated_once(self):
        seen = []

        def f(theta, rows):
            seen.append(theta)
            return np.exp(20.0 * np.cos(theta))[None, :]

        catalog.angular_quad(f, 1, **ANGULAR_TOL)
        angles = np.sort(np.concatenate(seen))
        assert len(seen) >= 3
        assert np.allclose(angles, 2 * np.pi * np.arange(len(angles)) / len(angles),
                           rtol=0, atol=1e-15)

    def test_non_finite_integrand_returns_without_raising(self):
        with np.errstate(all="ignore"):
            F, _ = catalog.angular_quad(
                lambda theta, rows: np.where(rows[:, None] == 1, np.nan,
                                             np.exp(1000.0 * rows[:, None] * np.cos(theta))),
                3, **ANGULAR_TOL)
        assert F[0] == pytest.approx(2 * np.pi)
        assert np.isnan(F[1]) and np.isinf(F[2])

    def test_non_finite_value_in_the_bisection_returns_without_raising(self):
        # The kink sends the row on to the bisection, whose nodes (one line
        # per row) see NaN.
        def f(theta, rows):
            kink = np.abs(np.sin(theta) - 0.3)
            return kink if np.ndim(theta) == 1 else np.full(np.shape(theta), np.nan)

        F, _ = catalog.angular_quad(f, 1, **ANGULAR_TOL)
        assert np.isnan(F[0])

    def test_unresolvable_singularity_raises(self):
        with pytest.raises(FieldError, match="angular quadrature did not converge"):
            catalog.angular_quad(lambda theta, rows: np.abs(np.sin(theta) - 0.3) ** -0.5,
                                 1, **ANGULAR_TOL)

    def test_kink_is_resolved_by_bisection(self):
        # integral of |sin theta - a| over one period = 4 cos(asin a) + 4 a asin a
        a = 0.3
        F, err = catalog.angular_quad(lambda theta, rows: np.abs(np.sin(theta) - a),
                                      1, **ANGULAR_TOL)
        want = 4 * math.sqrt(1 - a * a) + 4 * a * math.asin(a)
        assert F[0] == pytest.approx(want, rel=1e-10)
        assert err[0] <= 1e-9 * want

    def test_bisected_row_value_independent_of_the_batch(self):
        a = np.linspace(-0.9, 0.9, 64)

        def kinked(rows):
            return lambda theta, sub: np.abs(np.sin(theta) - a[rows][sub, None])

        full, full_err = catalog.angular_quad(kinked(np.arange(64)), 64, **ANGULAR_TOL)
        for i in (0, 17, 63):
            one, one_err = catalog.angular_quad(kinked(np.array([i])), 1, **ANGULAR_TOL)
            assert one.tobytes() == full[i:i + 1].tobytes()
            assert one_err.tobytes() == full_err[i:i + 1].tobytes()

    def test_evaluation_in_slices_changes_no_value(self, monkeypatch):
        a = np.linspace(-0.9, 0.9, 64)
        sizes = []

        def f(theta, rows):
            sizes.append(np.broadcast_shapes(np.shape(theta), (len(rows), 1)))
            smooth = np.exp(ANGULAR_K[rows][:, None] * np.cos(theta))
            return np.where(rows[:, None] % 2 == 0, smooth, np.abs(np.sin(theta) - a[rows][:, None]))

        F, err = catalog.angular_quad(f, 64, **ANGULAR_TOL)
        assert max(r * c for r, c in sizes) > 1024
        sizes.clear()
        monkeypatch.setattr(catalog, "ANGULAR_CHUNK", 1024)
        F_sliced, err_sliced = catalog.angular_quad(f, 64, **ANGULAR_TOL)
        assert max(r * c for r, c in sizes) <= 1024
        assert F_sliced.tobytes() == F.tobytes() and err_sliced.tobytes() == err.tobytes()


class TestRadialBisection:
    """Rows the graded rule of ``catalog.quad`` cannot close go on with the
    bisection that ``angular_quad`` uses, on the row's own interval."""

    def test_kink_is_resolved_by_bisection(self):
        # integral of |x - k| over [a, b] = ((k - a)^2 + (b - k)^2) / 2
        k, a, b = np.array([1.3, 2.2]), np.array([1.0, 3.0]), np.array([2.0, 1.5])
        F, err = catalog.quad(lambda x, rows: np.abs(x - k[rows, None]), a, b, **QUAD_TOL)
        want = np.sign(b - a) * ((k - a) ** 2 + (b - k) ** 2) / 2
        for got, w, e in zip(F, want, err):
            assert abs(got - w) <= 1e-11 * abs(w), (got, w)
            assert e <= 1e-11 * abs(w)

    def test_bisected_row_value_independent_of_the_batch(self):
        # Kinked rows (bisected) and smooth rows (graded) in one call.
        k = np.linspace(1.05, 2.95, 40)
        smooth = np.arange(40) % 3 == 0

        def rows_of(rows):
            def f(x, sub):
                kink = np.abs(x - k[rows][sub, None])
                return np.where(smooth[rows][sub, None], np.exp(-x), kink)
            return f

        full, full_err = catalog.quad(rows_of(np.arange(40)), 1.0, np.full(40, 3.0), **QUAD_TOL)
        for i in (0, 1, 20, 39):
            one, one_err = catalog.quad(rows_of(np.array([i])), 1.0, [3.0], **QUAD_TOL)
            assert one.tobytes() == full[i:i + 1].tobytes()
            assert one_err.tobytes() == full_err[i:i + 1].tobytes()

    def test_unresolvable_row_names_the_radial_quadrature(self):
        with pytest.raises(FieldError, match="radial quadrature did not converge"):
            catalog.quad(lambda x, rows: np.abs(x - 1.5) ** -0.5, 1.0, [2.0], **QUAD_TOL)

    @pytest.mark.parametrize("count", [1, 3])
    def test_rows_open_after_the_last_round_raise(self, monkeypatch, count):
        # 16 panels a row doubled three times stay under BISECT_MAX_OPEN, so
        # the rounds run out first
        monkeypatch.setattr(catalog, "BISECT_MAX_LEVELS", 3)
        with pytest.raises(FieldError, match="did not converge: panels of width 7.8e-03 are"):
            catalog.quad(lambda x, rows: np.sin(1e5 * x), 1.0, np.full(count, 2.0), **QUAD_TOL)


def _node_values(seed, shape):
    """Random values of mixed signs whose decimal exponents are a row's own,
    drawn across +-300, within +-2, so that how the terms associate shows
    in the last bits; rows 1-3 hold a NaN, a +inf and a -inf, and row 4 is
    all negative zeros."""
    rng = np.random.default_rng(seed)
    exponent = rng.integers(-300, 301, (shape[0],) + (1,) * (len(shape) - 1))
    v = (rng.uniform(1.0, 10.0, shape) * 10.0 ** (exponent + rng.integers(-2, 3, shape))
         * rng.choice([-1.0, 1.0], shape))
    for i, special in enumerate([np.nan, np.inf, -np.inf][:len(v) - 1], start=1):
        v[i].flat[rng.integers(v[i].size)] = special
    v[4:5] = -0.0
    return v


class TestNodeSum:
    """``_node_sum`` adds the 8 Gauss nodes in numpy's own pairwise order;
    each caller's estimate must equal the ``sum`` it replaced, bit for bit."""

    @pytest.mark.parametrize("m, rows", [(8, 1), (8, 3000), (16, 7), (64, 200), (256, 33),
                                         (1024, 1), (1024, 40)])
    def test_graded_panels_match_the_axis_sum(self, m, rows):
        weights = catalog._gauss_legendre()[1]
        f = _node_values(m + rows, (rows, m, 8))  # panel-major: (row, panel, node)
        half = np.random.default_rng(rows).uniform(1e-3, 1.0, (rows, m))
        with np.errstate(all="ignore"):
            want = ((f * weights).sum(axis=2) * half).sum(axis=1)
            node_major = np.ascontiguousarray(f.transpose(2, 0, 1))  # (node, row, panel)
            got = (catalog._node_sum(node_major * weights[:, None, None]) * half).sum(axis=1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("panels", [1, 4, 5, 6, 3000])
    def test_bisection_panels_match_the_axis_sum(self, panels):
        weights = catalog._gauss_legendre()[1]
        f = _node_values(panels, (panels, 8))
        wp = np.random.default_rng(panels).uniform(1e-3, 1.0, panels)
        with np.errstate(all="ignore"):
            want = (f * weights).sum(axis=1) * (wp / 2)
            got = catalog._node_sum((f * weights).T) * (wp / 2)
        # numpy's reduction starts from +0.0: negative zeros sum to +0.0 there
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        nonzero = want != 0.0
        assert got[nonzero].tobytes() == want[nonzero].tobytes()

    def test_sign_of_a_zero_sum_is_washed_out(self):
        def negative_zero(x, rows):
            return np.full(x.shape, -0.0)

        F, _ = catalog.quad(negative_zero, 1.0, [2.0], **QUAD_TOL)
        B, _ = catalog._bisect(negative_zero, np.array([0]), np.array([1.0]), np.array([2.0]),
                               np.array([1e-12]), "bisection")
        assert F.tobytes() == B.tobytes() == np.zeros(1).tobytes()


# ---------------------------------------------------------------------------
# Parity of the per-column evaluators with the broadcast expressions they
# replaced.  Each oracle below keeps the old expression; the new code must
# match it bit for bit, at one point and at 10^4.
# ---------------------------------------------------------------------------


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _halfspace_reference(X, T_, T, sigma, c, x0, sign):
    """``ns_halfspace_blowup``'s fields with s = np.sum(X - x0, axis=1)."""
    tau = T - T_
    s = np.sum(X - np.asarray(x0), axis=1)
    isq = 1.0 / np.sqrt(tau)
    E = np.exp(s * s / (12.0 * sigma * tau) - s * isq / sigma)
    A_s = s / (6.0 * sigma * tau) - isq / sigma
    A_ss = 1.0 / (6.0 * sigma * tau)
    A_t = s * s / (12.0 * sigma * tau * tau) - 0.5 * s * isq / (sigma * tau)
    u12, u3 = isq * (-1.0 + E), -isq * (1.0 + 2.0 * E)
    w = isq * E * A_s
    w2 = isq * E * (A_s * A_s + A_ss)
    halftau32 = 0.5 * isq / tau
    u12_t = halftau32 * (-1.0 + E) + isq * E * A_t
    u3_t = -(halftau32 * (1.0 + 2.0 * E) + 2.0 * isq * E * A_t)
    return {
        "value": np.stack([u12, u12, u3], axis=1),
        "jacobian": np.repeat(np.stack([w, w, -2.0 * w], axis=1)[:, :, None], 3, axis=2),
        "laplacian": 3.0 * np.stack([w2, w2, -2.0 * w2], axis=1),
        "dt": np.stack([u12_t, u12_t, u3_t], axis=1),
        "pressure_gradient": np.repeat((sign * 0.5 * isq / tau)[:, None], 3, axis=1),
        "pressure_value": sign * (0.5 * s * isq + c) / tau,
    }


def _old_boost_rescale(base, C, lam, tau):
    """The boost by C, then the rescale, with the boost's ``X - np.outer(T, C)``
    and ``u + C``."""
    amp = lam / tau

    def pull(X, T):
        Y, S = X / lam, T / tau
        return Y - np.outer(S, C), S

    def velocity(X, T):
        return amp * (base.velocity(*pull(X, T)) + C)

    def jet(X, T):
        j = base.velocity_jet(*pull(X, T))
        value, dt = j.value + C, j.dt - np.einsum("nij,j->ni", j.jacobian, C)
        return {"value": amp * value, "jacobian": j.jacobian / tau,
                "laplacian": j.laplacian / (lam * tau), "dt": (lam / tau**2) * dt}

    def jacobian(X, T):
        return base.velocity_jacobian(*pull(X, T)) / tau

    def pressure_gradient(X, T):
        return (lam / tau**2) * base.pressure_gradient(*pull(X, T))

    return velocity, jet, jacobian, pressure_gradient


def _old_linear3d_velocity(sol, f, params, X, T):
    C = np.asarray(sol.metadata["params"]["C"])
    fv = np.asarray(compile_real(parse(f, "t"), params)(T))
    return (fv[:, None] if fv.ndim else fv) * (X @ C)


SHEAR_C = [[0.5, 0.3, -0.2], [0.3, -1.1, 0.4], [-0.2, 0.4, 0.6]]  # symmetric, trace free


def _form_check_pair(u1, u2, c1, c2, c3):
    """The pair that ``twin_wave_form_check`` probes, caught on its way to
    ``_probe_sup``."""
    from eulercert import analysis

    seen = []

    def record(sol, *args, **kwargs):
        seen.append(sol)
        return analysis.ProbeResult(0.0, 0, "")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_probe_sup", record)
        analysis.twin_wave_form_check(u1, u2, c1, c2, c3)
    return seen[0]


# The pairs of one scalar phase: a wave with c3 != 1, a constant profile
# (``compile_real`` returns a float), the affine probe's eta = a/b (the one
# phase with a Laplacian) and the form check's two profiles.
PHASE_PAIRS = {
    "twin_wave": lambda: twin_wave("sin(x)/(2 + cos(x))", c1=0.5, c2=-1.0, c3=2.5),
    "constant": lambda: twin_wave("2.5", c1=0.3, c2=-0.7, c3=-1.5),
    "affine": lambda: _affine_solution(parse("sin(x)", "x"), parse("1/(1+x^2)", "x"),
                                       0.3, 1.0, {}),
    "form_check": lambda: _form_check_pair("1/(1+x^2)", "x^2 - x", 0.5, 0.2, 3.0),
}


class TestColumnEvaluatorParity:
    @pytest.mark.parametrize("n", [1, 10_000])
    def test_half_space_off_origin(self, n):
        x0 = (0.3, -0.2, 0.1)
        sol = preset("ex_6_1", {"x0": list(x0)})
        X, T = _samples(sol, n, seed=5)
        ref = _halfspace_reference(X, T, 1.0, 1.0, 0.0, x0, 1.0)
        jet = sol.velocity_jet(X, T)
        assert _bits(sol.velocity(X, T)) == _bits(ref["value"])
        for part in ("value", "jacobian", "laplacian", "dt"):
            assert _bits(getattr(jet, part)) == _bits(ref[part]), part
        assert _bits(sol.pressure_gradient(X, T)) == _bits(ref["pressure_gradient"])
        assert _bits(sol.pressure_value(X, T)) == _bits(ref["pressure_value"])

    @pytest.mark.parametrize("n", [1, 10_000])
    def test_boosted_then_rescaled_vortex(self, n):
        C, lam, tau = np.array([0.7, -1.3]), 1.4, 0.8
        base = ij_vortex("1 + t/2", "1/(1+r^2)^2", exclusion_radius=0.2)
        sol = apply_transform(apply_transform(base, TransformSpec.boost(C)),
                              TransformSpec.rescale(lam, tau))
        X, T = _samples(sol, n, seed=6)
        velocity, jet, jacobian, pressure_gradient = _old_boost_rescale(base, C, lam, tau)
        assert _bits(sol.velocity(X, T)) == _bits(velocity(X, T))
        got, ref = sol.velocity_jet(X, T), jet(X, T)
        for part in ("value", "jacobian", "laplacian", "dt"):
            assert _bits(getattr(got, part)) == _bits(ref[part]), part
        assert _bits(sol.velocity_jacobian(X, T)) == _bits(jacobian(X, T))
        assert _bits(sol.pressure_gradient(X, T)) == _bits(pressure_gradient(X, T))

    @pytest.mark.parametrize("n", [1, 10_000])
    @pytest.mark.parametrize("f, params, blowup", [("3/2", {}, None),
                                                   ("1/(T - t)", {"T": 1.0}, 1.0)])
    def test_linear_strain_velocity(self, f, params, blowup, n):
        sol = linear3d(f, np.array(SHEAR_C), params=params, blowup_time=blowup)
        X, T = _samples(sol, n, seed=7)
        assert _bits(sol.velocity(X, T)) == _bits(_old_linear3d_velocity(sol, f, params, X, T))

    @pytest.mark.parametrize("n", [1, 10_000])
    @pytest.mark.parametrize("name", sorted(PHASE_PAIRS))
    def test_phase_pair_values_and_jacobian_are_the_jets(self, name, n):
        sol = PHASE_PAIRS[name]()
        X, T = _samples(sol, n, seed=8)
        jet = sol.velocity_jet(X, T)
        assert _bits(sol.velocity(X, T)) == _bits(jet.value)
        assert _bits(sol.velocity_jacobian(X, T)) == _bits(jet.jacobian)


# The spec record (family, params, the transform chain a transform adds) plus
# the preset's name and summary, and the vortex's pressure branch, which is
# stated in the vortex frame so that no transform moves it.
METADATA_KEYS = {"family", "params", "transform_chain", "name", "summary", "pressure_branch"}
ONE_TRANSFORM = {
    "boost": lambda sol: apply_transform(sol, TransformSpec.boost((0.5, -1.5, 0.25)[:sol.dimension])),
    "rotation": lambda sol: apply_transform(sol, TransformSpec.rotation(0.7)),
    "rescale": lambda sol: apply_transform(sol, TransformSpec.rescale(2.0, 0.5)),
}


class TestMetadataIsTheSpecRecord:
    """Whatever a transform changes is a typed pair field that ``_step`` maps;
    ``metadata`` keeps the record a spec file is rebuilt from."""

    @pytest.mark.parametrize("kind", [None, *ONE_TRANSFORM])
    @pytest.mark.parametrize("pid", preset_ids())
    def test_keys_stay_within_the_spec_record(self, pid, kind):
        sol = preset(pid)
        if kind == "rotation" and sol.dimension != 2:
            return
        if kind is not None:
            sol = ONE_TRANSFORM[kind](sol)
        assert set(sol.metadata) <= METADATA_KEYS

    @pytest.mark.parametrize("kind", sorted(ONE_TRANSFORM))
    @pytest.mark.parametrize("pid", preset_ids())
    def test_a_transform_changes_only_the_chain(self, pid, kind):
        base = preset(pid)
        if kind == "rotation" and base.dimension != 2:
            return
        sol = ONE_TRANSFORM[kind](base)
        chain = sol.metadata["transform_chain"]
        assert chain[:-1] == base.metadata.get("transform_chain", [])
        assert chain[-1]["kind"] == kind
        rest = {k: v for k, v in sol.metadata.items() if k != "transform_chain"}
        assert rest == {k: v for k, v in base.metadata.items() if k != "transform_chain"}

    @pytest.mark.parametrize("pid", preset_ids())
    def test_rescaled_default_region_scales_box_by_lam_and_time_by_tau(self, pid):
        lam, tau = 2.0, 0.5  # powers of two: every product is exact
        base = preset(pid)
        sol = apply_transform(base, TransformSpec.rescale(lam, tau))
        want, got = default_region(base), default_region(sol)
        assert got.box == tuple((lam * lo, lam * hi) for lo, hi in want.box)
        assert got.time == tuple(tau * t for t in want.time)

    @pytest.mark.parametrize("kind", ["boost", "rotation"])
    def test_boost_and_rotation_keep_the_default_region(self, kind):
        base = preset("ex_2_5")
        sol = ONE_TRANSFORM[kind](base)
        assert (sol.default_box, sol.default_time) == (base.default_box, base.default_time)

    def test_constructors_state_the_default_region_once(self):
        assert preset("ex_2_5").default_box == ((-3.0, 3.0),) * 2
        assert preset("ex_5_1_const").default_box == ((-3.0, 3.0),) * 3
        assert preset("ex_6_1").default_box == ((-1.0, 1.0),) * 3
        assert {preset(pid).default_time for pid in preset_ids()} == {(0.0, 1.0)}

import dataclasses
import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercert import analysis, catalog
from eulercert.analysis import (
    NormSpec,
    RateFit,
    _affine_solution,
    _default_probe_region,
    _radial_norms,
    affine_probe,
    annulus_lq_norm,
    blowup_exponent_fit,
    l2_energy_difference,
    twin_wave_form_check,
)
from eulercert.catalog import TransformSpec, apply_transform, ij_vortex, preset, twin_wave
from eulercert.expressions import ExpressionError, parse
from eulercert.fields import FieldError
from eulercert.verification import SampleRegion, _fd_panel, _sample_arrays

# The probe thresholds below are frozen witnesses: each commented command
# reproduces the number with the installed CLI.
AFFINE_PROFILES = [
    # eulercert probe --mode affine --v1 "x" --v2 "x" --c1 0 --c2 1
    ("x", "x"),
    # eulercert probe --mode affine --v1 "1/(1+x^2)" --v2 "x/(1+x^2)" --c1 0 --c2 1
    ("1/(1+x^2)", "x/(1+x^2)"),
    # eulercert probe --mode affine --v1 "sin(x)" --v2 "cos(x)" --c1 0 --c2 1
    ("sin(x)", "cos(x)"),
]


class TestAnnulusNorm:
    def test_unit_annulus_energy(self):
        # |u| = |t-1|/r: squared norm is 2 pi (t-1)^2 log(R/delta)
        sol = preset("ex_2_5")
        res = annulus_lq_norm(sol, NormSpec(q=2, delta=1.0, R=math.e, t=0.0))
        assert res.value_pow_q == pytest.approx(2.0 * math.pi, abs=1e-6)

    def test_improper_cubic_norm(self):
        sol = preset("ex_2_5")
        res = annulus_lq_norm(sol, NormSpec(q=3, delta=1.0, R=math.inf, t=0.0))
        assert abs(res.value_pow_q - 2.0 * math.pi) <= 1e-6 * (1.0 + 2.0 * math.pi)
        assert "tail" in res.provenance

    def test_rescaled_exact_tail(self):
        # under rescale(2, 0.5), |w| = (lam/tau) |t/tau - 1| lam / r = 4.8 / r at
        # t = 0.2, so the cubed norm over r > 1 is 2 pi 4.8^3
        sol = apply_transform(preset("ex_2_5"), TransformSpec.rescale(2.0, 0.5))
        res = annulus_lq_norm(sol, NormSpec(q=3, delta=1.0, R=math.inf, t=0.2))
        assert res.value_pow_q == pytest.approx(2.0 * math.pi * 4.8**3, rel=1e-12)

    def test_zero_field_at_critical_time(self):
        sol = preset("ex_2_5")
        res = annulus_lq_norm(sol, NormSpec(q=2, delta=0.7, R=5.0, t=1.0))
        assert res.value == 0.0

    @pytest.mark.parametrize("delta,R", [(1.0, math.e), (0.5, 10.0), (2.0, 100.0)])
    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
    def test_log_divergence_law(self, delta, R, t):
        if t == 1.0:
            return
        sol = preset("ex_2_5")
        res = annulus_lq_norm(sol, NormSpec(q=2, delta=delta, R=R, t=t))
        ratio = res.value_pow_q / (2.0 * math.pi * (t - 1.0) ** 2 * math.log(R / delta))
        assert ratio == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("pid", ["ex_2_5", "ex_2_6", "ex_3_2"])
    def test_monotonicity_in_radii(self, pid):
        sol = preset(pid)
        sub = tuple(sol.boost_total or (0.0, 0.0))
        t = 0.5
        pairs = [(0.5, 2.0), (0.5, 4.0), (1.0, 4.0), (2.0, 4.0), (1.0, 8.0)]
        vals = {p: annulus_lq_norm(sol, NormSpec(q=2, delta=p[0], R=p[1], t=t,
                                                 subtract=sub)).value
                for p in pairs}
        assert vals[(0.5, 2.0)] <= vals[(0.5, 4.0)]  # nondecreasing in R
        assert vals[(1.0, 4.0)] <= vals[(1.0, 8.0)]
        assert vals[(2.0, 4.0)] <= vals[(1.0, 4.0)]  # nonincreasing in delta
        assert vals[(1.0, 4.0)] <= vals[(0.5, 4.0)]

    def test_generic_polar_path_on_constant_field(self):
        sol = twin_wave("0", 3.0, 4.0, 1.0)  # |u| = 5 everywhere
        res = annulus_lq_norm(sol, NormSpec(q=2, delta=1.0, R=2.0, t=0.0))
        exact = 25.0 * math.pi * (4.0 - 1.0)
        assert res.value_pow_q == pytest.approx(exact, rel=1e-8)

    def test_spec_validation(self):
        with pytest.raises(FieldError):
            NormSpec(q=2, delta=0.0, R=1.0, t=0.0)
        with pytest.raises(FieldError):
            NormSpec(q=0.5, delta=1.0, R=2.0, t=0.0)
        with pytest.raises(FieldError):
            NormSpec(q=2, delta=2.0, R=1.0, t=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_and_exponent_rejected(self, bad):
        with pytest.raises(FieldError, match="time t must be finite"):
            NormSpec(q=2, delta=1.0, R=2.0, t=bad)
        with pytest.raises(FieldError, match="exponent q must be finite"):
            NormSpec(q=bad, delta=1.0, R=2.0, t=0.0)
        with pytest.raises(FieldError, match="time t must be finite"):
            l2_energy_difference(preset("ex_3_2"), (1.0, 1.0), t=bad)

    def test_energy_offset_of_the_wrong_length_rejected(self):
        with pytest.raises(FieldError, match="C must be 2 finite numbers"):
            l2_energy_difference(preset("ex_3_2"), (1.0, 1.0, 0.0))

    def test_energy_offset_not_finite_rejected(self):
        with pytest.raises(FieldError, match="C must be 2 finite numbers"):
            l2_energy_difference(preset("ex_3_2"), (math.nan, 1.0))

    def test_subtract_of_the_wrong_length_rejected(self):
        spec = NormSpec(q=2, delta=1, R=2, t=0, subtract=(1, 1, 1))
        with pytest.raises(FieldError, match="subtract must be 2 finite numbers"):
            annulus_lq_norm(preset("ex_3_4_smooth"), spec)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_subtract_not_finite_rejected(self, bad):
        with pytest.raises(FieldError, match="subtract must be finite"):
            NormSpec(q=2, delta=1.0, R=2.0, t=0.0, subtract=(bad, 1.0))



def _without_radial_speed(sol, velocity=None):
    """The same field, forced onto the generic polar path of annulus_lq_norm."""
    return dataclasses.replace(sol, radial_speed=None, velocity=velocity or sol.velocity)


def _dense_polar_oracle(sol, q, delta, R, t):
    """Gauss-Legendre in r times the trapezoid rule in theta on a fixed grid."""
    xg, wg = np.polynomial.legendre.leggauss(120)
    r = 0.5 * (R - delta) * xg + 0.5 * (R + delta)
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    rr, th = np.meshgrid(r, theta, indexing="ij")
    X = np.stack([(rr * np.cos(th)).ravel(), (rr * np.sin(th)).ravel()], axis=1)
    speed = np.linalg.norm(sol.velocity(X, np.full(len(X), t)), axis=1).reshape(rr.shape)
    ring = (speed**q).sum(axis=1) * (2.0 * math.pi / len(theta))
    return float(np.sum(0.5 * (R - delta) * wg * r * ring))


class TestPolarPath:
    @pytest.mark.parametrize("pid", ["ex_2_5", "ex_2_6", "ex_3_2"])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_matches_the_radial_path(self, pid, q, t):
        sol = preset(pid)
        C = np.asarray(sol.boost_total or (0.0, 0.0))
        # The radial path measures a boosted vortex about its moving centre
        # C t, so the polar path is given the field in that frame.
        polar = _without_radial_speed(
            sol, lambda X, T: sol.velocity(X + np.outer(T, C), T))
        spec = NormSpec(q=q, delta=0.5, R=3.0, t=t, subtract=tuple(C))
        radial = annulus_lq_norm(sol, spec)
        res = annulus_lq_norm(polar, spec)
        assert radial.provenance.startswith("radial") and res.provenance.startswith("polar")
        assert res.value_pow_q == pytest.approx(radial.value_pow_q, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("q", [1, 1.5, 2, 3])
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.77, 1.0])
    def test_smooth_twin_wave_matches_dense_oracle(self, t, q):
        sol = preset("ex_3_4_smooth")
        res = annulus_lq_norm(sol, NormSpec(q=q, delta=1.0, R=2.0, t=t))
        assert res.value_pow_q == pytest.approx(_dense_polar_oracle(sol, q, 1.0, 2.0, t),
                                                rel=1e-9)

    def test_velocity_is_evaluated_in_batches(self):
        # A count, not a timing: one velocity call per round of the angular
        # rule (the nested scalar quadrature made 6153 single-point calls),
        # on the points the rule has always used.
        sol = preset("ex_3_4_smooth")
        calls = []

        def counted(X, T):
            calls.append(len(X))
            return sol.velocity(X, T)

        annulus_lq_norm(dataclasses.replace(sol, velocity=counted),
                        NormSpec(q=2, delta=1.0, R=2.0, t=0.3))
        assert calls == [3072, 3072, 6144, 12288, 5760]

    def test_zero_of_the_relative_velocity_is_resolved(self):
        # u - (1, 0) vanishes at two points of the ring r0 inside the annulus,
        # so |u - subtract| has a kink there; the nested scipy quadrature gave
        # 30.5351944518.
        res = annulus_lq_norm(preset("ex_2_6"),
                              NormSpec(q=1, delta=0.5, R=3.0, t=0.5, subtract=(1.0, 0.0)))
        assert res.value_pow_q == pytest.approx(30.5351944518, rel=1e-9)

    @pytest.mark.parametrize("v, want", [("x", 56.0 / 3.0), ("sin(x)", 9.920407156831928)])
    def test_speed_vanishing_on_a_line_is_resolved(self, v, want):
        # c1 = c2 = 0: |u| = sqrt(2) |v(x - y)| vanishes on lines crossing
        # every ring; for v = x the integral is 8 (R^3 - delta^3) / 3.
        res = annulus_lq_norm(twin_wave(v, 0.0, 0.0, 1.0),
                              NormSpec(q=1, delta=1.0, R=2.0, t=0.0))
        assert res.value_pow_q == pytest.approx(want, rel=1e-9)

    def test_squared_speed_beyond_double_range_is_not_finite(self):
        # the ring kernel integrates (|u|^2)^(q/2), so |u|^2 must stay finite:
        # a speed of about 1e200 overflows it even at q = 1
        with np.errstate(over="ignore"):
            res = annulus_lq_norm(twin_wave("1e200/(1+x^2)", 0.0, 0.0, 1.0),
                                  NormSpec(q=1, delta=1.0, R=2.0, t=0.0))
        assert not math.isfinite(res.value)

    @pytest.mark.xfail(strict=True, raises=FieldError,
                       reason="the rings meet the same epsrel as the radial rule, so ring "
                              "noise keeps the panels at the tangency radius open")
    def test_kink_tangent_to_a_ring_inside_the_annulus(self):
        # |u| = sqrt(2) |x1 - x2 - 2| vanishes on a line tangent to the ring
        # r = sqrt(2); the norm^q is sqrt(2) times the integral over (1, 2) of
        # r I(r), with I(r) = 4 pi for sqrt(2) r <= 2 and
        # 4 pi + 4 (sqrt(2 r^2 - 4) - 2 acos(sqrt(2) / r)) beyond (mpmath)
        res = annulus_lq_norm(twin_wave("x-2", 0.0, 0.0, 1.0),
                              NormSpec(q=1, delta=1.0, R=2.0, t=0.0))
        assert res.value_pow_q == pytest.approx(27.741946707957999811, rel=1e-9)

    @pytest.mark.parametrize("pid", ["ex_3_4_singular", "ex_3_10"])
    def test_annulus_crossing_a_singular_line_raises(self, pid):
        with pytest.raises(FieldError, match="angular quadrature did not converge"):
            annulus_lq_norm(preset(pid), NormSpec(q=2, delta=1.0, R=2.0, t=0.3))


class TestPlanarEnergy:
    def test_traveling_vortex_energy(self):
        # integral of r^2/(1+r^2)^4 over the plane = pi/6
        sol = preset("ex_3_2")
        res = l2_energy_difference(sol, (1.0, 1.0))
        assert res.value == pytest.approx(math.pi / 6.0, abs=1e-6)
        assert res.tail_bound <= 1e-6

    def test_constant_solution_zero_energy(self):
        sol = twin_wave("0", 2.0, 1.0, 1.0)
        # no envelope registered: honest "unknown" rather than a number
        res = l2_energy_difference(sol, (2.0, 1.0))
        assert res.value is None
        assert "unknown" in res.diagnosis

    def test_log_divergence_diagnosis(self):
        sol = preset("ex_2_5")
        res = l2_energy_difference(sol, (0.0, 0.0))
        assert res.value is None
        assert "log-divergent" in res.diagnosis

    def test_wrong_constant_is_not_decaying(self):
        sol = preset("ex_3_2")
        res = l2_energy_difference(sol, (5.0, -3.0))
        assert res.value is None
        assert "divergent or unknown" in res.diagnosis

    # recorded with scipy.integrate.quad behind the energy; repr must not move
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_ex_3_2_energy_is_pinned(self, t):
        res = l2_energy_difference(preset("ex_3_2"), (1.0, 1.0), t=t)
        assert (repr(res.value), repr(res.tail_bound)) == ("0.5235987755967281",
                                                           "1.5707963267948965e-12")

    @pytest.mark.parametrize("build, t, value", [
        (lambda: preset("ex_3_2", {"C": (0.5, -2.0)}), 0.7, "0.5235987755967281"),
        (lambda: apply_transform(preset("ex_3_2"), TransformSpec.rotation(0.7)), 0.4,
         "0.5235987755967281"),
        (lambda: apply_transform(preset("ex_3_2"), TransformSpec.rescale(2.0, 0.5)), 0.4,
         "33.51032163668265"),
        (lambda: apply_transform(preset("ex_3_2"), TransformSpec.rescale(0.3, 3.0)), 0.4,
         "0.0004712388980384574"),
    ], ids=["C", "rotated", "rescaled-up", "rescaled-down"])
    def test_transformed_energy_is_pinned(self, build, t, value):
        sol = build()
        assert repr(l2_energy_difference(sol, sol.boost_total, t=t).value) == value

    # ex_3_2 rescaled by (lam, tau = 1): |u - C| = amp s / (1 + s^2)^2 with s = r / lam
    # and amp = lam / tau, and its envelope only bounds the tail, so the value is
    # the integral over r < R_MAX, in closed form
    #   pi amp^2 lam^2 (1/6 - 1/(2 (1+U)^2) + 1/(3 (1+U)^3)),  U = (R_MAX / lam)^2.
    # For small lam qagse's first 21-point panel on (0, R_MAX) sees only the tail
    # of the narrow peak at r of order lam, and returns a wrong value without a
    # warning (at lam = 0.01, 1.2e-15 against 5.2e-9).
    @pytest.mark.parametrize("lam", [0.1, 0.3, 2.0, 30.0, 200.0] + [
        pytest.param(lam, marks=pytest.mark.xfail(
            strict=True, reason="qagse misses the narrow peak of a small rescale; "
                                "ROADMAP item 2 moves the energy onto catalog.quad"))
        for lam in (0.001, 0.01, 0.03)])
    def test_rescaled_energy_matches_the_closed_form(self, lam):
        sol = apply_transform(preset("ex_3_2"), TransformSpec.rescale(lam, 1.0))
        res = l2_energy_difference(sol, sol.boost_total)
        with mpmath.workdps(30):
            U = (mpmath.mpf(analysis.R_MAX) / lam) ** 2
            want = float(mpmath.pi * lam**4 * (mpmath.mpf(1) / 6 - 1 / (2 * (1 + U) ** 2)
                                                + 1 / (3 * (1 + U) ** 3)))
        assert res.value == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_rescaled_tail_bound(self):
        # rescale(2, 0.5) maps the envelope 1/r^3 to (lam/tau) lam^3 / r^3 = 32/r^3,
        # so the bound on the squared tail grows by 32^2
        sol = apply_transform(preset("ex_3_2"), TransformSpec.rescale(2.0, 0.5))
        res = l2_energy_difference(sol, sol.boost_total, t=0.4)
        assert res.tail_bound == pytest.approx(32.0**2 * 1.5707963267948965e-12, rel=1e-12)


def _ex_3_2_forms():
    base = preset("ex_3_2")
    rotated = apply_transform(base, TransformSpec.rotation(0.7))
    return {"ex_3_2": base, "rotated": rotated,
            "rescaled": apply_transform(base, TransformSpec.rescale(2.0, 0.5)),
            "rotated-rescaled": apply_transform(rotated, TransformSpec.rescale(0.3, 3.0))}


EX_3_2_FORMS = _ex_3_2_forms()


class TestEnergyIntegrand:
    """The energy evaluates the radial speed on a whole panel of radii and
    squares each value with Python's float ** 2 (libm pow): both must give
    what one scalar evaluation and float ** 2 gave."""

    @settings(max_examples=200, deadline=None)
    @given(form=st.sampled_from(sorted(EX_3_2_FORMS)),
           rs=st.lists(st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
                       min_size=1, max_size=42),
           t=st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.5]))
    def test_array_speed_equals_scalar_speed(self, form, rs, t):
        speed = EX_3_2_FORMS[form].radial_speed

        def outcome(r):
            try:
                return [float(v).hex() for v in np.atleast_1d(speed(r, t)).tolist()]
            except ExpressionError as e:
                return str(e)

        with np.errstate(all="ignore"):
            whole = outcome(np.array(rs))
            each = [outcome(r) for r in rs]
        if isinstance(whole, str):  # r * r underflowed: a point raised, as alone
            assert whole in each
        else:
            assert whole == [v for (v,) in each]

    def test_values_are_squared_with_pow(self, monkeypatch):
        captured = []

        def capture(func, a, b, **opts):
            captured.append(func)
            return 0.0, 0.0

        monkeypatch.setattr(analysis, "quad", capture)
        sol = preset("ex_3_2")
        l2_energy_difference(sol, (1.0, 1.0), t=0.3)
        speed = sol.radial_speed
        r = np.random.default_rng(0).uniform(0.0, 20.0, 20000)
        s = speed(r, 0.3).tolist()
        # radii where x * x (or numpy's ** 2) would move the integrand's last bit
        hits = [x for x, v in zip(r.tolist(), s)
                if 2.0 * math.pi * x * v ** 2 != 2.0 * math.pi * x * (v * v)]
        if not hits:
            pytest.skip("this libm's pow(x, 2) rounds like x * x on every sample")
        want = [2.0 * math.pi * x * float(speed(x, 0.3)) ** 2 for x in hits]
        assert list(captured[0](np.array(hits))) == want


class TestBlowupFit:
    def test_vortex_rate(self):
        fit = blowup_exponent_fit(preset("ex_2_6"))
        assert fit.exponent == pytest.approx(-1.0, abs=0.01)
        # the annulus sup norm is (1-tau)/tau, not a pure power law, so the
        # log-log fit carries an irreducible residual from the early times
        assert 0.05 <= fit.residual_rms <= 0.15

    @pytest.mark.parametrize("kind", ["sup", "lq"])
    def test_time_where_the_field_vanishes_is_left_out(self, kind):
        # ex_2_6 with T = 2: u = (1/(2 - t) - 1)(x2, -x1)/r^2 is 0 at t = 1,
        # the first sample time, and nowhere else
        fit = blowup_exponent_fit(preset("ex_2_6", overrides={"T": 2.0}), RateFit(kind=kind))
        times = [t for t, _ in fit.samples]
        assert times == [2.0 * (1.0 - 2.0 ** -k) for k in range(2, 49)]
        assert all(n > 0 for _, n in fit.samples)
        assert fit.exponent == pytest.approx(-1.00459, abs=5e-6)
        assert fit.residual_rms == pytest.approx(0.0996, abs=5e-5)

    @pytest.mark.parametrize("kind", ["sup", "lq"])
    def test_fewer_than_six_nonzero_norms_fail(self, kind):
        sol = preset("ex_2_6", overrides={"T": 2.0})
        with pytest.raises(FieldError, match="^rate fit needs 6 sample times with a nonzero "
                                             "norm, 5 remain$"):
            blowup_exponent_fit(sol, RateFit(kind=kind, K=6))
        assert len(blowup_exponent_fit(sol, RateFit(kind=kind, K=7)).samples) == 6

    def test_halfspace_boundary_rate(self):
        fit = blowup_exponent_fit(preset("ex_6_1"))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-10)
        assert fit.residual_rms <= 1e-3

    def test_boosted_halfspace_boundary_rate(self):
        # the boundary speed is the co-moving |w - C| = 3/sqrt(tau) under a boost
        sol = apply_transform(preset("ex_6_1"), TransformSpec.boost((1.0, 0.0, 0.0)))
        assert blowup_exponent_fit(sol).exponent == pytest.approx(-0.5, abs=1e-9)

    def test_linear_amplitude_rate(self):
        fit = blowup_exponent_fit(preset("ex_5_1_blowup"))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-10)
        assert fit.residual_rms <= 1e-3

    @pytest.mark.parametrize("pid, lam, tau, alpha", [
        ("ex_6_1", 1.0, 2.0, -0.5),
        ("ex_6_1", 2.0, 0.5, -0.5),
        ("ex_5_1_blowup", 2.0, 0.5, -1.0),
    ])
    def test_rescaled_rate(self, pid, lam, tau, alpha):
        fit = blowup_exponent_fit(apply_transform(preset(pid), TransformSpec.rescale(lam, tau)))
        assert fit.blowup_time == tau
        assert fit.exponent == pytest.approx(alpha, abs=1e-10)
        assert fit.residual_rms <= 1e-3

    def test_small_k_bias_of_impure_law(self):
        # frozen oracle value: with K = 10 the (1-tau) factor biases the
        # slope to about -1.079
        fit = blowup_exponent_fit(preset("ex_2_6"), RateFit(K=10))
        assert fit.exponent == pytest.approx(-1.0792502496, abs=1e-6)

    def test_global_solution_has_no_rate(self):
        with pytest.raises(FieldError, match="no blow-up time"):
            blowup_exponent_fit(preset("ex_3_2"))

    def test_lq_fit_matches_sup_rate(self):
        fit = blowup_exponent_fit(preset("ex_2_6"), RateFit(kind="lq", q=2.0, K=20))
        assert fit.exponent == pytest.approx(-1.0, abs=0.05)

    def test_k_bounds(self):
        with pytest.raises(FieldError):
            RateFit(K=5)
        with pytest.raises(FieldError):
            RateFit(K=51)


SUP_GRID_CASES = {
    "ex_2_6": lambda: preset("ex_2_6"),
    "ex_2_6_T2": lambda: preset("ex_2_6", overrides={"T": 2.0}),
    "rescaled": lambda: apply_transform(preset("ex_2_6"), TransformSpec.rescale(2.0, 0.5)),
    "boosted": lambda: apply_transform(preset("ex_2_6"), TransformSpec.boost((1.0, 2.0))),
    "rotated": lambda: apply_transform(preset("ex_2_6"), TransformSpec.rotation(0.7)),
    "transcendental": lambda: ij_vortex("exp(t) * cos(t) / (1 - t)",
                                        "atan(r) + sin(r) * exp(-r) + ln(1 + r^2)",
                                        blowup_time=1.0),
}


class TestSupFitGrid:
    """The sup fit evaluates its sample times in slices on one shared radial
    grid; every norm must equal the max over that grid at its time alone,
    a time whose norm is exactly 0 is left out, and the first time whose
    norm is not finite must fail."""

    @pytest.mark.parametrize("case", sorted(SUP_GRID_CASES))
    @pytest.mark.parametrize("K", [6, 13, 48, 50])
    @pytest.mark.parametrize("annulus", [(1.0, 2.0), (0.5, 3.0)])
    def test_samples_equal_single_time_max(self, case, K, annulus):
        sol = SUP_GRID_CASES[case]()
        speed, T = sol.radial_speed, sol.singular.blowup_time()
        r = np.linspace(annulus[0], annulus[1], 4001)
        want = []
        for t in (T * (1.0 - 2.0 ** -k) for k in range(1, K + 1)):
            norm = float(speed(r, t).max())
            if norm == 0.0:
                # with T = 2, c(1) = 1 cancels h = -1/r^2: u = 0 at the first time
                continue
            assert math.isfinite(norm) and norm > 0
            want.append((t.hex(), norm.hex()))
        if len(want) < 6:
            with pytest.raises(FieldError, match=f"nonzero norm, {len(want)} remain$"):
                blowup_exponent_fit(sol, RateFit(kind="sup", K=K, annulus=annulus))
            return
        fit = blowup_exponent_fit(sol, RateFit(kind="sup", K=K, annulus=annulus))
        assert [(t.hex(), n.hex()) for t, n in fit.samples] == want

    def test_zero_speed_at_the_first_time(self):
        # u vanishes everywhere at t = 0.5 only: that time is left out
        sol = ij_vortex("t - 0.5", "0", blowup_time=1.0)
        fit = blowup_exponent_fit(sol)
        assert [t for t, _ in fit.samples] == [1.0 - 2.0 ** -k for k in range(2, 49)]

    def test_earlier_non_finite_norm_wins_over_a_later_domain_error(self):
        # c is infinite at t = 0.75 and ln's argument negative at t = 0.875,
        # two sample times in the same slice; the earlier one is reported
        sol = ij_vortex("exp(1000*t) + ln(0.8 - t)", "0", blowup_time=1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ExpressionError, match="ln requires a positive argument"):
                sol.radial_speed(np.linspace(1.0, 2.0, 4001), 0.875)
            with pytest.raises(FieldError, match=r"^norm evaluation failed at t = 0\.75$"):
                blowup_exponent_fit(sol)


class TestAffineProbe:
    def test_constant_profiles_solve(self):
        res = affine_probe("3", "5", c1=0.0, c2=1.0)
        assert res.sup_residual <= 1e-10
        assert "solution" in res.verdict

    @pytest.mark.parametrize("v1,v2", AFFINE_PROFILES)
    def test_nonconstant_profiles_fail(self, v1, v2):
        res = affine_probe(v1, v2, c1=0.0, c2=1.0)
        assert res.sup_residual >= 0.05
        assert "nonsolution" in res.verdict

    def test_c2_zero_rejected(self):
        with pytest.raises(FieldError, match="c2"):
            affine_probe("x", "x", c1=0.0, c2=0.0)

    def test_jets_match_finite_differences(self):
        # The probe's verdict reads the residual of these jets, and a wrong
        # jet would still read "nonsolution"; the eta = a/b phase is the only
        # one with a Laplacian.  Measured maximum: 2.2e-9.
        sol = _affine_solution(parse("sin(x)", "x"), parse("1/(1+x^2)", "x"), 0.3, 1.0, {})
        X, T = _sample_arrays(_default_probe_region(), sol.singular, sol.exclusion_radius)
        assert _fd_panel(sol, X, T).max() <= 1e-7

    def test_grid_inside_singular_band_rejected(self):
        # every point of this region is within the exclusion band of x2 = c2 t
        grid = SampleRegion(box=((-0.5, 0.5), (-0.0005, 0.0005)), time=(0.0, 1e-4),
                            count=10, seed=0)
        with pytest.raises(FieldError):
            affine_probe("x", "x", c1=0.0, c2=1.0, grid=grid)


class TestTwinWaveFormCheck:
    def test_conforming_pair(self):
        res = twin_wave_form_check("1/(1+x^2)", "1/(1+x^2)", 1.0, 0.0, 1.0)
        assert res.sup_residual <= 1e-8
        assert "conforming" in res.verdict

    def test_nonconforming_pair(self):
        res = twin_wave_form_check("1/(1+x^2)", "1/(1+x^4)", 1.0, 0.0, 1.0)
        assert res.sup_residual >= 0.01
        assert "nonconforming" in res.verdict

    def test_constant_offset_absorbed(self):
        res = twin_wave_form_check("x", "2*x + 1", 0.0, 0.0, 2.0)
        assert res.sup_residual <= 1e-8

    def test_scaled_conforming_pair(self):
        res = twin_wave_form_check("1/(1+x^2)^2", "3/(1+x^2)^2", 0.5, 0.2, 3.0)
        assert res.sup_residual <= 1e-8

    def test_offset_from_the_next_reference_phase(self, monkeypatch):
        # 1/x divides by zero at xi = 0, so the offset 2 is read at xi = 1; the
        # grid keeps xi = x1 - x2 + 2 t in (2, 5), away from the pole
        seeds = []
        eval_jet = analysis.eval_jet

        def recorded(ast, seed, params=None):
            seeds.append(seed.value)
            return eval_jet(ast, seed, params)

        monkeypatch.setattr(analysis, "eval_jet", recorded)
        grid = SampleRegion(box=((3.0, 4.0), (0.0, 1.0)), time=(0.0, 0.5), count=2000, seed=0)
        res = twin_wave_form_check("1/x + x", "1/x + x + 2", 0.0, 0.0, 1.0, grid=grid)
        assert seeds == [0.0, 1.0, 1.0]
        assert res.sup_residual <= 1e-8
        assert res.verdict == "conforming traveling-wave pair (solution)"

    def test_no_reference_phase_evaluates(self):
        # a pole at each of the five reference phases 0, 1, -1, 0.5 and 2
        v = "1/(x*(x-1)*(x+1)*(x-0.5)*(x-2))"
        with pytest.raises(FieldError, match="^could not evaluate the profiles at any "
                                             "reference phase$"):
            twin_wave_form_check(v, v, 1.0, 0.0, 1.0)

    def test_non_numeric_parameter_is_not_reported_as_unevaluable(self):
        # Only evaluation failures (domain errors, overflow) skip a probe phase;
        # a bad parameter value is a caller error and must surface as itself.
        with pytest.raises(TypeError):
            twin_wave_form_check("a*x", "a*x", 0.0, 1.0, 1.0, params={"a": None})


# Radially structured solutions for the radial path, each with the subtract
# that selects it: presets, the boosted ex_3_2 in its co-moving frame, and a
# rescaled vortex (whose radial speed goes through the rescale wrapper).
def _rescaled_vortex():
    return apply_transform(preset("ex_2_6"), TransformSpec.rescale(1.5, 0.8))


RADIAL_CASES = {
    "ex_2_5": (lambda: preset("ex_2_5"), None),
    "ex_2_6": (lambda: preset("ex_2_6"), None),
    "ex_3_2-boost": (lambda: preset("ex_3_2"), (1.0, 1.0)),
    "rescaled-ex_2_6": (_rescaled_vortex, None),
}


def _scipy_radial_reference(sol, subtract, q, delta, R, t):
    """2 pi r |u - subtract|^q integrated by scipy's adaptive quadrature, with
    the speed taken from the velocity on the ray from the moving centre."""
    from scipy.integrate import quad as scipy_quad

    C = np.zeros(2) if subtract is None else np.asarray(subtract)

    def integrand(r):
        X = np.array([[C[0] * t + r, C[1] * t]])
        u = sol.velocity(X, np.array([t]))[0] - C
        return 2.0 * math.pi * r * math.hypot(u[0], u[1]) ** q

    return scipy_quad(integrand, delta, R, epsrel=1e-13, epsabs=0.0, limit=200)[0]


@pytest.fixture
def bisected(monkeypatch):
    """The number of rows of each call to ``catalog._bisect``."""
    calls = []
    bisect = catalog._bisect

    def counted(func, rows, *args):
        calls.append(len(rows))
        return bisect(func, rows, *args)

    monkeypatch.setattr(catalog, "_bisect", counted)
    return calls


class TestRadialPath:
    @pytest.mark.parametrize("case", sorted(RADIAL_CASES))
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.0, 0.35, 0.7])
    def test_matches_scipy_reference(self, case, q, t):
        build, subtract = RADIAL_CASES[case]
        sol = build()
        res = annulus_lq_norm(sol, NormSpec(q=q, delta=0.5, R=3.0, t=t, subtract=subtract))
        assert res.provenance.startswith("radial quadrature")
        want = _scipy_radial_reference(sol, subtract, q, 0.5, 3.0, t)
        assert abs(res.value_pow_q - want) <= 1e-12 * abs(want), (res.value_pow_q, want)

    @pytest.mark.parametrize("K", [48, 20])
    def test_lq_fit_rows_equal_single_time_norms(self, K):
        sol = preset("ex_2_6")
        fit = blowup_exponent_fit(sol, RateFit(kind="lq", K=K))
        assert len(fit.samples) == K
        for t, nrm in fit.samples:
            one = annulus_lq_norm(sol, NormSpec(q=2.0, delta=1.0, R=2.0, t=t)).value
            assert one.hex() == nrm.hex(), t

    def test_lq_fit_is_one_batched_quadrature(self, monkeypatch):
        calls = []
        quad = catalog.quad

        def counted(func, a, b, **kw):
            calls.append(len(np.ravel(a)))
            return quad(func, a, b, **kw)

        monkeypatch.setattr(catalog, "quad", counted)
        blowup_exponent_fit(preset("ex_2_6"), RateFit(kind="lq", K=48))
        assert calls == [48]

    def test_kink_is_resolved_by_bisection(self, bisected):
        # g = -0.5/r^2 + 1/(1+r^2) changes sign at r = 1, so |u| = |g| r has a
        # kink there; at q = 1 the graded rule alone does not settle within
        # QUAD_MAX_PANELS panels.
        sol = ij_vortex("1", "-1.5/r^2 + 1/(1+r^2)")
        res = annulus_lq_norm(sol, NormSpec(q=1.0, delta=0.3, R=5.0, t=0.3))
        assert bisected == [1]
        with mpmath.workdps(40):
            want = float(mpmath.quad(
                lambda r: 2 * mpmath.pi * r * r * abs(-0.5 / r**2 + 1 / (1 + r**2)),
                [mpmath.mpf("0.3"), 1, 5]))
        assert abs(res.value_pow_q - want) <= 1e-10 * want, (res.value_pow_q, want)

    def test_bisected_row_value_independent_of_the_batch(self, bisected):
        # g = (t - 1.5)/r^2 + 1/(1+r^2) vanishes at r^2 = (1.5 - t)/(t - 0.5):
        # inside (0.3, 5) for t = 0.8, 1.0, 1.1, nowhere for t = 0.3 and 2.
        sol = ij_vortex("t", "-1.5/r^2 + 1/(1+r^2)")
        spec = NormSpec(q=1.0, delta=0.3, R=5.0, t=0.0)
        times = [0.3, 0.8, 1.0, 1.1, 2.0]
        batch = _radial_norms(sol, sol.radial_speed, spec, times)
        assert bisected == [3]
        for t, res in zip(times, batch):
            one = annulus_lq_norm(sol, dataclasses.replace(spec, t=t))
            assert one.value_pow_q.hex() == res.value_pow_q.hex(), t
            assert one == res


def _boosted(pid, C):
    return apply_transform(preset(pid), TransformSpec.boost(C))


# norm^q of each case as float.hex(), recorded before quad evaluated its two
# opening rounds in one integrand call and before the polar ring kernel built
# its points in place; the polar cases include a twin wave with a kink, whose
# rings reach catalog._bisect, and fields with and without ``subtract``.
# "polar ex_3_4_smooth" was re-recorded when the ring kernel moved from hypot
# to the squared speed: one ulp down from 0x1.e167d2751145bp+2, where mpmath
# gives 7.5219617980229385442 (old 0.03 ulp off, new 1.03 ulp).
PINNED_NORMS = {
    "polar ex_3_4_smooth": (lambda: preset("ex_3_4_smooth"),
                            NormSpec(q=2.0, delta=1.0, R=2.0, t=0.37), "0x1.e167d2751145ap+2"),
    "polar ex_3_4_smooth subtract": (
        lambda: preset("ex_3_4_smooth"),
        NormSpec(q=3.0, delta=0.5, R=2.5, t=0.8, subtract=(0.0, -1.0)), "0x1.c74d574c15bb2p+2"),
    "polar ex_3_10": (lambda: preset("ex_3_10"),
                      NormSpec(q=2.0, delta=0.2, R=0.6, t=0.0), "0x1.e45849d6bf042p+5"),
    "polar kinked wave q1": (lambda: twin_wave("x-1.5", 0.0, 0.0, 1.0),
                             NormSpec(q=1.0, delta=1.1, R=1.5, t=0.0), "0x1.d8cd10064f6d7p+2"),
    "polar kinked wave q1.5": (lambda: twin_wave("x-1.5", 0.0, 0.0, 1.0),
                               NormSpec(q=1.5, delta=0.5, R=2.0, t=0.0), "0x1.a55234a48d91ap+5"),
    "polar kinked wave subtract": (
        lambda: twin_wave("x-1.5", 0.0, 0.0, 1.0),
        NormSpec(q=1.5, delta=0.5, R=2.0, t=0.0, subtract=(0.25, -0.5)), "0x1.9aeeb2428a40ep+5"),
    "polar boosted ex_2_5": (lambda: _boosted("ex_2_5", (1.0, 0.5)),
                             NormSpec(q=2.0, delta=1.0, R=2.0, t=0.3), "0x1.c1c103a3f5539p+3"),
    "polar boosted ex_2_5 subtract": (
        lambda: _boosted("ex_2_5", (1.0, 0.5)),
        NormSpec(q=2.0, delta=1.0, R=2.0, t=0.3, subtract=(0.5, 0.25)), "0x1.4e05705fecb08p+2"),
    "radial ex_2_5": (lambda: preset("ex_2_5"),
                      NormSpec(q=2.0, delta=1.0, R=math.e, t=0.21), "0x1.f5ee561f6466ap+1"),
    "radial ex_2_5 exterior": (lambda: preset("ex_2_5"),
                               NormSpec(q=3.0, delta=1.0, R=math.inf, t=0.13),
                               "0x1.08ccbd97c53afp+2"),
    "radial ex_3_2 exterior": (lambda: preset("ex_3_2"),
                               NormSpec(q=2.0, delta=1.0, R=math.inf, t=0.4, subtract=(1.0, 1.0)),
                               "0x1.0c152382d04dcp-2"),
    "radial boosted ex_2_5": (lambda: _boosted("ex_2_5", (1.0, 0.5)),
                              NormSpec(q=2.0, delta=1.0, R=2.0, t=0.3, subtract=(1.0, 0.5)),
                              "0x1.112809c69e52ep+1"),
    "radial kink": (lambda: ij_vortex("1", "-1.5/r^2 + 1/(1+r^2)"),
                    NormSpec(q=1.0, delta=0.3, R=5.0, t=0.3), "0x1.38d70d92c5e37p+3"),
}

# lq fits: the exponent's hex and the first 16 hex digits of the sha256 of
# the samples' hex values, joined by spaces
PINNED_FITS = {
    "ex_2_6": (lambda: preset("ex_2_6"), RateFit(kind="lq", K=48),
               "-0x1.0120a958a63e1p+0", "1120dba088088fb5"),
    "ex_2_6 q3": (lambda: preset("ex_2_6"), RateFit(kind="lq", K=20, q=3.0, annulus=(0.5, 3.0)),
                  "-0x1.05f667f0e3d13p+0", "d02ad8870e1079e6"),
    "rescaled ex_2_6": (lambda: apply_transform(preset("ex_2_6"), TransformSpec.rescale(1.5, 0.8)),
                        RateFit(kind="lq", K=12), "-0x1.0ee6a0da7b573p+0", "34ba7b2e806a0bb5"),
}


class TestPinnedBits:
    @pytest.mark.parametrize("name", sorted(PINNED_NORMS))
    def test_norm_is_unchanged(self, name, bisected):
        build, spec, want = PINNED_NORMS[name]
        res = annulus_lq_norm(build(), spec)
        assert res.provenance.startswith(name.split()[0])
        assert res.value_pow_q.hex() == want
        if "kink" in name and "subtract" not in name:
            assert bisected

    @pytest.mark.parametrize("name", sorted(PINNED_FITS))
    def test_lq_fit_is_unchanged(self, name):
        build, fit, exponent, digest = PINNED_FITS[name]
        res = blowup_exponent_fit(build(), fit)
        samples = " ".join(n.hex() for _, n in res.samples).encode()
        assert (res.exponent.hex(), hashlib.sha256(samples).hexdigest()[:16]) == (exponent, digest)


class TestZeroField:
    """ex_2_5 at t = 1 and ex_2_6 at t = 0 have u = 0 everywhere, and the
    envelope's kappa is exactly 0: zero energy and norms, not a divergence."""

    @pytest.mark.parametrize("pid, t", [("ex_2_5", 1.0), ("ex_2_6", 0.0)])
    def test_planar_energy_is_zero(self, pid, t):
        res = l2_energy_difference(preset(pid), (0.0, 0.0), t=t)
        assert (res.value, res.tail_bound, res.diagnosis) == (0.0, 0.0, None)

    @pytest.mark.parametrize("pid, t", [("ex_2_5", 1.0), ("ex_2_6", 0.0)])
    def test_improper_norm_is_zero(self, pid, t):
        res = annulus_lq_norm(preset(pid), NormSpec(q=2, delta=1.0, R=math.inf, t=t))
        assert (res.value, res.value_pow_q, res.tail_bound) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("t", [0.0, 0.999, 1.001])
    def test_other_times_stay_log_divergent(self, t):
        res = l2_energy_difference(preset("ex_2_5"), (0.0, 0.0), t=t)
        assert res.value is None and res.diagnosis.startswith("log-divergent")


class TestImproperNorms:
    def test_ex_3_2_exterior_norm_has_a_bounded_tail(self):
        # |u - C| = r/(1+r^2)^2 about C t; pi times the integral of s/(1+s)^4
        # over s > 1 is pi/12, and the r^-3 envelope bounds the tail past R_MAX
        sol = preset("ex_3_2")
        res = annulus_lq_norm(sol, NormSpec(q=2, delta=1.0, R=math.inf, t=0.4,
                                            subtract=sol.boost_total))
        assert 0.0 < res.tail_bound <= 2.0 * math.pi / (4.0 * analysis.R_MAX**4)
        assert "tail bounded" in res.provenance
        assert abs(res.value_pow_q - math.pi / 12.0) <= res.tail_bound + 1e-12

    @pytest.mark.parametrize("build, spec, message", [
        (lambda: ij_vortex("1", "-1/r^2 + 1/(1+r^2)^2"),
         NormSpec(q=2, delta=1.0, R=math.inf, t=0.0),
         "improper norm needs a registered decay envelope"),
        (lambda: preset("ex_2_5"), NormSpec(q=2, delta=1.0, R=math.inf, t=0.0),
         "L\\^2 norm diverges: envelope decay r\\^-1 is not integrable"),
        (lambda: preset("ex_5_1_const"), NormSpec(q=2, delta=1.0, R=2.0, t=0.0),
         "annulus norms are implemented for 2D solutions"),
        (lambda: preset("ex_3_4_smooth"), NormSpec(q=2, delta=1.0, R=math.inf, t=0.0),
         "improper norm needs a radially structured solution"),
    ], ids=["no envelope", "not integrable", "3D", "improper polar"])
    def test_raises_its_stated_error(self, build, spec, message):
        with pytest.raises(FieldError, match=message):
            annulus_lq_norm(build(), spec)


class TestLqFitOfABoostedVortex:
    @pytest.mark.parametrize("kind", ["lq", "sup"])
    def test_boosted_vortex_fits_the_co_moving_speed(self, kind):
        # both fits measure |u - C| about the moving centre C t, which a boost
        # leaves as it was: the boosted fit is the unboosted one bit for bit
        base = preset("ex_2_6")
        sol = apply_transform(base, TransformSpec.boost((1.0, 0.0)))
        fit = blowup_exponent_fit(sol, RateFit(kind=kind, K=12))
        want = blowup_exponent_fit(base, RateFit(kind=kind, K=12))
        assert fit == want
        assert round(fit.exponent, 4) == -1.0582

    def test_boosted_vortex_lq_fit_is_one_batched_quadrature(self, monkeypatch):
        calls = []
        quad = catalog.quad

        def counted(func, a, b, **kw):
            calls.append(len(np.ravel(a)))
            return quad(func, a, b, **kw)

        monkeypatch.setattr(catalog, "quad", counted)
        sol = apply_transform(preset("ex_2_6"), TransformSpec.boost((1.0, 0.0)))
        blowup_exponent_fit(sol, RateFit(kind="lq", K=12))
        assert calls == [12]


class TestLqFitWithoutTheRadialPath:
    def test_three_dimensional_pair_has_no_lq_fit(self):
        with pytest.raises(FieldError, match="^lq rate fit needs a radially structured "
                                             "solution$"):
            blowup_exponent_fit(preset("ex_5_1_blowup"), RateFit(kind="lq", K=6))

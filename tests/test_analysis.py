import math

import numpy as np
import pytest

from eulercert.analysis import (
    NormSpec,
    RateFit,
    affine_probe,
    annulus_lq_norm,
    blowup_exponent_fit,
    l2_energy_difference,
    twin_wave_form_check,
)
from eulercert.catalog import preset, twin_wave
from eulercert.fields import FieldError
from eulercert.verification import SampleRegion

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
        sub = tuple(sol.metadata.get("boost_total", (0.0, 0.0)))
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


class TestBlowupFit:
    def test_vortex_rate(self):
        fit = blowup_exponent_fit(preset("ex_2_6"))
        assert fit.exponent == pytest.approx(-1.0, abs=0.01)
        # the annulus sup norm is (1-tau)/tau, not a pure power law, so the
        # log-log fit carries an irreducible residual from the early times
        assert 0.05 <= fit.residual_rms <= 0.15

    def test_halfspace_boundary_rate(self):
        fit = blowup_exponent_fit(preset("ex_6_1"))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-10)
        assert fit.residual_rms <= 1e-3

    def test_linear_amplitude_rate(self):
        fit = blowup_exponent_fit(preset("ex_5_1_blowup"))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-10)
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

    def test_non_numeric_parameter_is_not_reported_as_unevaluable(self):
        # Only evaluation failures (domain errors, overflow) skip a probe phase;
        # a bad parameter value is a caller error and must surface as itself.
        with pytest.raises(TypeError):
            twin_wave_form_check("a*x", "a*x", 0.0, 1.0, 1.0, params={"a": None})

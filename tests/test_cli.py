import contextlib
import copy
import dataclasses
import functools
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercert.cli import (
    SPEC_SCHEMA,
    SpecError,
    _best_error,
    build_solution,
    main,
    solution_spec_for_preset,
    validate_spec,
)
from eulercert import catalog, cli
from eulercert.catalog import preset, preset_ids
from eulercert.verification import Tolerances, certify, default_region


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_table_has_nine_presets(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        for pid in ("ex_2_5", "ex_6_1", "ex_3_10"):
            assert pid in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["presets"]) == 9
        assert doc["presets"][0]["id"] == "ex_2_5"

    def test_unknown_format_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["list", "--format", "xml"])
        assert exc.value.code == 2


class TestCertify:
    def test_preset_passes(self, capsys):
        code, out, _ = run(capsys, "certify", "ex_3_2", "--samples", "2000",
                           "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["max_residual"] <= 1e-8

    def test_wrong_pressure_sign_fails(self, capsys):
        code, out, _ = run(capsys, "certify", "ex_6_1", "--pressure-sign", "-1",
                           "--samples", "1000")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        assert doc["max_residual"] >= 0.1
        assert doc["notes"]["pressure_sign"] == -1

    def test_pressure_sign_on_a_preset_without_one_is_input_error(self, capsys):
        code, out, err = run(capsys, "certify", "ex_2_5", "--pressure-sign", "-1",
                             "--samples", "100")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'pressure_sign'" in err

    def test_preset_spec_with_unread_param_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "preset.json"
        p.write_text(json.dumps({"family": "preset", "preset": "ex_2_5",
                                 "params": {"sigma": 2.0}}))
        code, out, err = run(capsys, "certify", str(p), "--samples", "100")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'sigma'" in err

    def test_missing_spec_file(self, capsys):
        code, _, err = run(capsys, "certify", "missing.json")
        assert code == 2
        assert "error" in err

    def test_spec_file_with_unknown_key(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"family": "twin_wave", "bogus": 1,
                                 "params": {"v": "0"}}))
        code, _, err = run(capsys, "certify", str(p))
        assert code == 2
        assert "bogus" in err

    def test_spec_file_with_bad_expression_reports_position(self, tmp_path, capsys):
        p = tmp_path / "bad_expr.json"
        p.write_text(json.dumps({"family": "ij_vortex",
                                 "params": {"c": "1/(", "h": "-1/r^2"}}))
        code, _, err = run(capsys, "certify", str(p))
        assert code == 2
        assert "position 3" in err

    def test_spec_file_roundtrip_runs(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "family": "twin_wave",
            "params": {"v": "1/(1+x^2)^2 - c1", "c1": 1.0, "c2": 0.0, "c3": 1.0,
                       "values": {"c1": 1.0}},
            "transforms": [{"kind": "boost", "velocity": [0.5, 0.5]}],
        }
        p = tmp_path / "wave.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "certify", str(p), "--samples", "500")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_profile_too_deep_to_evaluate_is_input_error(self, tmp_path, capsys):
        # a long sum parses in a loop, but it is a tree as deep as it has terms
        p = tmp_path / "long.json"
        p.write_text(json.dumps({"format_version": 1, "family": "twin_wave",
                                 "params": {"v": "+".join(["x"] * 990)}}))
        code, out, err = run(capsys, "certify", str(p), "--samples", "100")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "990 levels deep" in err


class TestCertifyTolerances:
    def test_no_flag_gives_the_default_tolerances(self, capsys):
        code, out, _ = run(capsys, "certify", "ex_3_10", "--samples", "200")
        assert code == 0
        assert json.loads(out)["tolerances"] == dataclasses.asdict(Tolerances())

    def test_one_flag_changes_only_its_tolerance(self, capsys):
        code, out, _ = run(capsys, "certify", "ex_3_10", "--samples", "200", "--tol-fd", "1e-3")
        assert code == 0
        assert json.loads(out)["tolerances"] == dataclasses.asdict(Tolerances(fd=1e-3))
        assert Tolerances().fd != 1e-3

    def test_interval_past_the_blowup_time_is_input_error(self, capsys):
        code, out, err = run(capsys, "certify", "ex_2_6", "--until", "2")
        assert (code, out) == (2, "")
        assert err == "error: time interval must end strictly below the blow-up time 1.0\n"


class TestNorm:
    def test_annulus_energy(self, capsys):
        code, out, _ = run(capsys, "norm", "ex_2_5", "--q", "2", "--delta", "1",
                           "--R", "2.718281828459045", "--t", "0")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value_pow_q"] - 2 * math.pi) <= 1e-6

    def test_planar_energy_with_boost_subtraction(self, capsys):
        code, out, _ = run(capsys, "norm", "ex_3_2", "--q", "2", "--subtract-boost")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - math.pi / 6) <= 1e-6

    def test_zero_delta_is_usage_error(self, capsys):
        code, _, err = run(capsys, "norm", "ex_2_5", "--q", "2", "--delta", "0",
                           "--R", "2.0")
        assert code == 2
        assert "delta" in err

    def test_polar_norm_of_twin_wave(self, capsys):
        code, out, _ = run(capsys, "norm", "ex_3_4_smooth", "--delta", "1", "--R", "2",
                           "--t", "0.3")
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"].startswith("polar")
        assert doc["value_pow_q"] == pytest.approx(7.526412809725809, rel=1e-10)

    def test_polar_norm_with_a_vanishing_speed(self, capsys, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"format_version": 1, "family": "twin_wave",
                                 "params": {"v": "x", "c1": 0, "c2": 0, "c3": 1}}))
        code, out, _ = run(capsys, "norm", str(p), "--q", "1", "--delta", "1", "--R", "2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(56.0 / 3.0, rel=1e-9)

    def test_polar_norm_open_after_the_last_bisection_round_is_an_error(self, capsys, tmp_path):
        # the kink of |x1 - x2 - 1.5| keeps a radial panel open through every
        # bisection round; that raised IndexError, a traceback
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"format_version": 1, "family": "twin_wave",
                                 "params": {"v": "(x - 1.5)"}}))
        code, out, err = run(capsys, "norm", str(p), "--q", "1", "--delta", "0.5", "--R", "2")
        assert (code, out) == (2, "")
        assert err == ("error: radial quadrature did not converge: "
                       "panels of width 8.5e-14 are still open\n")

    def test_non_finite_norm_is_an_error(self, capsys, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"format_version": 1, "family": "twin_wave",
                                 "params": {"v": "exp(1000*x)", "c1": 0, "c2": 0, "c3": 1}}))
        code, out, err = run(capsys, "norm", str(p), "--delta", "1", "--R", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not finite" in err

    def test_norm_whose_squared_speed_overflows_is_an_error(self, capsys, tmp_path):
        # |u| is about 1e200 on the annulus: |u|^2 overflows, so even q = 1 is not finite
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"format_version": 1, "family": "twin_wave",
                                 "params": {"v": "1e200/(1+x^2)", "c1": 0, "c2": 0, "c3": 1}}))
        code, out, err = run(capsys, "norm", str(p), "--q", "1", "--delta", "1", "--R", "2")
        assert (code, out) == (2, "")
        assert err == ("error: the norm is not finite: the speed overflows or is undefined "
                       "on the annulus\n")

    @pytest.mark.parametrize("pid, lam, argv", [
        ("ex_2_5", 1e100, ["--q", "4", "--delta", "1", "--R", "1e6"]),
        ("ex_3_2", 1e50, ["--subtract-boost"]),  # the whole-plane energy
    ], ids=["annulus", "energy"])
    def test_tail_bound_that_overflows_is_an_error(self, capsys, tmp_path, pid, lam, argv):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"format_version": 1, "family": "preset", "preset": pid,
                                 "transforms": [{"kind": "rescale", "lam": lam, "tau": 1.0}]}))
        code, out, err = run(capsys, "norm", str(p), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: tail bound ") and "not representable" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_annulus_crossing_a_singular_line_is_input_error(self, capsys):
        code, out, err = run(capsys, "norm", "ex_3_4_singular", "--delta", "1", "--R", "2",
                             "--t", "0.3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "did not converge" in err


class TestBlowup:
    def test_vortex_exponent(self, capsys):
        code, out, _ = run(capsys, "blowup", "ex_2_6", "--norm", "sup")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["alpha"] + 1.0) <= 0.01

    def test_halfspace_exponent(self, capsys):
        code, out, _ = run(capsys, "blowup", "ex_6_1", "--norm", "sup", "--K", "10")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["alpha"] + 0.5) <= 0.01
        assert doc["regression_residual_rms"] <= 1e-3

    @pytest.mark.parametrize("tau", [2, 3])
    def test_rescaled_halfspace_exponent(self, tmp_path, capsys, tau):
        # the boundary speed must move with the rescale: read at the base
        # blow-up time it divided by zero (tau = 2) or took the root of a
        # negative number (tau = 3)
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"format_version": 1, "family": "preset", "preset": "ex_6_1",
                                 "transforms": [{"kind": "rescale", "lam": 1, "tau": tau}]}))
        code, out, _ = run(capsys, "blowup", str(p), "--norm", "sup")
        assert code == 0
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["blowup_time"] == tau
        assert doc["alpha"] == pytest.approx(-0.5, abs=1e-10)

    def test_vanishing_time_is_left_out_of_the_samples(self, tmp_path, capsys):
        # ex_2_6 with T = 2 vanishes at t = 1: K stays as asked, the samples
        # show the times that were fitted
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"family": "preset", "preset": "ex_2_6", "params": {"T": 2.0}}))
        code, out, _ = run(capsys, "blowup", str(p), "--K", "8")
        assert code == 0
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["K"] == 8
        assert [t for t, _ in doc["samples"]] == [2.0 * (1.0 - 2.0 ** -k) for k in range(2, 9)]

    def test_global_solution_reports_no_blowup(self, capsys):
        code, out, _ = run(capsys, "blowup", "ex_3_2")
        assert code == 1
        assert "no blow-up time in singular set" in json.loads(out)["error"]


class TestProbe:
    def test_affine_nonconstant(self, capsys):
        code, out, _ = run(capsys, "probe", "--mode", "affine", "--v1", "x",
                           "--v2", "x", "--c1", "0", "--c2", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["sup_residual"] >= 0.05
        assert "nonsolution" in doc["verdict"]

    def test_affine_constant(self, capsys):
        code, out, _ = run(capsys, "probe", "--mode", "affine", "--v1", "3",
                           "--v2", "5", "--c2", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["sup_residual"] <= 1e-10
        assert "solution" in doc["verdict"]

    def test_twinwave_conforming(self, capsys):
        code, out, _ = run(capsys, "probe", "--mode", "twinwave", "--u1",
                           "1/(1+x^2)", "--u2", "1/(1+x^2)", "--c3", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["sup_residual"] <= 1e-8

    def test_missing_profile_is_input_error(self, capsys):
        code, _, err = run(capsys, "probe", "--mode", "affine", "--v1", "x")
        assert code == 2
        assert "v2" in err

    def test_profile_too_deep_to_evaluate_is_input_error(self, capsys):
        code, out, err = run(capsys, "probe", "--mode", "twinwave",
                             "--u1", "+".join(["x"] * 1100), "--u2", "x")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "1100 levels deep" in err


BAD_GRID_REGIONS = [
    (("ex_2_6", "--until", "nan"), "time interval must be non-degenerate"),
    (("ex_2_6", "--until", "1.5"), "blow-up time"),
    (("ex_2_6", "--until", "1"), "blow-up time"),
    (("ex_3_2", "--box", "0", "nan", "0", "1"), "box must be non-degenerate"),
    (("ex_3_2", "--box", "1", "0", "0", "1"), "box must be non-degenerate"),
    (("ex_3_2", "--box", "0", "inf", "0", "1"), "box must be finite"),
]


class TestGridDump:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run(capsys, "grid-dump", "ex_3_2", "--box", "-3", "3",
                           "-3", "3", "--nx", "16", "--nt", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# format_version=1"
        assert lines[1] == "x1,x2,t,u1,u2,residual,divergence"
        assert len(lines) == 2 + 16 * 16 * 3

    def test_na_rows_inside_exclusion(self, capsys):
        # ex_2_6 excludes a neighbourhood of the origin; grid points inside
        # still appear but with the residual marked NA
        code, out, _ = run(capsys, "grid-dump", "ex_2_6", "--box", "-1", "1",
                           "-1", "1", "--nx", "9", "--nt", "2")
        assert code == 0
        rows = out.strip().split("\n")[2:]
        na_rows = [r for r in rows if ",NA" in r]
        assert na_rows
        for r in na_rows:
            assert r.split(",")[-2] == "NA"  # residual column

    def test_reruns_byte_identical(self, capsys):
        _, a, _ = run(capsys, "grid-dump", "ex_3_4_smooth", "--nx", "8", "--nt", "2")
        _, b, _ = run(capsys, "grid-dump", "ex_3_4_smooth", "--nx", "8", "--nt", "2")
        assert a == b

    @pytest.mark.parametrize("flag, value", [("--nx", "-1"), ("--nt", "-2"), ("--nx", "0")])
    def test_grid_size_below_one_is_input_error(self, capsys, flag, value):
        code, out, err = run(capsys, "grid-dump", "ex_3_2", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", BAD_GRID_REGIONS,
                             ids=[" ".join(argv) for argv, _ in BAD_GRID_REGIONS])
    def test_invalid_region_is_input_error(self, capsys, argv, message):
        code, out, err = run(capsys, "grid-dump", *argv, "--nx", "2", "--nt", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_grid_numpy_cannot_allocate_is_input_error(self, capsys):
        # numpy refuses the 745 GiB time axis at once, without touching memory
        code, out, err = run(capsys, "grid-dump", "ex_3_2", "--nx", "2", "--nt", "100000000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_box_whose_width_overflows_is_input_error(self, capsys):
        # -1e308 written out in decimal: argparse takes "-1e308" for an option
        code, out, err = run(capsys, "grid-dump", "ex_2_6", "--box", "-1" + "0" * 308, "1e308",
                             "-1", "1", "--nx", "3", "--nt", "2")
        assert (code, out) == (2, "")
        assert err == "error: box width must be finite, got (-1e+308, 1e+308)\n"

    def test_dump_below_blowup_time_still_runs(self, capsys):
        code, out, _ = run(capsys, "grid-dump", "ex_2_6", "--until", "0.99", "--nx", "2",
                           "--nt", "2")
        assert code == 0
        assert out.strip().split("\n")[-1].split(",")[2] == "0.98999999999999999"

    def test_dump_spans_the_certify_time_interval(self, tmp_path, capsys):
        doc = {"family": "preset", "preset": "ex_3_10", "overrides": {"time": [0.5, 1.0]}}
        p = tmp_path / "late.json"
        p.write_text(json.dumps(doc))
        assert default_region(build_solution(doc)).time == (0.5, 1.0)
        code, out, _ = run(capsys, "grid-dump", str(p), "--nx", "2", "--nt", "3")
        assert code == 0
        times = [row.split(",")[2] for row in out.strip().split("\n")[2:]]
        assert times == ["0.5"] * 4 + ["0.75"] * 4 + ["1"] * 4


class TestGridDumpInadmissiblePoints:
    def _count_velocity_calls(self, monkeypatch, capsys, *argv):
        import eulercert.cli as cli

        calls = []
        resolve = cli._resolve

        def counted(spec):
            sol = resolve(spec)
            velocity = sol.velocity

            def traced(X, T):
                calls.append(len(X))
                return velocity(X, T)

            return dataclasses.replace(sol, velocity=traced)

        monkeypatch.setattr(cli, "_resolve", counted)
        code, out, _ = run(capsys, "grid-dump", *argv)
        assert code == 0
        return calls, out

    def test_one_velocity_call_over_the_inadmissible_points(self, monkeypatch, capsys):
        # ex_6_1 excludes the half-space s > 0: half of every time slice
        calls, out = self._count_velocity_calls(monkeypatch, capsys, "ex_6_1", "--nx", "6",
                                                "--nt", "2")
        assert len(calls) == 4 and sum(calls) == 2 * 6**3
        assert ",NA," in out

    def test_points_where_the_batch_raises_go_one_by_one(self, monkeypatch, capsys):
        # the vortex raises at r = 0, a grid point, so that slice falls back
        calls, out = self._count_velocity_calls(monkeypatch, capsys, "ex_2_6", "--box", "-1",
                                                "1", "-1", "1", "--nx", "9", "--nt", "2")
        bad = [n for n in calls if n == 1]
        assert len(bad) > 1
        assert out.count("\n") == 2 + 81 * 2


class TestSchemaRoundTrip:
    @pytest.mark.parametrize("pid", preset_ids())
    def test_preset_exports_and_reimports_identically(self, pid):
        doc = solution_spec_for_preset(pid)
        validate_spec(doc)
        rebuilt = build_solution(doc)
        original = preset(pid)
        ra = certify(original, default_region(original, count=400, seed=3)).to_dict()
        rb = certify(rebuilt, default_region(rebuilt, count=400, seed=3)).to_dict()
        assert json.dumps(ra) == json.dumps(rb)

    @pytest.mark.parametrize("family", catalog.FAMILIES)
    def test_constructor_parameters_are_spec_keys(self, family):
        params = inspect.signature(getattr(catalog, family)).parameters
        spec_keys = {cli._SPEC_KEYS.get(k, k) for k in params}
        assert spec_keys <= set(SPEC_SCHEMA["properties"]["params"]["properties"])
        for pid in preset_ids():
            md = preset(pid).metadata
            if md["family"] == family:
                assert set(md["params"]) <= spec_keys, pid

    def test_validate_rejects_unknown_family(self):
        with pytest.raises(SpecError):
            validate_spec({"family": "mystery"})

    def test_validate_requires_preset_name(self):
        with pytest.raises(SpecError, match="preset"):
            validate_spec({"family": "preset"})

    def test_spec_schema_is_valid_under_its_metaschema(self):
        # validate_spec skips this per-call check, so it is made once here
        import jsonschema

        jsonschema.validators.validator_for(SPEC_SCHEMA).check_schema(SPEC_SCHEMA)

    @pytest.mark.parametrize("doc", [
        {"family": "mystery"},
        {"format_version": 1, "family": "ij_vortex", "params": {"c": "1"}, "unknown_key": True},
        {"family": "linear3d", "params": {"f": "1", "C": [["a", 0, 0], [0, 1, 0], [0, 0, -1]]}},
        {"family": "twin_wave", "params": {"v": "x", "c1": "one"},
         "transforms": [{"kind": "boost", "velocity": [1]}]},
        {"family": "ij_vortex", "params": {"c": "1", "h": "-1/r^2"},
         "transforms": [{"kind": "rescale", "lam": 0}]},
        {"family": "ij_vortex", "overrides": {"time": [0, 1, 2]}, "format_version": 2},
        # several errors: the reported one is jsonschema's best match, not the first
        {"family": "mystery", "bogus": 1},
        {"family": "twin_wave", "params": {"v": 1, "c1": "x"}, "bogus": 1},
    ])
    def test_rejection_names_the_error_jsonschema_validate_raises(self, doc):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(doc, SPEC_SCHEMA)
        path = "/".join(str(p) for p in ref.value.absolute_path) or "<root>"
        with pytest.raises(SpecError) as exc:
            validate_spec(doc)
        assert str(exc.value) == f"spec file invalid at {path}: {ref.value.message}"


@functools.lru_cache(maxsize=None)
def _exported(pid):
    return json.dumps(solution_spec_for_preset(pid))


# an argv placeholder for ex_3_10's exported spec file
_EXPORTED_SPEC = "<spec.json>"


def _write_exported(tmp_path):
    path = tmp_path / "ex_3_10.json"
    path.write_text(_exported("ex_3_10"))
    return str(path)


# keys and values a spec document may hold, or nearly hold
_SPEC_KEYS = ["format_version", "name", "family", "preset", "params", "transforms", "overrides",
              "c", "h", "v", "f", "c1", "C", "sigma", "T", "x0", "pressure_sign", "values",
              "singular_xi", "blowup_time", "exclusion_radius", "kind", "velocity", "angle",
              "lam", "tau", "box", "time", "bogus"]
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.just(10**400),
        st.sampled_from(["", "x", "1", "1/(T - t)", "boost", "rescale", "preset", "ij_vortex",
                         "ex_2_5"]),
        st.sampled_from([[0.5, -2.0], [1, 0, 0], [[1, 0, 0], [0, 1, 0], [0, 0, -2]],
                         [[1, 0], [0, 1, 0], [0, 0, -1]], [[True, 0, 0], [0, 1, 0], [0, 0, 1]],
                         {"kind": "boost", "velocity": [1]},
                         {"kind": "rescale", "lam": 0, "tau": 1}]).map(copy.deepcopy)),
    lambda values: st.one_of(st.lists(values, max_size=4),
                             st.dictionaries(st.sampled_from(_SPEC_KEYS), values, max_size=3)),
    max_leaves=6)


def _containers(x, found):
    if isinstance(x, (dict, list)):
        found.append(x)
        for v in x.values() if isinstance(x, dict) else x:
            _containers(v, found)
    return found


@st.composite
def _mutated_specs(draw):
    """A preset's exported spec document with up to four edits anywhere in
    it: a value replaced, a key or item removed, or one added; now and then
    a JSON value that is not a document at all."""
    if draw(st.integers(0, 15)) == 0:
        return draw(_JSON_VALUES)
    doc = json.loads(_exported(draw(st.sampled_from(preset_ids()))))
    for _ in range(draw(st.integers(0, 4))):
        node = draw(st.sampled_from(_containers(doc, [])))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        edit = draw(st.sampled_from(["set", "delete", "add"]))
        if edit == "set" and keys:
            node[draw(st.sampled_from(keys))] = draw(_JSON_VALUES)
        elif edit == "delete" and keys:
            del node[draw(st.sampled_from(keys))]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_SPEC_KEYS))] = draw(_JSON_VALUES)
        else:
            node.append(draw(_JSON_VALUES))
    return doc


# A schema and an instance it rejects, for each keyword the walker reads.
_KEYWORD_CASES = {
    "type": [({"type": "number"}, True), ({"type": ["string", "null"]}, 1.5),
             ({"type": "object"}, [])],
    "enum": [({"enum": [1, -1]}, True), ({"enum": [1, -1]}, 0.5), ({"enum": ["a"]}, ["a"])],
    "const": [({"const": 1}, True), ({"const": 1}, "1")],
    "properties": [({"properties": {"a": {"type": "string"}, "b": {"const": 1}}},
                    {"b": 2, "a": 1})],
    "required": [({"required": ["a", "b"]}, {})],
    "additionalProperties": [({"additionalProperties": False}, {"b": 1, 2: 1}),
                             ({"properties": {"a": {}}, "additionalProperties": False},
                              {"a": 1, "b": 2}),
                             ({"additionalProperties": {"type": "number"}}, {"a": 1, "b": "x"})],
    "items": [({"items": {"type": "number"}}, [1, "x", None])],
    "minItems": [({"minItems": 1}, []), ({"minItems": 3}, [1])],
    "maxItems": [({"maxItems": 0}, [1]), ({"maxItems": 2}, [1, 2, 3])],
    "exclusiveMinimum": [({"exclusiveMinimum": 0}, 0), ({"exclusiveMinimum": 0}, -0.5)],
    "anyOf": [({"anyOf": [{"type": "string"}, {"minItems": 2}]}, [1]),
              ({"anyOf": [{"type": "array", "items": {"type": "number"}}, {"type": "string"}]},
               ["x"]),
              ({"anyOf": [{"type": "string"}, {"type": "number"}]}, None)],
}


@functools.lru_cache(maxsize=None)
def _spec_validator():
    import jsonschema

    return jsonschema.validators.validator_for(SPEC_SCHEMA)(SPEC_SCHEMA)


class TestSchemaWalker:
    """validate_spec walks SPEC_SCHEMA itself; jsonschema is its oracle."""

    @given(doc=_mutated_specs())
    @settings(max_examples=300, deadline=None)
    def test_verdict_and_message_are_those_of_jsonschema_validate(self, doc):
        import jsonschema

        # jsonschema.validate without its 16 ms metaschema check of
        # SPEC_SCHEMA, which test_spec_schema_is_valid_under_its_metaschema makes
        ref = jsonschema.exceptions.best_match(_spec_validator().iter_errors(doc))
        if ref is not None:
            path = "/".join(str(p) for p in ref.absolute_path) or "<root>"
            expected = f"spec file invalid at {path}: {ref.message}"
        elif doc["family"] == "preset" and "preset" not in doc:
            expected = "family 'preset' requires a 'preset' key"
        else:
            expected = None
        try:
            validate_spec(doc)
        except SpecError as e:
            assert str(e) == expected
        else:
            assert expected is None

    @pytest.mark.parametrize("schema, instance", [
        case for cases in _KEYWORD_CASES.values() for case in cases])
    def test_keyword_picks_the_best_match_of_jsonschema(self, schema, instance):
        import jsonschema

        validator = jsonschema.Draft202012Validator(schema)
        ref = jsonschema.exceptions.best_match(validator.iter_errors(instance))
        path = "/".join(str(p) for p in ref.absolute_path) or "<root>"
        assert _best_error(instance, schema) == (path, ref.message)
        assert _best_error(instance, {}) is None

    def test_spec_schema_uses_only_keywords_the_walker_reads(self):
        met = set()

        def walk(schema):
            met.update(schema)
            for sub in [*schema.get("properties", {}).values(), *schema.get("anyOf", []),
                        *(schema[k] for k in ("items", "additionalProperties")
                          if isinstance(schema.get(k), dict))]:
                walk(sub)

        walk(SPEC_SCHEMA)
        assert met <= set(_KEYWORD_CASES) | {"$schema", "title"}


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "ex_3_4_smooth", "--samples", "300", "--seed", "11"),
            ("norm", "ex_2_5", "--q", "2", "--delta", "1", "--R", "4", "--t", "0.5"),
            ("blowup", "ex_5_1_blowup", "--K", "12"),
            ("probe", "--mode", "affine", "--v1", "x", "--v2", "x", "--c2", "1",
             "--seed", "5"),
            ("list", "--format", "json"),
        ],
    )
    def test_repeated_runs_identical(self, capsys, argv):
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b
        assert out_a == out_b


class TestInputValidation:
    @pytest.mark.parametrize("radius", ["-1", "0", "nan"])
    def test_non_positive_exclusion_is_input_error(self, capsys, radius):
        code, out, err = run(capsys, "certify", "ex_2_6", "--samples", "200",
                             "--exclusion", radius)
        assert code == 2
        assert out == ""
        assert "exclusion radius" in err

    @pytest.mark.parametrize("C", [
        [["a", 0, 0], [0, 1, 0], [0, 0, -1]],
        [[1, 0], [0, 1, 0], [0, 0, -1]],
        [1, 0, 0],
    ])
    def test_malformed_strain_matrix_is_spec_error(self, tmp_path, capsys, C):
        p = tmp_path / "strain.json"
        p.write_text(json.dumps({"family": "linear3d", "params": {"f": "1", "C": C}}))
        code, out, err = run(capsys, "certify", str(p), "--samples", "100")
        assert code == 2
        assert out == ""
        assert "params/C" in err
        with pytest.raises(SpecError):
            validate_spec(json.loads(p.read_text()))


VORTEX = {"c": "1", "h": "-1/r^2 + 1/(1+r^2)^2"}
_HUGE_INT = "spec file holds a 401-digit integer that no float can hold"


class TestSpecInputErrors:
    """Spec documents that used to raise out of the CLI, and keys a family
    does not take: each is an input error, exit 2 with one 'error:' line."""

    def _certify(self, tmp_path, capsys, doc):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        return run(capsys, "certify", str(p), "--samples", "300")

    def test_numeric_circulation_is_the_constant_it_names(self, tmp_path, capsys):
        code, out, err = self._certify(tmp_path, capsys, {
            "family": "ij_vortex", "params": {**VORTEX, "c": 1}})
        assert (code, err) == (0, "")
        assert (code, out, err) == self._certify(tmp_path, capsys, {
            "family": "ij_vortex", "params": VORTEX})

    @pytest.mark.parametrize("doc, message", [
        ({"family": "ij_vortex", "params": VORTEX, "transforms": [{"kind": "boost"}]},
         "boost transform is missing 'velocity'"),
        ({"family": "ij_vortex", "params": VORTEX,
          "transforms": [{"kind": "rescale", "lam": 2}]},
         "rescale transform is missing 'tau'"),
        ({"family": "ij_vortex", "params": VORTEX, "transforms": [{"kind": "rotation"}]},
         "rotation transform is missing 'angle'"),
        ({"family": "linear3d",
          "params": {"f": "1", "C": [[1, 0, 0], [0, 1, 0], [0, 0, -2]],
                     "exclusion_radius": 0.1}},
         "family 'linear3d' does not take parameter 'exclusion_radius'"),
        ({"family": "twin_wave", "params": {"v": "x", "blowup_time": 1.0}},
         "family 'twin_wave' does not take parameter 'blowup_time'"),
        ({"family": "ij_vortex", "params": {**VORTEX, "singular_xi": [1.0]}},
         "family 'ij_vortex' does not take parameter 'singular_xi'"),
        ({"family": "ns_halfspace_blowup", "params": {"values": {"a": 1}}},
         "family 'ns_halfspace_blowup' does not take parameter 'values'"),
        ({"family": "ij_vortex", "params": {"h": "-1/r^2"}},
         "family 'ij_vortex' is missing required parameter 'c'"),
        ({"family": "linear3d", "params": {"f": "1"}},
         "family 'linear3d' is missing required parameter 'C'"),
        ({"family": "preset", "preset": "ex_3_2",
          "params": {"C": [[1, 0, 0], [0, 1, 0], [0, 0, -2]]}},
         "boost velocity must be a vector of numbers, got ([1, 0, 0], [0, 1, 0], [0, 0, -2])"),
        ({"family": "preset", "preset": "ex_2_6", "overrides": {"time": [0.0, 0.2]}},
         "overrides.time does not apply: a solution with blow-up time 1.0 is sampled "
         "from 0 up to --until times its blow-up time"),
        # tau^2 underflows to 0, which _step would divide by
        ({"family": "preset", "preset": "ex_3_4_smooth",
          "transforms": [{"kind": "rescale", "lam": 1.0, "tau": 1e-180}]},
         "rescale by lam=1.0, tau=1e-180 overflows or underflows: lam/tau, lam/tau^2, "
         "lam*tau and lam^2/tau must be finite and > 0"),
        ({"family": "preset", "preset": "ex_3_4_smooth",
          "overrides": {"box": [[-1e308, 1e308], [-1, 1]]}},
         "box width must be finite, got (-1e+308, 1e+308)"),
        # an integer that no float can hold, wherever the spec reads a number
        ({"family": "preset", "preset": "ex_2_5",
          "transforms": [{"kind": "rescale", "lam": 10**400, "tau": 1}]}, _HUGE_INT),
        ({"family": "preset", "preset": "ex_2_5",
          "transforms": [{"kind": "rotation", "angle": 10**400}]}, _HUGE_INT),
        ({"family": "preset", "preset": "ex_2_5",
          "transforms": [{"kind": "boost", "velocity": [1, 10**400]}]}, _HUGE_INT),
        ({"family": "twin_wave", "params": {"v": "x", "c1": 10**400}}, _HUGE_INT),
        ({"family": "preset", "preset": "ex_3_4_smooth",
          "overrides": {"box": [[-1, 10**400], [-1, 1]]}}, _HUGE_INT),
        ({"family": "preset", "preset": "ex_3_4_smooth",
          "overrides": {"exclusion_radius": 10**400}}, _HUGE_INT),
    ])
    def test_is_input_error(self, tmp_path, capsys, doc, message):
        code, out, err = self._certify(tmp_path, capsys, doc)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "spec file is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                        "in position 0: invalid start byte"),
        (b"[" * 100_000 + b"]" * 100_000,
         "spec file is not valid JSON: it nests too deeply to parse"),
        # past the digit limit of int(), which json.dumps cannot print either
        (b'{"family": "preset", "preset": "ex_2_5", "format_version": ' + b"9" * 5000 + b"}",
         "spec file holds a 5000-digit integer that no float can hold"),
    ], ids=["not utf-8", "too deep", "5000 digits"])
    def test_unreadable_file_is_input_error(self, tmp_path, capsys, content, message):
        p = tmp_path / "spec.json"
        p.write_bytes(content)
        code, out, err = run(capsys, "certify", str(p), "--samples", "300")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert "Traceback" not in err

    def test_preset_boost_is_a_two_vector(self, tmp_path, capsys):
        # ex_3_2's C is its boost velocity, not a strain matrix
        direct = preset("ex_3_2", {"C": (0.5, -2.0)})
        report = certify(direct, default_region(direct, count=300)).to_dict()
        code, out, err = self._certify(tmp_path, capsys, {
            "family": "preset", "preset": "ex_3_2", "params": {"C": [0.5, -2.0]}})
        assert (code, err) == (0, "")
        assert out == json.dumps(report, indent=2) + "\n"
        assert report != certify(preset("ex_3_2"), default_region(direct, count=300)).to_dict()

    @pytest.mark.parametrize("doc", [
        {"family": "ij_vortex", "name": "v",
         "params": {"c": "1/(T - t)", "h": "-1/r^2", "values": {"T": 2.0},
                    "exclusion_radius": 0.7, "blowup_time": 2.0}},
        {"family": "twin_wave",
         "params": {"v": "1/(x - 2.5)^2", "c1": 0.5, "c2": 0.1, "c3": 2.0,
                    "exclusion_radius": 0.5, "singular_xi": [2.5]}},
        {"family": "linear3d",
         "params": {"f": "1/(T - t)", "C": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, -2.0]],
                    "sigma": 0.3, "values": {"T": 1.0}, "blowup_time": 1.0}},
        {"family": "ns_halfspace_blowup",
         "params": {"T": 2.0, "sigma": 0.5, "c": 0.2, "x0": [0.1, 0.0, 0.0],
                    "pressure_sign": -1, "exclusion_radius": 0.05}},
    ])
    def test_constructor_records_the_spec_params(self, doc):
        # every key given, so the record is the document's params, in order;
        # singular_xi is kept as given, not rebuilt from the unit normal
        sol = build_solution(doc)
        assert json.dumps(sol.metadata["params"]) == json.dumps(doc["params"])
        assert sol.exclusion_radius == doc["params"].get("exclusion_radius", 1e-3)


NON_FINITE_FLAGS = [
    ("norm", "ex_3_2", "--subtract-boost", "--t", "nan"),
    ("norm", "ex_3_4_smooth", "--delta", "1", "--R", "2", "--t", "inf"),
    ("norm", "ex_2_5", "--delta", "1", "--R", "2", "--t", "nan"),
    ("norm", "ex_2_5", "--q", "nan", "--delta", "1", "--R", "2"),
    ("certify", "ex_2_5", "--samples", "100", "--tol-fd", "-1"),
    ("certify", "ex_2_5", "--samples", "100", "--tol-residual", "nan"),
]


class TestNonFiniteFlags:
    @pytest.mark.parametrize("argv", NON_FINITE_FLAGS, ids=lambda a: " ".join(a[2:]))
    def test_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_prints_no_integration_warnings(self):
        # Run in a fresh process: pytest would otherwise collect the warnings.
        import eulercert

        src = os.path.dirname(os.path.dirname(os.path.abspath(eulercert.__file__)))
        proc = subprocess.run([sys.executable, "-m", "eulercert.cli", *NON_FINITE_FLAGS[2]],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


OVERFLOWING_VORTEX = {"format_version": 1, "family": "ij_vortex",
                      "params": {"c": "exp(1000*t)", "h": "-1/r^2"}}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestNonFiniteReport:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_spec_fails_with_strict_json(self, capsys, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(OVERFLOWING_VORTEX))
        code, out, _ = run(capsys, "certify", str(p), "--samples", "300")
        assert code == 1
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["verdict"] == "fail"
        assert doc["max_residual"] is None
        counts = doc["notes"]["non_finite_points"]
        assert set(counts) <= set(doc["worst_points"]) and counts["residual"] > 0
        for metric in counts:
            assert doc["worst_points"][metric]["value"] is None

    def test_finite_report_is_unchanged_by_strict_emit(self, capsys):
        sol = preset("ex_3_10")
        expected = json.dumps(certify(sol, default_region(sol, count=300, seed=2)).to_dict(),
                              indent=2) + "\n"
        code, out, _ = run(capsys, "certify", "ex_3_10", "--samples", "300", "--seed", "2")
        assert code == 0
        assert out == expected

    def test_overflow_prints_no_warnings(self, tmp_path):
        # Run in a fresh process: pytest would otherwise collect the warnings.
        import eulercert

        src = os.path.dirname(os.path.dirname(os.path.abspath(eulercert.__file__)))
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(OVERFLOWING_VORTEX))
        proc = subprocess.run([sys.executable, "-m", "eulercert.cli", "certify", str(p),
                               "--samples", "500"], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 1
        assert json.loads(proc.stdout, parse_constant=_reject_constant)["verdict"] == "fail"
        assert proc.stderr == ""


_TOL_FLAGS = ("--tol-residual", "--tol-div", "--tol-fd", "--tol-vorticity")
_CERTIFY_ARGV = st.builds(
    lambda tols, samples, seed: ["certify", "ex_3_10",
                                 *(f"{flag}={value!r}" for flag, value in tols.items()),
                                 *samples, *seed],
    st.dictionaries(st.sampled_from(_TOL_FLAGS),
                    st.one_of(st.floats(), st.sampled_from([0.0, 1e-12, 1e-3, 1.0])),
                    max_size=4),
    st.one_of(st.just([]), st.integers(-2, 3000).map(lambda n: [f"--samples={n}"])),
    st.one_of(st.just([]), st.integers(-2**64, 2**64).map(lambda n: [f"--seed={n}"])),
)
_LIST_ARGV = st.sampled_from(["json", "table", "xml", "JSON", ""]).map(
    lambda fmt: ["list", f"--format={fmt}"])


def _profiles(*leaves):
    """Profiles from the expression grammar: the ``leaves`` (numbers, the
    variable, an unknown identifier), the six functions, and powers with
    integer, large and non-integer exponents."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.builds("{}({})".format,
                      st.sampled_from(["exp", "ln", "sqrt", "sin", "cos", "atan"]), inner),
            st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
            st.builds("({})^{}".format, inner,
                      st.sampled_from(["2", "-3", "400", "0.5", "(-1.5)"])),
        ),
        max_leaves=6,
    )


_PROFILE = _profiles("x", "q", "0", "2.5", "1e308")
_PROBE_NUMBER = st.sampled_from(["0", "-0", "0.5", "nan", "inf", "-inf", "1e308"])
_PROBE_ARGV = st.builds(
    lambda mode, p1, p2, cs, box, tmax, samples: [
        "probe", f"--mode={mode}",
        *([f"--v1={p1}", f"--v2={p2}"] if mode == "affine" else [f"--u1={p1}", f"--u2={p2}"]),
        *(f"--{name}={value}" for name, value in cs.items()),
        *box, *tmax, f"--samples={samples}"],
    st.sampled_from(["affine", "twinwave"]),
    _PROFILE,
    _PROFILE,
    st.dictionaries(st.sampled_from(["c1", "c2", "c3"]), _PROBE_NUMBER),
    st.one_of(st.just([]), st.lists(st.sampled_from(["-2", "0", "1", "2", "nan", "1e308"]),
                                    min_size=4, max_size=4).map(lambda b: ["--box", *b])),
    st.one_of(st.just([]), _PROBE_NUMBER.map(lambda t: [f"--tmax={t}"])),
    st.sampled_from([1, 50]),
)


_HUGE = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308])
_TRANSFORMS = st.one_of(
    # lam and tau log-uniform over [1e-300, 1e300]
    st.tuples(st.floats(-300, 300), st.floats(-300, 300)).map(
        lambda e: {"kind": "rescale", "lam": 10.0 ** e[0], "tau": 10.0 ** e[1]}),
    st.one_of(_HUGE, st.floats(-1e308, 1e308)).map(lambda a: {"kind": "rotation", "angle": a}),
    st.lists(st.one_of(_HUGE, st.sampled_from([0.0, 1.0, -2.5])), min_size=2, max_size=3).map(
        lambda v: {"kind": "boost", "velocity": v}),
)


@st.composite
def _transformed_specs(draw):
    """A preset's exported spec document with one to three transforms appended."""
    doc = json.loads(_exported(draw(st.sampled_from(preset_ids()))))
    doc["transforms"] = doc.get("transforms", []) + draw(st.lists(_TRANSFORMS, min_size=1,
                                                                  max_size=3))
    return doc


_SPEC_NUMBER = st.sampled_from([0.0, -0.5, 1.0, 2.0, 1e308])


def _spec_profiles(variable):
    # the variable twice as likely as each number, so most profiles vary
    return _profiles(variable, variable, "0", "2.5", "1e308", "-1")


@st.composite
def _profile_specs(draw):
    """A vortex (with or without a blow-up time) or a twin wave whose
    profiles are generated, possibly boosted."""
    if draw(st.booleans()):
        params = {"c": draw(_spec_profiles("t")), "h": draw(_spec_profiles("r")),
                  "blowup_time": draw(st.one_of(st.none(), _SPEC_NUMBER))}
        doc = {"format_version": 1, "family": "ij_vortex", "params": params}
    else:
        params = {"v": draw(_spec_profiles("x")),
                  **draw(st.dictionaries(st.sampled_from(["c1", "c2", "c3"]), _SPEC_NUMBER))}
        doc = {"format_version": 1, "family": "twin_wave", "params": params}
    boost = draw(st.one_of(st.none(), st.lists(_SPEC_NUMBER, min_size=2, max_size=2)))
    if boost is not None:
        doc["transforms"] = [{"kind": "boost", "velocity": boost}]
    return doc


_FLAG_NUMBER = st.sampled_from(["0", "0.5", "1", "2", "-1", "nan", "inf", "1e308"])
_NORM_FLAGS = st.builds(
    lambda q, t, annulus, subtract: ["norm", *q, *t, *annulus, *subtract],
    st.one_of(st.just([]), st.sampled_from(["1", "1.5", "2", "3", "0.5"]).map(
        lambda q: [f"--q={q}"])),
    st.one_of(st.just([]), _FLAG_NUMBER.map(lambda t: [f"--t={t}"])),
    st.one_of(st.just([]),
              st.tuples(st.sampled_from(["0.5", "1", "1.5"]),
                        st.sampled_from(["2", "3", "inf"])).map(
                  lambda dr: [f"--delta={dr[0]}", f"--R={dr[1]}"]),
              st.tuples(_FLAG_NUMBER, _FLAG_NUMBER).map(
                  lambda dr: [f"--delta={dr[0]}", f"--R={dr[1]}"])),
    st.sampled_from([[], ["--subtract-boost"]]),
)
_BLOWUP_FLAGS = st.builds(
    lambda kind, K, q: ["blowup", f"--norm={kind}", f"--K={K}", *q],
    st.sampled_from(["sup", "lq"]),
    st.sampled_from([5, 6, 12]),
    st.one_of(st.just([]), st.sampled_from(["1", "2.5", "0.5"]).map(lambda q: [f"--q={q}"])),
)

# mostly valid values, which come first (hypothesis shrinks toward them)
_CERTIFY_NUMBER = st.sampled_from(["0.5", "1e-6", "1", "2", "0.9", "1e-3", "0", "-1", "nan",
                                   "inf", "1e308"])
_CERTIFY_FLAGS = st.builds(
    lambda samples, until, exclusion, tols: ["certify", f"--samples={samples}", *until,
                                             *exclusion, *tols],
    st.sampled_from([50, 200, 1]),
    st.one_of(st.just([]), _CERTIFY_NUMBER.map(lambda u: [f"--until={u}"])),
    st.one_of(st.just([]), _CERTIFY_NUMBER.map(lambda e: [f"--exclusion={e}"])),
    st.dictionaries(st.sampled_from(_TOL_FLAGS), _CERTIFY_NUMBER, max_size=4).map(
        lambda tols: [f"{flag}={value}" for flag, value in tols.items()]),
)


class TestContract:
    """Whatever the flags: exit code 0, 1 or 2, no traceback, and stdout
    either empty (exit 2) or the command's document; the document is strict
    JSON except for the text table of ``list --format table``."""

    @staticmethod
    def assert_contract(argv, strict_json=True):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert (out.getvalue() == "") == (code == 2)
        if out.getvalue() and strict_json:
            json.loads(out.getvalue(), parse_constant=_reject_constant)

    @given(argv=st.one_of(_CERTIFY_ARGV, _LIST_ARGV))
    @settings(max_examples=25, deadline=None)
    def test_exit_code_and_output(self, argv):
        self.assert_contract(argv, strict_json=argv[-1] != "--format=table")

    @given(argv=_PROBE_ARGV)
    @settings(max_examples=25, deadline=None)
    def test_probe_exit_code_and_output(self, argv):
        self.assert_contract(argv)

    @classmethod
    def assert_spec_contract(cls, doc, command="certify", flags=("--samples", "50")):
        """The contract of ``command`` on ``doc`` written to a spec file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spec.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            cls.assert_contract([command, path, *flags])

    @given(doc=_mutated_specs())
    @settings(max_examples=25, deadline=None)
    def test_spec_file_exit_code_and_output(self, doc):
        self.assert_spec_contract(doc)

    @given(doc=_transformed_specs())
    @settings(max_examples=25, deadline=None)
    def test_transformed_spec_exit_code_and_output(self, doc):
        self.assert_spec_contract(doc)

    @given(doc=_profile_specs(), flags=st.one_of(_NORM_FLAGS, _BLOWUP_FLAGS))
    @settings(max_examples=25, deadline=None)
    def test_norm_and_blowup_on_generated_profiles(self, doc, flags):
        self.assert_spec_contract(doc, flags[0], flags[1:])

    @given(doc=_profile_specs(), flags=_CERTIFY_FLAGS)
    @settings(max_examples=25, deadline=None)
    def test_certify_on_generated_profiles(self, doc, flags):
        self.assert_spec_contract(doc, flags[0], flags[1:])


class TestImports:
    def test_cli_import_does_not_load_scipy(self):
        proc = _fresh_python("import sys, eulercert, eulercert.cli; "
                             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.stdout.strip() == "[]"

    # Start-up cost: no command loads jsonschema, not even for a spec file,
    # numpy.polynomial is loaded by catalog.quad only, and scipy by none.
    @pytest.mark.parametrize("argv", [
        ["list"],
        ["certify", "ex_3_10", "--samples", "200"],
        ["grid-dump", "ex_3_2", "--nx", "4", "--nt", "2"],
        ["blowup", "ex_2_6"],
        ["probe", "--mode", "affine", "--v1", "x", "--v2", "x"],
        ["norm", "ex_3_2", "--subtract-boost"],
        ["certify", _EXPORTED_SPEC, "--samples", "200"],
    ], ids=lambda a: "certify <spec.json>" if _EXPORTED_SPEC in a else a[0])
    def test_command_loads_no_heavy_module(self, argv, tmp_path):
        argv = [_write_exported(tmp_path) if a == _EXPORTED_SPEC else a for a in argv]
        loaded = _modules_after(argv)
        assert loaded["code"] == 0
        assert loaded["heavy"] == []

    # Only the planar energy integrates with QUADPACK's qagse.
    @pytest.mark.parametrize("argv", [
        ["list"],
        ["certify", "ex_3_10", "--samples", "200"],
        ["grid-dump", "ex_3_2", "--nx", "4", "--nt", "2"],
        ["blowup", "ex_2_6"],
        ["probe", "--mode", "affine", "--v1", "x", "--v2", "x"],
    ], ids=lambda a: a[0])
    def test_command_does_not_load_quadpack(self, argv):
        loaded = _modules_after(argv)
        assert loaded["code"] == 0
        assert not loaded["quadpack"]

    def test_planar_energy_loads_quadpack(self):
        loaded = _modules_after(["norm", "ex_3_2", "--subtract-boost"])
        assert json.loads(loaded["stdout"])["value"] == 0.5235987755967281
        assert loaded["quadpack"]

    # The radial annulus norm and the lq blow-up fit run on catalog.quad.
    @pytest.mark.parametrize("argv", [
        ["blowup", "ex_2_6", "--norm", "lq"],
        ["norm", "ex_2_5", "--delta", "1", "--R", "2"],
    ], ids=lambda a: " ".join(a[:3]))
    def test_radial_norms_load_no_scipy(self, argv):
        loaded = _modules_after(argv)
        assert loaded["code"] == 0
        assert json.loads(loaded["stdout"])["format_version"] == 1
        assert "scipy" not in loaded["heavy"] and "jsonschema" not in loaded["heavy"]

    def test_bare_import_loads_no_submodule(self):
        proc = _fresh_python("import sys, eulercert; "
                             "print(sorted(m for m in sys.modules if m.startswith('eulercert.')))")
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [["list"], ["list", "--format", "json"]],
                             ids=lambda a: " ".join(a))
    def test_list_loads_neither_verification_nor_analysis(self, argv):
        loaded = _modules_after(argv)
        assert loaded["code"] == 0
        assert loaded["eulercert"] == ["catalog", "cli", "expressions", "fields"]

    @pytest.mark.parametrize("argv", [
        ["certify", "ex_3_10", "--samples", "200"],
        ["grid-dump", "ex_3_2", "--nx", "4", "--nt", "2"],
    ], ids=lambda a: a[0])
    def test_certify_and_grid_dump_do_not_load_analysis(self, argv):
        loaded = _modules_after(argv)
        assert loaded["code"] == 0
        assert loaded["eulercert"] == ["catalog", "cli", "expressions", "fields", "verification"]

    # Only the probes sample a region, so only they load verification.
    @pytest.mark.parametrize("argv, key, layers", [
        (["blowup", "ex_2_6"], "alpha", ["analysis"]),
        (["norm", "ex_2_5", "--delta", "1", "--R", "2"], "value", ["analysis"]),
        (["probe", "--mode", "twinwave", "--u1", "x", "--u2", "x"], "verdict",
         ["analysis", "verification"]),
    ], ids=["blowup-alpha", "norm-value", "probe-verdict"])
    def test_analysis_commands_load_their_layers(self, argv, key, layers):
        loaded = _modules_after(argv)
        assert loaded["code"] == 0, loaded["stderr"]
        assert json.loads(loaded["stdout"])[key] is not None
        assert loaded["eulercert"] == sorted(["catalog", "cli", "expressions", "fields", *layers])

    def test_spec_file_still_validates(self, tmp_path):
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps({"format_version": 1, "family": "ij_vortex",
                                 "params": {"c": "1"}, "unknown_key": True}))
        loaded = _modules_after(["certify", str(p)])
        assert loaded["code"] == 2
        assert loaded["stdout"] == ""
        assert loaded["stderr"] == ("error: spec file invalid at <root>: Additional properties "
                                    "are not allowed ('unknown_key' was unexpected)\n")
        assert "jsonschema" not in loaded["heavy"]

    # certify resolves its spec before it imports verification, so a bad
    # spec exits 2 without loading that layer
    def test_bad_spec_exits_before_loading_verification(self, tmp_path):
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps({"format_version": 1, "family": "ij_vortex",
                                 "params": {"c": "1"}, "unknown_key": True}))
        loaded = _modules_after(["certify", str(p)])
        assert (loaded["code"], loaded["stdout"]) == (2, "")
        assert loaded["stderr"] == ("error: spec file invalid at <root>: Additional properties "
                                    "are not allowed ('unknown_key' was unexpected)\n")
        assert loaded["eulercert"] == ["catalog", "cli", "expressions", "fields"]
        unknown = _modules_after(["certify", "no_such_preset"])
        assert (unknown["code"], unknown["stdout"]) == (2, "")
        assert unknown["stderr"].startswith("error: cannot read spec file:")
        assert unknown["eulercert"] == ["catalog", "cli", "expressions", "fields"]

    def test_spec_files_need_no_jsonschema(self, tmp_path):
        blocked = "import sys\nsys.modules['jsonschema'] = None\n" + _MODULES_AFTER
        valid = json.loads(_fresh_python(
            blocked, "certify", _write_exported(tmp_path), "--samples", "200").stdout)
        sol = preset("ex_3_10")
        report = certify(sol, default_region(sol, count=200)).to_dict()
        assert (valid["code"], valid["stderr"]) == (0, "")
        assert valid["stdout"] == json.dumps(report, indent=2) + "\n"
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps({"format_version": 1, "family": "ij_vortex",
                                 "params": {"c": "1"}, "unknown_key": True}))
        malformed = json.loads(_fresh_python(blocked, "certify", str(p)).stdout)
        assert (malformed["code"], malformed["stdout"]) == (2, "")
        assert malformed["stderr"] == ("error: spec file invalid at <root>: Additional properties "
                                       "are not allowed ('unknown_key' was unexpected)\n")


_MODULES_AFTER = """
import contextlib, io, json, sys
import eulercert.cli as cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(sys.argv[1:])
heavy = [m for m in ("jsonschema", "numpy.polynomial", "scipy") if m in sys.modules]
layers = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("eulercert."))
print(json.dumps({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                  "heavy": heavy, "quadpack": "eulercert.quadpack" in sys.modules,
                  "eulercert": layers}))
"""


def _fresh_python(code, *argv):
    """Run ``python -c code`` in a fresh process that imports eulercert from
    this checkout; the completed process, which must have exited 0."""
    import eulercert

    src = os.path.dirname(os.path.dirname(os.path.abspath(eulercert.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _modules_after(argv):
    """Run ``cli.main(argv)`` in a fresh process; its exit code, its output,
    which of jsonschema, numpy.polynomial and scipy it loaded, whether it
    loaded eulercert.quadpack, and which eulercert submodules it loaded."""
    return json.loads(_fresh_python(_MODULES_AFTER, *argv).stdout)


def _into_closed_pipe(*argv):
    """Run the CLI in a fresh process whose stdout is a pipe with no reader:
    the read end is closed before the child starts, so its first write to
    stdout fails with a broken pipe."""
    import eulercert

    src = os.path.dirname(os.path.dirname(os.path.abspath(eulercert.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "eulercert.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
    finally:
        os.close(write_end)


class TestBrokenPipe:
    @pytest.mark.parametrize("argv, code", [
        (["list"], 0),
        (["list", "--format", "json"], 0),
        (["grid-dump", "ex_3_2", "--nx", "4", "--nt", "1"], 0),
        (["blowup", "ex_3_2"], 1),  # no blow-up time: a result document and exit 1
    ], ids=lambda a: " ".join(a) if isinstance(a, list) else str(a))
    def test_closed_reader_ends_quietly_with_the_command_code(self, argv, code):
        proc = _into_closed_pipe(*argv)
        assert (proc.returncode, proc.stderr) == (code, "")

    def test_unwritable_out_path_is_still_an_input_error(self, tmp_path):
        proc = _into_closed_pipe("list", "--format", "json",
                                 "--out", str(tmp_path / "missing" / "list.json"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestOutFiles:
    @pytest.mark.parametrize("argv", [
        ["certify", "ex_3_2", "--samples", "300", "--seed", "4"],
        ["grid-dump", "ex_3_4_smooth", "--nx", "5", "--nt", "2"],
    ], ids=lambda a: a[0])
    def test_out_file_holds_the_bytes_of_stdout(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv)
        path = tmp_path / "out"
        assert run(capsys, *argv, "--out", str(path)) == (code, "", err)
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", [
        ["certify", "ex_3_2", "--samples", "100"],
        ["grid-dump", "ex_3_4_smooth", "--nx", "3", "--nt", "1"],
    ], ids=lambda a: a[0])
    def test_out_into_a_missing_directory_is_input_error(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "out"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSpecOverridesAndUsageErrors:
    def test_overrides_exclusion_radius_reaches_the_report(self, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"family": "preset", "preset": "ex_3_4_singular",
                                 "overrides": {"exclusion_radius": 0.6}}))
        code, out, _ = run(capsys, "certify", str(p), "--samples", "200")
        assert code == 0
        assert json.loads(out)["exclusion_radius"] == 0.6

    def test_truncated_spec_file_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"family": "preset", "preset": "ex_2_5"})[:-5])
        code, out, err = run(capsys, "certify", str(p), "--samples", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: spec file is not valid JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["certify", "SPEC", "--pressure-sign", "-1"],
         "--pressure-sign applies to preset ids only"),
        (["norm", "ex_2_5", "--q", "3"], "whole-plane energy is the q = 2 norm"),
        (["probe", "--mode", "twinwave", "--u1", "x"], "twinwave mode requires --u1 and --u2"),
        (["grid-dump", "ex_3_2", "--box", "0", "1", "0"], "--box needs 4 numbers"),
    ], ids=["pressure-sign with a spec", "norm q=3 without annulus", "twinwave without u2",
            "box of the wrong length"])
    def test_is_input_error(self, tmp_path, capsys, argv, message):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"family": "preset", "preset": "ex_6_1"}))
        code, out, err = run(capsys, *[str(p) if a == "SPEC" else a for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestZeroFieldNorm:
    @pytest.mark.parametrize("pid, t", [("ex_2_5", "1"), ("ex_2_6", "0")])
    def test_vanishing_field_has_zero_energy(self, capsys, pid, t):
        code, out, _ = run(capsys, "norm", pid, "--t", t)
        doc = json.loads(out)
        assert code == 0
        assert (doc["value"], doc["tail_bound"], doc["diagnosis"]) == (0.0, 0.0, None)


def test_reader_closing_a_large_grid_dump_early_leaves_a_quiet_exit():
    # the dump (about 1 MB) is far larger than a pipe buffer, so the child is
    # still writing when the reader goes away
    import eulercert

    src = os.path.dirname(os.path.dirname(os.path.abspath(eulercert.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "eulercert.cli", "grid-dump", "ex_3_4_smooth",
                             "--nx", "64", "--nt", "3"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    try:
        assert proc.stdout.read(100).startswith(b"# format_version=1\n")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, err) == (0, b"")

import json
import math
import os
import subprocess
import sys

import pytest

from eulercert.cli import (
    SpecError,
    build_solution,
    main,
    solution_spec_for_preset,
    validate_spec,
)
from eulercert.catalog import preset, preset_ids
from eulercert.verification import certify, default_region


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

    def test_validate_rejects_unknown_family(self):
        with pytest.raises(SpecError):
            validate_spec({"family": "mystery"})

    def test_validate_requires_preset_name(self):
        with pytest.raises(SpecError, match="preset"):
            validate_spec({"family": "preset"})


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


class TestImports:
    def test_cli_import_does_not_load_scipy(self):
        import eulercert

        src = os.path.dirname(os.path.dirname(os.path.abspath(eulercert.__file__)))
        code = ("import sys, eulercert, eulercert.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

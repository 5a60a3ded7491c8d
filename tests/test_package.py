"""The package namespace: every exported name, loaded lazily from its layer."""

import importlib
import os
import subprocess
import sys

import pytest

import eulercert

EXPORTS = {
    "expressions": ["EvalDomainError", "ExpressionError", "Jet2", "ParseError",
                    "UnknownIdentifierError", "eval_jet", "eval_real", "format_expr", "parse"],
    "fields": ["FieldError", "InadmissiblePointError", "PressureInfo", "SingularSetDescriptor",
               "SolutionPair", "SpaceTimePoint", "VelocityJet", "pressure_value",
               "radial_field_jet", "vorticity"],
    "catalog": ["TransformSpec", "apply_transform", "ij_vortex", "linear3d",
                "ns_halfspace_blowup", "preset", "preset_ids", "twin_wave"],
    "verification": ["CertificationReport", "RegionError", "SampleRegion", "Tolerances",
                     "certify", "default_region", "divergence", "fd_crosscheck",
                     "momentum_residual", "sample_points", "vorticity_transport_residual"],
    "analysis": ["EnergyResult", "FitResult", "NormResult", "NormSpec", "ProbeResult",
                 "RateFit", "affine_probe", "annulus_lq_norm", "blowup_exponent_fit",
                 "l2_energy_difference", "twin_wave_form_check"],
}
NAMES = [name for names in EXPORTS.values() for name in names]
HOMES = [(layer, name) for layer, names in EXPORTS.items() for name in names]


def test_all_lists_the_49_names():
    assert len(NAMES) == 49
    assert eulercert.__all__ == NAMES
    assert sorted(dir(eulercert)) == sorted(NAMES)


@pytest.mark.parametrize("layer, name", HOMES, ids=lambda v: v)
def test_name_is_the_layer_object(layer, name):
    module = importlib.import_module(f"eulercert.{layer}")
    assert getattr(eulercert, name) is getattr(module, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from eulercert import *", namespace)
    assert set(NAMES) <= set(namespace)
    for name in NAMES:
        assert namespace[name] is getattr(eulercert, name)


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'eulercert' has no attribute 'nope'"):
        eulercert.nope


def test_layer_resolves_after_a_bare_import():
    # a fresh process: this one has loaded every layer already
    src = os.path.dirname(os.path.dirname(os.path.abspath(eulercert.__file__)))
    code = ("import sys, eulercert\n"
            "assert 'eulercert.verification' not in sys.modules\n"
            "print(eulercert.verification.certify.__module__, eulercert.__version__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["eulercert.verification", "0.1.0"]

"""The package namespace: every exported name, loaded lazily from its layer."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_runtime_imports_are_the_declared_dependencies():
    # every import, lazy ones in functions included: a test-only package
    # (jsonschema, scipy, mpmath, sympy) imported at run time fails here
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    package = Path(eulercert.__file__).parent
    imported = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= set(sys.stdlib_module_names) | {"eulercert"}
    with open(package.parents[1] / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert imported == {re.match(r"[\w.-]+", d).group().replace("-", "_") for d in dependencies}

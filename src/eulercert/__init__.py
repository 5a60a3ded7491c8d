"""eulercert: explicit incompressible-flow solution families with
numerical certification of the claims made about them.

The namespace is lazy (PEP 562): ``import eulercert`` loads no submodule,
and each exported name imports its layer on first access, so a CLI command
loads only the layers it runs.
"""

import importlib

_LAYERS = {
    "expressions": ("EvalDomainError", "ExpressionError", "Jet2", "ParseError",
                    "UnknownIdentifierError", "eval_jet", "eval_real", "format_expr", "parse"),
    "fields": ("FieldError", "InadmissiblePointError", "PressureInfo", "SingularSetDescriptor",
               "SolutionPair", "SpaceTimePoint", "VelocityJet", "pressure_value",
               "radial_field_jet", "vorticity"),
    "catalog": ("TransformSpec", "apply_transform", "ij_vortex", "linear3d",
                "ns_halfspace_blowup", "preset", "preset_ids", "twin_wave"),
    "verification": ("CertificationReport", "RegionError", "SampleRegion", "Tolerances",
                     "certify", "default_region", "divergence", "fd_crosscheck",
                     "momentum_residual", "sample_points", "vorticity_transport_residual"),
    "analysis": ("EnergyResult", "FitResult", "NormResult", "NormSpec", "ProbeResult",
                 "RateFit", "affine_probe", "annulus_lq_norm", "blowup_exponent_fit",
                 "l2_energy_difference", "twin_wave_form_check"),
}

# exported name -> the layer module that defines it
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)

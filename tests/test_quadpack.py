"""The QUADPACK qagse port: parity with the compiled routine behind
scipy.integrate.quad, its error codes, and how it calls the integrand."""

import math
import warnings

import numpy as np
import pytest

from eulercert.analysis import QUAD_OPTS
from eulercert.quadpack import MESSAGES, QuadpackWarning, qagse

# Integrands on an array of abscissae; each case is (f, a, b).  Between them
# the option sets below reach every error code 0-5.
BATTERY = {
    "sqrt": (lambda x: np.sqrt(x), 0.0, 1.0),
    "inv_sqrt": (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0),  # extrapolation
    "log": (lambda x: np.log(x), 0.0, 1.0),  # extrapolation
    "log_squared": (lambda x: np.log(x) ** 2, 0.0, 1.0),
    "x^-0.9": (lambda x: x ** -0.9, 0.0, 1.0),
    "x^-0.999": (lambda x: x ** -0.999, 0.0, 1.0),  # ier 4 at tight tolerances
    "1/x": (lambda x: 1.0 / x, 0.0, 1.0),  # ier 1 at the subdivision limit
    "oscillatory": (lambda x: np.sin(50.0 * x) * np.exp(-x), 0.0, 10.0),  # ier 2
    "cancellation": (lambda x: np.cos(1000.0 * x), -1.0, 2.0),  # ier 5 at defaults
    "kink": (lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0),
    "narrow_peak": (lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2), 0.0, 1.0),
    "interior_pole": (lambda x: 1.0 / np.abs(x - 1.0 / 3.0), 0.0, 1.0),  # ier 3
    "log_over_power": (lambda x: np.log(x) / x ** 0.99, 0.0, 1.0),  # ier 4
    "step": (lambda x: np.where(x < 0.37, 1.0, 0.0), 0.0, 1.0),
    "gaussian": (lambda x: np.exp(-x * x), -20.0, 20.0),
    "zero": (lambda x: 0.0 * x, 0.0, 1.0),
}
OPTIONS = {
    "quad_opts": QUAD_OPTS,
    "scipy_defaults": {},
    "relative_only": dict(epsabs=0.0, epsrel=1e-13, limit=100),
    "limit_5": dict(limit=5),
}

# scipy.integrate.quad reports a non-zero ier only through its message
SCIPY_MESSAGE_IER = {"The maximum number of subdivisions": 1,
                     "The occurrence of roundoff error": 2,
                     "Extremely bad integrand behavior": 3,
                     "The algorithm does not converge": 4,
                     "The integral is probably divergent": 5}


def _scipy_qagse(f, a, b, opts):
    """(result, abserr, ier, last, neval) from scipy.integrate.quad, with the
    integrand evaluated through the same array code as the port."""
    scipy_integrate = pytest.importorskip("scipy.integrate")

    def scalar(x):
        return float(f(np.array([x]))[0])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = scipy_integrate.quad(scalar, a, b, full_output=1, **opts)
    ier = 0
    if len(out) == 4:
        ier = next(v for k, v in SCIPY_MESSAGE_IER.items() if out[3].startswith(k))
    return out[0], out[1], ier, out[2]["last"], out[2]["neval"]


def _port(f, a, b, opts):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadpackWarning)
        out = qagse(f, a, b, **opts)
    return out.result, out.abserr, out.ier, out.last, out.neval


@pytest.mark.parametrize("options", sorted(OPTIONS))
@pytest.mark.parametrize("case", sorted(BATTERY))
def test_matches_scipy_bit_for_bit(case, options):
    f, a, b = BATTERY[case]
    want = _scipy_qagse(f, a, b, OPTIONS[options])
    got = _port(f, a, b, OPTIONS[options])
    assert [float(v).hex() for v in got[:2]] == [float(v).hex() for v in want[:2]], (got, want)
    assert got[2:] == want[2:]


def test_battery_reaches_every_error_code():
    codes = {_port(f, a, b, opts)[2] for f, a, b in BATTERY.values() for opts in OPTIONS.values()}
    assert codes == {0, 1, 2, 3, 4, 5}


def test_subdivision_limit_warns_with_quadpack_message():
    with pytest.warns(QuadpackWarning) as record:
        out = qagse(lambda x: 1.0 / x, 0.0, 1.0, limit=50)
    assert (out.result, out.ier, out.last) == (41.67684067538809, 1, 50)
    assert len(record) == 1
    assert str(record[0].message) == MESSAGES[1].format(limit=50)
    assert "(50)" in str(record[0].message)
    assert issubclass(QuadpackWarning, RuntimeWarning)


@pytest.mark.parametrize("case, options, ier", [
    ("oscillatory", "relative_only", 2),
    ("interior_pole", "quad_opts", 3),
    ("log_over_power", "quad_opts", 4),
    ("cancellation", "scipy_defaults", 5),
])
def test_every_nonzero_code_warns(case, options, ier):
    f, a, b = BATTERY[case]
    with pytest.warns(QuadpackWarning, match=MESSAGES[ier].split(".")[0]):
        out = qagse(f, a, b, **OPTIONS[options])
    assert out.ier == ier


def test_success_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = qagse(lambda x: np.sqrt(x), 0.0, 1.0, **QUAD_OPTS)
    assert out.ier == 0 and abs(out.result - 2.0 / 3.0) <= 1e-14


@pytest.mark.parametrize("opts", [
    dict(epsabs=0.0, epsrel=1e-15),
    dict(epsabs=-1.0, epsrel=0.0),
    dict(epsabs=0.0, epsrel=50.0 * np.finfo(float).eps * 0.5),
    dict(limit=0),
    dict(limit=-3),
])
def test_invalid_input_raises(opts):
    with pytest.raises(ValueError):
        qagse(lambda x: x, 0.0, 1.0, **opts)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
def test_infinite_interval_raises(a, b):
    with pytest.raises(ValueError, match="finite interval"):
        qagse(lambda x: x, a, b)


def test_integrand_shape_is_checked():
    with pytest.raises(ValueError, match="shape"):
        qagse(lambda x: x[:3], 0.0, 1.0)


def test_one_call_per_panel_pair():
    sizes = []

    def f(x):
        sizes.append(x.shape)
        return np.sqrt(x)

    out = qagse(f, 0.0, 1.0, **QUAD_OPTS)
    assert out.last > 2
    # the first panel, then one call with both halves of every bisection
    assert sizes == [(21,)] + [(42,)] * (out.last - 1)
    assert out.neval == 21 * len(sizes) * 2 - 21


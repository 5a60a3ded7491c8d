import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercert.expressions import (
    FUNCTION_NAMES,
    EvalDomainError,
    ExpressionError,
    Jet2,
    ParseError,
    UnknownIdentifierError,
    compile_real,
    eval_jet,
    eval_real,
    format_expr,
    parse,
)
from eulercert.expressions import _has_zero, _int_exponent, _nonpositive


def jet_at(text, x, params=None, var="x"):
    return eval_jet(parse(text, var), Jet2.variable(x), params)


class TestParsing:
    def test_depth_of_nested_rational(self):
        ast = parse("1/(1+x^2)^2", "x")
        assert ast.depth() == 5

    def test_paper_profile_parses(self):
        ast = parse("-1/r^2 + 1/(1+r^2)^2", "r")
        assert ast.param_names() == frozenset()

    def test_unbalanced_paren_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("1/(", "x")
        assert err.value.position == 3

    def test_empty_expression_rejected(self):
        with pytest.raises(ParseError):
            parse("   ", "x")

    def test_unknown_function_rejected_at_parse(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("foo(x)", "x")

    def test_unknown_identifier_recorded_not_rejected(self):
        ast = parse("a*x + b", "x")
        assert ast.param_names() == frozenset({"a", "b"})

    def test_scientific_notation(self):
        assert eval_real(parse("1.5e-3 + 2E2", "x"), 0.0) == pytest.approx(200.0015)

    def test_whitespace_insensitive(self):
        a = parse("1 +  2 * x", "x")
        b = parse("1+2*x", "x")
        assert eval_real(a, 3.0) == eval_real(b, 3.0)

    def test_depth_cap(self):
        deep = "(" * 300 + "x" + ")" * 300
        with pytest.raises(ParseError, match="deeply nested"):
            parse(deep, "x")

    def test_stray_character(self):
        with pytest.raises(ParseError):
            parse("x $ 2", "x")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x + 1 )", "x")


class TestPrecedence:
    @pytest.mark.parametrize(
        "text,x,expected",
        [
            ("-x^2", 2.0, -4.0),  # unary minus binds below ^
            ("2^-2", 0.0, 0.25),  # signed exponent
            ("2^3^2", 0.0, 512.0),  # right associative
            ("6/3/2", 0.0, 1.0),  # left associative
            ("1+2*3^2", 0.0, 19.0),
            ("-2-3", 0.0, -5.0),
            ("2*-3", 0.0, -6.0),
        ],
    )
    def test_value(self, text, x, expected):
        assert eval_real(parse(text, "x"), x) == expected


class TestJetEvaluation:
    def test_exp_at_zero(self):
        j = jet_at("exp(x)", 0.0)
        assert (j.value, j.d1, j.d2) == (1.0, 1.0, 1.0)

    def test_square_at_three(self):
        j = jet_at("x^2", 3.0)
        assert (j.value, j.d1, j.d2) == (9.0, 6.0, 2.0)

    def test_bump_profile_at_one(self):
        j = jet_at("1/(1+x^2)^2", 1.0)
        assert j.value == 0.25
        assert j.d1 == -0.5
        # second derivative against a central second difference
        f = lambda x: 1.0 / (1.0 + x * x) ** 2
        h = 1e-5
        fd2 = (f(1.0 + h) - 2.0 * f(1.0) + f(1.0 - h)) / h**2
        assert abs(j.d2 - fd2) <= 1e-3 * (1.0 + abs(j.d2))
        assert j.d2 == pytest.approx(1.0, abs=1e-12)

    def test_parameters_resolve(self):
        assert eval_real(parse("1/(T-x)", "x"), 1.0, {"T": 2.0}) == 1.0

    def test_time_variable(self):
        assert eval_real(parse("t", "t"), 1.0) == 1.0

    def test_pole_is_domain_error(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            eval_real(parse("1/(T-x)", "x"), 1.0, {"T": 1.0})

    def test_missing_parameter_is_error(self):
        with pytest.raises(UnknownIdentifierError, match="'a'"):
            eval_real(parse("a*x", "x"), 1.0)

    @pytest.mark.parametrize("text", ["ln(x)", "sqrt(x)"])
    def test_positive_domain_enforced(self, text):
        with pytest.raises(EvalDomainError):
            jet_at(text, -1.0)

    def test_fractional_power_of_negative_rejected(self):
        with pytest.raises(EvalDomainError, match="a > 0"):
            jet_at("x^0.5", -2.0)

    def test_integer_power_of_negative_ok(self):
        j = jet_at("x^3", -2.0)
        assert (j.value, j.d1, j.d2) == (-8.0, 12.0, -12.0)

    def test_negative_integer_power(self):
        j = jet_at("x^-2", 2.0)
        assert j.value == 0.25
        assert j.d1 == -0.25  # -2 x^-3
        assert j.d2 == pytest.approx(0.375)  # 6 x^-4

    def test_batched_evaluation_matches_scalar(self):
        ast = parse("sin(x)/(1+x^2)", "x")
        xs = np.array([0.3, 1.7, -2.2])
        batched = eval_jet(ast, Jet2.variable(xs))
        for i, x in enumerate(xs):
            single = eval_jet(ast, Jet2.variable(float(x)))
            assert batched.value[i] == single.value
            assert batched.d1[i] == single.d1
            assert batched.d2[i] == single.d2


# Expressions used across the finite-difference and round-trip properties.
CORPUS = [
    ("1/(1+x^2)^2", (-3.0, 3.0)),
    ("-1/x^2 + 1/(1+x^2)^2", (0.2, 4.0)),
    ("exp(-x^2)*sin(3*x)", (-2.0, 2.0)),
    ("ln(1 + x^2) + sqrt(2 + x)", (-1.5, 3.0)),
    ("atan(x)/(2 + cos(x))", (-4.0, 4.0)),
    ("x^3 - 2*x + 0.5", (-3.0, 3.0)),
    ("(1 + x/3)^-3", (-2.0, 5.0)),
    ("2^x", (-2.0, 2.0)),
]


def _central_fd(f, x, h):
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    return d1, d2


@pytest.mark.parametrize("text,interval", CORPUS)
@pytest.mark.parametrize("h", [1e-4, 1e-5])
def test_jet_derivatives_match_finite_differences(text, interval, h):
    ast = parse(text, "x")
    lo, hi = interval
    for x in np.linspace(lo + 0.05, hi - 0.05, 17):
        jet = eval_jet(ast, Jet2.variable(float(x)))
        f = lambda z: eval_real(ast, float(z))
        fd1, fd2 = _central_fd(f, float(x), h)
        assert abs(jet.d1 - fd1) <= 1e-4 * (1.0 + abs(jet.d1))
        assert abs(jet.d2 - fd2) <= 1e-3 * (1.0 + abs(jet.d2))


@pytest.mark.parametrize("text,interval", CORPUS)
def test_format_parse_round_trip(text, interval):
    ast = parse(text, "x")
    rendered = format_expr(ast)
    ast2 = parse(rendered, "x")
    lo, hi = interval
    rng = np.random.default_rng(0)
    for x in lo + (hi - lo) * rng.random(100):
        j1 = eval_jet(ast, Jet2.variable(float(x)))
        j2 = eval_jet(ast2, Jet2.variable(float(x)))
        assert (j1.value, j1.d1, j1.d2) == (j2.value, j2.d1, j2.d2)


coeffs = st.integers(min_value=-3, max_value=3)


@given(a=coeffs, b=coeffs, c=coeffs, d=coeffs, e=coeffs, x=st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_product_rule_exact_on_polynomials(a, b, c, d, e, x):
    # (a x^2 + b x + c) * (d x + e): integer data keeps every float op exact,
    # so the jet must reproduce the calculus derivatives with zero error.
    p = lambda z: a * z * z + b * z + c
    q = lambda z: d * z + e
    jp = Jet2(float(p(x)), float(2 * a * x + b), float(2 * a))
    jq = Jet2(float(q(x)), float(d), 0.0)
    prod = jp * jq
    assert prod.value == float(p(x) * q(x))
    assert prod.d1 == float(p(x) * d + q(x) * (2 * a * x + b))
    assert prod.d2 == float(2 * a * q(x) + 2 * (2 * a * x + b) * d)


@given(a=coeffs, b=coeffs, x=st.integers(-2, 2))
@settings(max_examples=200, deadline=None)
def test_chain_rule_exact_on_polynomial_powers(a, b, x):
    # ((a x + b)^2)^2 via the power path against the expanded derivatives
    inner = a * x + b
    j = eval_jet(parse("(a*x + b)^4", "x"), Jet2.variable(float(x)),
                 {"a": float(a), "b": float(b)})
    assert j.value == float(inner**4)
    assert j.d1 == float(4 * a * inner**3)
    assert j.d2 == float(12 * a * a * inner**2)


# ---------------------------------------------------------------------------
# Compiled value-only evaluator against the jet interpreter
# ---------------------------------------------------------------------------

PARITY_PARAMS = {"a": 0.5, "b": -2.0, "k": 3.0}

_literals = st.sampled_from(["0", "1", "2", "3", "0.5", "1.5e-3", "2.5", "1e3"])
_leaves = st.one_of(_literals, st.just("x"), st.sampled_from(sorted(PARITY_PARAMS)))


def _grow(sub):
    return st.one_of(
        st.builds(lambda e: f"-{e}", sub),
        st.builds(lambda l, op, r: f"({l} {op} {r})", sub, st.sampled_from("+-*/"), sub),
        st.builds(lambda e, n: f"({e})^{n}", sub,
                  st.sampled_from(["2", "3", "-1", "-2", "0", "0.5", "-1.5", "k", "(k - 1)"])),
        st.builds(lambda l, r: f"({l})^({r})", sub, sub),  # exponent may hold x
        st.builds(lambda fn, e: f"{fn}({e})", st.sampled_from(FUNCTION_NAMES), sub),
    )


expression_texts = st.recursive(_leaves, _grow, max_leaves=12)
scalar_points = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)


def _outcome(fn):
    try:
        with np.errstate(all="ignore"):
            return "value", fn()
    except ExpressionError as e:
        return type(e), str(e)


def _assert_same_outcome(compiled, reference):
    assert compiled[0] == reference[0]
    if compiled[0] != "value":
        assert compiled[1] == reference[1]
        return
    got, want = compiled[1], reference[1]
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()  # bit for bit, -0.0 and NaN too


@given(text=expression_texts, x=scalar_points)
@settings(max_examples=400, deadline=None)
def test_compiled_scalar_matches_jet_value(text, x):
    ast = parse(text, "x")
    f = compile_real(ast, PARITY_PARAMS)
    _assert_same_outcome(_outcome(lambda: f(x)),
                         _outcome(lambda: eval_jet(ast, Jet2.variable(x), PARITY_PARAMS).value))


@given(text=expression_texts,
       xs=st.lists(scalar_points, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_compiled_array_matches_jet_value(text, xs):
    ast = parse(text, "x")
    x = np.array(xs)
    f = compile_real(ast, PARITY_PARAMS)
    _assert_same_outcome(_outcome(lambda: f(x)),
                         _outcome(lambda: eval_jet(ast, Jet2.variable(x), PARITY_PARAMS).value))


@given(text=expression_texts,
       xs=st.lists(scalar_points, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_first_order_jet_matches_second_order(text, xs):
    # an array seed of order 1 carries the value and d1 of order 2, bit for bit
    ast = parse(text, "x")
    x = np.array(xs)

    def evaluate(order):
        jet = eval_jet(ast, Jet2.variable(x, order), PARITY_PARAMS)
        return [(np.shape(v), np.asarray(v).tobytes()) for v in (jet.value, jet.d1)]

    first, second = _outcome(lambda: evaluate(1)), _outcome(lambda: evaluate(2))
    assert first == second


@pytest.mark.parametrize("text,x", [
    ("ln(x)", 0.0), ("ln(x - 1)", 0.5), ("sqrt(x)", -1.0), ("sqrt(x^2)", 0.0),
    ("1/(x - 2)", 2.0), ("a/(x*x)", 0.0),
    ("x^-2", 0.0), ("(x - 1)^-1", 1.0),
    ("x^0.5", -4.0), ("(x - 1)^1.5", 1.0), ("x^x", -1.0), ("2^(ln(x))", -1.0),
    ("ln(x) + missing", -1.0), ("missing + ln(x)", -1.0), ("x^missing", 2.0),
])
@pytest.mark.parametrize("batched", [False, True])
def test_compiled_domain_errors_match(text, x, batched):
    ast = parse(text, "x")
    point = np.array([1.5, x]) if batched else x
    compiled = _outcome(lambda: compile_real(ast, PARITY_PARAMS)(point))
    reference = _outcome(lambda: eval_jet(ast, Jet2.variable(point), PARITY_PARAMS).value)
    assert compiled[0] in (EvalDomainError, UnknownIdentifierError)
    assert compiled == reference


def test_eval_real_uses_compiled_values():
    ast = parse("-1/r^2 + 1/(1+r^2)^2", "r")
    f = compile_real(ast)
    for r in (0.3, 1.0, 2.7):
        assert f(r) == eval_real(ast, r) == eval_jet(ast, Jet2.variable(r)).value


# The domain checks take ndarray methods for a float64 array and an isinstance
# test for a float; the numpy-wrapper forms they replaced are the oracle.
_SPECIALS = [0.0, -0.0, 1.5, -2.0, 5e-324, math.nan, -math.nan, math.inf, -math.inf]
_DOMAIN_VALUES = (
    _SPECIALS
    + [np.float64(v) for v in _SPECIALS]
    + [np.array(v) for v in _SPECIALS]  # 0-d arrays
    + [np.array([1.0, v]) for v in _SPECIALS] + [np.array([v, v]) for v in _SPECIALS]
    + [np.array([], dtype=float), np.ones((2, 3)), np.array([[1.0, 0.0], [2.0, -0.0]]),
       np.array([1.0, 0.0])[::2], np.array([0, 1]), np.array([1, 2]), np.array([-1, 3]),
       np.array(0), np.array([1.5, 0.0], dtype=np.float32), np.array([1.0, 0.0], dtype=">f8"),
       0, 3, -1, [1.0, 0.0], (2.0, 3.0)]
)


@pytest.mark.parametrize("v", _DOMAIN_VALUES, ids=lambda v: " ".join(repr(v).split()))
def test_domain_checks_agree_with_the_numpy_forms(v):
    has_zero = v == 0.0 if isinstance(v, float) else bool(np.any(np.asarray(v) == 0.0))
    nonpositive = v <= 0.0 if isinstance(v, float) else bool(np.any(np.asarray(v) <= 0.0))
    assert _has_zero(v) == has_zero
    assert _nonpositive(v) == nonpositive


def _old_int_exponent(expo):
    expo_constant = (np.ndim(expo.d1) == 0 and np.ndim(expo.d2) == 0 and expo.d1 == 0.0
                     and expo.d2 == 0.0 and np.ndim(expo.value) == 0)
    if expo_constant and float(expo.value).is_integer() and abs(expo.value) <= 1000:
        return int(expo.value)
    return None


_EXPONENT_VALUES = [2.0, -3.0, 0.0, -0.0, 2.5, 1000.0, 1001.0, math.nan, math.inf, -math.inf,
                    np.float64(4.0), np.array(2.0), np.array(2.5), np.array([2.0]), np.ones(3)]
_DERIVATIVES = [0.0, -0.0, 1.0, math.nan, np.float64(0.0), np.array(0.0), np.zeros(1),
                np.zeros(2)]


@pytest.mark.parametrize("value", _EXPONENT_VALUES, ids=repr)
def test_int_exponent_agrees_with_the_ndim_form(value):
    for d1 in _DERIVATIVES:
        for d2 in _DERIVATIVES + [None]:
            expo = Jet2(value, d1, d2)
            assert _int_exponent(expo) == _old_int_exponent(expo), (d1, d2)

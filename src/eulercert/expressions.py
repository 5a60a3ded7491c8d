"""Single-variable expression parsing and second-order jet evaluation.

The profile functions that parameterize solution families (circulation
strength over time, radial velocity profiles, traveling-wave shapes) are
supplied as strings in a small arithmetic grammar.  Parsed expressions are
evaluated together with their first and second derivatives by propagating
truncated second-order Taylor triples (value, d1, d2) through the tree, so
every profile automatically carries the derivatives that the PDE residual
formulas need.  A first-order seed (``Jet2.variable(x, order=1)``) skips the
second derivatives and carries the same value and d1.  Where only values
are needed, ``compile_real`` turns an AST into a closure that repeats the
same value arithmetic without the derivatives.

Grammar summary:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

'^' binds tightest (so ``-x^2`` is ``-(x^2)``), numeric literals accept
decimal and scientific notation, and whitespace is insignificant.  The
function set is exp, ln, sqrt, sin, cos, atan.  Absolute values are not in
the grammar (they are not twice differentiable); write squared-modulus
profiles as ``(...)^2``.  One identifier is the declared free variable;
any other identifier is a named parameter that must resolve at evaluation
time.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "ExpressionError",
    "ParseError",
    "EvalDomainError",
    "UnknownIdentifierError",
    "Jet2",
    "ExprAst",
    "ParamEnv",
    "parse",
    "eval_jet",
    "eval_real",
    "compile_real",
    "format_expr",
]

MAX_DEPTH = 256

FUNCTION_NAMES = ("exp", "ln", "sqrt", "sin", "cos", "atan")


class ExpressionError(ValueError):
    """Base class for expression parsing and evaluation failures."""


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvalDomainError(ExpressionError):
    """Raised when evaluation leaves the mathematical domain of a node."""


class UnknownIdentifierError(ExpressionError):
    """Raised when an identifier does not resolve in the parameter environment."""


ParamEnv = dict  # name -> float; missing names are an error, never a default


# ---------------------------------------------------------------------------
# Second-order jets
# ---------------------------------------------------------------------------

Real = Union[float, np.ndarray]
_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class Jet2:
    """Value plus first and second derivative with respect to one seed variable.

    Arithmetic follows truncated second-order Taylor rules exactly, e.g.
    ``(f*g).d2 == f.d2*g.value + 2*f.d1*g.d1 + f.value*g.d2``.  Entries may
    be scalars or numpy arrays of a common broadcastable shape, so a single
    evaluation can cover a whole batch of seed points.

    A first-order jet has ``d2`` None, and so has every jet computed from
    it: its value and d1 are those of the second-order jet bit for bit
    (for an array seed; a scalar seed can take another ``^`` path, see
    ``_int_exponent``), without the second-derivative arithmetic.
    """

    value: Real
    d1: Real
    d2: Optional[Real]

    @staticmethod
    def variable(x: Real, order: int = 2) -> "Jet2":
        """Seed for the free variable: (x, 1, 0), or (x, 1, None) for order 1."""
        return Jet2(x, 1.0, 0.0 if order == 2 else None)

    @staticmethod
    def constant(k: Real) -> "Jet2":
        """Seed for a constant: (k, 0, 0)."""
        return Jet2(k, 0.0, 0.0)

    def __add__(self, other: "Jet2") -> "Jet2":
        d2 = None if self.d2 is None or other.d2 is None else self.d2 + other.d2
        return Jet2(self.value + other.value, self.d1 + other.d1, d2)

    def __sub__(self, other: "Jet2") -> "Jet2":
        d2 = None if self.d2 is None or other.d2 is None else self.d2 - other.d2
        return Jet2(self.value - other.value, self.d1 - other.d1, d2)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.d1, None if self.d2 is None else -self.d2)

    def __mul__(self, other: "Jet2") -> "Jet2":
        d2 = None
        if self.d2 is not None and other.d2 is not None:
            d2 = self.d2 * other.value + 2.0 * self.d1 * other.d1 + self.value * other.d2
        return Jet2(self.value * other.value, self.d1 * other.value + self.value * other.d1, d2)

    def __truediv__(self, other: "Jet2") -> "Jet2":
        q0 = self.value / other.value
        q1 = (self.d1 - q0 * other.d1) / other.value
        q2 = None
        if self.d2 is not None and other.d2 is not None:
            q2 = (self.d2 - 2.0 * q1 * other.d1 - q0 * other.d2) / other.value
        return Jet2(q0, q1, q2)


# The domain checks run at every division, ln, sqrt and ^ of every
# evaluation, so a float and a plain ndarray take the ndarray methods, not
# numpy's Python-level np.any and np.ndim wrappers; the answers are the same.


def _nonpositive(v: Real) -> bool:
    if isinstance(v, float):
        return v <= 0.0
    if type(v) is np.ndarray:
        return bool((v <= 0.0).any())
    return bool(np.any(np.asarray(v) <= 0.0))


def _has_zero(v: Real) -> bool:
    if isinstance(v, float):
        return v == 0.0
    if type(v) is np.ndarray and v.dtype == _FLOAT64:
        return not v.all()  # NaN is nonzero, -0.0 is zero
    return bool(np.any(np.asarray(v) == 0.0))


def _is_scalar(v) -> bool:
    return isinstance(v, float) or np.ndim(v) == 0


def _chain(u: Jet2, f0: Real, f1: Real, f2: Real) -> Jet2:
    """Compose a scalar function (given f(u), f'(u), f''(u)) with a jet."""
    return Jet2(f0, f1 * u.d1, None if u.d2 is None else f2 * u.d1 * u.d1 + f1 * u.d2)


def _jet_exp(u: Jet2) -> Jet2:
    e = np.exp(u.value)
    return _chain(u, e, e, e)


def _jet_ln(u: Jet2) -> Jet2:
    if _nonpositive(u.value):
        raise EvalDomainError("ln requires a positive argument")
    inv = 1.0 / u.value
    return _chain(u, np.log(u.value), inv, -inv * inv)


def _jet_sqrt(u: Jet2) -> Jet2:
    if _nonpositive(u.value):
        raise EvalDomainError("sqrt requires a positive argument")
    s = np.sqrt(u.value)
    f1 = 0.5 / s
    return _chain(u, s, f1, -0.25 / (s * u.value))


def _jet_sin(u: Jet2) -> Jet2:
    s, c = np.sin(u.value), np.cos(u.value)
    return _chain(u, s, c, -s)


def _jet_cos(u: Jet2) -> Jet2:
    s, c = np.sin(u.value), np.cos(u.value)
    return _chain(u, c, -s, -c)


def _jet_atan(u: Jet2) -> Jet2:
    den = 1.0 + u.value * u.value
    return _chain(u, np.arctan(u.value), 1.0 / den, -2.0 * u.value / (den * den))


_JET_FUNCTIONS = {
    "exp": _jet_exp,
    "ln": _jet_ln,
    "sqrt": _jet_sqrt,
    "sin": _jet_sin,
    "cos": _jet_cos,
    "atan": _jet_atan,
}

_INT_POW_LIMIT = 1000  # beyond this an integer exponent routes through exp/ln


def _jet_int_pow(base: Jet2, n: int) -> Jet2:
    """base**n for integer n by repeated multiplication (exact jet rules)."""
    if n == 0:
        one = np.ones_like(np.asarray(base.value, dtype=float))
        return Jet2(one if one.ndim else 1.0, 0.0, 0.0)
    if n < 0:
        pos = _jet_int_pow(base, -n)
        if _has_zero(pos.value):
            raise EvalDomainError("negative power of zero")
        one = Jet2.constant(1.0)
        return one / pos
    return _power_by_squaring(base, n)


def _power_by_squaring(base, n: int):
    """base**n for n >= 1 by square-and-multiply; base is a jet or a plain value."""
    result = None
    square = base
    while n:
        if n & 1:
            result = square if result is None else result * square
        n >>= 1
        if n:
            square = square * square
    return result


def _int_exponent(expo: Jet2):
    """The exponent as an int if a^b takes the repeated-multiplication path, else None.

    An exponent that involves the seed of a first-order jet (d2 None) never
    qualifies; at an array seed it would not anyway, its value being an array.
    """
    expo_constant = (
        _is_scalar(expo.d1)
        and _is_scalar(expo.d2)
        and expo.d1 == 0.0
        and expo.d2 == 0.0
        and _is_scalar(expo.value)
    )
    if expo_constant and float(expo.value).is_integer() and abs(expo.value) <= _INT_POW_LIMIT:
        return int(expo.value)
    return None


def _jet_pow(base: Jet2, expo: Jet2) -> Jet2:
    n = _int_exponent(expo)
    if n is not None:
        return _jet_int_pow(base, n)
    if _nonpositive(base.value):
        raise EvalDomainError("a^b with non-integer b requires a > 0")
    return _jet_exp(expo * _jet_ln(base))


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    """An expression AST node; nodes are immutable and compare by value."""

    def depth(self) -> int:
        raise NotImplementedError

    def param_names(self) -> frozenset:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    """A numeric literal."""

    value: float

    def depth(self):
        return 1

    def param_names(self):
        return frozenset()


@dataclass(frozen=True)
class Var(Node):
    """The free variable of the expression."""

    name: str

    def depth(self):
        return 1

    def param_names(self):
        return frozenset()


@dataclass(frozen=True)
class Param(Node):
    """A named parameter, looked up in the parameter environment."""

    name: str

    def depth(self):
        return 1

    def param_names(self):
        return frozenset({self.name})


@dataclass(frozen=True)
class Neg(Node):
    """Unary minus."""

    child: Node

    def depth(self):
        return 1 + self.child.depth()

    def param_names(self):
        return self.child.param_names()


@dataclass(frozen=True)
class Bin(Node):
    """A binary operation: ``left op right``."""

    op: str  # one of + - * / ^
    left: Node
    right: Node

    def depth(self):
        return 1 + max(self.left.depth(), self.right.depth())

    def param_names(self):
        return self.left.param_names() | self.right.param_names()


@dataclass(frozen=True)
class Call(Node):
    """One of the six elementary functions applied to an argument."""

    fn: str
    arg: Node

    def depth(self):
        return 1 + self.arg.depth()

    def param_names(self):
        return self.arg.param_names()


ExprAst = Node


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "number":
                kind = "num"
            tokens.append((kind, m.group(), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, variable_name: str):
        self.tokens = tokens
        self.i = 0
        self.variable_name = variable_name
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, val, pos = self.peek()
        if val != text:
            raise ParseError(f"expected {text!r}", pos)
        return self.advance()

    def _enter(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError("expression too deeply nested", self.peek()[2])

    def _leave(self):
        self.depth -= 1

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return node

    def expr(self) -> Node:
        self._enter()
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = Bin(op, node, self.term())
        self._leave()
        return node

    def term(self) -> Node:
        self._enter()
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = Bin(op, node, self.unary())
        self._leave()
        return node

    def unary(self) -> Node:
        self._enter()
        if self.peek()[1] == "-":
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self._leave()
        return node

    def power(self) -> Node:
        self._enter()
        node = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            node = Bin("^", node, self.unary())  # right-assoc, exponent may be signed
        self._leave()
        return node

    def atom(self) -> Node:
        self._enter()
        kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            node = Num(float(val))
        elif kind == "ident":
            self.advance()
            if self.peek()[1] == "(":
                if val not in FUNCTION_NAMES:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect(")")
                node = Call(val, arg)
            elif val == self.variable_name:
                node = Var(val)
            else:
                # recorded as a parameter; resolution is checked at evaluation
                node = Param(val)
        elif val == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
        else:
            raise ParseError("expected expression", pos)
        self._leave()
        return node


def parse(text: str, variable_name: str) -> ExprAst:
    """Parse ``text`` into an AST whose free variable is ``variable_name``.

    Raises ParseError (with a 0-based position) on malformed input or an
    unknown function name.  Identifiers other than the free variable are
    accepted as parameters and checked when evaluated.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(_tokenize(text), variable_name).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_jet(ast: ExprAst, seed: Jet2, params: ParamEnv | None = None) -> Jet2:
    """Evaluate ``ast`` and its first two derivatives at ``seed``.

    ``seed`` is the jet of the free variable, normally ``Jet2.variable(x)``;
    its value may be a numpy array to evaluate a whole batch at once.
    Parameters are looked up in ``params`` and enter as constants.
    """
    params = params or {}
    if isinstance(ast, Num):
        return Jet2.constant(ast.value)
    if isinstance(ast, Var):
        return seed
    if isinstance(ast, Param):
        try:
            return Jet2.constant(float(params[ast.name]))
        except KeyError:
            raise UnknownIdentifierError(
                f"identifier {ast.name!r} is neither the free variable nor a known parameter"
            ) from None
    if isinstance(ast, Neg):
        return -eval_jet(ast.child, seed, params)
    if isinstance(ast, Bin):
        left = eval_jet(ast.left, seed, params)
        right = eval_jet(ast.right, seed, params)
        if ast.op == "+":
            return left + right
        if ast.op == "-":
            return left - right
        if ast.op == "*":
            return left * right
        if ast.op == "/":
            if _has_zero(right.value):
                raise EvalDomainError(f"division by zero in {format_expr(ast)}")
            return left / right
        if ast.op == "^":
            try:
                return _jet_pow(left, right)
            except EvalDomainError as e:
                raise EvalDomainError(f"{e} in {format_expr(ast)}") from None
        raise AssertionError(ast.op)
    if isinstance(ast, Call):
        arg = eval_jet(ast.arg, seed, params)
        try:
            return _JET_FUNCTIONS[ast.fn](arg)
        except EvalDomainError as e:
            raise EvalDomainError(f"{e} in {format_expr(ast)}") from None
    raise AssertionError(type(ast))


def eval_real(ast: ExprAst, x: Real, params: ParamEnv | None = None) -> Real:
    """Evaluate the plain value of ``ast`` at ``x`` (scalar or array)."""
    return compile_real(ast, params)(x)


# ---------------------------------------------------------------------------
# Compiled value-only evaluation
# ---------------------------------------------------------------------------

_REAL_FUNCTIONS = {"exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "sin": np.sin,
                   "cos": np.cos, "atan": np.arctan}
_REAL_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _real_int_pow(a: Real, n: int) -> Real:
    """Value part of ``_jet_int_pow``, multiplying in the same order."""
    if n == 0:
        one = np.ones_like(np.asarray(a, dtype=float))
        return one if one.ndim else 1.0
    if n > 0:
        return _power_by_squaring(a, n)
    pos = _power_by_squaring(a, -n)
    if _has_zero(pos):
        raise EvalDomainError("negative power of zero")
    return 1.0 / pos


def compile_real(ast: ExprAst, params: ParamEnv | None = None):
    """Compile ``ast`` into a closure ``f(x)`` returning its plain value.

    ``f(x)`` is bit-identical to ``eval_jet(ast, Jet2.variable(x), params).value``
    for scalar and array ``x``: it repeats eval_jet's value arithmetic in the
    same order with the same numpy functions, and raises the same errors with
    the same messages, but carries no derivatives.  Parameters are resolved
    once, here.  A power whose exponent depends on the free variable is left
    to eval_jet, which decides integer powers from the exponent's jet.
    """
    params = params or {}

    def delegated(x):
        return eval_jet(ast, Jet2.variable(x), params).value

    def domain_error(what):
        return EvalDomainError(f"{what} in {format_expr(ast)}")

    if isinstance(ast, Num):
        value = ast.value
        return lambda x: value
    if isinstance(ast, Var):
        return lambda x: x
    if isinstance(ast, Param):
        try:
            value = float(params[ast.name])
        except (KeyError, TypeError, ValueError):
            return delegated  # raises when called, as eval_jet does
        return lambda x: value
    if isinstance(ast, Neg):
        f = compile_real(ast.child, params)
        return lambda x: -f(x)
    if isinstance(ast, Call):
        f, fn = compile_real(ast.arg, params), _REAL_FUNCTIONS[ast.fn]
        if ast.fn not in ("ln", "sqrt"):
            return lambda x: fn(f(x))

        def positive(x):
            a = f(x)
            if _nonpositive(a):
                raise domain_error(f"{ast.fn} requires a positive argument")
            return fn(a)
        return positive
    if ast.op != "^":
        f, g = compile_real(ast.left, params), compile_real(ast.right, params)
        if ast.op in _REAL_ARITH:
            op = _REAL_ARITH[ast.op]
            return lambda x: op(f(x), g(x))

        def div(x):
            a, b = f(x), g(x)
            if _has_zero(b):
                raise domain_error("division by zero")
            return a / b
        return div
    try:  # the exponent's jet stays scalar at an array seed iff it does not involve x
        expo = eval_jet(ast.right, Jet2.variable(np.ones(1)), params)
    except (TypeError, ValueError):  # eval_jet raises it after evaluating the base
        expo = None
    if expo is None or np.ndim(expo.value):
        return delegated
    base, n = compile_real(ast.left, params), _int_exponent(expo)
    if n is not None:
        def int_pow(x):
            a = base(x)
            try:
                return _real_int_pow(a, n)
            except EvalDomainError as e:
                raise domain_error(e) from None
        return int_pow
    b = expo.value

    def real_pow(x):
        a = base(x)
        if _nonpositive(a):
            raise domain_error("a^b with non-integer b requires a > 0")
        return np.exp(b * np.log(a))
    return real_pow


def format_expr(ast: ExprAst) -> str:
    """Render an AST back to parseable text (fully parenthesized)."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, (Var, Param)):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{format_expr(ast.child)})"
    if isinstance(ast, Bin):
        return f"({format_expr(ast.left)} {ast.op} {format_expr(ast.right)})"
    if isinstance(ast, Call):
        return f"{ast.fn}({format_expr(ast.arg)})"
    raise AssertionError(type(ast))

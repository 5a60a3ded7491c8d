"""Single-variable expression parsing and second-order jet evaluation.

The profile functions that parameterize solution families (circulation
strength over time, radial velocity profiles, traveling-wave shapes) are
supplied as strings in a small arithmetic grammar.  Parsed expressions are
evaluated together with their first and second derivatives by propagating
truncated second-order Taylor triples (value, d1, d2) through the tree, so
every profile automatically carries the derivatives that the PDE residual
formulas need.  A first-order seed (``Jet2.variable(x, order=1)``) skips the
second derivatives and carries the same value and d1.  One compiler turns
an AST into closures that run either on jets (``compile_jet``, which
``eval_jet`` calls) or, where only values are needed, on plain values
(``compile_real``): the same program, without the derivatives.

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
time.  Both parsing and evaluation stop at MAX_DEPTH (256) levels: the
parser counts nested grammar rules, evaluation the levels of the tree, so
a sum of more than 256 terms parses but does not evaluate.
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
    "compile_jet",
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
    it, ``x^0`` included: its value and d1 are those of the second-order
    jet bit for bit, without the second-derivative arithmetic.  That holds
    for an array seed; at a scalar seed an exponent such as ``x - x + 3``
    multiplies at order 2 but goes through exp and ln at order 1 (see
    ``_int_exponent``).
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
    inv = 1.0 / u.value
    return _chain(u, np.log(u.value), inv, -inv * inv)


def _jet_sqrt(u: Jet2) -> Jet2:
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


# ln and sqrt check their argument where they are compiled, not here
_JET_FUNCTIONS = {
    "exp": _jet_exp,
    "ln": _jet_ln,
    "sqrt": _jet_sqrt,
    "sin": _jet_sin,
    "cos": _jet_cos,
    "atan": _jet_atan,
}
_REAL_FUNCTIONS = {"exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "sin": np.sin,
                   "cos": np.cos, "atan": np.arctan}

_INT_POW_LIMIT = 1000  # beyond this an integer exponent routes through exp/ln


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


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    """An expression AST node; nodes are immutable and compare by value."""

    def _walk(self):
        """Yield (node, level) for every node of the tree, this one at level 1.

        A stack, not recursion: a long sum is as deep as it has terms.
        """
        stack = [(self, 1)]
        while stack:
            node, level = stack.pop()
            yield node, level
            stack.extend((v, level + 1) for v in vars(node).values() if isinstance(v, Node))

    def depth(self) -> int:
        return max(level for _, level in self._walk())

    def param_names(self) -> frozenset:
        return frozenset(node.name for node, _ in self._walk() if isinstance(node, Param))


@dataclass(frozen=True)
class Num(Node):
    """A numeric literal."""

    value: float


@dataclass(frozen=True)
class Var(Node):
    """The free variable of the expression."""

    name: str


@dataclass(frozen=True)
class Param(Node):
    """A named parameter, looked up in the parameter environment."""

    name: str


@dataclass(frozen=True)
class Neg(Node):
    """Unary minus."""

    child: Node


@dataclass(frozen=True)
class Bin(Node):
    """A binary operation: ``left op right``."""

    op: str  # one of + - * / ^
    left: Node
    right: Node


@dataclass(frozen=True)
class Call(Node):
    """One of the six elementary functions applied to an argument."""

    fn: str
    arg: Node


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

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _domain_error(what: str, ast: ExprAst) -> EvalDomainError:
    return EvalDomainError(f"{what} in {format_expr(ast)}")


def _pow(a, b, n: Optional[int], jet: bool, ast: ExprAst):
    """a^b at the node ``ast``, for a jet (``jet``) or a plain value ``a``.

    ``b`` is the exponent, a jet or a plain value like ``a``, and ``n`` is
    ``_int_exponent`` of its jet.  An integer n multiplies by square and
    multiply, a jet by the exact jet rules and a plain value by the same
    products in the same order; any other exponent gives exp(b ln a).
    """
    if n is None:
        if _nonpositive(a.value if jet else a):
            raise _domain_error("a^b with non-integer b requires a > 0", ast)
        functions = _JET_FUNCTIONS if jet else _REAL_FUNCTIONS
        return functions["exp"](b * functions["ln"](a))
    if n == 0:  # a first-order jet stays first order
        one = np.ones_like(np.asarray(a.value if jet else a, dtype=float))
        one = one if one.ndim else 1.0
        return Jet2(one, 0.0, None if a.d2 is None else 0.0) if jet else one
    power, square, m = None, a, abs(n)
    while m:
        if m & 1:
            power = square if power is None else power * square
        m >>= 1
        if m:
            square = square * square
    if n > 0:
        return power
    if _has_zero(power.value if jet else power):
        raise _domain_error("negative power of zero", ast)
    return (Jet2.constant(1.0) if jet else 1.0) / power


def _compile(ast: ExprAst, params: ParamEnv, jet: bool, level: int = 1):
    """Compile ``ast`` into a closure ``f(x)`` of the free variable.

    With ``jet``, ``x`` is the variable's jet and ``f(x)`` the expression's
    jet; without, both are plain values.  The two kinds run the same
    arithmetic in the same order, with the same domain checks and messages,
    so a value closure returns the jet closure's ``.value`` bit for bit.

    ``level`` counts the AST levels: a branch deeper than MAX_DEPTH raises
    ExpressionError here, before its closures could exhaust the stack.
    """
    if level > MAX_DEPTH:
        raise ExpressionError(f"expression too deeply nested to evaluate: a branch is "
                              f"{level - 1 + ast.depth()} levels deep, the limit is {MAX_DEPTH}")
    return _COMPILERS[type(ast)](ast, params, jet, level + 1)


def _compile_num(ast: Num, params: ParamEnv, jet: bool, level: int):
    value = Jet2.constant(ast.value) if jet else ast.value
    return lambda x: value


def _compile_var(ast: Var, params: ParamEnv, jet: bool, level: int):
    return lambda x: x


def _compile_param(ast: Param, params: ParamEnv, jet: bool, level: int):
    """A constant looked up here; if the lookup fails it fails again when called."""
    def lookup(x=None):
        try:
            value = float(params[ast.name])
        except KeyError:
            raise UnknownIdentifierError(
                f"identifier {ast.name!r} is neither the free variable nor a known parameter"
            ) from None
        return Jet2.constant(value) if jet else value
    try:
        value = lookup()
    except (TypeError, ValueError):
        return lookup
    return lambda x: value


def _compile_neg(ast: Neg, params: ParamEnv, jet: bool, level: int):
    f = _compile(ast.child, params, jet, level)
    return lambda x: -f(x)


def _compile_call(ast: Call, params: ParamEnv, jet: bool, level: int):
    f = _compile(ast.arg, params, jet, level)
    fn = (_JET_FUNCTIONS if jet else _REAL_FUNCTIONS)[ast.fn]
    if ast.fn not in ("ln", "sqrt"):
        return lambda x: fn(f(x))

    def positive(x):
        a = f(x)
        if _nonpositive(a.value if jet else a):
            raise _domain_error(f"{ast.fn} requires a positive argument", ast)
        return fn(a)
    return positive


def _compile_bin(ast: Bin, params: ParamEnv, jet: bool, level: int):
    """``left op right``; an exponent is always compiled as a jet.

    Whether a^b multiplies is decided from the exponent's jet.  A jet
    closure decides on each call.  A value closure decides a constant
    exponent once, here, and evaluates an exponent that reads the variable
    at ``Jet2.variable(x)`` on each call.
    """
    f = _compile(ast.left, params, jet, level)
    g = _compile(ast.right, params, jet or ast.op == "^", level)
    if ast.op in _ARITH:
        op = _ARITH[ast.op]
        return lambda x: op(f(x), g(x))
    if ast.op == "/":
        def div(x):
            a, b = f(x), g(x)
            if _has_zero(b.value if jet else b):
                raise _domain_error("division by zero", ast)
            return a / b
        return div
    fixed = None
    if not jet and not any(isinstance(node, Var) for node, _ in ast.right._walk()):
        try:
            with np.errstate(all="ignore"):  # a float event here belongs to no call
                expo = g(None)
            fixed = _int_exponent(expo), expo.value
        except (TypeError, ValueError):
            pass  # raised again on each call, after the base

    def power(x):
        a = f(x)
        if fixed is not None:
            n, b = fixed
        else:
            expo = g(x if jet else Jet2.variable(x))
            n, b = _int_exponent(expo), expo if jet else expo.value
        return _pow(a, b, n, jet, ast)
    return power


_COMPILERS = {Num: _compile_num, Var: _compile_var, Param: _compile_param, Neg: _compile_neg,
              Call: _compile_call, Bin: _compile_bin}


def eval_jet(ast: ExprAst, seed: Jet2, params: ParamEnv | None = None) -> Jet2:
    """Evaluate ``ast`` and its first two derivatives at ``seed``.

    ``seed`` is the jet of the free variable, normally ``Jet2.variable(x)``;
    its value may be a numpy array to evaluate a whole batch at once.
    Parameters are looked up in ``params`` and enter as constants.
    """
    return compile_jet(ast, params)(seed)


def compile_jet(ast: ExprAst, params: ParamEnv | None = None):
    """Compile ``ast`` into a closure ``f(seed)`` returning its jet at the
    jet ``seed`` of the free variable, of either order: ``eval_jet`` without
    compiling again on each call.  Parameters are resolved once, here."""
    return _compile(ast, params or {}, True)


def eval_real(ast: ExprAst, x: Real, params: ParamEnv | None = None) -> Real:
    """Evaluate the plain value of ``ast`` at ``x`` (scalar or array)."""
    return compile_real(ast, params)(x)


def compile_real(ast: ExprAst, params: ParamEnv | None = None):
    """Compile ``ast`` into a closure ``f(x)`` returning its plain value.

    ``f(x)`` is bit-identical to ``eval_jet(ast, Jet2.variable(x), params).value``
    for scalar and array ``x``, and raises the same errors with the same
    messages: both run ``_compile``'s closures, this one without the
    derivatives.  Parameters and constant exponents are resolved once, here.
    """
    return _compile(ast, params or {}, False)


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

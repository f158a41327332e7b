"""Parser and evaluators for scenario matrix-entry expressions.

Grammar (ASCII):

    expr   := term { ("+"|"-") term }
    term   := factor { ("*"|"/") factor }
    factor := base [ "^" integer ]
    base   := number | "i" | "gamma" | "sigma" | "lambda" digits
            | "u" digits | "(" expr ")" | "exp" "(" expr ")"
    number := decimal with optional fraction and exponent

:func:`eval_ast` compiles each node once into two closures kept on the
node: one for a point, and one for a stack of points that follows
CPython's complex formulas, so that each row has the point's bits.  The
tests cross-check it against an independent single-pass evaluator.
"""

from __future__ import annotations

import cmath
import functools
import operator
import re
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    def __init__(self, msg, pos, expected=None):
        detail = f"{msg} at position {pos}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.pos = pos
        self.expected = expected


class EvalPoleError(ZeroDivisionError):
    def __init__(self, msg, pos=None):
        super().__init__(msg)
        self.pos = pos


class EvalOverflowError(OverflowError):
    pass


def _cexp(v):
    try:
        return cmath.exp(v)
    except OverflowError:
        raise EvalOverflowError("exponential overflow")


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Const:
    name: str  # 'i' | 'gamma' | 'sigma'

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class LambdaVar:
    index: int  # 1-based

    def __str__(self):
        return f"lambda{self.index}"


@dataclass(frozen=True)
class UVar:
    index: int  # 1-based

    def __str__(self):
        return f"u{self.index}"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int = field(default=0, compare=False)

    def __str__(self):
        level = 1 if self.op in "+-" else 2
        lhs = _wrap(self.left, level, left=True)
        # the parser is left-associative, so a right child at the same
        # precedence must keep its parentheses
        rhs = _wrap(self.right, level, left=False, strict=True)
        return f"{lhs}{self.op}{rhs}"


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int

    def __str__(self):
        return f"{_wrap(self.base, 3, left=True)}^{self.exponent}"


@dataclass(frozen=True)
class Exp:
    arg: object

    def __str__(self):
        return f"exp({self.arg})"


def _level(node):
    if isinstance(node, BinOp):
        return 1 if node.op in "+-" else 2
    if isinstance(node, Pow):
        return 3
    return 4


def _wrap(node, parent_level, left, strict=False):
    lvl = _level(node)
    if lvl < parent_level or (strict and lvl == parent_level):
        return f"({node})"
    return str(node)


def to_source(node) -> str:
    """Print an AST back to grammar-conforming source."""
    return str(node)


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[a-z]+\d*)"
    r"|(?P<op>[-+*/^()]))"
)


def tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(src) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


_NAME_RE = re.compile(r"^(lambda|u)(\d+)$")


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.peek()
        if text != value:
            raise ParseError(f"found {text!r}" if text else "unexpected end",
                             pos, expected=repr(value))
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op, pos = self.advance()
            node = BinOp(op, node, self.term(), pos)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.advance()
            node = BinOp(op, node, self.factor(), pos)
        return node

    def factor(self):
        node = self.base()
        if self.peek()[1] == "^":
            self.advance()
            kind, text, pos = self.peek()
            sign = 1
            if text == "-":
                self.advance()
                sign = -1
                kind, text, pos = self.peek()
            if kind != "number" or not text.isdigit():
                raise ParseError(f"found {text!r}" if text else "unexpected end",
                                 pos, expected="an integer exponent")
            self.advance()
            node = Pow(node, sign * int(text))
        return node

    def base(self):
        kind, text, pos = self.advance()
        if kind == "number":
            return Num(float(text))
        if kind == "name":
            if text == "i":
                return Const("i")
            if text in ("gamma", "sigma"):
                return Const(text)
            if text == "exp":
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return Exp(inner)
            m = _NAME_RE.match(text)
            if m:
                idx = int(m.group(2))
                if idx < 1:
                    raise ParseError("variable indices are 1-based", pos)
                return LambdaVar(idx) if m.group(1) == "lambda" else UVar(idx)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if text == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"found {text!r}" if text else "unexpected end",
                         pos, expected="a value")


def parse_expr(src: str):
    """Parse a source string into an AST."""
    return _Parser(src).parse()


# -- evaluation ---------------------------------------------------------------


POLE_FLOOR = 1e-12


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}

# A stack closure carries complex values as (real, imaginary) float64
# parts and combines them by CPython's own formulas (complexobject.c),
# which numpy's complex arithmetic does not follow bit for bit.


def _pair(z):
    z = complex(z)
    return np.float64(z.real), np.float64(z.imag)


_ONE = _pair(1.0)


def _mul(a, b):  # _Py_c_prod
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


_STACK_ARITH = {
    "+": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "-": lambda a, b: (a[0] - b[0], a[1] - b[1]),
    "*": _mul,
}


def _quot(a, b):
    """_Py_c_quot: Smith's division, divided by the larger part of b."""
    (ar, ai), (br, bi) = a, b
    abs_r, abs_i = np.abs(br), np.abs(bi)
    ratio = bi / br
    denom = br + bi * ratio
    by_real = ((ar + ai * ratio) / denom, (ai - ar * ratio) / denom)
    ratio = br / bi
    denom = br * ratio + bi
    by_imag = ((ar * ratio + ai) / denom, (ai * ratio - ar) / denom)
    # b = 0 (EDOM in C) and a b with a NaN part come out NaN; callers mark such rows
    return tuple(np.where(abs_r >= abs_i, x, y) for x, y in zip(by_real, by_imag))


def _powu(x, e):
    """c_powu: x**e for an integer e >= 0 by repeated squaring."""
    r, mask = _ONE, 1
    while mask <= e:
        if e & mask:
            r = _mul(r, x)
        mask <<= 1
        x = _mul(x, x)
    return r


def _near_zero(z):
    """Rows whose abs() is below the pole floor, or is not a finite number."""
    h = np.hypot(*z)
    return ~((h >= POLE_FLOOR) & (h < np.inf))


def _rowwise(f, z, bad):
    """f on each value of the parts z, NaN and marked in ``bad`` where it raises."""
    re, im = np.broadcast_arrays(*z)
    out, failed = np.empty(re.size, dtype=complex), np.zeros(re.size, dtype=bool)
    for k, (x, y) in enumerate(zip(re.ravel().tolist(), im.ravel().tolist())):
        try:
            out[k] = f(complex(x, y))
        except (ArithmeticError, ValueError):
            out[k], failed[k] = np.nan, True
    bad.append(failed)
    return out.real, out.imag


def _compile(n):
    """(point closure, stack closure, uses sigma) for an AST node.

    The point closure maps (lam, u, gamma, sigma) to the node's value by
    the operations of a tree walk, in its order and with its pole and
    overflow checks.  The stack closure maps (re, im, u, gamma, sigma,
    bad), with the parts of m points (m, n) and of each spectral value
    (a number, or one per point), to the parts of the m values by the
    same operations in CPython's formulas, and marks in ``bad`` every
    row where the point closure may raise.
    """
    if isinstance(n, Num) or n == Const("i"):
        v = complex(n.value) if isinstance(n, Num) else 1j
        pair = _pair(v)
        return (lambda lam, u, g, s: v), (lambda *a: pair), False
    if isinstance(n, Const):
        if n.name == "gamma":
            return (lambda lam, u, g, s: complex(g)), (lambda re, im, u, g, s, bad: _pair(g)), False
        return (lambda lam, u, g, s: s), (lambda re, im, u, g, s, bad: s), True
    if isinstance(n, LambdaVar):
        k = n.index

        def coord(lam):  # lam of shape (n,) or (n, m)
            if k > len(lam):
                raise ValueError(f"lambda{k} out of range for rank {len(lam)}")
            return lam[k - 1]

        return ((lambda lam, u, g, s: complex(coord(lam))),
                (lambda re, im, u, g, s, bad: (coord(re.T), coord(im.T))), False)
    if isinstance(n, UVar):
        k = n.index

        def uvar(lam, u, g, s):
            if k not in u:
                raise ValueError(f"no spectral value bound for u{k}")
            return u[k]

        return ((lambda lam, u, g, s: complex(uvar(lam, u, g, s))),
                (lambda re, im, u, g, s, bad: uvar(re, u, g, s)), False)
    if isinstance(n, BinOp):
        (fa, va, sa), (fb, vb, sb) = _compile(n.left), _compile(n.right)
        if n.op in _ARITH:
            op, vop = _ARITH[n.op], _STACK_ARITH[n.op]
            return ((lambda lam, u, g, s: op(fa(lam, u, g, s), fb(lam, u, g, s))),
                    (lambda *a: vop(va(*a), vb(*a))), sa or sb)
        pos = n.pos

        def div(lam, u, g, s):
            a, b = fa(lam, u, g, s), fb(lam, u, g, s)
            if abs(b) < POLE_FLOOR:
                raise EvalPoleError(f"division by (near-)zero at position {pos}", pos)
            return a / b

        def vdiv(*a):
            x, y = va(*a), vb(*a)
            a[-1].append(_near_zero(y))
            return _quot(x, y)

        return div, vdiv, sa or sb
    if isinstance(n, Pow):
        fb, vb, sb = _compile(n.base)
        e = n.exponent

        def power(lam, u, g, s):
            base = fb(lam, u, g, s)
            if e < 0 and abs(base) < POLE_FLOOR:
                raise EvalPoleError("negative power of (near-)zero")
            return base ** e

        def vpower(*a):
            x, bad = vb(*a), a[-1]
            if e < 0:
                bad.append(_near_zero(x))
            if abs(e) > 100:  # CPython's general complex power
                return _rowwise(lambda z: z ** e, x, bad)
            r = _powu(x, abs(e))
            if e <= 0:  # c_powi: 1 / x**|e|, NaN where that divides by 0
                r = _quot(_ONE, r)
            # an infinite part raises OverflowError, division by 0 ZeroDivisionError
            bad.append(~(np.isfinite(r[0]) & np.isfinite(r[1])))
            return r

        return power, vpower, sb
    if isinstance(n, Exp):
        fa, va, sa = _compile(n.arg)
        # cmath.exp itself: numpy's exp, cos and sin differ from libm's
        return ((lambda lam, u, g, s: _cexp(fa(lam, u, g, s))),
                (lambda *a: _rowwise(cmath.exp, va(*a), a[-1])), sa)
    raise TypeError(f"unknown node {n!r}")


def _at_point(code, lam, u, gamma):
    fn, _, uses_sigma = code
    return fn(lam, u, gamma, complex(np.sum(lam)) if uses_sigma else None)


def eval_ast(node, lam, u=None, gamma=1.0):
    """Evaluate an AST at (lambda, u, gamma); sigma = sum(lambda).

    ``lam`` of shape (n,) is a point and gives a complex number; of shape
    (..., n) a stack of points, giving an array (...) with the point
    calls' values bit for bit, or the error of the first point that
    raises, with that point's flat index as its ``row``.  For a stack,
    each spectral value in ``u`` is a number or a sequence with one
    value per point in flat order (a tuple keeps ``u`` hashable).  The
    node is compiled on its first evaluation and keeps the closures.
    """
    code = getattr(node, "_code", None)
    if code is None:
        code = _compile(node)
        object.__setattr__(node, "_code", code)
    lam = np.asarray(lam, dtype=complex)
    u = {} if u is None else u
    if lam.ndim == 1:
        return _at_point(code, lam, u, gamma)
    flat = np.ascontiguousarray(lam.reshape(-1, lam.shape[-1]))
    values = {k: np.asarray(v, dtype=complex) for k, v in u.items()}
    per_row = [k for k, v in values.items() if v.ndim]
    if any(values[k].shape != (len(flat),) for k in per_row):
        raise ValueError("a spectral sequence needs one value per point")
    out = np.empty(len(flat), dtype=complex)
    bad = []
    with np.errstate(all="ignore"):
        try:
            s = np.sum(flat, axis=-1)
            parts = {k: (v.real, v.imag) for k, v in values.items()}
            out.real, out.imag = code[1](flat.real, flat.imag, parts, gamma, (s.real, s.imag), bad)
            rows = np.flatnonzero(functools.reduce(np.logical_or, bad, np.zeros(len(flat), bool)))
        except ValueError:  # an unbound variable, at every point
            rows = range(len(flat))
    # the point closure raises at the first failing row, or gives its value
    for k in rows:
        try:
            out[k] = _at_point(code, flat[k], {**u, **{i: u[i][k] for i in per_row}}, gamma)
        except (ArithmeticError, ValueError) as exc:
            exc.row = int(k)
            raise
    return out.reshape(lam.shape[:-1])


def variables(node):
    """Names of the variables an AST reads: 'gamma', 'sigma', 'lambdaK'
    and 'uK' (the constant 'i' is not one)."""
    out = set()

    def walk(n):
        if isinstance(n, BinOp):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, Pow):
            walk(n.base)
        elif isinstance(n, Exp):
            walk(n.arg)
        elif isinstance(n, (LambdaVar, UVar)) or (isinstance(n, Const) and n.name != "i"):
            out.add(str(n))

    walk(node)
    return out


def collect_u_indices(node):
    """Spectral-variable indices referenced by an AST."""
    return {int(v[1:]) for v in variables(node) if v[0] == "u"}

"""Parser and evaluators for scenario matrix-entry expressions.

Grammar (ASCII):

    expr   := term { ("+"|"-") term }
    term   := factor { ("*"|"/") factor }
    factor := base [ "^" integer ]
    base   := number | "i" | "gamma" | "sigma" | "lambda" digits
            | "u" digits | "(" expr ")" | "exp" "(" expr ")"
    number := decimal with optional fraction and exponent

:func:`eval_ast` compiles each node once into one closure kept on the
node.  It evaluates a stack of points by CPython's complex formulas, so
that each row has the bits of a tree walk on Python complex numbers; a
point is a stack of one row.  The tests cross-check it against an
independent single-pass evaluator.
"""

from __future__ import annotations

import cmath
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


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


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


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Exp:
    arg: object


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


# A closure carries complex values as (real, imaginary) float64 parts and
# combines them by CPython's own formulas (complexobject.c), which numpy's
# complex arithmetic does not follow bit for bit.


def _pair(z):
    z = complex(z)
    return np.float64(z.real), np.float64(z.imag)


_ONE, _NAN = _pair(1.0), _pair(np.nan)


def _mul(a, b):  # _Py_c_prod
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


_STACK_ARITH = {
    "+": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "-": lambda a, b: (a[0] - b[0], a[1] - b[1]),
    "*": _mul,
}


def _quot(a, b):
    """_Py_c_quot's formula: Smith's division, divided by the larger part
    of b; a value that is not finite may have other bits than CPython's."""
    (ar, ai), (br, bi) = a, b
    abs_r, abs_i = np.abs(br), np.abs(bi)
    ratio = bi / br
    denom = br + bi * ratio
    by_real = ((ar + ai * ratio) / denom, (ai - ar * ratio) / denom)
    ratio = br / bi
    denom = br * ratio + bi
    by_imag = ((ar * ratio + ai) / denom, (ai * ratio - ar) / denom)
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


def _finite(z):
    return np.isfinite(z[0]) & np.isfinite(z[1])


def _pole_test(z, errs, pole):
    """abs(z) < POLE_FLOOR raises ``pole()``, as abs() tests it from a
    clean errno: finite parts with an infinite modulus raise
    OverflowError, and a NaN modulus is no pole."""
    h = np.hypot(*z)
    if np.all((h >= POLE_FLOOR) & (h < np.inf)):
        return
    errs.extend((k, pole()) for k in np.flatnonzero(h < POLE_FLOOR).tolist())
    over = np.flatnonzero(np.isinf(h) & _finite(z)).tolist()
    errs.extend((k, OverflowError("absolute value too large")) for k in over)


def _cpython(f, args, rows, errs, overflow=None):
    """f of the Python complex numbers at the flat indices ``rows`` of the
    pairs ``args``, which gives CPython's bits, as a complex array.  A row
    where f raises appends (row, error) to ``errs``; ``overflow()``, if
    given, stands in for f's OverflowError."""
    shape = np.broadcast_shapes(*(np.shape(p) for z in args for p in z))
    cols = [np.broadcast_to(p, shape).ravel()[rows].tolist() for z in args for p in z]
    vals = np.empty(len(rows), dtype=complex)
    for j, z in enumerate(zip(*(map(complex, cols[i], cols[i + 1])
                                for i in range(0, len(cols), 2)))):
        try:
            vals[j] = f(*z)
        except (ArithmeticError, ValueError) as exc:
            errs.append((int(rows[j]), overflow() if overflow and isinstance(exc, OverflowError)
                         else exc))
    return vals


def _non_finite_by_cpython(f, args, r, errs):
    """r, with each value that is not finite computed by f as CPython
    computes it: numpy's formula may give its NaNs other bits, and
    CPython raises where an infinite or 0/0 result means an error."""
    rows = np.flatnonzero(~_finite(r))
    if not len(rows):
        return r
    re, im = (np.array(p, dtype=float).ravel() for p in r)
    vals = _cpython(f, args, rows, errs)
    re[rows], im[rows] = vals.real, vals.imag
    return re, im


def _compile(n):
    """The closure that evaluates an AST node on a stack of points.

    It maps (re, im, u, gamma, sigma, errs), with the parts of m points
    (m, n) and of each spectral value (a number, or one per point), to the
    parts of the m values: one value for all rows, or one per row.  It
    follows a tree walk on Python complex numbers: where that walk raises
    at a row, the closure appends (row, error) to ``errs``, in the walk's
    order, and the row's value is left unspecified; an error at every row
    is appended once, as row 0's.  Rows where a numpy formula may give
    other bits than CPython (a quotient or a power that is not finite, an
    exponent beyond 100 and every exponential) are computed by CPython
    itself.
    """
    if isinstance(n, Num) or n == Const("i"):
        pair = _pair(n.value if isinstance(n, Num) else 1j)
        return lambda *a: pair
    if isinstance(n, Const):
        if n.name == "gamma":
            return lambda re, im, u, g, s, errs: _pair(g)
        return lambda re, im, u, g, s, errs: s
    if isinstance(n, LambdaVar):
        k = n.index

        def coord(re, im, u, g, s, errs):
            if k <= re.shape[-1]:
                return re[:, k - 1], im[:, k - 1]
            errs.append((0, ValueError(f"lambda{k} out of range for rank {re.shape[-1]}")))
            return _NAN

        return coord
    if isinstance(n, UVar):
        k = n.index

        def uvar(re, im, u, g, s, errs):
            if k in u:
                return u[k]
            errs.append((0, ValueError(f"no spectral value bound for u{k}")))
            return _NAN

        return uvar
    if isinstance(n, BinOp):
        left, right = _compile(n.left), _compile(n.right)
        if n.op in _STACK_ARITH:
            op = _STACK_ARITH[n.op]
            return lambda *a: op(left(*a), right(*a))
        pos = n.pos

        def div(*a):
            x, y = left(*a), right(*a)
            _pole_test(y, a[-1], lambda: EvalPoleError(
                f"division by (near-)zero at position {pos}", pos))
            return _non_finite_by_cpython(operator.truediv, (x, y), _quot(x, y), a[-1])

        return div
    if isinstance(n, Pow):
        base, e = _compile(n.base), n.exponent

        def power(*a):
            x, errs = base(*a), a[-1]
            if e < 0:
                _pole_test(x, errs, lambda: EvalPoleError("negative power of (near-)zero"))
            if abs(e) > 100:  # CPython's general complex power
                r = _cpython(lambda z: z ** e, (x,), np.arange(np.size(x[0])), errs)
                return r.real, r.imag
            r = _powu(x, abs(e))
            if e <= 0:  # c_powi: 1 / x**|e|
                r = _quot(_ONE, r)
            # an infinite part raises OverflowError, division by 0 ZeroDivisionError
            return _non_finite_by_cpython(lambda z: z ** e, (x,), r, errs)

        return power
    if isinstance(n, Exp):
        arg = _compile(n.arg)

        def exp(*a):
            # cmath.exp itself: numpy's exp, cos and sin differ from libm's
            z = arg(*a)
            r = _cpython(cmath.exp, (z,), np.arange(np.size(z[0])), a[-1],
                         lambda: EvalOverflowError("exponential overflow"))
            return r.real, r.imag

        return exp
    raise TypeError(f"unknown node {n!r}")


def eval_ast(node, lam, u=None, gamma=1.0):
    """Evaluate an AST at (lambda, u, gamma); sigma = sum(lambda).

    ``lam`` of shape (n,) is a point and gives a complex number; of shape
    (..., n) a stack of points, giving an array (...).  Each row has the
    bits of a tree walk on Python complex numbers.  A failing evaluation
    raises the first error of its first failing row, with that row's flat
    index as its ``row``.  For a stack, each spectral value in ``u`` is a
    number or a sequence with one value per point in flat order (a tuple
    keeps ``u`` hashable).  The node is compiled on its first evaluation
    and keeps the closure.
    """
    code = getattr(node, "_code", None)
    if code is None:
        code = _compile(node)
        object.__setattr__(node, "_code", code)
    lam = np.asarray(lam, dtype=complex)
    flat = np.ascontiguousarray(lam.reshape(-1, lam.shape[-1]))
    values = {k: np.asarray(v, dtype=complex) for k, v in (u or {}).items()}
    if any(v.ndim and v.shape != (len(flat),) for v in values.values()):
        raise ValueError("a spectral sequence needs one value per point")
    out, errs = np.empty(len(flat), dtype=complex), []
    with np.errstate(all="ignore"):
        s = np.sum(flat, axis=-1)
        parts = {k: (v.real, v.imag) for k, v in values.items()}
        out.real, out.imag = code(flat.real, flat.imag, parts, gamma, (s.real, s.imag), errs)
    if errs:
        row, exc = min(errs, key=lambda e: e[0])  # the first listed among equal rows
        exc.row = row
        raise exc
    return complex(out[0]) if lam.ndim == 1 else out.reshape(lam.shape[:-1])


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

"""Parser and evaluators for scenario matrix-entry expressions.

Grammar (ASCII):

    expr   := term { ("+"|"-") term }
    term   := factor { ("*"|"/") factor }
    factor := base [ "^" integer ]
    base   := number | "i" | "gamma" | "sigma" | "lambda" digits
            | "u" digits | "(" expr ")" | "exp" "(" expr ")"
    number := decimal with optional fraction and exponent

Two evaluators are provided: the AST evaluator used by the scenario
machinery, and an independent single-pass evaluator (no AST) used as a
cross-check oracle.  The AST evaluator compiles each node once into a
closure, kept on the node, and computes sigma only for expressions that
reference it; :func:`reference_eval` stays the tree-free oracle.
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


def _compile(n):
    """(closure, uses sigma) for an AST node.  The closure maps (lam, u,
    gamma, sigma) to the node's value by the operations of a tree walk,
    in its order and with its pole and overflow checks."""
    if isinstance(n, Num):
        v = complex(n.value)
        return (lambda lam, u, g, s: v), False
    if isinstance(n, Const):
        if n.name == "i":
            return (lambda lam, u, g, s: 1j), False
        if n.name == "gamma":
            return (lambda lam, u, g, s: complex(g)), False
        return (lambda lam, u, g, s: s), True
    if isinstance(n, LambdaVar):
        k = n.index

        def var(lam, u, g, s):
            if k > len(lam):
                raise ValueError(f"lambda{k} out of range for rank {len(lam)}")
            return complex(lam[k - 1])

        return var, False
    if isinstance(n, UVar):
        k = n.index

        def uvar(lam, u, g, s):
            if k not in u:
                raise ValueError(f"no spectral value bound for u{k}")
            return complex(u[k])

        return uvar, False
    if isinstance(n, BinOp):
        (fa, sa), (fb, sb) = _compile(n.left), _compile(n.right)
        if n.op in _ARITH:
            op = _ARITH[n.op]
            return (lambda lam, u, g, s: op(fa(lam, u, g, s), fb(lam, u, g, s))), sa or sb
        pos = n.pos

        def div(lam, u, g, s):
            a, b = fa(lam, u, g, s), fb(lam, u, g, s)
            if abs(b) < POLE_FLOOR:
                raise EvalPoleError(f"division by (near-)zero at position {pos}", pos)
            return a / b

        return div, sa or sb
    if isinstance(n, Pow):
        fb, sb = _compile(n.base)
        e = n.exponent

        def power(lam, u, g, s):
            base = fb(lam, u, g, s)
            if e < 0 and abs(base) < POLE_FLOOR:
                raise EvalPoleError("negative power of (near-)zero")
            return base ** e

        return power, sb
    if isinstance(n, Exp):
        fa, sa = _compile(n.arg)
        return (lambda lam, u, g, s: _cexp(fa(lam, u, g, s))), sa
    raise TypeError(f"unknown node {n!r}")


def eval_ast(node, lam, u=None, gamma=1.0):
    """Evaluate an AST at (lambda, u, gamma); sigma = sum(lambda).

    The node is compiled on its first evaluation and keeps the closure.
    """
    code = getattr(node, "_code", None)
    if code is None:
        code = _compile(node)
        object.__setattr__(node, "_code", code)
    fn, uses_sigma = code
    lam = np.asarray(lam, dtype=complex)
    return fn(lam, {} if u is None else u, gamma,
              complex(np.sum(lam)) if uses_sigma else None)


def collect_u_indices(node):
    """Spectral-variable indices referenced by an AST."""
    out = set()

    def walk(n):
        if isinstance(n, UVar):
            out.add(n.index)
        elif isinstance(n, BinOp):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, Pow):
            walk(n.base)
        elif isinstance(n, Exp):
            walk(n.arg)

    walk(node)
    return out


# -- independent reference evaluator ------------------------------------------


def reference_eval(src: str, lam, u=None, gamma=1.0):
    """Single-pass evaluator computing the value during the descent,
    sharing no code with the AST path (its own character scanner)."""
    lam = np.asarray(lam, dtype=complex)
    u = {} if u is None else u
    sigma = complex(np.sum(lam))
    s = src
    pos = [0]

    def skip_ws():
        while pos[0] < len(s) and s[pos[0]].isspace():
            pos[0] += 1

    def peek_ch():
        skip_ws()
        return s[pos[0]] if pos[0] < len(s) else ""

    def take(ch):
        if peek_ch() != ch:
            raise ParseError(f"found {peek_ch()!r}", pos[0], expected=repr(ch))
        pos[0] += 1

    def number():
        skip_ws()
        m = re.match(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?", s[pos[0]:])
        if not m:
            raise ParseError("expected a number", pos[0])
        pos[0] += m.end()
        return complex(float(m.group(0)))

    def name():
        skip_ws()
        m = re.match(r"[a-z]+\d*", s[pos[0]:])
        if not m:
            return None
        pos[0] += m.end()
        return m.group(0)

    def expr():
        v = term()
        while peek_ch() and peek_ch() in "+-":
            op = peek_ch()
            pos[0] += 1
            w = term()
            v = v + w if op == "+" else v - w
        return v

    def term():
        v = factor()
        while peek_ch() and peek_ch() in "*/":
            op = peek_ch()
            pos[0] += 1
            w = factor()
            if op == "*":
                v = v * w
            else:
                if abs(w) < POLE_FLOOR:
                    raise EvalPoleError("division by (near-)zero", pos[0])
                v = v / w
        return v

    def factor():
        v = base()
        if peek_ch() == "^":
            pos[0] += 1
            sign = 1
            if peek_ch() == "-":
                pos[0] += 1
                sign = -1
            skip_ws()
            m = re.match(r"\d+", s[pos[0]:])
            if not m:
                raise ParseError("expected an integer exponent", pos[0])
            pos[0] += m.end()
            e = sign * int(m.group(0))
            if e < 0 and abs(v) < POLE_FLOOR:
                raise EvalPoleError("negative power of (near-)zero", pos[0])
            v = v ** e
        return v

    def base():
        ch = peek_ch()
        if ch == "(":
            take("(")
            v = expr()
            take(")")
            return v
        if ch.isdigit():
            return number()
        start = pos[0]
        nm = name()
        if nm is None:
            raise ParseError(f"found {ch!r}", pos[0], expected="a value")
        if nm == "i":
            return 1j
        if nm == "gamma":
            return complex(gamma)
        if nm == "sigma":
            return sigma
        if nm == "exp":
            take("(")
            v = expr()
            take(")")
            return _cexp(v)
        m = _NAME_RE.match(nm)
        if m:
            idx = int(m.group(2))
            if m.group(1) == "lambda":
                return complex(lam[idx - 1])
            return complex(u[idx])
        raise ParseError(f"unknown identifier {nm!r}", start)

    v = expr()
    skip_ws()
    if pos[0] != len(s):
        raise ParseError(f"trailing input {s[pos[0]]!r}", pos[0])
    return v


# -- random expression generator ----------------------------------------------


def random_expression(rng, rank=2, u_count=2, depth=3) -> str:
    """Grammar-directed random expression source (for cross-checks).

    Exponentials are never nested and carry no powers inside, keeping
    the values representable in double precision.
    """

    def base(d, in_exp):
        choice = rng.integers(0, 7)
        if choice == 0 or d <= 0:
            mant = round(float(rng.uniform(0.2, 4.0)), 3)
            return f"{mant}"
        if choice == 1:
            return "i"
        if choice == 2:
            return "gamma"
        if choice == 3:
            return "sigma"
        if choice == 4:
            return f"lambda{int(rng.integers(1, rank + 1))}"
        if choice == 5 and u_count:
            return f"u{int(rng.integers(1, u_count + 1))}"
        if choice == 6 and not in_exp:
            return f"exp({expr(d - 1, True)})"
        return f"({expr(d - 1, in_exp)})"

    def factor(d, in_exp):
        b = base(d, in_exp)
        if not in_exp and rng.random() < 0.25:
            return f"{b}^{int(rng.integers(1, 4))}"
        return b

    def term(d, in_exp):
        parts = [factor(d, in_exp)]
        for _ in range(int(rng.integers(0, 2))):
            op = "*" if rng.random() < 0.8 else "/"
            parts.append(op + factor(d, in_exp))
        return "".join(parts)

    def expr(d, in_exp=False):
        parts = [term(d, in_exp)]
        for _ in range(int(rng.integers(0, 3))):
            op = "+" if rng.random() < 0.7 else "-"
            parts.append(op + term(d, in_exp))
        return "".join(parts)

    return expr(depth)

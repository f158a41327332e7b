"""Test oracles for entry expressions, independent of the parser.

``reference_eval`` evaluates a source string in one pass, with its own
character scanner and no AST; ``random_expression`` draws
grammar-conforming sources for the cross-checks against
:func:`sdreflect.exprparse.eval_ast`.
"""

import cmath
import math
import re

import numpy as np

from sdreflect.exprparse import POLE_FLOOR, EvalOverflowError, EvalPoleError, ParseError


def _modulus(v):
    """abs(v) as CPython computes it from a clean errno; abs() itself
    leaves errno as it was for a NaN, and raises if that was ERANGE."""
    h = math.hypot(v.real, v.imag)
    if math.isinf(h) and math.isfinite(v.real) and math.isfinite(v.imag):
        raise OverflowError("absolute value too large")
    return h


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
                if _modulus(w) < POLE_FLOOR:
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
            if e < 0 and _modulus(v) < POLE_FLOOR:
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
            try:
                return cmath.exp(v)
            except OverflowError:
                raise EvalOverflowError("exponential overflow")
        m = re.match(r"^(lambda|u)(\d+)$", nm)
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

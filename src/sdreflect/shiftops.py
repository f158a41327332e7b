"""Finite sums of matrix coefficients times lambda-shift operators.

A term (M, m) represents M(lam) . exp(gamma * m . d/dlam) with an integer
shift vector m; products compose as

    (M, m) (M', m') = (M(lam) . M'(lam + gamma*m), m + m').

Coefficients are :class:`~sdreflect.dyncore.DynMat` values sharing one
leg set; spectral values must already be bound into the coefficients.

``eval_terms(lam, u)`` evaluates a whole operator at a point, as a table
shift vector -> matrix.  A product is evaluated table by table: the left
factor's table once at lam, and the right factor's once at each shifted
point lam + gamma*m1, so every coefficient is computed once per point it
is needed at.  The ``terms`` of a product (or of a traced operator) are a
view: each coefficient reads its key from the table at its point.
"""

from __future__ import annotations

import numpy as np

from .consistency import _collect, rel_residual, worst_residual
from .dyncore import DynMat, LegError, WeightScheme, constant_dynmat, embed


class ShiftOpSum:
    """Finite sum of (coefficient, shift-vector) terms on a fixed leg set."""

    def __init__(self, scheme: WeightScheme, legs, terms):
        self.scheme = scheme
        self.legs = tuple(sorted(legs))
        merged = {}
        for m, coeff in terms:
            m = tuple(int(x) for x in m)
            if len(m) != scheme.rank:
                raise ValueError("shift vector length must equal the rank")
            if coeff.legs != self.legs:
                raise LegError("all coefficients must share the leg set")
            if m in merged:
                merged[m] = merged[m] + coeff
            else:
                merged[m] = coeff
        self.terms = merged

    @classmethod
    def from_matrix(cls, M: DynMat):
        """A single zero-shift term."""
        zero = (0,) * M.scheme.rank
        return cls(M.scheme, M.legs, [(zero, M)])

    @classmethod
    def weight_shift(cls, scheme: WeightScheme, legs, leg):
        """The expanded shift factor sum_i e_ii^(leg) exp(gamma d_i)."""
        legs = tuple(sorted(legs))
        terms = []
        for i in range(scheme.rank):
            proj = embed(
                constant_dynmat(scheme, (leg,), scheme.projector(i)), (leg,), legs
            )
            m = [0] * scheme.rank
            m[i] = 1
            terms.append((tuple(m), proj))
        return cls(scheme, legs, terms)

    def compose(self, other: "ShiftOpSum") -> "ShiftOpSum":
        """The product self . other, evaluated as per-point tables."""
        if self.legs != other.legs:
            raise LegError("composition needs a shared leg set")
        gamma = self.scheme.gamma

        def table(lam, u):
            # keys in first-appearance order, sums (x + y) + z left to
            # right; each used entry is dropped before the next right table
            out, left = {}, self.eval_terms(lam, u)
            for m1 in list(left):
                right = other.eval_terms(lam + gamma * np.asarray(m1, dtype=complex), u)
                a = left.pop(m1)
                for m2 in list(right):
                    key = tuple(x + y for x, y in zip(m1, m2))
                    ab = a @ right.pop(m2)
                    out[key] = out[key] + ab if key in out else ab
                a = ab = None
            return out

        keys = [tuple(x + y for x, y in zip(m1, m2)) for m1 in self.terms for m2 in other.terms]
        return _TableSum(self.scheme, self.legs, keys, table)

    def eval_terms(self, lam, u=None):
        """Dict shift-vector -> coefficient matrix at the point."""
        return {m: coeff.eval(lam, u) for m, coeff in self.terms.items()}


class _TableSum(ShiftOpSum):
    """An operator sum computed one whole table at a time by
    ``table(lam, u)``; each of its ``terms`` reads its key from the table."""

    def __init__(self, scheme, legs, keys, table):
        self.scheme, self.legs, self._table = scheme, legs, table
        self.terms = {m: DynMat(scheme, legs, lambda lam, u, m=m: table(lam, u)[m])
                      for m in dict.fromkeys(keys)}

    def eval_terms(self, lam, u=None):
        return self._table(self.scheme.check_point(lam), u)


def shiftop_compose(S1: ShiftOpSum, S2: ShiftOpSum) -> ShiftOpSum:
    return S1.compose(S2)


def shiftop_difference_residual(S1: ShiftOpSum, S2: ShiftOpSum, points, tol=1e-8,
                                name="shiftop_equal"):
    """Per-shift-vector relative residual between two operator sums,
    each evaluated as one table per point."""
    keys = set(S1.terms) | set(S2.terms)

    def func(lam, u):
        # S2 first: callers pass the deeper operand (the factored
        # monodromy) second, so its temporaries never meet S1's table
        t2 = S2.eval_terms(lam, u)
        t1 = S1.eval_terms(lam, u)
        out = []
        for m in keys:
            a, b = t1.pop(m, None), t2.pop(m, None)
            if a is None:
                a = np.zeros_like(b)
            if b is None:
                b = np.zeros_like(a)
            out.append(rel_residual(a, b))
        return worst_residual(out)

    return _collect(name, points, tol, func)


def shiftop_commutator(S1: ShiftOpSum, S2: ShiftOpSum, points, tol=1e-8,
                       name="shiftop_commutator"):
    """Residual of S1 S2 - S2 S1, grouped by shift vector.

    The coefficients of each shift group are compared; the report carries
    the maximum relative group residual over the samples.  This certifies
    the exact operator identity, not merely agreement on test functions.
    """
    ab = S1.compose(S2)
    ba = S2.compose(S1)
    return shiftop_difference_residual(ab, ba, points, tol, name)

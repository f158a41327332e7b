"""Finite sums of matrix coefficients times lambda-shift operators.

A term (M, m) represents M(lam) . exp(gamma * m . d/dlam) with an integer
shift vector m; products compose as

    (M, m) (M', m') = (M(lam) . M'(lam + gamma*m), m + m').

Coefficients are :class:`~sdreflect.dyncore.DynMat` values sharing one
leg set; spectral values must already be bound into the coefficients.
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

    @property
    def shifts(self):
        return sorted(self.terms)

    def compose(self, other: "ShiftOpSum") -> "ShiftOpSum":
        if self.legs != other.legs:
            raise LegError("composition needs a shared leg set")
        gamma = self.scheme.gamma
        out = []
        for m1, c1 in self.terms.items():
            delta = gamma * np.asarray(m1, dtype=complex)
            for m2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(m1, m2))
                out.append((key, c1 @ c2.shift_lambda(delta)))
        return ShiftOpSum(self.scheme, self.legs, out)

    def __add__(self, other):
        if self.legs != other.legs:
            raise LegError("addition needs a shared leg set")
        return ShiftOpSum(
            self.scheme, self.legs, list(self.terms.items()) + list(other.terms.items())
        )

    def scale(self, c):
        return ShiftOpSum(
            self.scheme, self.legs, [(m, coeff * c) for m, coeff in self.terms.items()]
        )

    def eval_terms(self, lam, u=None):
        """Dict shift-vector -> coefficient matrix at the point."""
        return {m: coeff.eval(lam, u) for m, coeff in self.terms.items()}


def shiftop_compose(S1: ShiftOpSum, S2: ShiftOpSum) -> ShiftOpSum:
    return S1.compose(S2)


def shiftop_difference_residual(S1: ShiftOpSum, S2: ShiftOpSum, points, tol=1e-8,
                                name="shiftop_equal"):
    """Per-shift-vector relative residual between two operator sums."""
    keys = set(S1.terms) | set(S2.terms)

    def func(lam, u):
        out = []
        for m in keys:
            a = S1.terms[m].eval(lam, u) if m in S1.terms else None
            b = S2.terms[m].eval(lam, u) if m in S2.terms else None
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

"""Finite sums of matrix coefficients times lambda-shift operators.

A term (M, m) represents M(lam) . exp(gamma * m . d/dlam) with an integer
shift vector m; products compose as

    (M, m) (M', m') = (M(lam) . M'(lam + gamma*m), m + m').

An operator is its table: ``terms`` lists the shift vectors m, and
``table(lam, u)`` computes every coefficient at a point, or at a stacked
batch of points, as one dict shift vector -> matrix.  A coefficient may
be kept as a :class:`~sdreflect.dyncore.Placed` factor or, for the
terms of an expanded weight shift, as its one
:class:`~sdreflect.dyncore.ColumnBlock`; ``eval_terms`` validates the
point and returns the table with dense coefficients, and the
difference check compares two blocks of the same columns as they are.  A
term sum (:meth:`ShiftOpSum.of_terms`) takes
:class:`~sdreflect.dyncore.DynMat` coefficients sharing one leg set;
spectral values must already be bound into them.  A product is
evaluated table by table: the left factor's table once at lam, and the
right factor's once at each shifted point lam + gamma*m1, so every
coefficient is computed once per point it is needed at.

The residual checks evaluate their tables over consecutive blocks of
the sample points (:func:`_blocks`), each a stacked batch: a block holds
as many points as keep one stacked d x d coefficient within
:data:`BLOCK_BYTES`, so small operators are checked a few points per
call and the larger ones (d >= 32) one point per block, as a stack of
one.
"""

from __future__ import annotations

import itertools

import numpy as np

from .consistency import _report, _stack, rel_residual, worst_residual
from .dyncore import ColumnBlock, DynMat, LegError, Placed, WeightScheme


class ShiftOpSum:
    """The operator sum_m M_m(lam) exp(gamma * m . d/dlam) on a fixed leg set.

    ``terms`` is the tuple of its shift vectors m in table order, and
    ``table(lam, u)`` gives the whole table m -> M_m at a checked point or
    stacked batch, a placed coefficient as its :class:`Placed` factor and
    a weight-shift term as its :class:`ColumnBlock`.
    """

    def __init__(self, scheme: WeightScheme, legs, terms, table):
        self.scheme, self.legs, self.terms, self.table = scheme, tuple(legs), tuple(terms), table

    @classmethod
    def of_terms(cls, scheme: WeightScheme, legs, terms):
        """The sum of (shift vector, coefficient) terms; coefficients of
        equal shift vectors are added."""
        legs = tuple(sorted(legs))
        merged = {}
        for m, coeff in terms:
            m = tuple(int(x) for x in m)
            if len(m) != scheme.rank:
                raise ValueError("shift vector length must equal the rank")
            if coeff.legs != legs:
                raise LegError("all coefficients must share the leg set")
            merged[m] = merged[m] + coeff if m in merged else coeff

        def table(lam, u):
            return {m: coeff.eval(lam, u, local=True) for m, coeff in merged.items()}

        return cls(scheme, legs, merged, table)

    @classmethod
    def weight_shifted(cls, M: DynMat, leg):
        """M followed by the expanded shift factor sum_i e_ii^(leg)
        exp(gamma d_i): the term at e_i is M . e_ii^(leg), the columns of
        M whose ``leg`` index is i, kept as one :class:`ColumnBlock` (a
        column selection, no product)."""
        n, position = M.scheme.rank, M.legs.index(leg)
        keys = [tuple(int(i == j) for j in range(n)) for i in range(n)]

        def table(lam, u):
            m = M.eval(lam, u)
            return {key: ColumnBlock.of(m, i, position, n) for i, key in enumerate(keys)}

        return cls(M.scheme, M.legs, keys, table)

    def compose(self, other: "ShiftOpSum") -> "ShiftOpSum":
        """The product self . other, evaluated table by table; placed
        coefficients multiply leg-locally."""
        if self.legs != other.legs:
            raise LegError("composition needs a shared leg set")
        gamma = self.scheme.gamma

        def table(lam, u):
            return _table_product(self.table(lam, u), lambda m1: other.table(
                lam + gamma * np.asarray(m1, dtype=complex), u))

        keys = dict.fromkeys(tuple(x + y for x, y in zip(m1, m2))
                             for m1 in self.terms for m2 in other.terms)
        return ShiftOpSum(self.scheme, self.legs, keys, table)

    def raw_terms(self, lam, u=None):
        """The table at a checked point, placed coefficients and column
        blocks as they are."""
        return self.table(self.scheme.check_point(lam), u)

    def eval_terms(self, lam, u=None):
        """Dict shift vector -> dense coefficient matrix at the point."""
        return {m: _dense(c) for m, c in self.raw_terms(lam, u).items()}


def _dense(c):
    """A table entry as a dense array."""
    return c.dense() if isinstance(c, (Placed, ColumnBlock)) else c


def _table_product(left, right_at, take=dict.pop):
    """Table of a product: left table ``left`` and right tables
    ``right_at(m1)`` at lam + gamma*m1, keys in first-appearance order,
    sums (x + y) + z left to right.  With ``take=dict.pop`` each used
    entry is dropped before the next right table."""
    out = {}
    for m1 in list(left):
        right = right_at(m1)
        a = take(left, m1)
        for m2 in list(right):
            key = tuple(x + y for x, y in zip(m1, m2))
            ab = a @ take(right, m2)
            out[key] = out[key] + ab if key in out else ab
        a = ab = None
    return out


# the most bytes one stacked d x d complex coefficient of a block may take:
# larger blocks cut per-point overhead but raise the peak memory of a check
BLOCK_BYTES = 16 * 1024


def _blocks(points, ops):
    """The points in consecutive blocks, each as one stacked batch (lam, u)
    (:func:`consistency._stack`).

    A block holds as many points as keep a stacked d x d complex matrix
    within :data:`BLOCK_BYTES`, d the largest dimension of ``ops``, and at
    least one.
    """
    dim = max(S.scheme.rank ** len(S.legs) for S in ops)
    size = max(1, BLOCK_BYTES // (16 * dim * dim))
    for s in range(0, len(points), size):
        yield _stack(points[s:s + size])


def _same_block(a, b):
    """Whether a and b are column blocks of the same columns."""
    return (isinstance(a, ColumnBlock) and isinstance(b, ColumnBlock)
            and (a.index, a.position) == (b.index, b.position))


def _difference(t1, t2, keys):
    """Worst relative residual between two tables over ``keys`` (a missing
    entry counts as zero); entries are dropped as they are compared.  Two
    column blocks of the same columns are compared as blocks (the zeros
    around them add nothing to a norm), anything else dense."""
    out = []
    for m in keys:
        a, b = t1.pop(m, None), t2.pop(m, None)
        if _same_block(a, b):
            a, b = a.m, b.m
        else:
            a, b = _dense(a), _dense(b)
        if a is None:
            a = np.zeros_like(b)
        if b is None:
            b = np.zeros_like(a)
        out.append(rel_residual(a, b))
    return worst_residual(out)


def shiftop_difference_residual(S1: ShiftOpSum, S2: ShiftOpSum, points, tol=1e-8,
                                name="shiftop_equal"):
    """Per-shift-vector relative residual between two operator sums,
    each evaluated as one table per block of points (:func:`_blocks`)."""
    keys = set(S1.terms) | set(S2.terms)
    points, residuals = list(points), []
    for lam, u in _blocks(points, (S1, S2)):
        # S2 first: callers pass the deeper operand (the factored
        # monodromy) second, so its temporaries never meet S1's table
        t2 = S2.raw_terms(lam, u)
        residuals.extend(_difference(S1.raw_terms(lam, u), t2, keys))
    return _report(name, points, tol, residuals)


def shiftop_commutators(ops, points, tol=1e-8, name="shiftop_commutator"):
    """Residuals of S_i S_j - S_j S_i for every pair i < j of ``ops``, in
    that order: the largest relative residual of a shift group's
    coefficients, which certifies the exact operator identity.

    For each block of points (:func:`_blocks`) every operator's table is
    evaluated once at the block and once at each shifted block the
    products need, and all pairs share them; only one block's tables are
    kept.
    """
    if any(S.legs != ops[0].legs for S in ops):
        raise LegError("commutators need a shared leg set")
    pairs = list(itertools.combinations(range(len(ops)), 2))
    keys = [{tuple(x + y for x, y in zip(m1, m2)) for m1 in ops[i].terms for m2 in ops[j].terms}
            for i, j in pairs]
    points, residuals = list(points), [[] for _ in pairs]
    scheme = ops[0].scheme
    for lam, u in _blocks(points, ops):
        lam = scheme.check_point(lam)
        tables = {}

        def at(i, m1=None):
            """ops[i]'s table at lam (+ gamma*m1), evaluated once per block."""
            if (i, m1) not in tables:
                pt = lam if m1 is None else lam + scheme.gamma * np.asarray(m1, dtype=complex)
                tables[i, m1] = ops[i].eval_terms(pt, u)
            return tables[i, m1]

        for p, (i, j) in enumerate(pairs):
            ab = _table_product(at(i), lambda m1: at(j, m1), dict.get)
            ba = _table_product(at(j), lambda m1: at(i, m1), dict.get)
            residuals[p].extend(_difference(ab, ba, keys[p]))
        tables = ab = ba = None
    return [_report(name, points, tol, r) for r in residuals]


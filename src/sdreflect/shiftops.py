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

The residual checks evaluate an operator in two passes over one stacked
list of rows (:meth:`ShiftOpSum.factor_pass`).  A row is one point, or,
for the commutators of a family, one member at a point or at a shifted
point.  The factor pass evaluates the operator's small factors (those of
a :func:`~sdreflect.dyncore.chain_product`, see
:func:`~sdreflect.dyncore.eval_rows`) once over all of the check's rows
and keeps them for that check only; an operator without factor structure
(a term sum, a product) has none.  The contraction pass then forms the
table of one block of rows at a time from slices of those values.  One
such call forms at most :data:`BLOCK_BYTES` of d x d complex matrices
over its rows, d the dimension the call forms (for a partial trace, that
of the untraced operator), and a row that alone exceeds that runs alone.

An entry that does not depend on the row is one (d, d) matrix, formed
once by the factor pass and broadcast only by :meth:`ShiftOpSum.table`;
a difference of two such tables is one residual for every point.
"""

from __future__ import annotations

import itertools

import numpy as np

from .consistency import _report, _stack, rel_residual, worst_residual
from .dyncore import (
    ColumnBlock,
    DynMat,
    LegError,
    Placed,
    SpectralValueError,
    WeightScheme,
    _broadcast,
    _take_rows,
    contract_rows,
    eval_rows,
)


class ShiftOpSum:
    """The operator sum_m M_m(lam) exp(gamma * m . d/dlam) on a fixed leg set.

    ``terms`` is the tuple of its shift vectors m in table order, and
    ``table(lam, u)`` gives the whole table m -> M_m at a checked point or
    stacked batch, a placed coefficient as its :class:`Placed` factor and
    a weight-shift term as its :class:`ColumnBlock`.  ``spectral_legs``
    are the legs whose spectral values ``u`` must give, and ``dim`` is the
    dimension of the largest matrix a table call forms (by default that
    of ``legs``).

    An operator with factor structure is given by its ``factor_pass``
    instead of its table (see :meth:`factor_pass`); its table is then
    both passes over the same rows.
    """

    def __init__(self, scheme: WeightScheme, legs, terms, table=None, spectral_legs=(),
                 dim=None, factor_pass=None):
        self.scheme, self.legs, self.terms = scheme, tuple(legs), tuple(terms)
        self._factor_pass = factor_pass
        self.table = table or (lambda lam, u: {m: _broadcast(x, lam.shape[:-1]) for m, x
                                               in factor_pass(lam, u)(slice(None)).items()})
        self.spectral_legs = frozenset(spectral_legs)
        self.dim = scheme.rank ** len(self.legs) if dim is None else dim

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

        return cls(scheme, legs, merged, table,
                   frozenset().union(*(c.spectral_legs for c in merged.values())))

    @classmethod
    def weight_shifted(cls, M: DynMat, leg):
        """M followed by the expanded shift factor sum_i e_ii^(leg)
        exp(gamma d_i): the term at e_i is M . e_ii^(leg), the columns of
        M whose ``leg`` index is i, kept as one :class:`ColumnBlock` (a
        column selection, no product).  The factor pass is M's
        (:func:`~sdreflect.dyncore.eval_rows`)."""
        n, position = M.scheme.rank, M.legs.index(leg)
        keys = [tuple(int(i == j) for j in range(n)) for i in range(n)]

        def factor_pass(lam, u):
            node = eval_rows(M, lam, u)

            def contract(rows):
                m = contract_rows(node, rows)
                return {key: ColumnBlock.of(m, i, position, n) for i, key in enumerate(keys)}

            return contract

        return cls(M.scheme, M.legs, keys, spectral_legs=M.spectral_legs,
                   factor_pass=factor_pass)

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
        return ShiftOpSum(self.scheme, self.legs, keys, table,
                          self.spectral_legs | other.spectral_legs, max(self.dim, other.dim))

    def raw_terms(self, lam, u=None):
        """The table at a checked point, placed coefficients and column
        blocks as they are."""
        return self.table(self.scheme.check_point(lam), u)

    def eval_terms(self, lam, u=None):
        """Dict shift vector -> dense coefficient matrix at the point."""
        return {m: _dense(c) for m, c in self.raw_terms(lam, u).items()}

    def factor_pass(self, lam, u):
        """The factor pass over stacked rows ``lam`` (shape (P, n)) and
        ``u`` (leg -> values of shape (P,)): it returns the contraction
        pass ``contract(rows)``, the table (as :meth:`raw_terms`) at the
        rows ``rows``, a slice or an index array.  An operator with
        factor structure evaluates its small factors here, once over all
        the rows, and each call contracts those rows of them; any other
        calls its table on each call's rows."""
        lam = self.scheme.check_point(lam)
        if self._factor_pass is not None:
            return self._factor_pass(lam, u)
        return lambda rows: self.table(lam[rows], _take_rows(u, rows))


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


# the most bytes of d x d complex matrices one table call forms over its
# rows: larger calls cut per-call overhead but raise the peak memory of a
# check
BLOCK_BYTES = 256 * 1024


def _rows_per_call(dim):
    """How many rows of d x d complex matrices, d = ``dim``, one table call
    forms within :data:`BLOCK_BYTES`; at least one, so a row that alone
    exceeds the budget runs alone."""
    return max(1, BLOCK_BYTES // (16 * dim * dim))


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


def _stacked(points):
    """The non-empty point list as one stacked batch (lam, u)."""
    points = list(points)
    if not points:
        raise ValueError("point list is empty")
    return points, *_stack(points)


def shiftop_difference_residual(S1: ShiftOpSum, S2: ShiftOpSum, points, tol=1e-8,
                                name="shiftop_equal"):
    """Per-shift-vector relative residual between two operator sums: one
    factor pass of each over the stacked points, then their tables over
    consecutive blocks of points, as many as one call of the larger
    dimension holds (:func:`_rows_per_call`)."""
    keys = set(S1.terms) | set(S2.terms)
    points, lam, u = _stacked(points)
    # S2 first: callers pass the deeper operand (the factored monodromy)
    # second, so its temporaries never meet S1's table
    at2 = S2.factor_pass(lam, u)
    at1 = S1.factor_pass(lam, u)
    size, residuals = _rows_per_call(max(S1.dim, S2.dim)), []
    for s in range(0, len(points), size):
        t2 = at2(slice(s, s + size))
        r = _difference(at1(slice(s, s + size)), t2, keys)
        if np.ndim(r) == 0:  # neither table depends on the row
            return _report(name, points, tol, r)
        residuals.extend(r)
    return _report(name, points, tol, residuals)


def shiftop_commutators(S: ShiftOpSum, members, points, tol=1e-8, name="shiftop_commutator"):
    """Residuals of S_i S_j - S_j S_i for every pair i < j of the family
    members S_i, in that order: the largest relative residual of a shift
    group's coefficients, which certifies the exact operator identity.
    S_i is S with the spectral values ``members[i]`` (a dict leg -> value
    for some of S's spectral legs) in place of the point's.

    The products need every member at lam and at each shifted lam +
    gamma*m, m in S's terms: a group of rows, one per point.  S's factor
    pass runs once over every group's rows.  Then, for each block of
    points (as many as keep every group's rows within one call,
    :func:`_rows_per_call`, and at least one), S's table is formed over
    the block's rows in as few calls as that allows, each call holding
    whole groups, and every pair reads slices of it; only one block's
    tables are kept.
    """
    if any(not set(v) <= S.spectral_legs for v in members):
        raise SpectralValueError("a family member sets a leg without a spectral slot")
    pairs = list(itertools.combinations(range(len(members)), 2))
    keys = {tuple(x + y for x, y in zip(m1, m2)) for m1 in S.terms for m2 in S.terms}
    # a group: one member at every point, at lam (None) or lam + gamma*m
    groups = [(i, m) for i in range(len(members)) for m in (None, *S.terms)]
    points, lam, u = _stacked(points)
    lam, count = S.scheme.check_point(lam), len(points)
    # the rows, group by group: row g * count + p is group g at point p
    values = [{**u, **members[i]} for i, _ in groups]
    at = S.factor_pass(
        np.concatenate([lam if m is None else lam + S.scheme.gamma * np.asarray(m, dtype=complex)
                        for _, m in groups]),
        {leg: np.concatenate([np.broadcast_to(v[leg], (count,)) for v in values])
         for leg in values[0]})
    per_call, residuals = _rows_per_call(S.dim), [[] for _ in pairs]
    size = max(1, per_call // len(groups))
    for s in range(0, count, size):
        block = np.arange(s, min(s + size, count))
        step, tables = max(1, per_call // len(block)), {}
        for c in range(0, len(groups), step):
            chunk = np.arange(c, min(c + step, len(groups)))
            table = {m: _dense(x) for m, x in at((chunk[:, None] * count + block).ravel()).items()}
            for k, g in enumerate(chunk):
                rows = slice(k * len(block), (k + 1) * len(block))
                tables[groups[g]] = {m: _take_rows(x, rows) for m, x in table.items()}
        for p, (i, j) in enumerate(pairs):
            ab = _table_product(tables[i, None], lambda m1: tables[j, m1], dict.get)
            ba = _table_product(tables[j, None], lambda m1: tables[i, m1], dict.get)
            residuals[p].extend(np.broadcast_to(_difference(ab, ba, keys), block.shape))
        tables = table = ab = ba = None
    return [_report(name, points, tol, r) for r in residuals]

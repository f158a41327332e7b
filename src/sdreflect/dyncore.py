"""Calculus of dynamical matrices on tensor legs.

A dynamical matrix is a matrix-valued function of a dynamical point
``lam`` (a vector of n complex coordinates) and optional spectral values
attached to its legs.  Each leg is a copy of V = C^n; a matrix on k legs
has dimension n**k, with Kronecker factors ordered by increasing leg id.

The dynamical shift ``X(lam + gamma*h_k)`` is realized as the
weight-projector resolved sum

    sum_i X(lam + gamma*e_i) . e_ii^(k)

with the projector multiplied on the right; nested shifts add one sum
per shift leg.

Placing a k-leg matrix on some of the legs (identity on the others)
copies its entries through flat index tables, built once per (positions,
leg count, rank, stack size) and cached; a matrix already on all the legs in order
is returned as it is.

A DynMat has one function, ``fn``.  A placed DynMat (from :func:`embed`,
and kept by :meth:`DynMat.inv`, :func:`dyn_shift`, scaling, shifts of
its arguments and spectral binding) also records the ``positions`` of its legs, and its
``fn`` is then the small factor; :meth:`DynMat.dense` embeds it.
Products never build the dense n**L embedding of a placed factor: two
placed factors multiply on the union of their legs and stay placed; a
dense matrix times a placed factor is contracted on the factor's legs
only (one gather of the rows or columns, one BLAS call on the factor,
one scatter back; see :class:`Placed`); the inverse inverts the small
factor.  Operators of dimension n**L <= ``DENSE_MAX_DIM`` = 32 are kept
dense, as there the contraction's fixed cost exceeds the saving.
:func:`chain_product` multiplies a list of factors in the cheapest
order for the legs each acts on (left to right when all are dense).

Every matrix function is shape-polymorphic: ``lam`` may carry leading
batch axes, shape (..., n), and spectral values shape (...); the value
then has shape (..., d, d), or is a constant (d, d) that broadcasts to
it.  One call on a stacked point list evaluates a whole sample batch,
and a point is the batch-free call of the same function.
:func:`function_dynmat` lifts a one-point function to batches point by
point.  Poles are raised where they are met: a matrix function raises
:class:`PoleError` at a pole or a singular inverse with the flat index
of the first such point of its batch, and :func:`eval_dynmat` names the
caller's point there.  Combinators carry no pole data; a pole source
sees the arguments they pass it, so its poles move with them.

Values are reused only where a DynMat is wrapped by :func:`memoized`:
its function then runs once per distinct point set (``lam`` and the
spectral values, by their exact bytes), and the kept values are
read-only.  The memo belongs to the wrapped DynMat and goes with it;
there is no module-level value cache.

Every automorphism action goes through one engine, :func:`decorate`,
which applies a list of :class:`Decoration` blocks of automorphism
powers on named legs; a spectral-shift conjugation moves the slots (and
with them the poles).  :func:`adjoint_auto` and :func:`sigma_conjugate`
are single calls of it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np


class LegError(ValueError):
    """Leg lists are inconsistent (unknown leg, wrong count, ...)."""


class SpectralValueError(ValueError):
    """A spectral value is missing or supplied for a slot-less leg."""


class PoleError(ValueError):
    """Evaluation at a pole or a singular inverse.  A matrix function raises
    it with the flat ``index`` of the point in its batch; :func:`eval_dynmat`
    re-raises it with that point's ``lam`` and ``u``."""

    def __init__(self, msg, lam=None, u=None, index=None):
        super().__init__(msg)
        self.lam = lam
        self.u = u
        self.index = index


class AutomorphismError(ValueError):
    """Automorphism lacks the structure required by the operation."""


@dataclass(frozen=True)
class WeightScheme:
    """Cartan data: rank n, shift step gamma, weight basis e_ii on V."""

    rank: int
    gamma: complex = 1.0

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("rank must be at least 2")
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")

    def projector(self, i: int) -> np.ndarray:
        """The weight projector e_ii on V."""
        p = np.zeros((self.rank, self.rank), dtype=complex)
        p[i, i] = 1.0
        return p

    def unit(self, i: int) -> np.ndarray:
        """Coordinate direction e_i in lambda space."""
        v = np.zeros(self.rank, dtype=complex)
        v[i] = 1.0
        return v

    def check_point(self, lam) -> np.ndarray:
        """lam as a complex array of shape (..., rank)."""
        lam = np.asarray(lam, dtype=complex)
        if lam.shape[-1:] != (self.rank,):
            raise ValueError(f"lambda point must have {self.rank} coordinates")
        return lam


def permutation_operator(n: int) -> np.ndarray:
    """The flip P on V (x) V with P(x (x) y) = y (x) x."""
    if n < 2:
        raise ValueError("n must be at least 2")
    p = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            p[b * n + a, a * n + b] = 1.0
    return p


def _as_u_dict(legs, u):
    if u is None:
        return {}
    if isinstance(u, dict):
        return dict(u)
    u = list(np.atleast_1d(u))
    if len(u) != len(legs):
        raise SpectralValueError("spectral value list does not match legs")
    return dict(zip(legs, u))


@dataclass(frozen=True)
class DynMat:
    """Matrix-valued pure function of (lam, u) on an ordered list of legs.

    ``fn(lam, u)`` receives the validated lambda array, shape (..., n),
    and a dict mapping each spectral leg to its value, a number or an
    array of shape (...); it must return an (..., n**k, n**k) array for
    k legs, or an (n**k, n**k) one that broadcasts to it.  It raises
    :class:`PoleError` with the flat index of the batch's first pole
    point (in lam's leading axes and the spectral shapes, broadcast).

    ``positions`` is None for a dense matrix, or, for a placed one, the
    positions in ``legs`` of the legs its ``fn`` lives on: ``fn`` then
    returns the n**k factor, and the matrix is that factor on those
    legs, identity on the others (:meth:`dense`).  Positions covering
    every leg in order are stored as None.
    """

    scheme: WeightScheme
    legs: tuple
    fn: object
    spectral_legs: frozenset = field(default_factory=frozenset)
    positions: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "legs", tuple(self.legs))
        if self.positions is not None:
            positions = tuple(self.positions)
            full = positions == tuple(range(len(self.legs)))
            object.__setattr__(self, "positions", None if full else positions)
        object.__setattr__(self, "spectral_legs", frozenset(self.spectral_legs))
        if tuple(sorted(self.legs)) != self.legs:
            raise LegError("legs must be listed in sorted order")
        if not self.spectral_legs <= set(self.legs):
            raise LegError("spectral slots must sit on declared legs")

    @property
    def dim(self) -> int:
        return self.scheme.rank ** len(self.legs)

    def eval(self, lam, u=None, local=False) -> np.ndarray:
        """The matrix at a point; with ``local`` a placed matrix comes
        back as its :class:`Placed` factor."""
        return eval_dynmat(self, lam, u, local)

    def dense(self, lam, u):
        """The n**L matrix at a point, without validation."""
        m = self.fn(lam, u)
        if self.positions is None:
            return m
        return _place_matrix(m, self.positions, len(self.legs), self.scheme.rank)

    # -- pointwise algebra on a shared leg set --------------------------

    def _binary(self, other, op, value=None):
        """Pointwise ``op`` of the two values ``value(X, lam, u)`` (by
        default the dense ``X.dense``)."""
        if not isinstance(other, DynMat):
            raise TypeError("expected a DynMat")
        if self.legs != other.legs or self.scheme != other.scheme:
            raise LegError("operands must share legs and scheme")
        spect = self.spectral_legs | other.spectral_legs
        a, b = self, other
        value = value or DynMat.dense

        def fn(lam, u):
            return op(
                value(a, lam, {l: u[l] for l in a.spectral_legs}),
                value(b, lam, {l: u[l] for l in b.spectral_legs}),
            )

        return DynMat(self.scheme, self.legs, fn, spect)

    def __matmul__(self, other):
        """Pointwise product; placed factors multiply leg-locally (two
        placed factors stay placed on the union of their legs)."""
        if self.positions is None or getattr(other, "positions", None) is None:
            return self._binary(other, operator.matmul, _value)
        union = tuple(sorted(set(self.positions) | set(other.positions)))
        prod = self._binary(other, _union_product, _value)
        return _placed(self.scheme, self.legs, prod.fn, union, prod.spectral_legs)

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __mul__(self, c):
        c = complex(c)
        return replace(self, fn=lambda lam, u, _f=self.fn: c * _f(lam, u))

    __rmul__ = __mul__

    def inv(self):
        """Pointwise matrix inverse; singular points are poles.  A placed
        matrix inverts its factor."""

        def fn(lam, u, _f=self.fn):
            m = _f(lam, u)
            try:
                return np.linalg.inv(m)
            except np.linalg.LinAlgError:
                # the first singular matrix of a batch is the pole
                stack = np.reshape(m, (-1,) + np.shape(m)[-2:])
                for k, mk in enumerate(stack):
                    try:
                        np.linalg.inv(mk)
                    except np.linalg.LinAlgError:
                        first = (np.arange(len(stack)) == k).reshape(np.shape(m)[:-2])
                        raise _pole("singular matrix encountered in inverse", first, lam, u)
                raise

        return replace(self, fn=fn)

    def shift_lambda(self, delta):
        """The matrix function lam -> X(lam + delta), same legs."""
        delta = np.asarray(delta, dtype=complex)
        f = self.fn
        return replace(self, fn=lambda lam, u: f(lam + delta, u))

    def shift_spectral(self, offsets):
        """Rewrite slot arguments u_leg -> u_leg + offsets[leg]."""
        offsets = dict(offsets)
        if not set(offsets) <= self.spectral_legs:
            raise SpectralValueError("offset on a leg without a spectral slot")
        f = self.fn

        def fn(lam, u):
            return f(lam, {l: u[l] + offsets.get(l, 0.0) for l in u})

        return replace(self, fn=fn)


def _batch_shape(lam, u):
    """The batch shape of a point: lam's leading axes and the spectral
    values' shapes, broadcast."""
    shapes = [np.shape(v) for v in u.values() if not isinstance(v, complex)]
    if any(shapes):
        return np.broadcast_shapes(np.shape(lam)[:-1], *shapes)
    return np.shape(lam)[:-1]


def _point_at(lam, u, k):
    """(lam, u) of the k-th point (flat index) of a batch."""
    shape = _batch_shape(lam, u)
    lam = np.broadcast_to(lam, shape + np.shape(lam)[-1:])
    idx = np.unravel_index(k, shape)
    return lam[idx], {l: complex(np.broadcast_to(v, shape)[idx]) for l, v in u.items()}


def _pole(msg, mask, lam, u):
    """The :class:`PoleError` of a call (lam, u) for its first point where
    ``mask``, which broadcasts to the call's batch shape, holds."""
    k = np.argmax(np.broadcast_to(mask, _batch_shape(lam, u)))
    return PoleError(msg, index=int(k))


def eval_dynmat(X: DynMat, lam, u=None, local=False):
    """Evaluate X at a point or a batch of points, validating spectral
    slots.

    A :class:`PoleError` from X's function is re-raised naming the point
    of (lam, u) at its index.  With ``local`` a placed X is returned as
    its :class:`Placed` factor instead of the dense matrix.
    """
    lam = X.scheme.check_point(lam)
    ud = _as_u_dict(sorted(X.spectral_legs), u)
    missing = X.spectral_legs - set(ud)
    if missing:
        raise SpectralValueError(f"missing spectral value for legs {sorted(missing)}")
    ud = {l: _as_complex(ud[l]) for l in X.spectral_legs}
    shape = _batch_shape(lam, ud)
    positions = X.positions if local else None
    try:
        if positions is None:
            d, m = X.dim, np.asarray(X.dense(lam, ud), dtype=complex)
        else:
            d, m = X.scheme.rank ** len(positions), np.asarray(X.fn(lam, ud), dtype=complex)
    except PoleError as exc:
        if exc.index is None:
            raise
        plam, pu = _point_at(lam, ud, exc.index)
        raise PoleError(f"{exc} (lam={plam}, u={pu})", plam, pu) from None
    if m.shape != shape + (d, d):
        if m.shape != (d, d):
            raise ValueError(f"evaluation returned shape {m.shape}, "
                             f"expected {shape + (d, d)}")
        m = np.broadcast_to(m, shape + (d, d))
    return m if positions is None else Placed(m, positions, len(X.legs), X.scheme.rank)


def _as_complex(v):
    """A spectral value as a complex number, or a complex array for a batch."""
    if isinstance(v, np.ndarray) and v.ndim:
        return v.astype(complex, copy=False)
    return complex(v)


def _exact_key(v):
    """The exact identity of a value: its dtype, shape and bytes."""
    v = np.asarray(v)
    return v.dtype, v.shape, v.tobytes()


def memoized(X: DynMat) -> DynMat:
    """X with its values kept: the same matrix (legs, positions and
    spectral legs), whose function runs once per distinct point set.

    A value is kept under the exact :func:`_exact_key` of ``lam`` and of
    every spectral value, so -0.0 and 0.0, or a scalar and a (1,) array,
    are distinct keys.  Kept values are read-only.  A
    :class:`PoleError` is never kept: a pole raises on every call, with
    the index of the caller's point.  The memo lives as long as the
    returned DynMat; its function's ``memo`` is the dict of kept values
    and its ``__wrapped__`` is X's function.
    """
    f, legs, memo = X.fn, sorted(X.spectral_legs), {}

    def fn(lam, u):
        key = (_exact_key(lam), *(_exact_key(u[l]) for l in legs))
        m = memo.get(key)
        if m is None:
            m = np.asarray(f(lam, u)).view()
            m.setflags(write=False)
            memo[key] = m
        return m

    fn.memo, fn.__wrapped__ = memo, f
    return replace(X, fn=fn)


# -- constructors --------------------------------------------------------


def identity_dynmat(scheme: WeightScheme, legs) -> DynMat:
    legs = tuple(sorted(legs))
    d = scheme.rank ** len(legs)
    return DynMat(scheme, legs, lambda lam, u: np.eye(d, dtype=complex))


def constant_dynmat(scheme: WeightScheme, legs, matrix) -> DynMat:
    legs = tuple(sorted(legs))
    m = np.asarray(matrix, dtype=complex).copy()
    if m.shape != (scheme.rank ** len(legs),) * 2:
        raise ValueError("matrix dimension does not match legs")
    return DynMat(scheme, legs, lambda lam, u: m)


def function_dynmat(scheme, legs, fn, spectral_legs=(), poles=None) -> DynMat:
    """A DynMat from a one-point function ``fn(lam, u)``: ``lam`` of shape
    (n,) and complex spectral values; a batch is evaluated point by
    point and the values stacked.  It raises :class:`PoleError` at the
    first point where the one-point predicate ``poles(lam, u)`` holds."""

    def batched(lam, u):
        shape = _batch_shape(lam, u)
        points = [_point_at(lam, u, k) for k in range(math.prod(shape))] if shape else [(lam, u)]
        for k, point in enumerate(points):
            if poles is not None and poles(*point):
                raise PoleError("evaluation at a pole", index=k)
        vals = np.asarray([fn(*point) for point in points])
        return vals.reshape(shape + vals.shape[1:])

    return DynMat(scheme, tuple(sorted(legs)), batched, frozenset(spectral_legs))


def yangian_r(scheme: WeightScheme, legs=(1, 2), min_gap=1e-12) -> DynMat:
    """Rational R-matrix 1 + P/(u1 - u2) on two spectral legs, with its
    pole where |u1 - u2| < ``min_gap``."""
    legs = tuple(sorted(legs))
    if len(legs) != 2:
        raise LegError("R-matrix lives on exactly 2 legs")
    n = scheme.rank
    p = permutation_operator(n)
    eye = np.eye(n * n, dtype=complex)
    l1, l2 = legs

    def fn(lam, u):
        gap = u[l1] - u[l2]
        pole = abs(gap) < min_gap  # a bool for Python numbers, no array made
        if pole if isinstance(pole, bool) else pole.any():
            raise _pole("evaluation at a pole", pole, lam, u)
        return eye + p / np.asarray(gap)[..., None, None]

    return DynMat(scheme, legs, fn, frozenset(legs))


# -- leg placement -------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _placement_tables(positions, total, n, count=1):
    """Read-only flat (dst, src) index tables placing a stack of ``count``
    n**k matrices on the given positions of n**total legs:
    out.flat[dst] = m.flat[src]."""
    if count > 1:
        one = _placement_tables(positions, total, n)
        tables = tuple((t + size * np.arange(count)[:, None]).ravel()
                       for t, size in zip(one, (n ** (2 * total), n ** (2 * len(positions)))))
        for t in tables:
            t.setflags(write=False)
        return tables
    k, d = len(positions), n ** total
    rows, sub = np.arange(d), np.arange(n ** k)
    # place value of each placed leg in an ambient and in the matrix's index
    ambient = n ** (total - 1 - np.array(positions, dtype=np.intp))
    own = n ** np.arange(k - 1, -1, -1)
    digits = rows[:, None] // ambient % n
    # row R meets column R with its placed digits replaced by those of sub
    cols = (rows - digits @ ambient)[:, None] + (sub[:, None] // own % n) @ ambient
    tables = ((rows[:, None] * d + cols).ravel(),
              ((digits @ own)[:, None] * n ** k + sub).ravel())
    for t in tables:
        t.setflags(write=False)
    return tables


def _place_matrix(m, positions, total, n):
    """Embed an n**k matrix (or a stack of them, shape (..., n**k, n**k))
    into n**total legs at the given positions."""
    positions = tuple(positions)
    m = np.asarray(m, dtype=complex)
    if positions == tuple(range(total)):
        return m
    batch = m.shape[:-2]
    dst, src = _placement_tables(positions, total, n, math.prod(batch))
    out = np.zeros(math.prod(batch) * n ** (2 * total), dtype=complex)
    # flat indexing: one gather and one scatter for the whole stack
    out[dst] = m.ravel()[src]
    return out.reshape(batch + (n ** total, n ** total))


# operators up to this dimension are multiplied dense
DENSE_MAX_DIM = 32


@functools.lru_cache(maxsize=None)
def _leg_order(positions, total, n, lead):
    """(gather, scatter) flat index tables that move the legs at
    ``positions`` (in that order) to the front (``lead``) or the back of
    a multi-index over n**total, and back; None when nothing moves."""
    rest = tuple(p for p in range(total) if p not in positions)
    order = positions + rest if lead else rest + positions
    if order == tuple(range(total)):
        return None
    gather = np.arange(n ** total).reshape((n,) * total).transpose(order).ravel()
    tables = (gather, np.argsort(gather))
    for t in tables:
        t.setflags(write=False)
    return tables


def _apply_right(M, m, positions, total, n):
    """M @ (m placed at positions of n**total legs), contracting the
    columns of M on the placed legs only; both may carry batch axes."""
    tables = _leg_order(tuple(positions), total, n, False)
    G = M if tables is None else np.take(M, tables[0], axis=-1)
    out = G.reshape(G.shape[:-2] + (-1, m.shape[-1])) @ m
    out = out.reshape(out.shape[:-2] + G.shape[-2:])
    return out if tables is None else np.take(out, tables[1], axis=-1)


def _apply_left(m, positions, M, total, n):
    """(m placed at positions of n**total legs) @ M, contracting the rows
    of M on the placed legs only; both may carry batch axes."""
    tables = _leg_order(tuple(positions), total, n, True)
    G = M if tables is None else np.take(M, tables[0], axis=-2)
    out = m @ G.reshape(G.shape[:-2] + (m.shape[-1], -1))
    out = out.reshape(out.shape[:-2] + G.shape[-2:])
    return out if tables is None else np.take(out, tables[1], axis=-2)


@dataclass(frozen=True, eq=False)
class Placed:
    """The n**k factor ``m`` at ``positions`` of ``total`` legs, identity
    on the others: a placed matrix without its dense embedding.

    ``Placed @ array`` and ``array @ Placed`` contract on the factor's
    legs and return dense arrays; :meth:`dense` embeds it.
    """

    m: np.ndarray
    positions: tuple
    total: int
    n: int
    __array_ufunc__ = None  # ndarray @ Placed defers to __rmatmul__

    def dense(self):
        return _place_matrix(self.m, self.positions, self.total, self.n)

    def __matmul__(self, other):
        if hasattr(other, "dense"):
            other = other.dense()
        return _apply_left(self.m, self.positions, other, self.total, self.n)

    def __rmatmul__(self, other):
        return _apply_right(other, self.m, self.positions, self.total, self.n)


@dataclass(frozen=True, eq=False)
class ColumnBlock:
    """A d x d matrix on n-dimensional legs that is zero outside the
    columns whose index on the leg at ``position`` is ``index``: ``m``
    holds those columns in order, shape (..., d, d/n).

    It is the e_i term M . e_ii^(leg) of an expanded weight shift kept
    without its zero columns.  ``array @ ColumnBlock`` and ``ColumnBlock
    @ array`` multiply its dense form; :meth:`dense` pads the zeros back.
    """

    m: np.ndarray
    index: int
    position: int
    __array_ufunc__ = None  # ndarray @ ColumnBlock defers to __rmatmul__

    @classmethod
    def of(cls, M, index, position, n):
        """The columns of M with ``index`` on the leg at ``position`` (a
        view of M when ``position`` is 0)."""
        split = M.reshape(M.shape[:-1] + (n ** position, n, -1))[..., index, :]
        return cls(split.reshape(M.shape[:-1] + (-1,)), index, position)

    def dense(self):
        d, w = self.m.shape[-2:]
        out = np.zeros(self.m.shape[:-1] + (d,), dtype=complex)
        split = out.reshape(out.shape[:-1] + ((d // w) ** self.position, d // w, -1))
        split[..., self.index, :] = self.m.reshape(split.shape[:-2] + (-1,))
        return out

    def __matmul__(self, other):
        return self.dense() @ other

    def __rmatmul__(self, other):
        return other @ self.dense()


def _union_product(a: Placed, b: Placed) -> np.ndarray:
    """The factor of a @ b on the sorted union of their positions: the
    factor with more legs is placed on the union, the other contracted."""
    union = tuple(sorted(set(a.positions) | set(b.positions)))
    k, n = len(union), a.n
    ra = [union.index(p) for p in a.positions]
    rb = [union.index(p) for p in b.positions]
    if len(ra) >= len(rb):
        return _apply_right(_place_matrix(a.m, ra, k, n), b.m, rb, k, n)
    return _apply_left(a.m, ra, _place_matrix(b.m, rb, k, n), k, n)


def _support(X: DynMat) -> frozenset:
    """The positions of the legs X acts on (all of them when dense)."""
    return frozenset(range(len(X.legs)) if X.positions is None else X.positions)


def product_cost(n, a, b) -> int:
    """Complex multiply-adds of the product of two factors acting on the
    leg positions ``a`` and ``b``, as :meth:`DynMat.__matmul__` forms it:
    the factor with more legs on the union U, contracted with the other,
    n**(2|U| + min(|a|, |b|)) (a dense factor acts on every leg)."""
    return n ** (2 * len(a | b) + min(len(a), len(b)))


@functools.lru_cache(maxsize=None)
def chain_plan(supports, n):
    """(cost, tree) of the cheapest association of a product of factors
    acting on the leg positions ``supports`` (a tuple of frozensets), by
    :func:`product_cost`; cached, as a chain builder asks for one plan
    per chain shape again and again.

    Interval dynamic programming over the chain (the matrix-chain
    ordering problem, Godbole 1973).  A tree is a factor's index or a
    pair (left, right) of trees.  On a tie the latest split wins, so
    factors that all act on every leg multiply left to right.
    """
    count = len(supports)
    union = {(i, i): s for i, s in enumerate(supports)}
    best = {(i, i): (0, i) for i in range(count)}
    for span in range(1, count):
        for i in range(count - span):
            j = i + span
            union[i, j] = union[i, j - 1] | union[j, j]
            for s in range(i, j):
                cost = (best[i, s][0] + best[s + 1, j][0]
                        + product_cost(n, union[i, s], union[s + 1, j]))
                if s == i or cost <= best[i, j][0]:
                    best[i, j] = (cost, (best[i, s][1], best[s + 1, j][1]))
    return best[0, count - 1]


def chain_product(factors) -> DynMat:
    """The product factors[0] @ factors[1] @ ... of DynMats on one leg
    set, associated as :func:`chain_plan` finds cheapest for the legs
    each factor acts on (the written left-to-right product when every
    factor is dense)."""
    _, tree = chain_plan(tuple(_support(X) for X in factors), factors[0].scheme.rank)

    def build(t):
        return factors[t] if isinstance(t, int) else build(t[0]) @ build(t[1])

    return build(tree)


def _value(X: DynMat, lam, u):
    """X's value at a point without validation: its :class:`Placed`
    factor when X is placed, else the dense matrix."""
    m = X.fn(lam, u)
    return m if X.positions is None else Placed(m, X.positions, len(X.legs), X.scheme.rank)


def _placed(scheme, legs, factor, positions, spectral_legs=frozenset()):
    """The DynMat ``factor`` placed at ``positions`` of ``legs``; up to the dense
    size its function is a closure embedding it (faster per call than ``dense``)."""
    positions, total, n = tuple(positions), len(legs), scheme.rank
    if n ** total > DENSE_MAX_DIM or positions == tuple(range(total)):
        return DynMat(scheme, legs, factor, spectral_legs, positions)

    def fn(lam, u):
        return _place_matrix(factor(lam, u), positions, total, n)

    return DynMat(scheme, legs, fn, spectral_legs)


def embed(X: DynMat, target_legs, all_legs) -> DynMat:
    """Place X on target_legs inside all_legs, identity elsewhere.

    ``target_legs[k]`` hosts X's k-th leg (so a non-monotone target list
    permutes the factors).
    """
    target_legs = tuple(target_legs)
    all_legs = tuple(sorted(all_legs))
    if len(target_legs) != len(X.legs):
        raise LegError("target leg count must match the matrix")
    if not set(target_legs) <= set(all_legs):
        raise LegError("target legs must be contained in the ambient legs")
    if len(set(target_legs)) != len(target_legs):
        raise LegError("target legs must be distinct")
    spect = frozenset(
        target_legs[X.legs.index(l)] for l in X.spectral_legs
    )
    rebind = dict(zip(target_legs, X.legs))

    def small(lam, u):
        return X.fn(lam, {rebind[t]: u[t] for t in spect})

    # a placed X embeds its factor directly
    inner = range(len(X.legs)) if X.positions is None else X.positions
    positions = [all_legs.index(target_legs[p]) for p in inner]
    return _placed(X.scheme, all_legs, small, positions, spect)


def dyn_shift(X: DynMat, shift_legs, all_legs=None) -> DynMat:
    """Weight-projector resolved shift of X by the named legs.

    Returns lam -> sum over weight indices of
    X(lam + gamma*(e_{i1}+...+e_{ir})) . prod_k e_{i_k i_k}^(shift_leg_k),
    embedded into the union of X's legs and the shift legs (or into
    all_legs when given).  A placed X gives a matrix placed on the union
    of its legs and the shift legs.
    """
    shift_legs = tuple(shift_legs)
    scheme = X.scheme
    n = scheme.rank
    gamma = scheme.gamma
    if all_legs is None:
        all_legs = tuple(sorted(set(X.legs) | set(shift_legs)))
    else:
        all_legs = tuple(sorted(all_legs))
        if not (set(X.legs) | set(shift_legs)) <= set(all_legs):
            raise LegError("ambient legs must contain the matrix and shift legs")
    xe = embed(X, X.legs, all_legs)
    if not shift_legs:
        return xe
    shift_pos = [all_legs.index(l) for l in shift_legs]
    # the sum is formed on the support: X's legs and the shift legs
    xpos = range(len(all_legs)) if xe.positions is None else xe.positions
    support = tuple(sorted(set(xpos) | set(shift_pos)))
    inner = tuple(support.index(p) for p in xpos)
    xfn = xe.fn
    if inner != tuple(range(len(support))):
        def xfn(lam, u):
            return _place_matrix(xe.fn(lam, u), inner, len(support), n)

    total = len(support)
    pos = [support.index(p) for p in shift_pos]
    # per weight-index tuple: the lambda offset and the diagonal of the
    # projector prod_k e_{i_k i_k} on the shift legs (multiplied on the right)
    terms = []
    for idx in itertools.product(range(n), repeat=len(shift_legs)):
        diag = np.ones((n,) * total, dtype=complex)
        for p, i in zip(pos, idx):
            sel = np.zeros(n)
            sel[i] = 1.0
            shape = [1] * total
            shape[p] = n
            diag = diag * sel.reshape(shape)
        terms.append((gamma * sum(scheme.unit(i) for i in idx), diag.reshape(-1)[None, :]))

    def fn(lam, u):
        acc = None
        for delta, diag in terms:
            term = xfn(lam + delta, u) * diag
            if acc is None:
                acc = np.zeros(term.shape, dtype=complex)
            acc += term
        return acc

    return _placed(scheme, all_legs, fn, support, xe.spectral_legs)


def pi_transpose(X: DynMat) -> DynMat:
    """P X P with the two legs (and their spectral slots) swapped."""
    if len(X.legs) != 2:
        raise LegError("pi transpose needs exactly 2 legs")
    n = X.scheme.rank
    p = permutation_operator(n)
    l1, l2 = X.legs
    swap = {l1: l2, l2: l1}
    spect = frozenset(swap[l] for l in X.spectral_legs)

    def fn(lam, u):
        m = X.dense(lam, {swap[l]: u[l] for l in spect})
        return p @ m @ p

    return DynMat(X.scheme, X.legs, fn, spect)


# -- automorphisms --------------------------------------------------------


class Automorphism:
    """Auxiliary-space automorphism: identity, constant invertible matrix,
    invertible matrix function of u, or spectral shift u -> u + s."""

    IDENTITY = "identity"
    CONSTANT = "constant"
    FACTORIZABLE = "factorizable"
    SHIFT = "spectral_shift"

    def __init__(self, variant, matrix=None, matrix_fn=None, step=None):
        self.variant = variant
        self.step = None if step is None else complex(step)
        self.matrix_fn = matrix_fn
        self._eig = None
        if variant == self.CONSTANT:
            self.matrix = np.asarray(matrix, dtype=complex).copy()
            if abs(np.linalg.det(self.matrix)) < 1e-12:
                raise AutomorphismError("constant automorphism must be invertible")
        else:
            self.matrix = None

    @classmethod
    def identity(cls):
        return cls(cls.IDENTITY)

    @classmethod
    def constant(cls, matrix):
        return cls(cls.CONSTANT, matrix=matrix)

    @classmethod
    def factorizable(cls, matrix_fn):
        return cls(cls.FACTORIZABLE, matrix_fn=matrix_fn)

    @classmethod
    def spectral_shift(cls, step):
        return cls(cls.SHIFT, step=step)

    @property
    def is_identity(self):
        return self.variant == self.IDENTITY

    def matrix_at(self, u=None, power=1):
        """The n x n matrix of g**power (not defined for spectral shifts)."""
        if self.variant == self.IDENTITY:
            raise AutomorphismError("identity has no stored dimension; handle upstream")
        if self.variant == self.CONSTANT:
            base = self.matrix
        elif self.variant == self.FACTORIZABLE:
            if u is None:
                raise SpectralValueError("factorizable automorphism needs a spectral value")
            # matrix_fn takes one value: a batch is evaluated value by value
            vals = [self.matrix_fn(complex(x)) for x in np.ravel(u)]
            base = np.asarray(vals, dtype=complex)
            base = base.reshape(np.shape(u) + base.shape[1:])
        else:
            raise AutomorphismError("spectral shift is not a finite matrix")
        if power == 1:
            return base
        if power == -1:
            return np.linalg.inv(base)
        return np.linalg.matrix_power(base, power)

    def _eigendata(self):
        if self._eig is None:
            w, v = np.linalg.eig(self.matrix)
            if np.linalg.cond(v) > 1e10:
                raise AutomorphismError("automorphism is not (numerically) diagonalizable")
            bad = (np.abs(w) < 1e-12) | ((w.real < 0) & (np.abs(w.imag) < 1e-12))
            if np.any(bad):
                raise AutomorphismError(
                    "eigenvalue on the principal branch cut; sigma powers undefined"
                )
            self._eig = (w, v, np.linalg.inv(v))
        return self._eig

    def complex_power(self, exponent) -> np.ndarray:
        """Principal-branch matrix power g**exponent for constant g; an
        exponent of shape (...) gives powers of shape (..., n, n)."""
        if self.variant != self.CONSTANT:
            raise AutomorphismError("complex powers require a constant automorphism")
        w, v, vinv = self._eigendata()
        scale = np.exp(np.asarray(exponent)[..., None] * np.log(w))
        return (v * scale[..., None, :]) @ vinv


def sigma_of(lam) -> complex:
    """Sum of the dynamical coordinates (per point of a batch)."""
    return np.sum(np.asarray(lam, dtype=complex), axis=-1)


class UnrepresentableError(RuntimeError):
    """The requested object is not a finite-size matrix function.

    Raised when a power of a spectral shift would have to appear in a
    one-sided position.
    """


@dataclass(frozen=True)
class DecorationFactor:
    """One automorphism power in a decoration.

    ``power`` is an integer, or the strings 'sigma' / '-sigma' for the
    dynamical powers exp[+/- sigma log a].
    """

    auto: Automorphism
    power: object = 1

    def resolve(self, lam, u=None):
        """The power at lam: a slot offset for a spectral shift, else a
        matrix (a stack for a batch); a factorizable automorphism reads
        the leg's spectral value ``u``."""
        a, p = self.auto, self.power
        if p in ("sigma", "-sigma"):
            s = sigma_of(lam) * (1 if p == "sigma" else -1)
            if a.variant == Automorphism.SHIFT:
                return s * a.step
            if a.variant != Automorphism.CONSTANT:
                raise AutomorphismError("sigma powers need a constant or shift automorphism")
            return a.complex_power(s)
        if a.variant == Automorphism.SHIFT:
            return int(p) * a.step
        return a.matrix_at(u, power=int(p))


@dataclass(frozen=True)
class Decoration:
    """A block of a decoration: mode 'conjugate', 'left' or 'right', with
    a product of automorphism powers as its value."""

    mode: str
    factors: tuple

    def __post_init__(self):
        if self.mode not in ("conjugate", "left", "right"):
            raise ValueError("mode must be conjugate, left or right")
        object.__setattr__(self, "factors", tuple(self.factors))


def decorate(X: DynMat, legs, decorations) -> DynMat:
    """X dressed on the named legs by a :class:`Decoration` list.

    Each factor acts on every named leg at once: it is placed on each
    leg and the placements are multiplied.  Conjugations apply in list
    order, so the first listed is innermost: [a^s, g^-s] gives
    g^-s a^s X a^-s g^s.  A spectral-shift conjugation moves X's slots on
    the named legs (and so X's poles).  One-sided blocks multiply
    outside every conjugation, left blocks on the left and right blocks
    on the right, each in list order; a spectral shift there is not a
    finite matrix and raises :class:`UnrepresentableError` when the
    result is evaluated.  A factorizable factor reads each leg's own
    spectral value, so the named legs become slots of the result; in a
    conjugation it reads the value moved by every spectral-shift
    conjugation listed after it.  Identity factors and zero powers are
    dropped; if nothing is left, X itself is returned.
    """
    legs = tuple(legs)
    if not set(legs) <= set(X.legs):
        raise LegError("decorated legs must belong to the matrix")
    moved = X.spectral_legs & set(legs)
    slotted = bool(moved)  # whether the legs carry slots inside the next factor
    # steps are (mode, factor, k): a conjugation is moved by shifts[k:],
    # a one-sided block (k None) by none of them
    shifts, steps = [], []
    for deco in decorations:
        conj = deco.mode == "conjugate"
        for f in deco.factors:
            if f.auto.is_identity or f.power == 0:
                continue
            if f.auto.variant != Automorphism.SHIFT or not conj:
                steps.append((deco.mode, f, len(shifts) if conj else None))
                slotted = slotted or (conj and f.auto.variant == Automorphism.FACTORIZABLE)
            elif slotted:  # conjugating a slot-less leg is the identity map
                shifts.append(f)
    if not (legs and (shifts or steps)):
        return X
    n, total = X.scheme.rank, len(X.legs)
    pos = [X.legs.index(l) for l in legs]

    def offset(lam, k=0):
        """The slot offset of the shift conjugations from the k-th on."""
        return sum(f.resolve(lam) for f in shifts[k:])

    def slots(lam, u):
        """X's spectral arguments, moved by the shift conjugations; only
        the offsets are computed."""
        if not shifts:
            return {l: u[l] for l in X.spectral_legs}
        off = offset(lam)
        return {l: u[l] + off if l in moved else u[l] for l in X.spectral_legs}

    def on_legs(f, lam, u, k):
        if f.auto.variant == Automorphism.SHIFT:
            raise UnrepresentableError("one-sided multiplication by a spectral-shift "
                                       "power is not a finite matrix")
        if f.auto.variant == Automorphism.FACTORIZABLE:
            off = 0.0 if k is None else offset(lam, k)
            mats = [f.resolve(lam, u[l] + off) for l in legs]
        else:
            mats = [f.resolve(lam)] * len(legs)
        return functools.reduce(operator.matmul, [_place_matrix(m, [p], total, n)
                                                  for m, p in zip(mats, pos)])

    # a constant integer power is placed, and inverted, once
    fixed = []
    for _, f, k in steps:
        const = f.auto.variant == Automorphism.CONSTANT and f.power not in ("sigma", "-sigma")
        g = on_legs(f, None, None, k) if const else None
        fixed.append(None if g is None else (g, np.linalg.inv(g)))

    def fn(lam, u):
        m = X.dense(lam, slots(lam, u))
        left, right = [], []
        for (mode, f, k), pair in zip(steps, fixed):
            g, ginv = pair or (on_legs(f, lam, u, k), None)
            if mode == "conjugate":
                m = g @ m @ (np.linalg.inv(g) if ginv is None else ginv)
            else:
                (left if mode == "left" else right).append(g)
        for g in reversed(left):
            m = g @ m
        for g in right:
            m = m @ g
        return m

    spect = X.spectral_legs
    if any(f.auto.variant == Automorphism.FACTORIZABLE for _, f, _ in steps):
        spect = spect | set(legs)
    return DynMat(X.scheme, X.legs, fn, spect)


def adjoint_auto(X: DynMat, g: Automorphism, legs, side="conjugate", power=1) -> DynMat:
    """Adjoint (or one-sided) action of g**power on the named legs of X.

    conjugate: g^p X g^(-p); left / right: one-sided multiplication.  For
    a spectral shift the conjugate action rewrites the slot argument
    u -> u + power*s; one-sided multiplication is rejected because such a
    product is no longer a plain matrix function.
    """
    if g.variant == Automorphism.SHIFT and side != "conjugate" and power != 0:
        raise AutomorphismError(
            "one-sided spectral-shift action is not a finite matrix; "
            "only adjoint actions are representable here"
        )
    return decorate(X, legs, [Decoration(side, [DecorationFactor(g, power)])])


def sigma_conjugate(X: DynMat, g: Automorphism, legs, sign=-1) -> DynMat:
    """Ad exp[sign*sigma*log g] applied to X on the named legs.

    sign=-1 gives exp(-sigma log g) X exp(+sigma log g); for a spectral
    shift this rewrites u -> u + sign*sigma*s on the named slots.
    """
    power = "sigma" if sign > 0 else "-sigma"
    return decorate(X, legs, [Decoration("conjugate", [DecorationFactor(g, power)])])


# -- zero-weight decomposition -------------------------------------------


class ZeroWeightDecomposition:
    """Slot tables of a zero-weight 2-leg matrix.

    d[i, j] multiplies e_ii (x) e_jj and delta[i, j] (i != j) multiplies
    e_ij (x) e_ji; any residual mass outside those slots is reported.
    """

    def __init__(self, D: DynMat):
        if len(D.legs) != 2:
            raise LegError("zero-weight decomposition needs a 2-leg matrix")
        self.source = D
        self.n = D.scheme.rank

    def _split(self, m):
        """(d, delta) read off a matrix; row (i, j) meets column (k, l)
        at m4[i, j, k, l]."""
        m4 = m.reshape((self.n,) * 4)
        d = np.einsum("ijij->ij", m4).copy()
        delta = np.einsum("ijji->ij", m4).copy()
        np.fill_diagonal(delta, 0.0)
        return d, delta

    def _join(self, d, delta):
        n = self.n
        m4 = np.zeros((n,) * 4, dtype=complex)
        i, j = np.indices((n, n))
        m4[i, j, j, i] = delta
        m4[i, j, i, j] = d  # after delta: the i == j slots are d's
        return m4.reshape(n * n, n * n)

    def tables(self, lam, u=None):
        return self._split(self.source.eval(lam, u))

    def offslot_residual(self, lam, u=None):
        m = self.source.eval(lam, u)
        return np.linalg.norm(m - self._join(*self._split(m))) / max(np.linalg.norm(m), 1.0)

    def reassemble(self, lam, u=None):
        return self._join(*self.tables(lam, u))


def decompose_zero_weight(D: DynMat, points, tol=1e-9):
    """Decompose a zero-weight 2-leg matrix into its d / Delta tables.

    ``points`` is a list of (lam, u) pairs used to certify that no mass
    sits outside the zero-weight slots; raises ValueError otherwise,
    including for a non-finite off-slot residual.
    """
    dec = ZeroWeightDecomposition(D)
    worst = float(np.max([dec.offslot_residual(lam, u) for lam, u in points], initial=0.0))
    if not worst <= tol:
        raise ValueError(
            f"matrix is not zero-weight: off-slot residual {worst:.3e} exceeds {tol:.1e}"
        )
    return dec

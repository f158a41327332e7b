"""Residual checkers for the consistency equations.

Every check is a list of product identities prod(lhs) = prod(rhs),
written down as data and run by the one engine
:func:`_product_residual`.  A factor is a DynMat or a constant matrix;
each DynMat factor is evaluated once over the whole stacked point list
(see :func:`_collect`), however many identities name it.  An
identity's residual is the relative Frobenius residual
``|LHS - RHS| / max(|LHS|, |RHS|, 1)``, a point's residual is the worst
over the check's identities (0.0 for none), and a non-finite residual
fails the check.  The worst point is the first point with a NaN
residual, else the first with the largest.

The :data:`CUBIC` table is the single place where the cubic relations
(a)-(d) for (A, B, C, D) are written; :func:`residual_cubic` and the
shifted YBE read from it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .dyncore import (
    Automorphism,
    DynMat,
    LegError,
    WeightScheme,
    adjoint_auto,
    dyn_shift,
    embed,
)


def _frobenius(x):
    """Frobenius norm over the last two axes, summed as ``np.linalg.norm``
    sums a whole matrix (real and imaginary parts of the raveled array),
    so a batch reproduces the one-matrix norms bit for bit."""
    x = np.asarray(x)
    flat = x.reshape(x.shape[:-2] + (-1,))
    if np.iscomplexobj(flat):
        return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    flat = flat.astype(float, copy=False)
    return np.sqrt(np.vecdot(flat, flat))


def _scalar(x):
    """A 0-d result as a float; a batch stays an array."""
    return float(x) if np.ndim(x) == 0 else x


def rel_residual(lhs: np.ndarray, rhs: np.ndarray):
    """Relative Frobenius residual; per matrix of two (..., d, d) stacks."""
    denom = np.maximum(np.maximum(_frobenius(lhs), _frobenius(rhs)), 1.0)
    return _scalar(_frobenius(lhs - rhs) / denom)


def worst_residual(values):
    """Largest of some residuals, per point of a batch (0.0 for none);
    unlike ``max`` it never drops a NaN."""
    return _scalar(reduce(np.maximum, values, 0.0))


@dataclass
class ResidualReport:
    check_name: str
    samples: int
    max_residual: float
    tolerance: float
    worst_point: tuple = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("a report needs at least one sample")

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self):
        lam, u = (None, None) if self.worst_point is None else self.worst_point
        pack = lambda z: [float(np.real(z)), float(np.imag(z))]
        return {
            "name": self.check_name,
            "samples": self.samples,
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "worst_point": None
            if lam is None
            else {
                "lambda": [pack(z) for z in np.atleast_1d(lam)],
                "u": [] if not u else [pack(u[k]) for k in sorted(u)],
            },
        }

    def __str__(self):
        flag = "pass" if self.passed else "FAIL"
        return (
            f"[{flag}] {self.check_name}: max residual {self.max_residual:.3e} "
            f"(tol {self.tolerance:.1e}, {self.samples} samples)"
        )


def _stack(points):
    """A non-empty point list as one batch (lam, u): ``lam`` has shape
    (P, n), and each spectral leg that every point has a value for gets a
    value array of shape (P,)."""
    lam = np.stack([np.asarray(l, dtype=complex) for l, _ in points])
    legs = set.intersection(*(set(u or {}) for _, u in points))
    return lam, {l: np.array([p[l] for _, p in points], dtype=complex) for l in sorted(legs)}


def _collect(name, points, tol, func):
    """Run ``func(lam, u) -> residuals`` once over the stacked points
    (:func:`_stack`) and assemble a report."""
    points = list(points)
    if not points:
        raise ValueError("point list is empty")
    return _report(name, points, tol, func(*_stack(points)))


def _report(name, points, tol, residuals):
    """The report for one residual per point (or one for all).

    The worst point is the first with a NaN residual, so the report
    fails, else the first with the largest residual.
    """
    points = list(points)
    if not points:
        raise ValueError("point list is empty")
    r = np.broadcast_to(np.asarray(residuals, dtype=float), (len(points),))
    nan = np.flatnonzero(np.isnan(r))
    k = int(nan[0]) if nan.size else int(np.argmax(r))
    lam, u = points[k]
    return ResidualReport(name, len(points), float(r[k]), tol,
                          (np.asarray(lam), dict(u or {})))


def _product_residual(name, identities, points, tol):
    """Report for a list of identities ``(lhs, rhs)``, each meaning
    prod(lhs) = prod(rhs) with the factors multiplied left to right.

    A factor is a DynMat or a constant array.  Each distinct DynMat is
    evaluated once per point set, in order of first appearance; a
    point's residual is the worst over the identities (0.0 for none).
    """
    mats = list({id(x): x for pair in identities for side in pair for x in side
                 if isinstance(x, DynMat)}.values())

    def func(lam, u):
        vals = {id(x): x.eval(lam, u) for x in mats}
        return worst_residual(
            rel_residual(*(reduce(operator.matmul, [vals.get(id(x), x) for x in side])
                           for side in pair))
            for pair in identities)

    return _collect(name, points, tol, func)


def _commutes(x, y):
    """The identity x y = y x."""
    return [x, y], [y, x]


def idempotent_projectors(projs, error=ValueError):
    """``projs`` as complex arrays; the first one P with P P != P (at
    1e-12) raises ``error``, naming its index."""
    projs = [np.asarray(p, dtype=complex) for p in projs]
    for i, p in enumerate(projs):
        if rel_residual(p @ p, p) > 1e-12:
            raise error(f"projectors[{i}]: must be idempotent (P P = P)")
    return projs


@dataclass
class StructureSet:
    """The four structure matrices of one exchange relation, on legs (1, 2)."""

    A: DynMat
    B: DynMat
    C: DynMat
    D: DynMat
    scheme: WeightScheme
    g: Automorphism = field(default_factory=Automorphism.identity)

    def __post_init__(self):
        for X in (self.A, self.B, self.C, self.D):
            if X.legs != (1, 2):
                raise LegError("structure matrices must live on legs (1, 2)")


# -- zero weight -----------------------------------------------------------


def residual_zero_weight(X: DynMat, kind: str, points, tol=1e-9, name=None):
    """Zero-weight residual of a 2-leg matrix.

    kind 'B': [h_i (x) 1, X] = 0; kind 'C': [1 (x) h_i, X] = 0;
    kind 'D': [h_i (x) 1 + 1 (x) h_i, X] = 0, maximized over i.
    """
    if len(X.legs) != 2:
        raise LegError("zero-weight check needs a 2-leg matrix")
    kind = kind.upper()
    eye = np.eye(X.scheme.rank, dtype=complex)
    gen = {"B": lambda p: np.kron(p, eye), "C": lambda p: np.kron(eye, p),
           "D": lambda p: np.kron(p, eye) + np.kron(eye, p)}.get(kind)
    if gen is None:
        raise ValueError("kind must be 'B', 'C' or 'D'")
    identities = [_commutes(gen(X.scheme.projector(i)), X) for i in range(X.scheme.rank)]
    return _product_residual(name or f"zero_weight_{kind}", identities, points, tol)


# -- cubic consistency relations --------------------------------------------

# Relations (a)-(d) for (A, B, C, D) on legs (1, 2, 3), each side a
# product multiplied left to right.  A factor is (matrix key, leg pair,
# legs conjugated by g, lambda-shift legs): the matrix is placed on the
# pair, conjugated by g on the named legs, then shifted by their weights.
#   a) A12 A13^gg A23 = A23^gg A13 A12^gg
#   b) A12 C13^g1 C23 = C23^g2 C13 A12^gg(h3)
#   c) D12 B13 B23^g3(h1) = B23 B13^g3(h2) D12
#   d) D12(h3) D13 D23(h1) = D23 D13(h2) D12   (the dynamical YBE)
# With g the identity these are the plain relations.
CUBIC = {
    "a": ([("A", (1, 2), (), ()), ("A", (1, 3), (1, 3), ()), ("A", (2, 3), (), ())],
          [("A", (2, 3), (2, 3), ()), ("A", (1, 3), (), ()), ("A", (1, 2), (1, 2), ())]),
    "b": ([("A", (1, 2), (), ()), ("C", (1, 3), (1,), ()), ("C", (2, 3), (), ())],
          [("C", (2, 3), (2,), ()), ("C", (1, 3), (), ()), ("A", (1, 2), (1, 2), (3,))]),
    "c": ([("D", (1, 2), (), ()), ("B", (1, 3), (), ()), ("B", (2, 3), (3,), (1,))],
          [("B", (2, 3), (), ()), ("B", (1, 3), (3,), (2,)), ("D", (1, 2), (), ())]),
    "d": ([("D", (1, 2), (), (3,)), ("D", (1, 3), (), ()), ("D", (2, 3), (), (1,))],
          [("D", (2, 3), (), ()), ("D", (1, 3), (), (2,)), ("D", (1, 2), (), ())]),
}


def _cubic(mats, g, letter, points, tol, name):
    """Relation ``letter`` of :data:`CUBIC` for the matrices ``mats``
    (key -> 2-leg DynMat), dressed by the automorphism ``g``."""
    legs3 = (1, 2, 3)

    def factor(key, pair, conj, shift):
        X = embed(mats[key], pair, legs3)
        if conj:
            X = adjoint_auto(X, g, conj, "conjugate", 1)
        return dyn_shift(X, shift, legs3) if shift else X

    identity = tuple([factor(*f) for f in side] for side in CUBIC[letter])
    return _product_residual(name, [identity], points, tol)


def residual_cubic(S: StructureSet, letter, points, tol=1e-9, name=None):
    """One cubic relation ('a' .. 'd') for S, dressed by S.g."""
    return _cubic(vars(S), S.g, letter, points, tol, name or f"cubic_{letter}")


def residual_shifted_ybe(R0: DynMat, g: Automorphism, points, tol=1e-9, name="shifted_ybe"):
    """Shift-modified Yang-Baxter residual for a non-dynamical matrix:

    R12 R13^gg R23 = R23^gg R13 R12^gg.
    """
    return _cubic({"A": R0}, g, "a", points, tol, name)


# -- reflection relations ----------------------------------------------------


class ShiftedSolution:
    """A reflection solution K composed with a spectral-shift power.

    Represents K . s^power where s shifts the slot of whatever stands to
    its right by ``step``; needed because such a product is an operator,
    not a plain matrix function.
    """

    def __init__(self, K: DynMat, step: complex, power: int):
        self.K = K
        self.step = complex(step)
        self.power = int(power)

    @property
    def offset(self):
        return self.step * self.power


def _ksplit(K):
    if isinstance(K, ShiftedSolution):
        return K.K, K.offset
    return K, 0.0


def residual_sdre(S: StructureSet, K, points, tol=1e-9, name="sdre"):
    """Reflection-relation residual

        A12 K1 B12 K2(lam + gamma h1) = K2 C12 K1(lam + gamma h2) D12

    on legs (1, 2).  ``K`` is a 1-leg matrix, optionally wrapped in
    :class:`ShiftedSolution` when it carries a trailing spectral shift.
    """
    Km, off = _ksplit(K)
    if len(Km.legs) != 1:
        raise LegError("reflection solutions live on 1 leg")
    legs = (1, 2)
    K1 = embed(Km, (1,), legs)
    K2 = embed(Km, (2,), legs)
    K2s = dyn_shift(K2, (1,), legs)
    K1s = dyn_shift(K1, (2,), legs)
    A, B, C, D = S.A, S.B, S.C, S.D
    if off != 0.0:
        # K = K0 . s^p : each insertion shifts the slot arguments of all
        # factors standing to its right on matching legs.
        B = B.shift_spectral({1: off}) if 1 in B.spectral_legs else B
        C = C.shift_spectral({2: off}) if 2 in C.spectral_legs else C
        shifts = {l: off for l in D.spectral_legs}
        D = D.shift_spectral(shifts) if shifts else D

    return _product_residual(name, [([A, K1, B, K2s], [K2, C, K1s, D])], points, tol)


# -- quasi-non-dynamicity and factorization ----------------------------------


def _unit_shifts(X: DynMat):
    """X(lam + gamma e_i) for every weight index i."""
    s = X.scheme
    return [X.shift_lambda(s.gamma * s.unit(i)) for i in range(s.rank)]


def residual_quasi_nondyn(X: DynMat, f: Automorphism, points, tol=1e-9, name="quasi_nondyn"):
    """Quasi-non-dynamicity residual of a matrix on any legs:

    for every weight index i,
        X(lam + gamma e_i) = F X(lam) F^(-1),  F = f (x) ... (x) f
    on every leg of X.  Checking per index is strictly stronger than
    assembling the projector sum and coincides with it when the identity
    holds.
    """
    conj = adjoint_auto(X, f, X.legs, "conjugate", 1)
    return _product_residual(name, [([Xi], [conj]) for Xi in _unit_shifts(X)], points, tol)


def residual_nondynamical(X: DynMat, points, tol=1e-9, name="nondynamical"):
    """Lambda-variation residual: X(lam + gamma e_i) = X(lam) for all i."""
    return residual_quasi_nondyn(X, Automorphism.identity(), points, tol, name)


def residual_theta_period(kappa: DynMat, points, tol=1e-9, name="theta_period"):
    """Factorization-condition residual for a 1-leg candidate kappa:

    kappa(lam + gamma e_i) must be independent of i, which is the
    2-gamma periodicity of kappa in each theta variable at fixed sigma.
    """
    if len(kappa.legs) != 1:
        raise LegError("theta-periodicity check needs a 1-leg matrix")
    first, *rest = _unit_shifts(kappa)
    return _product_residual(name, [([k], [first]) for k in rest], points, tol)


def residual_projector_compat(R: DynMat, projs, b: DynMat, points, tol=1e-9,
                              name="projector_compat"):
    """Compatibility of a projector family with (R, b):

    mutual commutation of the projectors, [P_i, b(lam)] = 0, and
    [P_i (x) P_i, R] = 0.  Non-idempotent input is rejected.
    """
    projs = idempotent_projectors(projs)
    identities = ([_commutes(p, q) for i, p in enumerate(projs) for q in projs[i + 1:]]
                  + [_commutes(p, b) for p in projs]
                  + [_commutes(np.kron(p, p), R) for p in projs])
    return _product_residual(name, identities, points, tol)


def residual_zwc(S: StructureSet, points, tol=1e-9):
    """Weight-compatibility of the automorphism with the structure set:

    [D, g (x) g] = [B, g (x) 1] = [C, 1 (x) g] = 0 and [h_i, g] = 0.
    For a spectral shift the commutators mean invariance of the matrix
    under the corresponding slot translations.
    """
    g, identities = S.g, []
    if g.variant == Automorphism.SHIFT:
        identities = [([X], [adjoint_auto(X, g, legs, "conjugate", 1)])
                      for X, legs in ((S.D, (1, 2)), (S.B, (1,)), (S.C, (2,)))]
    elif not g.is_identity:
        gm = g.matrix_at()
        eye = np.eye(S.scheme.rank, dtype=complex)
        identities = [_commutes(G, X) for X, G in ((S.D, np.kron(gm, gm)),
                                                  (S.B, np.kron(gm, eye)),
                                                  (S.C, np.kron(eye, gm)))]
        identities += [_commutes(S.scheme.projector(i), gm) for i in range(S.scheme.rank)]
    return _product_residual("zwc", identities, points, tol)

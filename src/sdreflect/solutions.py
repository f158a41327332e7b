"""Builders for reflection solutions and the quadratic intertwiner residual.

All solution families share one shape: an invertible dressing on the
left, a non-dynamical core decorated by powers of automorphisms, and a
twist matrix on the right.  The quadratic relation the core must
satisfy varies per family and is expressed here as a decorated exchange
relation handled by :func:`residual_intertwiner`.

Decorations are data, lists of :class:`~sdreflect.dyncore.Decoration`
blocks, applied by the one engine :func:`~sdreflect.dyncore.decorate`
(its docstring gives the order); the builders call it directly or
through :func:`~sdreflect.dyncore.sigma_conjugate`.  The decoration
types are importable from here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consistency import (
    ShiftedSolution,
    StructureSet,
    _product_residual,
    rel_residual,
    residual_quasi_nondyn,
    residual_zwc,
)
from .dyncore import (  # noqa: F401 (re-exports the decoration types)
    Automorphism,
    Decoration,
    DecorationFactor,
    DynMat,
    LegError,
    UnrepresentableError,
    constant_dynmat,
    decorate,
    embed,
    sigma_conjugate,
)
from .parametrize import auto_dress

PAIR = (1, 2)


class PreconditionError(RuntimeError):
    """A builder's hypothesis failed its residual check."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


# -- exchange relations --------------------------------------------------------


@dataclass(frozen=True)
class IntertwinerSpec:
    """A decorated quadratic exchange relation

        R_left . Q_1 . deco(Q)_2 = Q_2 . deco(Q)_1 . R_right

    on legs (1, 2); the decorations act on the second-appearing core
    factor of each side.  One spec shape covers the plain, conjugated,
    shifted, doubly-shifted and one-sided-multiplied printed variants.
    """

    R_left: DynMat
    R_right: DynMat
    decorations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "decorations", tuple(self.decorations))
        if self.R_left.legs != PAIR or self.R_right.legs != PAIR:
            raise LegError("exchange relations live on legs (1, 2)")


def residual_intertwiner(spec: IntertwinerSpec, Q, points, tol=1e-9,
                         name="intertwiner"):
    """Residual of the decorated quadratic relation for a core Q, a
    1-leg DynMat or a plain matrix.

    Q must be non-dynamical (lambda-independent); a dynamical core is
    rejected because the relation is then outside this family.
    """
    if not isinstance(Q, DynMat):
        Q = constant_dynmat(spec.R_left.scheme, (1,), Q)
    D = decorate(Q, Q.legs, spec.decorations)
    lam0, u0 = points[0]
    lam0 = np.asarray(lam0, dtype=complex)
    probe = {l: next(iter((u0 or {}).values()), 0.0) for l in Q.spectral_legs}
    if rel_residual(Q.eval(lam0, probe), Q.eval(lam0 + 0.37, probe)) > 1e-12:
        raise ValueError("the supplied core is dynamical (lambda-dependent)")
    Q1, Q2, D1, D2 = (embed(X, (l,), PAIR) for X in (Q, D) for l in PAIR)
    return _product_residual(name, [([spec.R_left, Q1, D2], [Q2, D1, spec.R_right])],
                             points, tol)


# -- solution builders --------------------------------------------------------


def build_K_nondyn(Q, b: DynMat, q: DynMat) -> DynMat:
    """K(lam) = b(lam)^-1 . Q . q(lam) with a non-dynamical core Q."""
    return b.inv() @ constant_dynmat(b.scheme, b.legs, Q) @ q


def build_K_quasinondyn(Q, a: Automorphism, b: DynMat, q: DynMat,
                        check_points=None, tol=1e-10):
    """K = b^-1 (exp[sigma log a] Q exp[-sigma log a]) q.

    The middle factor satisfies the quasi-non-dynamicity condition
    qt(lam + gamma h) = a qt(lam) a^-1 by construction; when
    ``check_points`` is given this is verified and a failing residual
    raises :class:`PreconditionError`.
    """
    middle = sigma_conjugate(constant_dynmat(b.scheme, b.legs, Q), a, b.legs, sign=+1)
    if check_points is not None:
        rep = residual_quasi_nondyn(middle, a, check_points, tol, name="quasi_condition")
        if not rep.passed:
            raise PreconditionError("quasi-non-dynamicity fails for the dressed core", rep)
    return b.inv() @ middle @ q


def build_K_g(Q0, g: Automorphism, b: DynMat, q: DynMat, variant="prop4a",
              a: Automorphism = None, f: Automorphism = None) -> DynMat:
    """Reflection solutions in the automorphism-extended setting.

    prop4a:      K = g b^-1 g^-1 (exp[-s log g] Q0 exp[+s log g]) q
    prop4b:      K = g b^-1 g^-1 exp[-s log g] exp[+s log a] Q0
                     exp[-s log a] exp[+s log g] q
    f_case1:     K = g b^-1 g^-1 exp[-s log g] Q0 exp[+s log f] q
    f_case2:     K = g b^-1 g^-1 exp[-s log g] exp[-s log a] Q0
                     exp[+s log a] exp[+s log f] q
    (s = sigma).  Variants with one-sided sigma powers of a spectral
    shift are rejected as unrepresentable.
    """
    beta_inv = auto_dress(b, g).inv()
    g_minus = DecorationFactor(g, "-sigma")
    if variant == "prop4a":
        deco = [Decoration("conjugate", [g_minus])]
    elif variant == "prop4b":
        if a is None:
            raise ValueError("prop4b needs the automorphism a")
        deco = [Decoration("conjugate", [DecorationFactor(a, "sigma"), g_minus])]
    elif variant == "f_case1":
        if f is None:
            raise ValueError("f_case1 needs the automorphism f")
        deco = [Decoration("left", [g_minus]),
                Decoration("right", [DecorationFactor(f, "sigma")])]
    elif variant == "f_case2":
        if a is None or f is None:
            raise ValueError("f_case2 needs both a and f")
        deco = [Decoration("conjugate", [DecorationFactor(a, "-sigma")]),
                Decoration("left", [g_minus]),
                Decoration("right", [DecorationFactor(f, "sigma")])]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return beta_inv @ decorate(constant_dynmat(b.scheme, b.legs, Q0), b.legs, deco) @ q


def dress(K0: DynMat, Q, b: DynMat, g: Automorphism = None, variant="prop3") -> DynMat:
    """Comodule dressing of a known solution K0.

    prop3: K = b^-1 Q b K0 (for a core Q exchanging with the plain
    relation); prop5: K = g b^-1 g^-1 (exp[-s log g] Q exp[+s log g])
    g b g^-1 K0.
    """
    Qm = constant_dynmat(b.scheme, b.legs, Q)
    if variant == "prop3":
        return b.inv() @ Qm @ b @ K0
    if variant == "prop5":
        if g is None:
            raise ValueError("prop5 needs the automorphism g")
        beta = auto_dress(b, g)
        middle = sigma_conjugate(Qm, g, b.legs, sign=-1)
        return beta.inv() @ middle @ beta @ K0
    raise ValueError(f"unknown variant {variant!r}")


def k_g_power(K: DynMat, g: Automorphism, p: int, S: StructureSet, points,
              tol=1e-9):
    """K . g**p, admissible once the weight-compatibility residual passes.

    Returns a plain matrix function for finite automorphisms and a
    :class:`~sdreflect.consistency.ShiftedSolution` for a spectral shift.
    """
    p = int(p)
    rep = residual_zwc(S, points, tol)
    if not rep.passed:
        raise PreconditionError(
            f"automorphism weight-compatibility fails (residual {rep.max_residual:.3e})",
            rep,
        )
    if p == 0 or g.is_identity:
        return K
    if g.variant == Automorphism.SHIFT:
        return ShiftedSolution(K, g.step, p)
    gp = g.matrix_at(power=p)
    return K @ constant_dynmat(K.scheme, K.legs, gp)


def build_dual(q: DynMat, b: DynMat, g: Automorphism, QL) -> DynMat:
    """Transposed dual reflection matrix

    chi^t = q^-1 . (exp[-s log g] QL^-1 exp[+s log g]) . (g b g^-1),

    reducing to q^-1 QL^-1 b for the identity automorphism: the inverted
    dual core between q^-1 and the dressing g b g^-1 that enters the
    other coefficients.  Its correctness certificate is operational: the
    traced families built with it must commute, and they do at round-off
    level, whereas an uninverted trailing dressing factor breaks
    commutation outright.
    """
    QLinv = np.linalg.inv(np.asarray(QL, dtype=complex))
    beta = auto_dress(b, g)
    middle = sigma_conjugate(constant_dynmat(b.scheme, b.legs, QLinv), g, b.legs, sign=-1)
    return q.inv() @ middle @ beta


def residual_reduced_exchange(R: DynMat, Rt: DynMat, kappa: DynMat, points,
                              tol=1e-10, name="reduced_exchange"):
    """Residual of the sigma-reduced exchange relation

        R . kappa_1(s) kappa_2(s + gamma) = kappa_2(s) kappa_1(s + gamma) . Rt

    for a 1-leg kappa depending on lambda only through s = sigma.
    """
    scheme = kappa.scheme
    shifted = kappa.shift_lambda(scheme.gamma * scheme.unit(0))
    k1, k2, s1, s2 = (embed(X, (l,), PAIR) for X in (kappa, shifted) for l in PAIR)
    return _product_residual(name, [([R, k1, s2], [k2, s1, Rt])], points, tol)

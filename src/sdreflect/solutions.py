"""Builders for reflection solutions and the quadratic intertwiner residual.

All solution families share one shape: an invertible dressing on the
left, a non-dynamical core decorated by powers of automorphisms, and a
twist matrix on the right.  The quadratic relation the core must
satisfy varies per family and is expressed here as a decorated exchange
relation handled by :func:`residual_intertwiner`.

A decoration is data, a list of :class:`Decoration` blocks, and one
engine applies it to a 1-leg core (:func:`_decorated_core`):

- conjugation blocks act on the core in list order, so the first
  listed factor is innermost: [a^s, g^-s] gives g^-s a^s Q a^-s g^s;
- a spectral-shift conjugation moves the core's spectral argument;
- one-sided blocks multiply outside every conjugation, left blocks on
  the left and right blocks on the right, each in list order;
- a spectral shift inside a one-sided block is not a finite matrix and
  raises :class:`UnrepresentableError` when the result is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consistency import (
    ShiftedSolution,
    StructureSet,
    _collect,
    _product_residual,
    rel_residual,
    residual_zwc,
    worst_residual,
)
from .dyncore import (
    Automorphism,
    AutomorphismError,
    DynMat,
    LegError,
    constant_dynmat,
    embed,
    sigma_of,
)

PAIR = (1, 2)


class PreconditionError(RuntimeError):
    """A builder's hypothesis failed its residual check."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


class UnrepresentableError(RuntimeError):
    """The requested object is not a finite-size matrix function.

    Raised when a sigma-power of a non-factorizable automorphism would
    have to appear in a one-sided position.
    """


# -- decorated cores and exchange relations ----------------------------------


@dataclass(frozen=True)
class DecorationFactor:
    """One automorphism power in a decoration pipeline.

    ``power`` is an integer, or the strings 'sigma' / '-sigma' for the
    dynamical powers exp[+/- sigma log a].
    """

    auto: Automorphism
    power: object = 1

    def resolve(self, lam):
        """Return ('matrix', M) or ('ushift', offset) at the given lam."""
        a = self.auto
        p = self.power
        if a.is_identity:
            return ("matrix", None)
        if p == "sigma" or p == "-sigma":
            s = sigma_of(lam) * (1 if p == "sigma" else -1)
            if a.variant == Automorphism.CONSTANT:
                return ("matrix", a.complex_power(s))
            if a.variant == Automorphism.SHIFT:
                return ("ushift", s * a.step)
            raise AutomorphismError("sigma powers need a constant or shift automorphism")
        p = int(p)
        if p == 0:
            return ("matrix", None)
        if a.variant == Automorphism.SHIFT:
            return ("ushift", p * a.step)
        return ("matrix", a.matrix_at(power=p))


@dataclass(frozen=True)
class Decoration:
    """A decoration applied to one core factor: mode 'conjugate', 'left'
    or 'right', with a product of automorphism powers as its value."""

    mode: str
    factors: tuple

    def __post_init__(self):
        if self.mode not in ("conjugate", "left", "right"):
            raise ValueError("mode must be conjugate, left or right")
        object.__setattr__(self, "factors", tuple(self.factors))


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


def _decorated_core(core: DynMat, decorations) -> DynMat:
    """The 1-leg ``core`` dressed by a :class:`Decoration` list, on the
    core's leg (the semantics are in the module docstring)."""
    if len(core.legs) != 1:
        raise LegError("the core must live on a single leg")
    leg = core.legs[0]
    decorations = tuple(decorations)

    def resolve(lam):
        """The core's spectral offset and the conjugating, left and right
        matrices at lam, each in list order."""
        offset, mats = 0.0, {"conjugate": [], "left": [], "right": []}
        for deco in decorations:
            for f in deco.factors:
                kind, val = f.resolve(lam)
                if kind == "matrix":
                    if val is not None:
                        mats[deco.mode].append(val)
                elif deco.mode != "conjugate":
                    raise UnrepresentableError(
                        "one-sided multiplication by a non-factorizable "
                        "automorphism power is not a finite matrix"
                    )
                else:
                    offset = offset + val
        return offset, mats

    def moved(u, offset):
        return {leg: u[leg] + offset} if core.spectral_legs else {}

    def fn(lam, u):
        offset, mats = resolve(lam)
        m = core.fn(lam, moved(u, offset))
        for g in mats["conjugate"]:
            m = g @ m @ np.linalg.inv(g)
        for g in reversed(mats["left"]):
            m = g @ m
        for g in mats["right"]:
            m = m @ g
        return m

    poles = None
    if core.poles is not None:
        poles = lambda lam, u: core.poles(lam, moved(u, resolve(lam)[0]))
    return DynMat(core.scheme, core.legs, fn, core.spectral_legs, poles)


def residual_intertwiner(spec: IntertwinerSpec, Q, points, tol=1e-9,
                         name="intertwiner"):
    """Residual of the decorated quadratic relation for a core Q, a
    1-leg DynMat or a plain matrix.

    Q must be non-dynamical (lambda-independent); a dynamical core is
    rejected because the relation is then outside this family.
    """
    if not isinstance(Q, DynMat):
        Q = constant_dynmat(spec.R_left.scheme, (1,), Q)
    D = _decorated_core(Q, spec.decorations)
    lam0, u0 = points[0]
    lam0 = np.asarray(lam0, dtype=complex)
    probe = {l: next(iter((u0 or {}).values()), 0.0) for l in Q.spectral_legs}
    if rel_residual(Q.eval(lam0, probe), Q.eval(lam0 + 0.37, probe)) > 1e-12:
        raise ValueError("the supplied core is dynamical (lambda-dependent)")
    Q1, Q2, D1, D2 = (embed(X, (l,), PAIR) for X in (Q, D) for l in PAIR)
    return _product_residual(name, [spec.R_left, Q1, D2], [Q2, D1, spec.R_right],
                             points, tol)


# -- solution builders --------------------------------------------------------


def build_K_nondyn(Q, b: DynMat, q: DynMat) -> DynMat:
    """K(lam) = b(lam)^-1 . Q . q(lam) with a non-dynamical core Q."""
    Qm = np.asarray(Q, dtype=complex)
    return b.inv() @ constant_like(b, Qm) @ q


def constant_like(template: DynMat, matrix) -> DynMat:
    """A constant matrix promoted to a DynMat on the template's legs."""
    m = np.asarray(matrix, dtype=complex).copy()
    return DynMat(template.scheme, template.legs, lambda lam, u: m)


def build_K_quasinondyn(Q, a: Automorphism, b: DynMat, q: DynMat,
                        check_points=None, tol=1e-10):
    """K = b^-1 (exp[sigma log a] Q exp[-sigma log a]) q.

    The middle factor satisfies the quasi-non-dynamicity condition
    qt(lam + gamma h) = a qt(lam) a^-1 by construction; when
    ``check_points`` is given this is verified and a failing residual
    raises :class:`PreconditionError`.
    """
    middle = _decorated_core(constant_like(b, Q),
                             [Decoration("conjugate", [DecorationFactor(a, "sigma")])])
    if check_points is not None:
        rep = residual_quasi_condition(middle, a, b.scheme, check_points, tol)
        if not rep.passed:
            raise PreconditionError("quasi-non-dynamicity fails for the dressed core", rep)
    return b.inv() @ middle @ q


def residual_quasi_condition(qtilde: DynMat, a: Automorphism, scheme, points,
                             tol=1e-10, name="quasi_condition"):
    """Residual of qt(lam + gamma e_i) = a qt(lam) a^-1 for every i."""

    def func(lam, u):
        uvals = {l: u[l] for l in qtilde.spectral_legs if l in u}
        base = qtilde.eval(lam, uvals)
        if a.variant == Automorphism.CONSTANT:
            am = a.matrix_at()
            rhs = am @ base @ np.linalg.inv(am)
        elif a.is_identity:
            rhs = base
        else:
            raise AutomorphismError("quasi condition implemented for finite automorphisms")
        return worst_residual(
            rel_residual(qtilde.eval(lam + scheme.gamma * scheme.unit(i), uvals), rhs)
            for i in range(scheme.rank)
        )

    return _collect(name, points, tol, func)


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
    from .parametrize import auto_dress

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
    return beta_inv @ _decorated_core(constant_like(b, Q0), deco) @ q


def dress(K0: DynMat, Q, b: DynMat, g: Automorphism = None, variant="prop3") -> DynMat:
    """Comodule dressing of a known solution K0.

    prop3: K = b^-1 Q b K0 (for a core Q exchanging with the plain
    relation); prop5: K = g b^-1 g^-1 (exp[-s log g] Q exp[+s log g])
    g b g^-1 K0.
    """
    from .parametrize import auto_dress

    Qm = np.asarray(Q, dtype=complex)
    if variant == "prop3":
        return b.inv() @ constant_like(b, Qm) @ b @ K0
    if variant == "prop5":
        if g is None:
            raise ValueError("prop5 needs the automorphism g")
        beta = auto_dress(b, g)
        middle = _decorated_core(constant_like(b, Qm),
                                 [Decoration("conjugate", [DecorationFactor(g, "-sigma")])])
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
    return K @ constant_like(K, gp)


def build_dual(k: DynMat, b: DynMat, g: Automorphism, QL) -> DynMat:
    """Transposed dual reflection matrix

    chi^t = k^-1 . (g b g^-1)^-1 . (exp[-s log g] QL^-1 exp[+s log g]) . (g b g^-1),

    reducing to k^-1 . b^-1 QL^-1 b for the identity automorphism: the
    inverted dual core conjugated by the same dressing that enters the
    other coefficients.  Its correctness certificate is operational: the
    traced families built with it must commute, and they do at round-off
    level, whereas an uninverted trailing dressing factor breaks
    commutation outright.
    """
    from .parametrize import auto_dress

    QLinv = np.linalg.inv(np.asarray(QL, dtype=complex))
    beta = auto_dress(b, g)
    middle = _decorated_core(constant_like(b, QLinv),
                             [Decoration("conjugate", [DecorationFactor(g, "-sigma")])])
    return k.inv() @ beta.inv() @ middle @ beta


def residual_reduced_exchange(R: DynMat, Rt: DynMat, kappa: DynMat, points,
                              tol=1e-10, name="reduced_exchange"):
    """Residual of the sigma-reduced exchange relation

        R . kappa_1(s) kappa_2(s + gamma) = kappa_2(s) kappa_1(s + gamma) . Rt

    for a 1-leg kappa depending on lambda only through s = sigma.
    """
    scheme = kappa.scheme
    shifted = kappa.shift_lambda(scheme.gamma * scheme.unit(0))
    k1, k2, s1, s2 = (embed(X, (l,), PAIR) for X in (kappa, shifted) for l in PAIR)
    return _product_residual(name, [R, k1, s2], [k2, s1, Rt], points, tol)

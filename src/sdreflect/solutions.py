"""Builders for reflection solutions and the quadratic intertwiner residual.

All solution families share one shape: an invertible dressing on the
left, a non-dynamical core (possibly conjugated by sigma-powers of
automorphisms), and a twist matrix on the right.  The quadratic relation
the core must satisfy varies per family and is expressed here as a
decorated exchange relation handled by :func:`residual_intertwiner`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consistency import (
    ShiftedSolution,
    StructureSet,
    _collect,
    rel_residual,
    residual_zwc,
    worst_residual,
)
from .dyncore import (
    Automorphism,
    AutomorphismError,
    DynMat,
    LegError,
    _place_matrix,
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


# -- decorated quadratic exchange relations ---------------------------------


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


def _as_core_fn(Q):
    """Normalize the core to a callable u -> n x n matrix."""
    if isinstance(Q, DynMat):
        if len(Q.legs) != 1:
            raise LegError("the core must live on a single leg")
        leg = Q.legs[0]
        spect = bool(Q.spectral_legs)
        return lambda lam, uval: Q.fn(lam, {leg: uval} if spect else {})
    m = np.asarray(Q, dtype=complex)
    return lambda lam, uval: m


def _decorated_core(Q_fn, decorations, lam, uval):
    """Apply the decoration pipeline to the core at one point.

    Slot shifts from spectral-shift conjugations commute with the
    (u-independent) matrix factors, so they are absorbed into the base
    evaluation argument first.
    """
    ushift_total = 0.0
    for deco in decorations:
        for f in deco.factors:
            kind, val = f.resolve(lam)
            if kind == "ushift" and np.any(val):
                if deco.mode != "conjugate":
                    raise UnrepresentableError(
                        "one-sided multiplication by a non-factorizable "
                        "automorphism power is not a finite matrix"
                    )
                ushift_total += val
    m = Q_fn(lam, uval + ushift_total)
    pre = np.eye(m.shape[-1], dtype=complex)
    post = np.eye(m.shape[-1], dtype=complex)
    for deco in decorations:
        if deco.mode == "conjugate":
            for f in deco.factors:
                kind, val = f.resolve(lam)
                if kind == "matrix" and val is not None:
                    m = val @ m @ np.linalg.inv(val)
        else:
            block = None
            for f in deco.factors:
                kind, val = f.resolve(lam)
                if val is not None:
                    block = val if block is None else block @ val
            if block is None:
                continue
            if deco.mode == "left":
                pre = pre @ block
            else:
                post = post @ block
    return pre @ m @ post


def residual_intertwiner(spec: IntertwinerSpec, Q, points, tol=1e-9,
                         name="intertwiner", dynamical_check=True):
    """Residual of the decorated quadratic relation for a core Q.

    Q must be non-dynamical (lambda-independent); a dynamical core is
    rejected because the relation is then outside this family.
    """
    Q_fn = _as_core_fn(Q)
    if dynamical_check:
        lam0, u0 = points[0]
        uprobe = next(iter(u0.values())) if u0 else 0.0
        a = Q_fn(np.asarray(lam0, dtype=complex), uprobe)
        b = Q_fn(np.asarray(lam0, dtype=complex) + 0.37, uprobe)
        if rel_residual(a, b) > 1e-12:
            raise ValueError("the supplied core is dynamical (lambda-dependent)")
    n = spec.R_left.scheme.rank

    def func(lam, u):
        u1 = u.get(1, 0.0)
        u2 = u.get(2, 0.0)
        q1 = Q_fn(lam, u1)
        q2 = Q_fn(lam, u2)
        d2 = _decorated_core(Q_fn, spec.decorations, lam, u2)
        d1 = _decorated_core(Q_fn, spec.decorations, lam, u1)
        lhs = (spec.R_left.eval(lam, u) @ _place_matrix(q1, [0], 2, n)
               @ _place_matrix(d2, [1], 2, n))
        rhs = (_place_matrix(q2, [1], 2, n) @ _place_matrix(d1, [0], 2, n)
               @ spec.R_right.eval(lam, u))
        return rel_residual(lhs, rhs)

    return _collect(name, points, tol, func)


# -- sigma-power sandwiches ---------------------------------------------------


def _sigma_sandwich(Q_fn, pipeline, lam, uval):
    """Apply nested sigma-conjugations (auto, sign) to the core, innermost
    last in the list; one-sided entries are (auto, sign, 'left'/'right')."""
    m = Q_fn(lam, uval)
    s = sigma_of(lam)
    for entry in reversed(pipeline):
        auto, sign = entry[0], entry[1]
        mode = entry[2] if len(entry) > 2 else "conjugate"
        if auto.is_identity:
            continue
        if auto.variant == Automorphism.SHIFT:
            if mode != "conjugate":
                raise UnrepresentableError(
                    "one-sided sigma power of a spectral shift is not a "
                    "finite matrix; only factorizable instances are constructible"
                )
            m = Q_fn(lam, uval + sign * s * auto.step)
            continue
        g = auto.complex_power(sign * s)
        if mode == "conjugate":
            m = g @ m @ np.linalg.inv(g)
        elif mode == "left":
            m = g @ m
        else:
            m = m @ g
    return m


def _one_leg(scheme, b, build, spectral=None):
    """Package a builder closure as a 1-leg DynMat on b's leg."""
    leg = b.legs[0]
    spect = b.spectral_legs if spectral is None else spectral
    return DynMat(scheme, (leg,), build, spect, b.poles)


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
    Qm = np.asarray(Q, dtype=complex)
    scheme = b.scheme
    Q_fn = lambda lam, uval: Qm
    middle = _one_leg(
        scheme, b,
        lambda lam, u: _sigma_sandwich(Q_fn, [(a, +1)], lam, 0.0),
        spectral=frozenset(),
    )
    if check_points is not None:
        rep = residual_quasi_condition(middle, a, scheme, check_points, tol)
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

    Qm = np.asarray(Q0, dtype=complex)
    Q_fn = lambda lam, uval: Qm
    scheme = b.scheme
    beta_inv = auto_dress(b, g).inv()
    if variant == "prop4a":
        pipeline = [(g, -1)]
    elif variant == "prop4b":
        if a is None:
            raise ValueError("prop4b needs the automorphism a")
        pipeline = [(g, -1), (a, +1)]
    elif variant == "f_case1":
        if f is None:
            raise ValueError("f_case1 needs the automorphism f")
        pipeline = [(g, -1, "left"), (f, +1, "right")]
    elif variant == "f_case2":
        if a is None or f is None:
            raise ValueError("f_case2 needs both a and f")
        pipeline = [(g, -1, "left"), (a, -1), (f, +1, "right")]
    else:
        raise ValueError(f"unknown variant {variant!r}")

    def middle_fn(lam, u):
        return _sigma_sandwich(Q_fn, pipeline, lam, 0.0)

    middle = _one_leg(scheme, b, middle_fn, spectral=frozenset())
    return beta_inv @ middle @ q


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
        Q_fn = lambda lam, uval: Qm
        middle = _one_leg(
            b.scheme, b,
            lambda lam, u: _sigma_sandwich(Q_fn, [(g, -1)], lam, 0.0),
            spectral=frozenset(),
        )
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
    Q_fn = lambda lam, uval: QLinv
    middle = _one_leg(
        b.scheme, b,
        lambda lam, u: _sigma_sandwich(Q_fn, [(g, -1)], lam, 0.0),
        spectral=frozenset(),
    )
    return k.inv() @ beta.inv() @ middle @ beta


def residual_reduced_exchange(R: DynMat, Rt: DynMat, kappa: DynMat, points,
                              tol=1e-10, name="reduced_exchange"):
    """Residual of the sigma-reduced exchange relation

        R . kappa_1(s) kappa_2(s + gamma) = kappa_2(s) kappa_1(s + gamma) . Rt

    for a 1-leg kappa depending on lambda only through s = sigma.
    """
    scheme = kappa.scheme
    step = scheme.gamma * scheme.unit(0)
    n = scheme.rank

    def kval(lam, u, leg):
        uvals = {kappa.legs[0]: u[leg]} if kappa.spectral_legs and u else {}
        return kappa.fn(lam, uvals)

    def func(lam, u):
        k_lo_1 = kval(lam, u, 1)
        k_hi_2 = kval(lam + step, u, 2)
        k_lo_2 = kval(lam, u, 2)
        k_hi_1 = kval(lam + step, u, 1)
        lhs = R.eval(lam, u) @ (_place_matrix(k_lo_1, [0], 2, n)
                                @ _place_matrix(k_hi_2, [1], 2, n))
        rhs = (_place_matrix(k_hi_1, [0], 2, n)
               @ _place_matrix(k_lo_2, [1], 2, n)) @ Rt.eval(lam, u)
        return rel_residual(lhs, rhs)

    return _collect(name, points, tol, func)

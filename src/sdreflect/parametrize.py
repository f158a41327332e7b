"""Constructors for parametrized structure matrices and detwisting.

The exchange-relation coefficients (A, B, C, D) are produced from a
dynamical conjugation matrix b, an auxiliary-space automorphism g, a
non-dynamical matrix R0 and a twist matrix q:

    B = b2^-1 (g b g^-1)2(lam + gamma h1),      C = B^pi,
    A = b1^-1 (g b g^-1)2^-1 . R(lam) . (g b g^-1)1 b2,
    D = q1^-1(lam + gamma h2) q2^-1 Rt q1 q2(lam + gamma h1),

with R(lam) the sigma-conjugated dressing of R0 (trivial for the
identity automorphism).
"""

from __future__ import annotations

import numpy as np

from .consistency import (
    idempotent_projectors,
    residual_nondynamical,
    residual_quasi_nondyn,
    residual_shifted_ybe,
)
from .dyncore import (
    Automorphism,
    DynMat,
    LegError,
    WeightScheme,
    adjoint_auto,
    constant_dynmat,
    dyn_shift,
    embed,
    pi_transpose,
    sigma_conjugate,
)

PAIR = (1, 2)


def auto_dress(b: DynMat, g: Automorphism) -> DynMat:
    """The dressed matrix g b g^-1 as a function of (lam, u)."""
    return adjoint_auto(b, g, b.legs, "conjugate", 1)


def build_b_family(b: DynMat, scheme: WeightScheme):
    """The weight components b_i(lam) = b(lam)^-1 b(lam + gamma e_i)."""
    if len(b.legs) != 1:
        raise LegError("b must live on a single leg")
    binv = b.inv()
    out = []
    for i in range(scheme.rank):
        out.append(binv @ b.shift_lambda(scheme.gamma * scheme.unit(i)))
    return out


def build_BC(b: DynMat, g: Automorphism, scheme: WeightScheme):
    """B on legs (1, 2) with its flip C = B^pi.

    B = sum_i e_ii^(1) (x) [b^-1 . g b(lam + gamma e_i) g^-1]^(2); it is
    block-diagonal in leg 1 by construction, so its zero-weight residual
    vanishes identically.
    """
    if len(b.legs) != 1:
        raise LegError("b must live on a single leg")
    beta = auto_dress(b, g)
    b2inv = embed(b.inv(), (2,), PAIR)
    beta2_shift = dyn_shift(embed(beta, (2,), PAIR), (1,), PAIR)
    B = b2inv @ beta2_shift
    return B, pi_transpose(B)


def build_BC_projector(b: DynMat, projs, scheme: WeightScheme):
    """Projector variant: B = sum_i e_ii (x) P_i b^-1 b(lam + gamma e_i).

    B is non-invertible whenever some P_i differs from the identity.
    """
    if len(projs) != scheme.rank:
        raise ValueError("one projector per weight index is required")
    projs = idempotent_projectors(projs)
    proj = sum(np.kron(scheme.projector(i), p) for i, p in enumerate(projs))
    B = constant_dynmat(scheme, PAIR, proj) @ build_BC(b, Automorphism.identity(), scheme)[0]
    return B, pi_transpose(B)


def build_A(R0: DynMat, b: DynMat, g: Automorphism, scheme: WeightScheme) -> DynMat:
    """A = b1^-1 (g b g^-1)2^-1 . {Ad exp[-sigma(log g1 + log g2)] R0} . (g b g^-1)1 b2.

    For the identity automorphism this is the plain conjugation
    b1^-1 b2^-1 R0 b1 b2; a spectral-shift g turns the sigma dressing
    into argument shifts u -> u - sigma*s, and difference-form R0 is
    left invariant by it.
    """
    if R0.legs != PAIR:
        raise LegError("R0 must live on legs (1, 2)")
    beta = auto_dress(b, g)
    Rlam = sigma_conjugate(R0, g, PAIR, sign=-1)
    return (
        embed(b.inv(), (1,), PAIR)
        @ embed(beta.inv(), (2,), PAIR)
        @ Rlam
        @ embed(beta, (1,), PAIR)
        @ embed(b, (2,), PAIR)
    )


def build_D_twist(Rt: DynMat, q: DynMat, scheme: WeightScheme) -> DynMat:
    """Twisted coefficient D = q1^-1(h2) q2^-1 Rt q1 q2(h1)."""
    if Rt.legs != PAIR:
        raise LegError("Rt must live on legs (1, 2)")
    if len(q.legs) != 1:
        raise LegError("q must live on a single leg")
    q1i_h2 = dyn_shift(embed(q.inv(), (1,), PAIR), (2,), PAIR)
    q2i = embed(q.inv(), (2,), PAIR)
    q1 = embed(q, (1,), PAIR)
    q2_h1 = dyn_shift(embed(q, (2,), PAIR), (1,), PAIR)
    return q1i_h2 @ q2i @ Rt @ q1 @ q2_h1


def untwist_D(D: DynMat, q: DynMat, scheme: WeightScheme) -> DynMat:
    """Exact inverse of :func:`build_D_twist`:

    Rt = q2 q1(h2) D q2^-1(h1) q1^-1.
    """
    q2 = embed(q, (2,), PAIR)
    q1_h2 = dyn_shift(embed(q, (1,), PAIR), (2,), PAIR)
    q2i_h1 = dyn_shift(embed(q.inv(), (2,), PAIR), (1,), PAIR)
    q1i = embed(q.inv(), (1,), PAIR)
    return q2 @ q1_h2 @ D @ q2i_h1 @ q1i


class DetwistResult:
    """Outcome of a detwisting analysis.

    verdicts: 'nondynamical' if the untwisted core is lambda-independent,
    'quasi(<label>)' for each candidate automorphism whose
    quasi-non-dynamicity residual passes, else 'neither'.  Coexisting
    verdicts are all reported, none adjudicated.
    """

    def __init__(self, core, nondyn_report, quasi_reports):
        self.core = core
        self.nondyn_report = nondyn_report
        self.quasi_reports = quasi_reports

    @property
    def verdicts(self):
        out = []
        if self.nondyn_report.passed:
            out.append("nondynamical")
        for label, rep in self.quasi_reports.items():
            if rep.passed:
                out.append(f"quasi({label})")
        return out or ["neither"]


def detwist(D: DynMat, q: DynMat, scheme: WeightScheme, points, tol=1e-9,
            candidates=()):
    """Undo the twist by a supplied q and classify the core.

    ``candidates`` is a list of (label, Automorphism) pairs to test for
    quasi-non-dynamicity.  The twist is never searched for; q always
    comes from the caller.
    """
    core = untwist_D(D, q, scheme)
    nondyn = residual_nondynamical(core, points, tol, name="detwist_nondynamical")
    quasi = {
        label: residual_quasi_nondyn(core, f, points, tol, name=f"detwist_quasi_{label}")
        for label, f in candidates
    }
    return DetwistResult(core, nondyn, quasi)


def extract_R0(Rt: DynMat, f: Automorphism, points, tol=1e-10, ybe_tol=1e-9):
    """Strip the sigma dressing off a quasi-non-dynamical matrix.

    Requires Rt to pass the quasi-non-dynamicity residual for f; returns
    (R0, reports) where R0 = Ad exp[+sigma(log f1 + log f2)] Rt frozen at
    the first sample point, together with the residual reports for
    quasi-non-dynamicity, lambda-independence of R0, and the
    shift-modified Yang-Baxter equation for R0.
    """
    qrep = residual_quasi_nondyn(Rt, f, points, tol, name="quasi_nondyn")
    if not qrep.passed:
        raise ValueError(
            f"matrix is not quasi-non-dynamical for the candidate automorphism "
            f"(residual {qrep.max_residual:.3e})"
        )
    dressed = sigma_conjugate(Rt, f, Rt.legs, sign=+1)
    nondyn = residual_nondynamical(dressed, points, tol, name="extracted_nondynamical")
    lam0, u0 = points[0]
    if Rt.spectral_legs:
        R0 = DynMat(Rt.scheme, Rt.legs, lambda lam, u, _f=dressed.dense: _f(lam0, u),
                    Rt.spectral_legs)
    else:
        R0 = constant_dynmat(Rt.scheme, Rt.legs, dressed.eval(lam0, u0))
    ybe = residual_shifted_ybe(R0, f, points, ybe_tol, name="extracted_shifted_ybe")
    return R0, {"quasi_nondyn": qrep, "nondynamical": nondyn, "shifted_ybe": ybe}

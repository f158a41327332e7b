"""Chain monodromy operators, their factorized form, and traced families.

The direct form dresses a reflection solution site by site,

    T = chi_0 . prod_{k=N..1} A_{0,2k}(S_k) C_{0,2k-1}(S_k)
        . Q_0(S_0)
        . prod_{k=1..N} D_{0,2k-1}(S_k) B_{0,2k}(S_k) . E_0,

where S_k collects the odd quantum legs above site k (S_k = {2k+1,
2k+3, ..., 2N-1}, S_0 = all odd legs) and E_0 is the expanded
weight-shift factor sum_i e_ii^(0) exp(gamma d_i) on the auxiliary leg.
Each added site pair shifts everything inside it by its odd leg, which
reproduces this pattern; it is certified here (rather than assumed) by
the factorization identity below.

For coefficients parametrized by (R0, b, q, Q) the same operator
factorizes through a quantum-leg conjugator O_N:

    T = O_N^{-1} . { chi_0 b_0^{-1} R_{0,2N} ... R_{02} Q_0 R_{01} ...
        R_{0,2N-1} q_0 . E_0 } . O_N,

with O_N = prod_{k=N..1} [q_{2k-1} b_{2k}](h over odd legs > 2k).  The
shift factor acts on the right O_N during conjugation, producing its
argument shifts automatically.  The conjugation is formed once per point
(:func:`_conjugate_weight_shifted`) from O_N's site blocks
(:func:`build_ON_blocks`), never from their product: O_N^{-1} times the
core is the inverted blocks applied one by one (each inverse is the
small block's), and the e_i term of E_0 applies the blocks at
lam + gamma e_i to the column block of auxiliary index i only, which is
all that E_0 keeps.  Both tables hold each e_i term as that one block
(:class:`~sdreflect.dyncore.ColumnBlock`), and the partial trace of a
term is its diagonal block.  Every chain product (the direct form and
each factorized core) is formed in its cheapest order
(:func:`~sdreflect.dyncore.chain_product`).

Every factorized core (this one, the non-similar one with a second
matrix Rbar on the odd legs, and the automorphism-gauged one) is one
product, left . R_{0,2N} ... R_{02} . middle . R_{01} ... R_{0,2N-1} .
right, in which each factor X is read as Ad(g0^c) X = g0^c X g0^-c on
the auxiliary leg, c counting the R factors up to and including X.  For
the identity that is the plain product; for a constant g it telescopes
to left . g0 R_{0,2N} ... g0 R_{0,2N-1} . right . g0^(-2N); for a
spectral shift by s the c-th R factor reads the auxiliary value
u_0 + c*s.

A traced family t(u_0) = Tr_0 T(u_0) is one operator: built without an
auxiliary value, a chain keeps the spectral slot of leg 0 free, and
:func:`transfer_commutation` evaluates every member u_0 as rows of that
operator's table (:func:`~sdreflect.shiftops.shiftop_commutators`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .consistency import (
    ResidualReport,
    StructureSet,
    residual_gybce,
    residual_sdre,
    residual_theta_period,
    residual_ybce,
    residual_zero_weight,
    residual_zwc,
)
from .dyncore import (
    Automorphism,
    ColumnBlock,
    DynMat,
    LegError,
    WeightScheme,
    _apply_right,
    adjoint_auto,
    chain_product,
    constant_dynmat,
    dyn_shift,
    embed,
)
from .parametrize import auto_dress
from .shiftops import ShiftOpSum, _dense, shiftop_commutators


def all_legs(N: int):
    return tuple(range(0, 2 * N + 1))


def bind_spectral(X: DynMat, uvals) -> DynMat:
    """Freeze the spectral slots of X that ``uvals`` gives values for; the
    others stay slots (a placed X stays placed)."""
    fixed = {l: complex(uvals[l]) for l in X.spectral_legs if l in uvals}
    if not fixed:
        return X
    return replace(X, fn=lambda lam, u, _f=X.fn: _f(lam, {**u, **fixed}),
                   spectral_legs=X.spectral_legs - set(fixed))


def locality_preset(u_ref, N: int):
    """Quantum spectral values of an N-site chain as a dict leg -> value:
    u_{2n} = u_ref + (2N - 2n + 1) and u_{2n-1} = u_ref + 2N."""
    vals = {}
    for m in range(1, N + 1):
        vals[2 * m] = u_ref + (2 * N - 2 * m + 1)
        vals[2 * m - 1] = u_ref + 2 * N
    return vals


def _site_shift(k: int, N: int):
    return tuple(range(2 * k + 1, 2 * N, 2))


def _chain_values(u_quantum, u_aux):
    """Spectral values of the chain legs: auxiliary leg 0, then the quantum legs."""
    uvals = {} if u_aux is None else {0: complex(u_aux)}
    uvals.update({int(a): complex(v) for a, v in dict(u_quantum).items()})
    return uvals


def _site_blocks(block, N: int, legs):
    """[block(N), ..., block(1)], each site block shifted by the odd legs
    above it: the factors of prod_{k=N..1} block(k) in order."""
    blocks = []
    for k in range(N, 0, -1):
        s = _site_shift(k, N)
        blocks.append(dyn_shift(block(k), s, legs) if s else block(k))
    return blocks


def _place(X: DynMat, at, legs, uvals, shift=()) -> DynMat:
    """X embedded at legs ``at`` of ``legs``, dynamically shifted by the
    ``shift`` legs, with its spectral slots bound to ``uvals`` (a placed
    factor stays placed)."""
    Xe = embed(X, at, legs)
    if shift:
        Xe = dyn_shift(Xe, shift, legs)
    return bind_spectral(Xe, uvals)


def _core_product(R: DynMat, left, middle, R_odd: DynMat, right, N: int, uvals,
                  g: Automorphism = None) -> DynMat:
    """The factorized chain core on legs 0..2N,

        left . R_{0,2N} ... R_{02} . middle . R_odd_{01} ... R_odd_{0,2N-1} . right,

    where ``left``, ``middle`` and ``right`` list placements ``(X, at)``
    or ``(X, at, shift)`` (see :func:`_place`).  Before it is placed,
    each factor X is conjugated on its first leg (the one placed on leg
    0) by g**c, with c the number of R factors up to and including it
    (the Ad(g0^c) reading of the module docstring).
    """
    legs = all_legs(N)
    g = g or Automorphism.identity()
    factors = [(0, f) for f in left]
    factors += [(N - kk + 1, (R, (0, 2 * kk))) for kk in range(N, 0, -1)]
    factors += [(N, f) for f in middle]
    factors += [(N + kk, (R_odd, (0, 2 * kk - 1))) for kk in range(1, N + 1)]
    factors += [(2 * N, f) for f in right]
    return chain_product([_place(adjoint_auto(X, g, X.legs[:1], "conjugate", c),
                                 at, legs, uvals, *shift)
                          for c, (X, at, *shift) in factors])


def _conjugate_weight_shifted(blocks, core: DynMat) -> ShiftOpSum:
    """O^-1 . core . E_0 . O for O = blocks[0] @ blocks[1] @ ..., each
    block the identity on leg 0, and E_0 the expanded weight shift on leg
    0: the term at e_i is O^-1 core e_ii^(0) O(lam + gamma e_i), kept as
    its column block i.

    e_ii^(0) keeps the column block i (of width n**(L-1), as leg 0 is the
    most significant index) and commutes with the left product, so O^-1
    core is formed once per point.  O^-1 is the reversed chain of the
    inverted blocks, so blocks[0]^-1 meets the core first.  Each column
    block then meets the blocks at lam + gamma e_i in list order, each
    contracting the block's columns on its own quantum legs only.  The
    entries are the dot products of the composed product of the blocks,
    bit for bit.
    """
    scheme, n = core.scheme, core.scheme.rank
    w = n ** (len(core.legs) - 1)
    inverses = [B.inv() for B in blocks]
    keys = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def table(lam, u):
        Y = core.eval(lam, u)
        for inverse in inverses:
            Y = inverse.eval(lam, u, local=True) @ Y
        out = {}
        for i, key in enumerate(keys):
            at = lam + scheme.gamma * np.asarray(key, dtype=complex)
            block = slice(i * w, (i + 1) * w)
            term = Y[..., block]
            for B in blocks:
                o = B.eval(at, u, local=True)
                term = _apply_right(term, o.m, [p - 1 for p in o.positions], o.total - 1, n)
            out[key] = ColumnBlock(term, i, 0)
        return out

    return ShiftOpSum(scheme, core.legs, keys, table,
                      core.spectral_legs.union(*(B.spectral_legs for B in blocks)))


def build_monodromy_direct(S: StructureSet, Q0: DynMat, chi_t: DynMat, N: int,
                           u_quantum, u_aux) -> ShiftOpSum:
    """Site-by-site monodromy operator on legs 0..2N.

    ``Q0`` is the direct reflection solution (1 leg), ``chi_t`` the
    transposed dual solution (1 leg); ``u_quantum`` maps quantum legs to
    spectral values and ``u_aux`` is the auxiliary value (None keeps the
    slot of leg 0: the operator of a family over u_0).  Only the
    identity-automorphism chain is assembled here; the
    automorphism-extended chain interleaves auxiliary automorphism
    factors whose printed placement could not be certified against the
    factorized form, so it is exposed through the gauged factorized
    builder instead.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if not S.g.is_identity:
        raise ValueError(
            "the direct site product is certified for the identity "
            "automorphism only; use build_monodromy_factored for the "
            "gauged chain"
        )
    legs = all_legs(N)
    uvals = _chain_values(u_quantum, u_aux)
    factors = [_place(chi_t, (0,), legs, uvals)]
    for k in range(N, 0, -1):
        s = _site_shift(k, N)
        factors += [_place(S.A, (0, 2 * k), legs, uvals, s),
                    _place(S.C, (0, 2 * k - 1), legs, uvals, s)]
    factors.append(_place(Q0, (0,), legs, uvals, tuple(range(1, 2 * N, 2))))
    for k in range(1, N + 1):
        s = _site_shift(k, N)
        factors += [_place(S.D, (0, 2 * k - 1), legs, uvals, s),
                    _place(S.B, (0, 2 * k), legs, uvals, s)]
    return ShiftOpSum.weight_shifted(chain_product(factors), 0)


def build_ON_blocks(b: DynMat, q: DynMat, N: int, u_quantum, g: Automorphism = None) -> list:
    """The quantum-leg conjugator O_N as the list of its site blocks
    [B_N, ..., B_1], O_N = B_N ... B_1: block k carries q on leg 2k-1 and
    b on leg 2k, shifted by the odd legs above it, and is placed on those
    legs only (never on the auxiliary leg 0).

    For an automorphism g the even legs carry the dressed g b g^-1 in
    place of b; the odd legs carry q in every case.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    legs = all_legs(N)
    if g is not None:
        b = auto_dress(b, g)
    uvals = _chain_values(u_quantum, None)
    return [bind_spectral(B, uvals) for B in _site_blocks(
        lambda k: embed(q, (2 * k - 1,), legs) @ embed(b, (2 * k,), legs), N, legs)]


def build_ON(b: DynMat, q: DynMat, N: int, u_quantum, g: Automorphism = None) -> DynMat:
    """The quantum-leg conjugator O_N, the product of its site blocks
    (:func:`build_ON_blocks`)."""
    return chain_product(build_ON_blocks(b, q, N, u_quantum, g))


def build_gauged_core(scheme: WeightScheme, R0: DynMat, q: DynMat, Q, QL,
                      g: Automorphism, N: int, u_quantum, u_aux) -> DynMat:
    """Automorphism-dressed chain core on legs 0..2N:

        q0^-1 . QL^-1 .
        [g0 R_{0,2N} ... g0 R_{02} . Q_0 . g0 R_{01} ... g0 R_{0,2N-1}] .
        q0 . g0^(-2N)

    built by :func:`_core_product` as the product of the factors
    Ad(g0^c) X.  For a constant automorphism that product telescopes to
    the form above; for a spectral shift by s the c-th R factor reads
    the auxiliary value u_0 + c*s, and the trailing power leaves a
    finite matrix.  The sigma-power sandwich and the
    quantum-leg sigma dressing cancel each other for the commuting-R0
    class this builder supports and are therefore not assembled; the
    traced family built from this core commutes (certified numerically).
    """
    QLi = constant_dynmat(scheme, q.legs, np.linalg.inv(np.asarray(QL, complex)))
    Qm = constant_dynmat(scheme, q.legs, np.asarray(Q, complex))
    return _core_product(R0, [(q.inv(), (0,)), (QLi, (0,))], [(Qm, (0,))],
                         R0, [(q, (0,))], N, _chain_values(u_quantum, u_aux), g)


def build_monodromy_factored(scheme: WeightScheme, R0: DynMat, b: DynMat,
                             q: DynMat, Q, chi_t: DynMat, N: int,
                             u_quantum, u_aux, Rbar: DynMat = None,
                             chi0: DynMat = None, g: Automorphism = None,
                             QL=None) -> ShiftOpSum:
    """Conjugated factorized monodromy operator.

    Invertible case (Rbar None): the core is the bare chain product
    chi_0 b_0^-1 R_{0,2N} ... R_{02} Q_0 R_{01} ... R_{0,2N-1} q_0
    followed by the auxiliary weight-shift factor, conjugated by O_N.
    With Rbar (a second non-dynamical matrix not similar to R0) the odd
    chain factors use Rbar and the middle is the interleaved twisted
    reflection block built from chi0; this variant requires the caller
    to supply chi0 explicitly, since no dual can be manufactured from a
    direct solution here.  A non-identity automorphism dispatches to the
    gauged chain core (QL required, Rbar unsupported there).  ``u_aux``
    None keeps the slot of leg 0, as in :func:`build_monodromy_direct`.
    """
    if g is not None and not g.is_identity:
        if Rbar is not None:
            raise ValueError("the gauged chain supports only the single-R0 case")
        if QL is None:
            raise ValueError("the gauged chain needs the dual core QL")
        core = build_gauged_core(scheme, R0, q, Q, QL, g, N, u_quantum, u_aux)
    else:
        left, right = [(chi_t, (0,)), (b.inv(), (0,))], [(q, (0,))]
        if Rbar is None:
            middle = [(constant_dynmat(scheme, q.legs, np.asarray(Q, dtype=complex)), (0,))]
        else:
            if chi0 is None:
                raise ValueError("the non-similar variant needs an explicit chi0")
            # interleaved twisted reflection block:
            # (prod_k q_{2k-1}(h odd above)) b_0 chi0(h odd above) q_0^-1 (prod)^-1
            legs = all_legs(N)
            qprod = chain_product(_site_blocks(lambda kk: embed(q, (2 * kk - 1,), legs), N, legs))
            middle = [(qprod, legs), (b, (0,)), (chi0, (0,), tuple(range(1, 2 * N, 2))),
                      (q.inv(), (0,)), (qprod.inv(), legs)]
        core = _core_product(R0, left, middle, Rbar or R0, right, N,
                             _chain_values(u_quantum, u_aux))
    return _conjugate_weight_shifted(build_ON_blocks(b, q, N, u_quantum, g), core)


def transfer_trace(T: ShiftOpSum) -> ShiftOpSum:
    """Partial trace over the auxiliary leg, as a map of T's tables.

    Each term (M, m) becomes (Tr_0 M, m) on the quantum legs, per point
    of a batch; shifts are preserved because the auxiliary shift factor
    was already expanded with weight projectors.  An auxiliary twist w
    on leg 0 would change nothing: cyclicity of the partial trace over
    leg 0 gives Tr_0[w^-1 M w] = Tr_0[M].
    """
    if 0 not in T.legs:
        raise LegError("transfer trace needs the auxiliary leg 0")
    n = T.scheme.rank
    qlegs = tuple(l for l in T.legs if l != 0)
    dq = n ** len(qlegs)

    def table(lam, u):
        terms = T.raw_terms(lam, u)
        out = {}
        for m in list(terms):
            M = terms.pop(m)
            if isinstance(M, ColumnBlock) and M.position == 0:
                # the einsum below would add only zeros to its rows i; a
                # copy, so the traced table does not keep all of M alive
                out[m] = M.m[..., M.index * dq:(M.index + 1) * dq, :].copy()
                continue
            M = _dense(M)
            out[m] = np.einsum("...iaib->...ab", M.reshape(M.shape[:-2] + (n, dq, n, dq)))
        return out

    return ShiftOpSum(T.scheme, qlegs, T.terms, table, T.spectral_legs, T.dim)


def transfer_commutation(T: ShiftOpSum, u_list, points, tol=1e-8) -> ResidualReport:
    """The worst pairwise commutator of the traced family Tr_0 T(u_0), u_0
    in ``u_list``: T is one chain operator whose auxiliary leg 0 keeps its
    spectral slot, and the members are rows of its traced table
    (:func:`shiftop_commutators` on :func:`transfer_trace`), the first NaN
    kept; a single value commutes, with residual 0.0 at the first point."""
    if len(u_list) < 2:
        return ResidualReport("transfer_commutation", len(points), 0.0, tol,
                              (points[0][0], dict(points[0][1])))
    worst = None
    for r in shiftop_commutators(transfer_trace(T), [{0: u0} for u0 in u_list], points, tol,
                                 name="transfer_commutation"):
        # keep the first NaN: it compares false both ways
        if worst is None or (worst.max_residual == worst.max_residual
                             and not r.max_residual <= worst.max_residual):
            worst = r
    return worst


def ingredient_reports(S: StructureSet, Q0: DynMat, kappa: DynMat, points, tol) -> dict:
    """The hypotheses of a commuting traced family, by check name, in
    gate order: the one-sided and diagonal weight conditions on (B, C,
    D) -- the diagonal condition on the twisted coefficient is the
    decisive one and is named ``twist_zero_weight_D`` -- the cubic
    consistency relations, the reflection residual for Q0, and the
    factorization condition for kappa (if given).  A failing report
    names the violated hypothesis; none depends on the chain length."""
    reports = {}
    reports["zero_weight_B"] = residual_zero_weight(S.B, "B", points, tol)
    reports["zero_weight_C"] = residual_zero_weight(S.C, "C", points, tol)
    reports["twist_zero_weight_D"] = residual_zero_weight(
        S.D, "D", points, tol, name="twist_zero_weight_D"
    )
    if S.g.is_identity:
        reports.update(residual_ybce(S, points, tol))
    else:
        reports.update(residual_gybce(S, points, tol))
        reports["zwc"] = residual_zwc(S, points, tol)
    reports["sdre_reflection"] = residual_sdre(S, Q0, points, tol, name="sdre_reflection")
    if kappa is not None:
        reports["theta_period"] = residual_theta_period(kappa, points, max(tol, 1e-10))
    return reports

import itertools

import numpy as np
import pytest

from sdreflect import (
    Automorphism,
    DynMat,
    WeightScheme,
    adjoint_auto,
    constant_dynmat,
    decompose_zero_weight,
    dyn_shift,
    embed,
    function_dynmat,
    identity_dynmat,
    permutation_operator,
    pi_transpose,
    sigma_conjugate,
    sigma_of,
    yangian_r,
)
from sdreflect.dyncore import (
    DENSE_MAX_DIM,
    AutomorphismError,
    DecorationFactor,
    LegError,
    PoleError,
    SpectralValueError,
    _place_matrix,
)

SCH2 = WeightScheme(2, 1.0)
SCH3 = WeightScheme(3, 1.0)
RNG = np.random.default_rng(101)


def rand_lam(n=2):
    return RNG.uniform(-1.5, 1.5, n) + 1j * RNG.uniform(-1.5, 1.5, n)


def test_identity_eval():
    X = identity_dynmat(SCH2, (1,))
    np.testing.assert_allclose(X.eval(rand_lam()), np.eye(2))


def test_yangian_at_gap_two():
    R = yangian_r(SCH2, (1, 2))
    m = R.eval([0, 0], {1: 2.0, 2: 0.0})
    expect = np.array([
        [1.5, 0, 0, 0], [0, 1.0, 0.5, 0], [0, 0.5, 1.0, 0], [0, 0, 0, 1.5],
    ])
    np.testing.assert_allclose(m, expect)


def test_yangian_pole_reported():
    R = yangian_r(SCH2, (1, 2))
    with pytest.raises(PoleError):
        R.eval([0, 0], {1: 1.0, 2: 1.0})


def test_missing_spectral_value():
    R = yangian_r(SCH2, (1, 2))
    with pytest.raises(SpectralValueError):
        R.eval([0, 0], {1: 1.0})


def test_diagonal_substitution():
    b = function_dynmat(SCH2, (1,), lambda lam, u: np.diag(lam))
    np.testing.assert_allclose(b.eval([3.0, 1.0]), np.diag([3.0, 1.0]))


def test_permutation_operator():
    np.testing.assert_allclose(
        permutation_operator(2),
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    )
    p3 = permutation_operator(3)
    np.testing.assert_allclose(p3 @ p3, np.eye(9))
    assert np.isclose(np.trace(permutation_operator(2)), 2)
    assert np.isclose(np.trace(p3), 3)
    with pytest.raises(ValueError):
        permutation_operator(1)


def test_embed_identity_three_legs():
    X = identity_dynmat(SCH2, (1,))
    M = embed(X, (2,), (1, 2, 3))
    np.testing.assert_allclose(M.eval(rand_lam()), np.eye(8))


def test_embed_permutation_on_outer_legs():
    P = constant_dynmat(SCH2, (1, 2), permutation_operator(2))
    M = embed(P, (1, 3), (1, 2, 3)).eval(rand_lam())
    x, y, z = RNG.normal(size=2), RNG.normal(size=2), RNG.normal(size=2)
    out = M @ np.kron(x, np.kron(y, z))
    np.testing.assert_allclose(out, np.kron(z, np.kron(y, x)))


def test_embed_disjoint_commute():
    legs = (1, 2, 3, 4)
    for _ in range(3):
        X = constant_dynmat(SCH2, (1, 2), RNG.normal(size=(4, 4)))
        Y = constant_dynmat(SCH2, (1, 2), RNG.normal(size=(4, 4)))
        A = embed(X, (1, 2), legs)
        B = embed(Y, (3, 4), legs)
        lam = rand_lam()
        np.testing.assert_allclose(
            (A @ B).eval(lam), (B @ A).eval(lam), atol=1e-12
        )


def test_embed_leg_mismatch():
    X = identity_dynmat(SCH2, (1, 2))
    with pytest.raises(LegError):
        embed(X, (1,), (1, 2, 3))
    with pytest.raises(LegError):
        embed(X, (1, 5), (1, 2, 3))


def test_dyn_shift_defining_sum():
    # X(lam) = lam_1 . 1 on leg 1, shifted by leg 2, at lam = (0, 0)
    X = function_dynmat(SCH2, (1,), lambda lam, u: lam[0] * np.eye(2, dtype=complex))
    S = dyn_shift(X, (2,))
    np.testing.assert_allclose(S.eval([0.0, 0.0]), np.diag([1, 0, 1, 0]))


def test_dyn_shift_constant_is_embed():
    m = RNG.normal(size=(2, 2))
    X = constant_dynmat(SCH2, (1,), m)
    S = dyn_shift(X, (2, 3))
    E = embed(X, (1,), (1, 2, 3))
    lam = rand_lam()
    np.testing.assert_allclose(S.eval(lam), E.eval(lam), atol=1e-13)


def test_dyn_shift_double_equals_nested_argument_shift():
    # shifting by legs (2, 3) resolves the same nested sum as shifting
    # the argument twice; checked entrywise via an independent
    # brute-force assembly of the defining sum
    def f(lam, u):
        return np.array([
            [np.exp(0.3 * lam[0]), 0.2 * lam[1]],
            [lam[0] * lam[1], 1.0 + 0.1 * lam[0] ** 2],
        ], dtype=complex)

    X = function_dynmat(SCH2, (1,), f)
    S = dyn_shift(X, (2, 3))
    for _ in range(20):
        lam = rand_lam()
        brute = np.zeros((8, 8), dtype=complex)
        for i in range(2):
            for j in range(2):
                term = np.kron(f(lam + SCH2.unit(i) + SCH2.unit(j), {}),
                               np.kron(SCH2.projector(i), SCH2.projector(j)))
                brute += term
        np.testing.assert_allclose(S.eval(lam), brute, atol=1e-12)


def test_shift_embed_commutation():
    X = function_dynmat(SCH2, (1,), lambda lam, u: np.diag([lam[0], lam[1] ** 2]))
    legs = (1, 2, 3)
    A = embed(dyn_shift(X, (2,)), (1, 2), legs)
    B = dyn_shift(embed(X, (1,), legs), (2,), legs)
    lam = rand_lam()
    np.testing.assert_allclose(A.eval(lam), B.eval(lam), atol=1e-12)


def test_pi_transpose_examples():
    e11 = SCH2.projector(0)
    e22 = SCH2.projector(1)
    X = constant_dynmat(SCH2, (1, 2), np.kron(e11, e22))
    np.testing.assert_allclose(pi_transpose(X).eval(rand_lam()), np.kron(e22, e11))


def test_pi_transpose_involution():
    X = constant_dynmat(SCH2, (1, 2), RNG.normal(size=(4, 4)))
    lam = rand_lam()
    np.testing.assert_allclose(
        pi_transpose(pi_transpose(X)).eval(lam), X.eval(lam), atol=1e-13
    )


def test_pi_transpose_block_structure():
    # sum_i e_ii (x) b_i flips to sum_i b_i (x) e_ii
    bs = [RNG.normal(size=(2, 2)) for _ in range(2)]
    m = sum(np.kron(SCH2.projector(i), bs[i]) for i in range(2))
    flip = sum(np.kron(bs[i], SCH2.projector(i)) for i in range(2))
    X = constant_dynmat(SCH2, (1, 2), m)
    np.testing.assert_allclose(pi_transpose(X).eval(rand_lam()), flip, atol=1e-13)


def test_pi_transpose_swaps_spectral_slots():
    R = yangian_r(SCH2, (1, 2))
    lam = rand_lam()
    lhs = pi_transpose(R).eval(lam, {1: 1.7, 2: 0.2})
    P = permutation_operator(2)
    rhs = P @ R.eval(lam, {1: 0.2, 2: 1.7}) @ P
    np.testing.assert_allclose(lhs, rhs)


def test_adjoint_identity_and_powers():
    X = constant_dynmat(SCH2, (1, 2), RNG.normal(size=(4, 4)))
    lam = rand_lam()
    same = adjoint_auto(X, Automorphism.identity(), (1,), "conjugate")
    np.testing.assert_allclose(same.eval(lam), X.eval(lam))
    g = Automorphism.constant(np.array([[2.0, 0.3], [0.0, 1.0]]))
    once = adjoint_auto(adjoint_auto(X, g, (1,), "conjugate", 2), g, (1,), "conjugate", 1)
    threes = adjoint_auto(X, g, (1,), "conjugate", 3)
    np.testing.assert_allclose(once.eval(lam), threes.eval(lam), atol=1e-11)


def test_adjoint_diagonal_scales_offdiagonal():
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    X = constant_dynmat(SCH2, (1, 2), np.kron(e12, np.eye(2)))
    g = Automorphism.constant(np.diag([2.0, 1.0]))
    out = adjoint_auto(X, g, (1,), "conjugate", 1).eval(rand_lam())
    np.testing.assert_allclose(out, 2.0 * np.kron(e12, np.eye(2)))


def test_adjoint_spectral_shift_difference_invariance():
    R = yangian_r(SCH2, (1, 2))
    g = Automorphism.spectral_shift(1.0)
    conj = adjoint_auto(R, g, (1, 2), "conjugate", 1)
    for _ in range(20):
        lam = rand_lam()
        u = {1: complex(RNG.uniform(1, 3)), 2: complex(RNG.uniform(-3, -1))}
        np.testing.assert_allclose(conj.eval(lam, u), R.eval(lam, u))


def test_adjoint_spectral_shift_one_sided_rejected():
    R = yangian_r(SCH2, (1, 2))
    g = Automorphism.spectral_shift(1.0)
    with pytest.raises(Exception):
        adjoint_auto(R, g, (1,), "left")


# g**sigma: Automorphism.complex_power, read through DecorationFactor(g, "sigma")


def test_sigma_power_principal_branch():
    g = Automorphism.constant(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(g.complex_power(0.5), np.diag([2.0, 1.0]), atol=1e-13)
    out = DecorationFactor(g, "sigma").resolve(np.array([0.25, 0.25]))  # sigma = 0.5
    np.testing.assert_allclose(out, np.diag([2.0, 1.0]), atol=1e-13)


def test_sigma_power_identity():
    X = constant_dynmat(SCH2, (1, 2), RNG.normal(size=(4, 4)))
    assert sigma_conjugate(X, Automorphism.identity(), (1, 2), sign=+1) is X


def test_sigma_power_unit_sigma_is_g():
    g = Automorphism.constant(np.array([[2.0, 1.0], [0.5, 3.0]]))
    lam = np.array([0.7, 0.3])  # sigma = 1
    np.testing.assert_allclose(g.complex_power(1.0), g.matrix, atol=1e-12)
    np.testing.assert_allclose(DecorationFactor(g, "sigma").resolve(lam), g.matrix, atol=1e-12)


def test_sigma_power_spectral_shift_on_difference_form():
    R = yangian_r(SCH2, (1, 2))
    g = Automorphism.spectral_shift(1.0)
    lam = np.array([1.0, 1.0])  # sigma = 2: both slots move by -2
    assert DecorationFactor(g, "-sigma").resolve(lam) == -2.0
    u = {1: 2.3, 2: -0.4}
    np.testing.assert_allclose(sigma_conjugate(R, g, (1, 2)).eval(lam, u), R.eval(lam, u))


def test_sigma_power_rejects_cut():
    g = Automorphism.constant(np.diag([-1.0, 1.0]))
    with pytest.raises(AutomorphismError):
        g.complex_power(0.6)
    with pytest.raises(AutomorphismError):
        DecorationFactor(g, "sigma").resolve(np.array([0.3, 0.3]))


def test_decompose_identity():
    D = identity_dynmat(SCH2, (1, 2))
    dec = decompose_zero_weight(D, [(rand_lam(), {})])
    d, delta = dec.tables(rand_lam())
    np.testing.assert_allclose(d, np.ones((2, 2)))
    np.testing.assert_allclose(delta, np.zeros((2, 2)))


def test_decompose_yangian():
    R = yangian_r(SCH2, (1, 2))
    pts = [(rand_lam(), {1: 2.0, 2: 0.0})]
    dec = decompose_zero_weight(R, pts)
    d, delta = dec.tables(rand_lam(), {1: 2.0, 2: 0.0})
    np.testing.assert_allclose(np.diag(d), [1.5, 1.5])
    assert np.isclose(d[0, 1], 1.0) and np.isclose(delta[0, 1], 0.5)


def test_decompose_rejects_nonzero_weight():
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    D = constant_dynmat(SCH2, (1, 2), np.kron(e12, SCH2.projector(0)))
    with pytest.raises(ValueError):
        decompose_zero_weight(D, [(rand_lam(), {})])


def test_decompose_reassembly():
    R = yangian_r(SCH2, (1, 2))
    u = {1: 1.3, 2: -0.7}
    dec = decompose_zero_weight(R, [(rand_lam(), u)])
    lam = rand_lam()
    orig = R.eval(lam, u)
    rebuilt = dec.reassemble(lam, u)
    assert np.linalg.norm(orig - rebuilt) / np.linalg.norm(orig) < 1e-13


def test_weight_scheme_validation():
    with pytest.raises(ValueError):
        WeightScheme(1, 1.0)
    with pytest.raises(ValueError):
        WeightScheme(2, 0.0)
    assert np.isclose(sigma_of([1.0, 2.0, 3.0]), 6.0)


def test_factorizable_automorphism_adjoint():
    # a spectrally dependent finite automorphism conjugates with its
    # value at the leg's own slot
    f = Automorphism.factorizable(lambda u: np.diag([1.0 + 0.1 * u, 1.0]))
    R = yangian_r(SCH2, (1, 2))
    out = adjoint_auto(R, f, (1,), "conjugate", 1)
    lam = rand_lam()
    u = {1: 2.0, 2: -1.0}
    g1 = np.kron(np.diag([1.2, 1.0]), np.eye(2))
    expect = g1 @ R.eval(lam, u) @ np.linalg.inv(g1)
    np.testing.assert_allclose(out.eval(lam, u), expect, atol=1e-12)


def test_factorizable_automorphism_needs_slot_value():
    f = Automorphism.factorizable(lambda u: np.diag([1.0 + 0.1 * u, 1.0]))
    X = identity_dynmat(SCH2, (1, 2))
    with pytest.raises(SpectralValueError):
        adjoint_auto(X, f, (1,), "conjugate", 1).eval(rand_lam())


# -- the decoration engine ---------------------------------------------------


def test_shift_conjugation_moves_the_pole():
    # conjugating leg 1 by a shift of 1 reads R at u1 + 1: the pole
    # u1 = u2 moves to u1 + 1 = u2
    R = yangian_r(SCH2, (1, 2))
    X = adjoint_auto(R, Automorphism.spectral_shift(1.0), (1,))
    lam = rand_lam()
    with pytest.raises(PoleError):
        X.eval(lam, {1: 0.5, 2: 1.5})
    np.testing.assert_array_equal(X.eval(lam, {1: 0.5, 2: 0.5}),
                                  R.eval(lam, {1: 1.5, 2: 0.5}))


def test_sigma_shift_conjugation_moves_the_pole():
    # sign -1 reads R at u1 - sigma: with sigma = 0.75 the pole sits at
    # u1 - 0.75 = u2, also inside a batch
    R = yangian_r(SCH2, (1, 2))
    X = sigma_conjugate(R, Automorphism.spectral_shift(1.0), (1,), sign=-1)
    lam = np.array([0.5, 0.25])
    with pytest.raises(PoleError):
        X.eval(lam, {1: 1.75, 2: 1.0})
    with pytest.raises(PoleError) as err:
        X.eval(np.stack([lam, lam]), {1: np.array([2.0, 1.75]), 2: 1.0})
    assert err.value.u == {1: 1.75, 2: 1.0}
    np.testing.assert_array_equal(X.eval(lam, {1: 1.0, 2: 1.0}),
                                  R.eval(lam, {1: 0.25, 2: 1.0}))


def test_spectral_shift_moves_the_yangian_pole():
    # R(u1 + 1, u2) has its pole at u1 + 1 = u2 and is finite at u1 = u2
    R = yangian_r(SCH2, (1, 2))
    S = R.shift_spectral({1: 1.0})
    lam = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    with pytest.raises(PoleError) as err:
        S.eval(lam, {1: 0.5, 2: 1.5})
    assert err.value.u == {1: 0.5, 2: 1.5}
    np.testing.assert_array_equal(S.eval(lam, {1: 0.5, 2: 0.5}),
                                  R.eval(lam, {1: 1.5, 2: 0.5}))


def test_pole_in_a_broadcast_batch_names_the_callers_point():
    # u of shape (2, 1) against lam of shape (2, 3, n): the pole row of u
    # is the caller's point (1, 0), flat index 3
    R = yangian_r(SCH2, (1, 2))
    lam = 0.1 * np.arange(12).reshape(2, 3, 2) + 0.05j
    with pytest.raises(PoleError) as err:
        R.eval(lam, {1: np.array([[0.5], [1.5]]), 2: 1.5})
    np.testing.assert_array_equal(err.value.lam, lam[1, 0])
    assert err.value.u == {1: 1.5, 2: 1.5}


def _singular_at(lam0):
    """The inverse of diag(lam1 - lam0_1, 1), singular where lam1 = lam0_1."""
    return function_dynmat(SCH2, (1,), lambda lam, u: np.diag([lam[0] - lam0[0], 1.0])).inv()


@pytest.mark.parametrize("via", ["shift_lambda", "dyn_shift"])
def test_shifted_singular_inverse_names_the_callers_point(via):
    # the inverse is singular at lam0, met from the caller's lam0 - e_1
    lam0 = np.array([0.5 + 0.25j, 0.125])
    X = _singular_at(lam0)
    if via == "shift_lambda":
        Y = X.shift_lambda(SCH2.gamma * SCH2.unit(0))
    else:
        Y = dyn_shift(X, (2,))
    caller = lam0 - SCH2.gamma * SCH2.unit(0)
    batch = np.stack([np.array([-1.25 + 0.5j, 0.75]), caller])
    with pytest.raises(PoleError) as err:
        Y.eval(batch)
    np.testing.assert_array_equal(err.value.lam, caller)
    assert "singular matrix" in str(err.value)


def test_sigma_conjugate_of_a_factorizable_automorphism_fails_on_evaluation():
    f = Automorphism.factorizable(lambda u: np.diag([1.0 + 0.1 * u, 1.0]))
    X = sigma_conjugate(yangian_r(SCH2, (1, 2)), f, (1, 2), sign=-1)
    with pytest.raises(AutomorphismError):
        X.eval(rand_lam(), {1: 2.0, 2: -1.0})


def _power(m, s):
    """m**s on the principal branch, for a diagonalizable m."""
    w, v = np.linalg.eig(m)
    return (v * np.exp(s * np.log(w))) @ np.linalg.inv(v)


@pytest.mark.parametrize("legs", [(1, 2), (2,)])
def test_decorate_on_legs_matches_kron_products(legs):
    # each factor is placed on every named leg; conjugations innermost
    # first, then left blocks on the left and right blocks on the right,
    # each in list order
    from sdreflect.dyncore import Decoration, DecorationFactor, decorate

    am = np.array([[2.0, 0.6], [0.3, 1.2]])
    gm = np.array([[1.5, -0.4], [0.7, 0.9]])
    a, g = Automorphism.constant(am), Automorphism.constant(gm)
    R = yangian_r(SCH2, (1, 2))
    X = decorate(R, legs, [
        Decoration("conjugate", [DecorationFactor(a, "sigma"), DecorationFactor(g, 2)]),
        Decoration("left", [DecorationFactor(g, -1), DecorationFactor(a, "-sigma")]),
        Decoration("right", [DecorationFactor(a, "sigma"), DecorationFactor(g, 1)]),
    ])

    def on(m):
        return np.kron(m, m) if legs == (1, 2) else np.kron(np.eye(2), m)

    for _ in range(5):
        lam = rand_lam()
        s = np.sum(lam)
        u = {1: 1.3 + 0.2j, 2: -0.4}
        c1, c2 = on(_power(am, s)), on(gm @ gm)
        core = c2 @ c1 @ R.eval(lam, u) @ np.linalg.inv(c1) @ np.linalg.inv(c2)
        expect = (on(np.linalg.inv(gm)) @ on(_power(am, -s)) @ core
                  @ on(_power(am, s)) @ on(gm))
        got = X.eval(lam, u)
        assert np.linalg.norm(got - expect) / np.linalg.norm(expect) < 1e-12


def test_decorate_without_an_action_returns_the_matrix():
    from sdreflect.dyncore import Decoration, DecorationFactor, decorate

    X = constant_dynmat(SCH2, (1, 2), RNG.normal(size=(4, 4)))
    g = Automorphism.constant(np.diag([2.0, 1.0]))
    shift = Automorphism.spectral_shift(1.0)
    assert decorate(X, (1, 2), [Decoration("conjugate", [
        DecorationFactor(Automorphism.identity()), DecorationFactor(g, 0),
        DecorationFactor(shift, "sigma")])]) is X


@pytest.mark.parametrize("spectral", [True, False])
def test_factorizable_conjugation_reads_the_value_moved_by_later_shifts(spectral):
    # listed before (inside) a shift conjugation, f reads the moved leg
    # value, Ad_s(f X f^-1) = F(u1 + 1) X(u1 + 1, u2) F(u1 + 1)^-1, also on a
    # slot-less X; listed after (outside) it, f reads u1
    from sdreflect.dyncore import Decoration, DecorationFactor, decorate

    def fm(u):
        return np.array([[1 + 0.1 * u, 0.3], [0, 1]])

    f, shift = Automorphism.factorizable(fm), Automorphism.spectral_shift(1.0)
    X = yangian_r(SCH2, (1, 2)) if spectral else constant_dynmat(
        SCH2, (1, 2), RNG.normal(size=(4, 4)))
    lam, u = rand_lam(), {1: 0.4 + 0.3j, 2: -0.7}
    inner = X.eval(lam, {1: u[1] + 1.0, 2: u[2]} if spectral else None)
    for order, uf in (((f, shift), u[1] + 1.0), ((shift, f), u[1])):
        got = decorate(X, (1,), [Decoration("conjugate", [DecorationFactor(a, 1)
                                                          for a in order])]).eval(lam, u)
        F = np.kron(fm(uf), np.eye(2))
        expect = F @ inner @ np.linalg.inv(F)
        assert np.linalg.norm(got - expect) / np.linalg.norm(expect) < 1e-13


# -- index-table placement ---------------------------------------------------


def _kron_place(m, positions, total, n):
    """Placement by Kronecker product with the identity and an axis
    transpose: the reference the index tables must reproduce."""
    k = len(positions)
    rest = [p for p in range(total) if p not in positions]
    full = np.kron(m, np.eye(n ** (total - k), dtype=complex))
    full = full.reshape((n,) * (2 * total))
    src_order = list(positions) + rest
    perm = [src_order.index(p) for p in range(total)]
    axes = perm + [total + a for a in perm]
    return full.transpose(axes).reshape(n ** total, n ** total)


@pytest.mark.parametrize("n,max_total,max_k", [(2, 5, 5), (3, 4, 3)])
def test_place_matrix_matches_kron_reference(n, max_total, max_k):
    rng = np.random.default_rng(11)
    for total in range(1, max_total + 1):
        for k in range(1, min(total, max_k) + 1):
            for pos in itertools.permutations(range(total), k):
                d = n ** k
                m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                got = _place_matrix(m, list(pos), total, n)
                assert np.array_equal(got, _kron_place(m, pos, total, n)), (total, pos)


def test_place_matrix_on_all_legs_in_order_is_the_matrix():
    m = np.arange(16.0).reshape(4, 4) + 0j
    assert _place_matrix(m, [0, 1], 2, 2) is m
    swapped = _place_matrix(m, [1, 0], 2, 2)
    p = permutation_operator(2)
    np.testing.assert_array_equal(swapped, p @ m @ p)


# -- leg-local products of placed factors ------------------------------------


def _rand(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _position_tuples(n, max_total, max_k):
    for total in range(1, max_total + 1):
        for k in range(1, min(total, max_k) + 1):
            for pos in itertools.permutations(range(total), k):
                yield total, pos


def _close(got, want):
    scale = max(np.linalg.norm(want), 1.0)
    return np.linalg.norm(got - want) <= 1e-13 * scale


@pytest.fixture
def leg_local(monkeypatch):
    """Placed DynMats keep their factor at every dimension."""
    import sdreflect.dyncore as dc

    monkeypatch.setattr(dc, "DENSE_MAX_DIM", 0)


@pytest.mark.parametrize("n,max_total,max_k", [(2, 5, 5), (3, 4, 3)])
def test_placed_products_match_dense_placement(n, max_total, max_k):
    from sdreflect.dyncore import Placed, _union_product

    rng = np.random.default_rng(23)
    tuples = list(_position_tuples(n, max_total, max_k))
    for total, pos in tuples:
        d, m = n ** total, _rand(rng, n ** len(pos))
        M = _rand(rng, d)
        P = Placed(m, pos, total, n)
        dense = _place_matrix(m, pos, total, n)
        assert _close(M @ P, M @ dense), (total, pos)
        assert _close(P @ M, dense @ M), (total, pos)
        # a second placed factor on the same legs: the union support
        others = [p for t, p in tuples if t == total]
        pos2 = others[rng.integers(len(others))]
        Q = Placed(_rand(rng, n ** len(pos2)), pos2, total, n)
        union = tuple(sorted(set(pos) | set(pos2)))
        got = _place_matrix(_union_product(P, Q), union, total, n)
        assert _close(got, dense @ Q.dense()), (total, pos, pos2)
        assert _close(P @ Q, dense @ Q.dense()), (total, pos, pos2)


@pytest.mark.parametrize("n,max_total,max_k", [(2, 5, 5), (3, 4, 3)])
def test_placed_dynmat_operations_match_dense_placement(n, max_total, max_k, leg_local):
    from sdreflect.monodromy import bind_spectral

    sch = WeightScheme(n, 1.0)
    rng = np.random.default_rng(29)
    lam = rng.normal(size=n) + 1j * rng.normal(size=n)
    for total, pos in _position_tuples(n, max_total, max_k):
        legs = tuple(range(total))
        target = tuple(legs[p] for p in pos)
        k = len(pos)
        base = _rand(rng, n ** k) + 3 * np.eye(n ** k)
        slope = _rand(rng, n ** k) * 0.1
        grad = rng.normal(size=n)

        def fn(lam, u, base=base, slope=slope, grad=grad):
            return base + slope * (grad @ lam) + slope.T * u[0]

        X = function_dynmat(sch, tuple(range(k)), fn, spectral_legs=(0,))
        Xe = embed(X, target, legs)
        u = {target[0]: 0.3 - 0.2j}
        dense = _place_matrix(fn(lam, {0: u[target[0]]}), pos, total, n)
        assert (Xe.positions is not None) == (pos != legs)
        assert _close(Xe.eval(lam, u), dense)
        bound = bind_spectral(Xe, u)
        assert _close(bound.eval(lam), dense)
        assert _close(bound.inv().eval(lam), np.linalg.inv(dense))
        # product with a second placed factor, and with a dense matrix
        Y = embed(constant_dynmat(sch, (0,), _rand(rng, n)), (legs[-1],), legs)
        ydense = Y.eval(lam)
        assert _close((bound @ Y).eval(lam), dense @ ydense)
        assert _close((Y @ bound).eval(lam), ydense @ dense)
        full = constant_dynmat(sch, legs, _rand(rng, n ** total))
        assert _close((full @ bound).eval(lam), full.eval(lam) @ dense)
        assert _close((bound @ full).eval(lam), dense @ full.eval(lam))
        # a dynamical shift by the first leg outside the factor (or by its own)
        shift = next((l for l in legs if l not in target), target[0])
        want = sum(
            _place_matrix(fn(lam + sch.unit(i), {0: u[target[0]]}), pos, total, n)
            @ _place_matrix(sch.projector(i), [legs.index(shift)], total, n)
            for i in range(n)
        )
        assert _close(dyn_shift(bound, (shift,), legs).eval(lam), want), (total, pos)


def test_placed_dynmat_maps_keep_positions_bit_for_bit():
    from sdreflect.monodromy import bind_spectral

    n, legs, pos = 2, tuple(range(6)), (4, 1)
    sch = WeightScheme(n, 1.0)
    rng = np.random.default_rng(41)
    base = _rand(rng, n * n) + 3 * np.eye(n * n)
    slope = _rand(rng, n * n) * 0.1

    def fn(lam, u):
        return base + slope * (lam[0] - 0.5 * lam[1]) + slope.T * u[0]

    Xe = embed(function_dynmat(sch, (0, 1), fn, spectral_legs=(0,)), pos, legs)
    assert Xe.positions == pos and Xe.dim > DENSE_MAX_DIM
    lam = np.array([0.4 - 0.3j, -0.7 + 0.2j])
    u, delta = 0.3 - 0.2j, np.array([0.5, -0.25j])
    dense = Xe.eval(lam, {4: u})
    cases = [
        (Xe.inv(), {4: u}, _place_matrix(np.linalg.inv(fn(lam, {0: u})), pos, 6, n)),
        (Xe.shift_lambda(delta), {4: u}, Xe.eval(lam + delta, {4: u})),
        (Xe.shift_spectral({4: 0.5}), {4: u}, Xe.eval(lam, {4: u + 0.5})),
        (2 * Xe, {4: u}, 2 * dense),
        (bind_spectral(Xe, {4: u}), {}, dense),
    ]
    for Y, uu, want in cases:
        assert Y.positions == pos
        np.testing.assert_array_equal(Y.eval(lam, uu), want)


def test_weight_shifted_is_a_column_selection_of_the_projector_product():
    from sdreflect.shiftops import ShiftOpSum

    rng = np.random.default_rng(31)
    for n, total in ((2, 3), (3, 4)):
        sch = WeightScheme(n, 1.0)
        legs = tuple(range(total))
        M = constant_dynmat(sch, legs, _rand(rng, n ** total))
        for leg in (0, total - 1):
            table = ShiftOpSum.weight_shifted(M, leg).eval_terms(np.zeros(n))
            for i in range(n):
                key = tuple(int(j == i) for j in range(n))
                proj = _place_matrix(sch.projector(i), [leg], total, n)
                np.testing.assert_array_equal(table[key], M.eval(np.zeros(n)) @ proj)


def test_nan_in_a_placed_conjugated_core_fails_the_difference(leg_local):
    from sdreflect.monodromy import _conjugate_weight_shifted
    from sdreflect.shiftops import shiftop_difference_residual

    n, legs = 3, (0, 1, 2, 3)
    sch = WeightScheme(n, 1.0)
    rng = np.random.default_rng(37)
    pts = [(rng.normal(size=n) + 0j, {}) for _ in range(3)]
    bad = pts[1][0]
    m = _rand(rng, n ** 4)

    def core(lam, u):
        out = m * (1 + lam[0])
        if np.array_equal(lam, bad):
            out = out.copy()
            out[5, 7] = np.nan
        return out

    O = embed(constant_dynmat(sch, (1, 2, 3), _rand(rng, n ** 3) + 4 * np.eye(n ** 3)),
              (1, 2, 3), legs)
    assert O.positions is not None
    good = _conjugate_weight_shifted(O, constant_dynmat(sch, legs, m))
    broken = _conjugate_weight_shifted(O, function_dynmat(sch, legs, core))
    rep = shiftop_difference_residual(broken, good, pts, 1e-8)
    assert not rep.passed
    assert np.isnan(rep.max_residual)
    np.testing.assert_array_equal(rep.worst_point[0], bad)


def _affine_dynmat(rng, sch, legs, shift=0.0):
    """A generic matrix base + slope * (grad . lam) + shift * 1 on ``legs``."""
    d = sch.rank ** len(legs)
    base, slope = _rand(rng, d) + shift * np.eye(d), 0.1 * _rand(rng, d)
    grad = rng.normal(size=sch.rank)
    return DynMat(sch, legs, lambda lam, u: base + slope * (lam @ grad)[..., None, None])


def _conjugated_tables(rank, N, O=None, points=3):
    """The tables of ``_conjugate_weight_shifted(O, core)`` and of the
    composed product O^-1 . weight_shifted(core, 0) . O on a stacked
    block of points, for a generic core and (unless given) the chain
    conjugator O_N of generic b and q."""
    from sdreflect.monodromy import _conjugate_weight_shifted, all_legs, build_ON
    from sdreflect.shiftops import ShiftOpSum

    sch, legs = WeightScheme(rank, 0.7), all_legs(N)
    rng = np.random.default_rng([rank, N])
    if O is None:
        b, q = (_affine_dynmat(rng, sch, (1,), 3.0) for _ in range(2))
        O = build_ON(b, q, N, {})
    core = _affine_dynmat(rng, sch, legs)
    lam = rng.normal(size=(points, rank)) + 1j * rng.normal(size=(points, rank))
    zero = (0,) * rank
    want = (ShiftOpSum.of_terms(sch, legs, [(zero, O.inv())])
            .compose(ShiftOpSum.weight_shifted(core, 0))
            .compose(ShiftOpSum.of_terms(sch, legs, [(zero, O)])))
    return O, _conjugate_weight_shifted(O, core).eval_terms(lam), want.eval_terms(lam)


def _assert_same_tables(got, want):
    assert list(got) == list(want)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key])


@pytest.mark.parametrize("rank,N,placed", [(2, 1, False), (2, 2, False), (3, 2, True),
                                           (2, 3, True)])
def test_conjugated_weight_shifted_core_is_the_composed_product_bit_for_bit(rank, N, placed):
    O, got, want = _conjugated_tables(rank, N, points=2 if rank == 3 else 3)
    assert O.positions == (tuple(range(1, 2 * N + 1)) if placed else None)
    _assert_same_tables(got, want)


def test_conjugated_weight_shifted_core_leg_local_bit_for_bit(leg_local):
    # O_N placed at every size, and an O placed on some quantum legs only
    for rank in (2, 3):
        O, got, want = _conjugated_tables(rank, 1)
        assert O.positions == (1, 2)
        _assert_same_tables(got, want)
    sch, legs = WeightScheme(2, 0.7), (0, 1, 2, 3, 4)
    rng = np.random.default_rng(43)
    O = _affine_dynmat(rng, sch, (1, 2), 3.0)
    O, got, want = _conjugated_tables(2, 2, embed(O, (2, 3), legs))
    assert O.positions == (2, 3)
    _assert_same_tables(got, want)


def _tree_cost(tree, supports, n):
    """(multiply-adds, support) of the product ``tree`` (an index or a
    pair of trees), by the planner's cost model."""
    from sdreflect.dyncore import product_cost

    if isinstance(tree, int):
        return 0, frozenset(supports[tree])
    (ca, a), (cb, b) = (_tree_cost(t, supports, n) for t in tree)
    return ca + cb + product_cost(n, a, b), a | b


def _trees(lo, hi):
    """Every association of the factors lo..hi."""
    if lo == hi:
        yield lo
        return
    for s in range(lo, hi):
        for left in _trees(lo, s):
            for right in _trees(s + 1, hi):
                yield left, right


def test_chain_plan_is_the_cheapest_association():
    from sdreflect.dyncore import chain_plan

    rng = np.random.default_rng(47)
    for count in range(1, 7):
        for _ in range(5):
            supports = tuple(frozenset(int(p) for p in rng.choice(5, rng.integers(1, 4), False))
                             for _ in range(count))
            cost, tree = chain_plan(supports, 3)
            assert _tree_cost(tree, supports, 3)[0] == cost
            assert cost == min(_tree_cost(t, supports, 3)[0]
                               for t in _trees(0, count - 1))


def _chain_factors(sch, legs, rng):
    """Generic one-, two- and three-leg factors placed on ``legs``, some
    dynamically shifted, as a monodromy chain holds them."""
    picks = [(0,), (0, 4), (0, 3), (0, 2), (0, 1), (0,), (0, 1), (0, 2), (0, 3), (0, 4)]
    shifts = [(), (), (), (3,), (3,), (1, 3), (3,), (3,), (), ()]
    factors = []
    for at, shift in zip(picks, shifts):
        X = _affine_dynmat(rng, sch, tuple(range(len(at))), 2.0)
        factors.append(dyn_shift(embed(X, at, legs), shift, legs) if shift else embed(X, at, legs))
    return factors


def test_chain_product_is_the_written_product_up_to_the_dense_size():
    import functools
    import operator

    from sdreflect.dyncore import chain_product

    sch, legs = WeightScheme(2, 0.7), (0, 1, 2, 3, 4)
    assert sch.rank ** len(legs) <= DENSE_MAX_DIM
    rng = np.random.default_rng(53)
    factors = _chain_factors(sch, legs, rng)
    assert all(X.positions is None for X in factors)
    lam = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    np.testing.assert_array_equal(chain_product(factors).eval(lam),
                                  functools.reduce(operator.matmul, factors).eval(lam))


@pytest.mark.parametrize("n", [2, 3])
def test_planned_chain_product_matches_the_written_product(n, leg_local):
    import functools
    import operator

    from sdreflect.dyncore import chain_product

    sch, legs = WeightScheme(n, 0.7), (0, 1, 2, 3, 4)
    rng = np.random.default_rng([59, n])
    factors = _chain_factors(sch, legs, rng)
    assert all(X.positions is not None for X in factors)
    lam = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    assert _close(chain_product(factors).eval(lam),
                  functools.reduce(operator.matmul, factors).eval(lam))


def test_planned_direct_chain_costs_at_most_a_quarter_of_left_to_right(monkeypatch):
    # the rank-3 two-site direct chain: ten factors on 243 x 243 operators
    import sdreflect.dyncore as dc
    from sdreflect.cli import Rig
    from sdreflect.monodromy import build_monodromy_direct
    from sdreflect.scenarios import builtin_scenario

    plans, real = [], dc.chain_plan

    def spy(supports, n):
        plans.append((supports, real(supports, n)))
        return plans[-1][1]

    monkeypatch.setattr(dc, "chain_plan", spy)
    rig = Rig(builtin_scenario("diagonal_dressed", {"rank": 3, "sites": 2}), samples=1)
    build_monodromy_direct(rig.S, rig.K, rig.chi, 2, rig.scenario.quantum_values(2), 0.5)
    (supports, (cost, tree)), = plans
    assert len(supports) == 10
    left_to_right = 0
    for k in range(1, len(supports)):
        left_to_right = (left_to_right, k)
    assert _tree_cost(tree, supports, 3)[0] == cost
    assert 4 * cost <= _tree_cost(left_to_right, supports, 3)[0]


def test_column_block_is_the_projected_matrix_on_every_leg():
    from sdreflect.dyncore import ColumnBlock, Placed

    rng = np.random.default_rng(61)
    for n, total in ((2, 3), (3, 3)):
        d = n ** total
        M = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        A = _rand(rng, d)
        P = Placed(_rand(rng, n), (1,), total, n)
        for position in range(total):
            for i in range(n):
                block = ColumnBlock.of(M, i, position, n)
                assert block.m.shape == (2, d, d // n)
                want = M @ _place_matrix(np.diag(np.eye(n)[i]), [position], total, n)
                np.testing.assert_array_equal(block.dense(), want)
                np.testing.assert_array_equal(A @ block, A @ want)
                np.testing.assert_array_equal(block @ A, want @ A)
                np.testing.assert_array_equal(P @ block, P @ want)


# -- the value memo ----------------------------------------------------------


def _counted(X):
    """X with a list of the (lam, u) its function was called at."""
    from dataclasses import replace

    calls = []

    def fn(lam, u, _f=X.fn):
        calls.append((lam, u))
        return _f(lam, u)

    return replace(X, fn=fn), calls


def _memo_case(name):
    """(DynMat, u): a dense spectral matrix or a placed one."""
    rng = np.random.default_rng(67)
    base = _rand(rng, 4) + 3 * np.eye(4)
    slope = _rand(rng, 4) * 0.1

    def fn(lam, u):
        return base + slope * (lam[..., 0] - 0.5 * lam[..., 1])[..., None, None] \
            + slope.T * np.asarray(u[0])[..., None, None]

    X = function_dynmat(SCH2, (0, 1), fn, spectral_legs=(0,))
    placed = embed(X, (4, 1), tuple(range(6)))
    assert placed.positions == (4, 1)
    R = yangian_r(SCH2, (1, 2))
    return {"dense": (R @ R.inv().shift_spectral({1: 0.25}), {1: 0.3 - 0.2j, 2: -0.6}),
            "placed": (placed, {4: 0.3 - 0.2j})}[name]


@pytest.mark.parametrize("case", ["dense", "placed"])
def test_memoized_values_are_the_matrix_bit_for_bit(case):
    from sdreflect.dyncore import memoized

    X, u = _memo_case(case)
    M = memoized(X)
    assert (M.legs, M.positions, M.spectral_legs) == (X.legs, X.positions, X.spectral_legs)
    lam = np.array([0.4 - 0.3j, -0.7 + 0.2j])
    stack = np.stack([lam, lam + 0.5, lam - 0.25j])
    ustack = {l: np.array([v, v + 0.1, v - 0.2j]) for l, v in u.items()}
    for at, uu in ((lam, u), (stack, ustack), (stack, u)):
        for _ in range(2):
            np.testing.assert_array_equal(M.eval(at, uu), X.eval(at, uu))
            # a placed matrix's own factor too
            got, want = M.eval(at, uu, local=True), X.eval(at, uu, local=True)
            np.testing.assert_array_equal(getattr(got, "m", got), getattr(want, "m", want))


def test_memoized_runs_the_function_once_per_point_set_and_values_are_read_only():
    from sdreflect.dyncore import memoized

    X, calls = _counted(yangian_r(SCH2, (1, 2)))
    M = memoized(X)
    lam = rand_lam()
    first = M.eval(lam, {1: 0.5, 2: -0.25})
    assert M.eval(lam.copy(), {1: 0.5, 2: -0.25}) is first
    assert len(calls) == 1
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    stack = np.stack([lam, lam])
    M.eval(stack, {1: 0.5, 2: -0.25})
    M.eval(stack, {1: 0.5, 2: -0.25})
    assert len(calls) == 2
    with pytest.raises(ValueError):
        M.fn(stack, {1: 0.5 + 0j, 2: -0.25 + 0j})[0] += 1.0


def test_memo_key_separates_signed_zeros_and_scalar_from_array():
    from sdreflect.dyncore import memoized

    def fn(lam, u):
        s = np.copysign(1.0, np.real(u[1]))
        return np.eye(2) * np.asarray(s)[..., None, None]

    X, calls = _counted(DynMat(SCH2, (1,), fn, frozenset({1})))
    M = memoized(X)
    lam = rand_lam()
    assert M.eval(lam, {1: 0.0})[0, 0] == 1.0
    assert M.eval(lam, {1: -0.0})[0, 0] == -1.0
    assert M.fn(lam, {1: np.array([0.0 + 0j])}).shape == (1, 2, 2)
    assert M.fn(lam, {1: 0.0 + 0j}).shape == (2, 2)
    zero, negative_zero = np.array([0.0, 0.5], dtype=complex), np.array([-0.0, 0.5], dtype=complex)
    assert M.fn(negative_zero, {1: 0.0 + 0j}) is not M.fn(zero, {1: 0.0 + 0j})
    assert len(calls) == 5


@pytest.mark.parametrize("via", ["shift_lambda", "dyn_shift"])
def test_memoized_pole_raises_every_time_with_the_callers_point(via):
    from sdreflect.dyncore import memoized

    lam0 = np.array([0.5 + 0.25j, 0.125])
    X, calls = _counted(_singular_at(lam0))
    M = memoized(X)
    Y = M.shift_lambda(SCH2.gamma * SCH2.unit(0)) if via == "shift_lambda" else dyn_shift(M, (2,))
    caller = lam0 - SCH2.gamma * SCH2.unit(0)
    other = np.array([-1.25 + 0.5j, 0.75])
    for batch in (np.stack([other, caller]), np.stack([other, caller]), caller):
        with pytest.raises(PoleError) as err:
            Y.eval(batch)
        np.testing.assert_array_equal(err.value.lam, caller)
        assert "singular matrix" in str(err.value)
    assert not M.fn.memo  # a pole is never kept
    assert len(calls) == 3  # the first shifted term raises, once per call


@pytest.mark.parametrize("perturbed_first", [True, False])
def test_rigs_share_no_structure_values(perturbed_first):
    from sdreflect.cli import Rig
    from sdreflect.consistency import residual_zero_weight
    from sdreflect.scenarios import builtin_scenario, scenario_from_dict

    data = builtin_scenario("diagonal_dressed").to_dict()
    q1, q2 = data["q"]["entries"]
    data["q"] = {"kind": "matrix", "entries": [[q1, "0.4"], ["0", q2]]}
    scenarios = [scenario_from_dict(data), builtin_scenario("diagonal_dressed")]
    if not perturbed_first:
        scenarios.reverse()
    rigs = [Rig(sc, samples=6) for sc in scenarios]
    points = rigs[-1].points  # both rigs read D at the same points
    passed = [residual_zero_weight(rig.D, "D", points, 1e-13).passed for rig in rigs]
    assert passed == ([False, True] if perturbed_first else [True, False])

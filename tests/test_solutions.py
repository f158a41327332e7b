import numpy as np
import pytest

from sdreflect import (
    Automorphism,
    WeightScheme,
    constant_dynmat,
    function_dynmat,
    identity_dynmat,
    yangian_r,
)
from sdreflect.consistency import (
    StructureSet,
    rel_residual,
    residual_quasi_nondyn,
    residual_sdre,
    residual_theta_period,
)
from sdreflect.parametrize import auto_dress, build_A, build_BC, build_D_twist
from sdreflect.sampling import sample_points
from sdreflect.solutions import (
    Decoration,
    DecorationFactor,
    IntertwinerSpec,
    PreconditionError,
    UnrepresentableError,
    build_dual,
    build_K_g,
    build_K_nondyn,
    build_K_quasinondyn,
    dress,
    k_g_power,
    residual_intertwiner,
    residual_reduced_exchange,
)

SCH = WeightScheme(2, 1.0)
RNG = np.random.default_rng(33)
PTS = sample_points(SCH, (1, 2, 3), count=20, seed=17)


def _stacked(fm):
    """A one-value matrix function as the stacked one that
    Automorphism.factorizable takes (values of shape (...) to (..., n, n))."""
    return np.vectorize(fm, signature="()->(n,n)", otypes=[complex])


E12 = np.zeros((2, 2))
E12[0, 1] = 1.0


def diag_fn(seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(2, 2)) * 0.12
    d = 2.5 + rng.normal(size=2) * 0.2
    return function_dynmat(SCH, (1,), lambda lam, u: np.diag(d + c @ lam))


def plain_scenario(g=None, bmat=None):
    g = g or Automorphism.identity()
    b = bmat if bmat is not None else diag_fn(3)
    q = diag_fn(11)
    R = yangian_r(SCH, (1, 2))
    B, C = build_BC(b, g, SCH)
    A = build_A(R, b, g, SCH)
    D = build_D_twist(R, q, SCH)
    return StructureSet(A, B, C, D, SCH, g), b, q, R


# -- intertwiner residual -----------------------------------------------------


def test_intertwiner_trivial():
    R = yangian_r(SCH, (1, 2))
    spec = IntertwinerSpec(R, R)
    assert residual_intertwiner(spec, np.eye(2), PTS, 1e-12).passed


def test_intertwiner_any_constant_for_rational_R():
    R = yangian_r(SCH, (1, 2))
    spec = IntertwinerSpec(R, R)
    Q = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    assert residual_intertwiner(spec, Q, PTS, 1e-11).passed


def test_intertwiner_shifted_variant():
    # conjugated second factor: diagonal cores pass, the exchange matrix
    # e12 + e21 fails unless compatibility holds
    g = Automorphism.constant(np.diag([2.0, 1.0]))
    R = yangian_r(SCH, (1, 2))
    spec = IntertwinerSpec(R, R, [Decoration("conjugate", [DecorationFactor(g, -1)])])
    assert residual_intertwiner(spec, np.diag([1.3, 0.4]), PTS, 1e-11).passed
    assert residual_intertwiner(spec, E12, PTS, 1e-11).passed
    rep = residual_intertwiner(spec, E12 + E12.T, PTS, 1e-11)
    assert not rep.passed


def test_intertwiner_one_sided_variant():
    # R Q1 Q2 f2 = Q2 Q1 f1 Rt with f = 1 reduces to the plain relation
    R = yangian_r(SCH, (1, 2))
    f = Automorphism.constant(np.diag([1.0, 1.0]))
    spec = IntertwinerSpec(R, R, [Decoration("right", [DecorationFactor(f, 1)])])
    assert residual_intertwiner(spec, np.eye(2), PTS, 1e-12).passed


def test_intertwiner_factorizable_one_sided_variant():
    # a factorizable f in a one-sided block reads the leg's own value:
    # deco(Q) = Q f(u_leg), so the relation is R Q1 (Q f(u2))_2 = Q2 (Q f(u1))_1 R
    def fm(u):
        return np.diag([1 + 0.1 * u, 1])

    R = yangian_r(SCH, (1, 2))
    deco = [Decoration("right", [DecorationFactor(Automorphism.factorizable(_stacked(fm)), 1)])]
    Q = np.array([[1.0, 0.45], [0.21, 1.3]])
    rep = residual_intertwiner(IntertwinerSpec(R, R, deco), Q, PTS, 1e-9)

    from sdreflect import constant_dynmat
    from sdreflect.dyncore import decorate

    core = decorate(constant_dynmat(SCH, (1,), Q), (1,), deco)
    by_hand = []
    for lam, u in PTS:
        np.testing.assert_allclose(core.eval(lam, {1: u[1]}), Q @ fm(u[1]), rtol=1e-14)
        Rm = R.eval(lam, u)
        by_hand.append(rel_residual(Rm @ np.kron(Q, Q @ fm(u[2])),
                                    np.kron(Q @ fm(u[1]), Q) @ Rm))
    assert max(by_hand) > 1e-3
    assert np.isclose(rep.max_residual, max(by_hand), rtol=1e-10)


def test_intertwiner_rejects_dynamical_core():
    R = yangian_r(SCH, (1, 2))
    spec = IntertwinerSpec(R, R)
    Q = diag_fn(5)
    with pytest.raises(ValueError):
        residual_intertwiner(spec, Q, PTS)


def test_intertwiner_one_sided_shift_unrepresentable():
    R = yangian_r(SCH, (1, 2))
    s = Automorphism.spectral_shift(1.0)
    spec = IntertwinerSpec(R, R, [Decoration("left", [DecorationFactor(s, "sigma")])])
    with pytest.raises(UnrepresentableError):
        residual_intertwiner(spec, np.eye(2), PTS)


def test_intertwiner_doubly_shifted_variant():
    # a^sigma g a^-sigma blocks around a conjugated core; with all
    # factors diagonal the relation reduces to the plain one
    g = Automorphism.constant(np.diag([2.0, 1.0]))
    a = Automorphism.constant(np.diag([3.0, 1.0]))
    R = yangian_r(SCH, (1, 2))
    deco = [
        Decoration("left", [DecorationFactor(a, "sigma"), DecorationFactor(g, 1),
                            DecorationFactor(a, "-sigma")]),
        Decoration("conjugate", [DecorationFactor(a, -1)]),
        Decoration("right", [DecorationFactor(a, "sigma"), DecorationFactor(g, -1),
                             DecorationFactor(a, "-sigma")]),
    ]
    spec = IntertwinerSpec(R, R, deco)
    assert residual_intertwiner(spec, np.diag([0.7, 2.1]), PTS, 1e-10).passed


# -- direct builders ------------------------------------------------------------


def test_K_scalar_consistency():
    S, b, q, R = plain_scenario()
    K = build_K_nondyn(np.eye(2), b, q)
    k = b.inv() @ q
    lam = RNG.uniform(-1, 1, 2)
    np.testing.assert_allclose(K.eval(lam), k.eval(lam), atol=1e-13)
    assert residual_sdre(S, K, PTS, 1e-10).passed


def test_K_constant_core_and_noninvertible():
    S, b, q, R = plain_scenario()
    Q = np.array([[1.0, 0.45], [0.21, 1.3]])
    assert residual_sdre(S, build_K_nondyn(Q, b, q), PTS, 1e-9).passed
    K = build_K_nondyn(np.diag([1.0, 0.0]), b, q)
    lam = RNG.uniform(-1, 1, 2)
    assert np.linalg.matrix_rank(K.eval(lam)) == 1
    assert residual_sdre(S, K, PTS, 1e-9).passed


def test_K_quasinondyn_closed_form():
    a = Automorphism.constant(np.diag([2.0, 1.0]))
    b = diag_fn(3)
    q = diag_fn(11)
    K = build_K_quasinondyn(E12, a, b, q, check_points=PTS, tol=1e-10)
    lam = RNG.uniform(-1, 1, 2) + 1j * RNG.uniform(-1, 1, 2)
    s = np.sum(lam)
    manual = (
        np.linalg.inv(b.eval(lam)) @ (2.0 ** s * E12) @ q.eval(lam)
    )
    np.testing.assert_allclose(K.eval(lam), manual, atol=1e-11)


def test_K_quasinondyn_condition_and_sdre():
    S, b, q, R = plain_scenario()
    a = Automorphism.constant(np.diag([2.0, 1.0]))
    K = build_K_quasinondyn(E12, a, b, q, check_points=PTS)
    assert residual_sdre(S, K, PTS, 1e-9).passed
    # identity a reduces to the plain builder
    K0 = build_K_quasinondyn(E12, Automorphism.identity(), b, q)
    K1 = build_K_nondyn(E12, b, q)
    lam = RNG.uniform(-1, 1, 2)
    np.testing.assert_allclose(K0.eval(lam), K1.eval(lam), atol=1e-13)


def test_quasi_condition_residual():
    a = Automorphism.constant(np.diag([2.0, 1.0]))
    qt = function_dynmat(
        SCH, (1,), lambda lam, u: 2.0 ** np.sum(lam) * E12
    )
    assert residual_quasi_nondyn(qt, a, PTS, 1e-10, name="quasi_condition").passed
    bad = function_dynmat(SCH, (1,), lambda lam, u: lam[0] * E12)
    assert not residual_quasi_nondyn(bad, a, PTS, 1e-10, name="quasi_condition").passed


def test_quasi_condition_accepts_a_spectral_shift():
    # qt = diag(u + sigma, 1) moves by gamma under lam -> lam + gamma e_i,
    # which is the conjugation by a shift of gamma
    qt = function_dynmat(SCH, (1,), lambda lam, u: np.diag([u[1] + np.sum(lam), 1.0]), (1,))
    shift = Automorphism.spectral_shift
    assert residual_quasi_nondyn(qt, shift(1.0), PTS, 1e-12, name="quasi_condition").passed
    assert not residual_quasi_nondyn(qt, shift(2.0), PTS, 1e-12, name="quasi_condition").passed


# -- automorphism-extended builders ------------------------------------------------


def gauged_scenario():
    g = Automorphism.constant(np.diag([2.0, 1.0]))
    b = function_dynmat(
        SCH, (1,),
        lambda lam, u: np.array([[1.0, 0.2 + 0.1 * lam[0]], [0.0, 1.0]], dtype=complex),
    )
    q = diag_fn(11)
    R = yangian_r(SCH, (1, 2))
    B, C = build_BC(b, g, SCH)
    A = build_A(R, b, g, SCH)
    D = build_D_twist(R, q, SCH)
    return StructureSet(A, B, C, D, SCH, g), b, q, R, g


def test_build_K_g_prop4a():
    S, b, q, R, g = gauged_scenario()
    # invertible core: the scalar solution
    k = auto_dress(b, g).inv() @ q
    K1 = build_K_g(np.eye(2), g, b, q, "prop4a")
    lam = RNG.uniform(-1, 1, 2)
    np.testing.assert_allclose(K1.eval(lam), k.eval(lam), atol=1e-12)
    assert residual_sdre(S, K1, PTS, 1e-9).passed
    # sigma-dressed nilpotent core
    K2 = build_K_g(E12, g, b, q, "prop4a")
    assert residual_sdre(S, K2, PTS, 1e-9).passed


def test_build_K_g_identity_reduces_to_plain():
    S, b, q, R = plain_scenario()
    Q = np.array([[1.0, 0.45], [0.21, 1.3]])
    Ka = build_K_g(Q, Automorphism.identity(), b, q, "prop4a")
    Kb = build_K_nondyn(Q, b, q)
    lam = RNG.uniform(-1, 1, 2)
    np.testing.assert_allclose(Ka.eval(lam), Kb.eval(lam), atol=1e-13)


def test_build_K_g_prop4b_and_f_variants():
    S, b, q, R, g = gauged_scenario()
    a = Automorphism.constant(np.diag([3.0, 1.0]))
    K = build_K_g(E12, g, b, q, "prop4b", a=a)
    assert residual_sdre(S, K, PTS, 1e-9).passed
    # f-variants with factorizable data assemble; spectral-shift sigma
    # powers in one-sided position are refused
    f = Automorphism.constant(np.diag([1.5, 1.0]))
    Kf = build_K_g(np.diag([1.0, 0.7]), g, b, q, "f_case1", f=f)
    Kf.eval(RNG.uniform(-1, 1, 2))
    s = Automorphism.spectral_shift(1.0)
    Kbad = build_K_g(np.eye(2), g, b, q, "f_case1", f=s)
    with pytest.raises(UnrepresentableError):
        Kbad.eval(RNG.uniform(-1, 1, 2))


def _principal_power(m, s):
    """m**s on the principal branch, for a diagonalizable m."""
    w, v = np.linalg.eig(m)
    return (v * np.exp(s * np.log(w))) @ np.linalg.inv(v)


@pytest.mark.parametrize("variant", ["f_case1", "f_case2"])
def test_build_K_g_f_variants_match_their_formulas(variant):
    # f_case1: K = g b^-1 g^-1 g^-s Q0 f^s q
    # f_case2: K = g b^-1 g^-1 g^-s a^-s Q0 a^s f^s q
    # with non-diagonal, non-commuting a and f the order of the powers shows
    S, b, q, R, g = gauged_scenario()
    am = np.array([[2.0, 0.6], [0.3, 1.2]])
    fm = np.array([[1.5, -0.4], [0.7, 0.9]])
    assert rel_residual(am @ fm, fm @ am) > 0.1
    Q0 = np.array([[1.0, 0.45], [0.21, 1.3]])
    K = build_K_g(Q0, g, b, q, variant, a=Automorphism.constant(am),
                  f=Automorphism.constant(fm))
    gm = g.matrix_at()
    for _ in range(5):
        lam = RNG.uniform(-1, 1, 2) + 1j * RNG.uniform(-1, 1, 2)
        s = np.sum(lam)
        core = Q0
        if variant == "f_case2":
            core = _principal_power(am, -s) @ Q0 @ _principal_power(am, s)
        expect = (np.linalg.inv(gm @ b.eval(lam) @ np.linalg.inv(gm))
                  @ _principal_power(gm, -s) @ core @ _principal_power(fm, s)
                  @ q.eval(lam))
        assert rel_residual(K.eval(lam), expect) < 1e-12


def test_dress_prop3_matches_direct_builder():
    S, b, q, R = plain_scenario()
    Q = np.array([[1.0, 0.45], [0.21, 1.3]])
    k = b.inv() @ q
    dressed = dress(k, Q, b, variant="prop3")
    direct = build_K_nondyn(Q, b, q)
    for _ in range(10):
        lam = RNG.uniform(-1, 1, 2) + 1j * RNG.uniform(-1, 1, 2)
        assert rel_residual(dressed.eval(lam), direct.eval(lam)) < 1e-12
    assert residual_sdre(S, dressed, PTS, 1e-9).passed


def test_dress_identity_core_is_noop():
    S, b, q, R = plain_scenario()
    k = b.inv() @ q
    dressed = dress(k, np.eye(2), b, variant="prop3")
    lam = RNG.uniform(-1, 1, 2)
    np.testing.assert_allclose(dressed.eval(lam), k.eval(lam), atol=1e-13)


def test_dress_composition():
    _, b, q, _ = plain_scenario()
    k = b.inv() @ q
    Q1 = np.diag([1.0, 2.0])
    Q2 = np.diag([0.5, 3.0])
    twice = dress(dress(k, Q1, b, variant="prop3"), Q2, b, variant="prop3")
    once = dress(k, Q2 @ Q1, b, variant="prop3")
    lam = RNG.uniform(-1, 1, 2)
    np.testing.assert_allclose(twice.eval(lam), once.eval(lam), atol=1e-12)


def test_dress_prop5():
    S, b, q, R, g = gauged_scenario()
    k = auto_dress(b, g).inv() @ q
    dressed = dress(k, E12, b, g=g, variant="prop5")
    assert residual_sdre(S, dressed, PTS, 1e-9).passed


def test_k_g_power_range():
    S, b, q, R, g = gauged_scenario()
    k = auto_dress(b, g).inv() @ q
    for p in (-2, -1, 0, 1, 2):
        Kp = k_g_power(k, g, p, S, PTS)
        assert residual_sdre(S, Kp, PTS, 1e-9).passed


def test_k_g_power_spectral_shift():
    g = Automorphism.spectral_shift(1.0)
    R = yangian_r(SCH, (1, 2))
    I2 = identity_dynmat(SCH, (1, 2))
    S = StructureSet(R, I2, I2, R, SCH, g)
    K = identity_dynmat(SCH, (1,))
    for p in (-2, 1, 2):
        Kp = k_g_power(K, g, p, S, PTS)
        assert residual_sdre(S, Kp, PTS, 1e-10).passed


def test_k_g_power_zwc_violation():
    S, b, q, R = plain_scenario()
    g = Automorphism.constant(np.array([[1.0, 0.7], [0.0, 1.0]]))
    Sg = StructureSet(S.A, S.B, S.C, S.D, SCH, g)
    with pytest.raises(PreconditionError):
        k_g_power(b.inv() @ q, g, 1, Sg, PTS)


def test_build_dual_trivial():
    b = identity_dynmat(SCH, (1,))
    chi = build_dual(b, b, Automorphism.identity(), np.eye(2))
    np.testing.assert_allclose(chi.eval(RNG.uniform(-1, 1, 2)), np.eye(2))


def test_build_dual_diagonal_structure():
    _, b, q, _ = plain_scenario()
    QL = np.diag([2.0, 0.5])
    chi = build_dual(q, b, Automorphism.identity(), QL)
    lam = RNG.uniform(-1, 1, 2)
    expect = np.linalg.inv(q.eval(lam)) @ np.linalg.inv(QL) @ b.eval(lam)
    np.testing.assert_allclose(chi.eval(lam), expect, atol=1e-12)


# -- reduced exchange and factorization condition -----------------------------------


def test_reduced_exchange_constant_kappa():
    R = yangian_r(SCH, (1, 2))
    Q = np.array([[1.0, 0.45], [0.21, 1.3]])
    kappa = constant_dynmat(SCH, (1,), Q)
    assert residual_reduced_exchange(R, R, kappa, PTS, 1e-10).passed


def test_reduced_exchange_sigma_kappa():
    R = yangian_r(SCH, (1, 2))
    kappa = function_dynmat(SCH, (1,), lambda lam, u: 2.0 ** np.sum(lam) * E12)
    assert residual_reduced_exchange(R, R, kappa, PTS, 1e-10).passed


def test_builder_kappas_pass_theta_period():
    S, b, q, R = plain_scenario()
    Q = np.array([[1.0, 0.45], [0.21, 1.3]])
    K = build_K_nondyn(Q, b, q)
    kappa = b @ K @ q.inv()
    assert residual_theta_period(kappa, PTS, 1e-12).passed
    a = Automorphism.constant(np.diag([2.0, 1.0]))
    Kq = build_K_quasinondyn(E12, a, b, q)
    kq = b @ Kq @ q.inv()
    assert residual_theta_period(kq, PTS, 1e-12).passed

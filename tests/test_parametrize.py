import numpy as np
import pytest

from sdreflect import (
    Automorphism,
    WeightScheme,
    constant_dynmat,
    function_dynmat,
    identity_dynmat,
    permutation_operator,
    sigma_conjugate,
    yangian_r,
)
from sdreflect.consistency import (
    StructureSet,
    rel_residual,
    residual_gybce,
    residual_sdre,
    residual_ybce,
    residual_zero_weight,
)
from sdreflect.parametrize import (
    build_A,
    build_BC,
    build_BC_projector,
    build_D_twist,
    detwist,
    extract_R0,
    untwist_D,
)
from sdreflect.sampling import sample_points

SCH = WeightScheme(2, 1.0)
RNG = np.random.default_rng(21)
PTS = sample_points(SCH, (1, 2, 3), count=20, seed=13)
IDENT = Automorphism.identity()


def diag_b(seed=3, scheme=SCH):
    rng = np.random.default_rng(seed)
    n = scheme.rank
    c = rng.normal(size=(n, n)) * 0.12
    d = 2.5 + rng.normal(size=n) * 0.2
    return function_dynmat(scheme, (1,), lambda lam, u: np.diag(d + c @ lam))


def b_family(b, lam):
    """The weight components b_i(lam) = b(lam)^-1 b(lam + gamma e_i), read
    off B (identity automorphism) as its leg-1 diagonal blocks."""
    B = build_BC(b, IDENT, SCH)[0].eval(lam)
    return [B[2 * i:2 * i + 2, 2 * i:2 * i + 2] for i in range(2)]


def test_b_family_identity():
    b = identity_dynmat(SCH, (1,))
    for bi in b_family(b, [0.4, -0.2]):
        np.testing.assert_allclose(bi, np.eye(2))


def test_b_family_diagonal_substitution():
    b = function_dynmat(SCH, (1,), lambda lam, u: np.diag(lam))
    b1, b2 = b_family(b, np.array([1.0, 1.0]))
    np.testing.assert_allclose(b1, np.diag([2.0, 1.0]))
    np.testing.assert_allclose(b2, np.diag([1.0, 2.0]))


def test_b_family_exchange_constraint():
    # b_i(lam) b_j(lam + gamma e_i) is symmetric in (i, j)
    b = diag_b()
    for _ in range(10):
        lam = RNG.uniform(-1, 1, 2) + 1j * RNG.uniform(-1, 1, 2)
        for i in range(2):
            for j in range(2):
                lhs = b_family(b, lam)[i] @ b_family(b, lam + SCH.unit(i))[j]
                rhs = b_family(b, lam)[j] @ b_family(b, lam + SCH.unit(j))[i]
                assert rel_residual(lhs, rhs) < 1e-12


def test_build_BC_identity():
    B, C = build_BC(identity_dynmat(SCH, (1,)), IDENT, SCH)
    lam = RNG.uniform(-1, 1, 2)
    np.testing.assert_allclose(B.eval(lam), np.eye(4))
    np.testing.assert_allclose(C.eval(lam), np.eye(4))


def test_build_BC_block_structure():
    b = diag_b()
    B, C = build_BC(b, IDENT, SCH)
    lam = RNG.uniform(-1, 1, 2) + 0.3j
    # b_i = b^-1 b(lam + gamma e_i) in block i of leg 1
    fam = [b.inv() @ b.shift_lambda(SCH.gamma * SCH.unit(i)) for i in range(2)]
    expect = sum(np.kron(SCH.projector(i), fam[i].eval(lam)) for i in range(2))
    np.testing.assert_allclose(B.eval(lam), expect, atol=1e-13)
    # zero-weight exactly by construction
    assert residual_zero_weight(B, "B", PTS, 0.0).max_residual == 0.0
    assert residual_zero_weight(C, "C", PTS, 0.0).max_residual == 0.0


def test_build_BC_projector_rank():
    b = diag_b()
    projs = [SCH.projector(0), SCH.projector(1)]
    B, C = build_BC_projector(b, projs, SCH)
    lam = RNG.uniform(-1, 1, 2)
    assert np.linalg.matrix_rank(B.eval(lam)) == 2
    # all-identity projectors reduce to the plain builder
    B2, _ = build_BC_projector(b, [np.eye(2), np.eye(2)], SCH)
    Bp, _ = build_BC(b, IDENT, SCH)
    np.testing.assert_allclose(B2.eval(lam), Bp.eval(lam), atol=1e-13)


def test_build_BC_projector_blocks_with_a_spectral_b():
    sch = WeightScheme(3, 0.7)
    rng = np.random.default_rng(43)
    base = rng.normal(size=(3, 3)) + 4 * np.eye(3)
    slope = rng.normal(size=(3, 3, 3)) * 0.1

    def bfn(lam, u):
        return base + slope @ lam + 0.3 * u[1] * np.diag([1.0, -0.5, 0.2])

    b = function_dynmat(sch, (1,), bfn, spectral_legs=(1,))
    half = np.full((3, 3), 1 / 3)
    projs = [sch.projector(0), half, np.eye(3) - sch.projector(2)]
    B, C = build_BC_projector(b, projs, sch)
    assert B.spectral_legs == {2} and C.spectral_legs == {1}
    P = permutation_operator(3)
    for _ in range(4):
        lam = rng.normal(size=3) + 1j * rng.normal(size=3)
        u = complex(rng.normal(), rng.normal())
        want = np.zeros((9, 9), dtype=complex)
        for i, proj in enumerate(projs):
            block = proj @ np.linalg.inv(bfn(lam, {1: u})) @ bfn(lam + 0.7 * sch.unit(i), {1: u})
            want[3 * i:3 * i + 3, 3 * i:3 * i + 3] = block
        got = B.eval(lam, {2: u})
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
        np.testing.assert_array_equal(C.eval(lam, {1: u}), P @ got @ P)


def test_build_BC_projector_exchange_constraint():
    b = diag_b()
    projs = [SCH.projector(0), SCH.projector(1)]
    n = SCH.rank
    binv = b.inv()
    fam = [
        function_dynmat(
            SCH, (1,),
            lambda lam, u, i=i: projs[i] @ binv.fn(lam, {}) @ b.fn(lam + SCH.unit(i), {}),
        )
        for i in range(n)
    ]
    lam = RNG.uniform(-1, 1, 2) + 0.2j
    for i in range(n):
        for j in range(n):
            lhs = fam[i].eval(lam) @ fam[j].eval(lam + SCH.unit(i))
            rhs = fam[j].eval(lam) @ fam[i].eval(lam + SCH.unit(j))
            assert rel_residual(lhs, rhs) < 1e-12


def test_build_A_reduces_to_R0():
    R = yangian_r(SCH, (1, 2))
    A = build_A(R, identity_dynmat(SCH, (1,)), IDENT, SCH)
    lam = RNG.uniform(-1, 1, 2)
    u = {1: 1.4, 2: -0.3}
    np.testing.assert_allclose(A.eval(lam, u), R.eval(lam, u))


def full_structure_set(g=IDENT, seed=3):
    b = diag_b(seed)
    q = diag_b(seed + 10)
    R = yangian_r(SCH, (1, 2))
    B, C = build_BC(b, g, SCH)
    A = build_A(R, b, g, SCH)
    D = build_D_twist(R, q, SCH)
    return StructureSet(A, B, C, D, SCH, g), b, q, R


def test_assembled_set_passes_all_relations():
    S, b, q, R = full_structure_set()
    for rep in residual_ybce(S, PTS, 1e-9).values():
        assert rep.passed


def test_d_twist_trivial_and_roundtrip():
    R = yangian_r(SCH, (1, 2))
    q = diag_b(5)
    D0 = build_D_twist(R, identity_dynmat(SCH, (1,)), SCH)
    lam = RNG.uniform(-1, 1, 2)
    u = {1: 1.2, 2: -0.8}
    np.testing.assert_allclose(D0.eval(lam, u), R.eval(lam, u))
    D = build_D_twist(R, q, SCH)
    back = untwist_D(D, q, SCH)
    assert rel_residual(back.eval(lam, u), R.eval(lam, u)) < 1e-12


def test_scalar_solution_both_directions():
    # constructive: D twisted by q = b k makes k = b^-1 q a solution;
    # and untwisting that D returns a lambda-independent core
    S, b, q, R = full_structure_set()
    k = b.inv() @ q
    assert residual_sdre(S, k, PTS, 1e-10).passed
    result = detwist(S.D, q, SCH, PTS, 1e-10)
    assert result.nondyn_report.passed
    assert result.verdicts == ["nondynamical"]


def test_detwist_wrong_twist_gives_neither():
    S, b, q, R = full_structure_set()
    wrong = diag_b(99)
    result = detwist(S.D, wrong, SCH, PTS, 1e-9)
    assert not result.nondyn_report.passed
    assert result.verdicts == ["neither"]


def test_detwist_constant_D():
    R = yangian_r(SCH, (1, 2))
    result = detwist(R, identity_dynmat(SCH, (1,)), SCH, PTS, 1e-10)
    assert result.verdicts == ["nondynamical"]


def test_extract_R0_identity_f():
    R = yangian_r(SCH, (1, 2))
    R0, reports = extract_R0(R, IDENT, PTS, tol=1e-10)
    lam, u = PTS[0]
    assert rel_residual(R0.eval(lam, u), R.eval(lam, u)) < 1e-12
    assert all(r.passed for r in reports.values())


def test_extract_R0_roundtrip_noncommuting():
    # gamma = -1 aligns the sigma dressing with the per-step conjugation
    sch = WeightScheme(2, -1.0)
    pts = sample_points(sch, (), count=15, seed=4)
    f = Automorphism.constant(np.diag([2.0, 1.0]))
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    core = np.eye(4) + np.kron(e12, e12)
    Rt = sigma_conjugate(constant_dynmat(sch, (1, 2), core), f, (1, 2), sign=-1)
    R0, reports = extract_R0(Rt, f, pts, tol=1e-10, ybe_tol=np.inf)
    lam, _ = pts[0]
    assert rel_residual(R0.eval(lam), core) < 1e-11
    assert reports["quasi_nondyn"].passed and reports["nondynamical"].passed


def test_extract_R0_rejects_non_quasi():
    X = function_dynmat(
        SCH, (1, 2), lambda lam, u: np.exp(lam[0]) * np.eye(4, dtype=complex)
    )
    f = Automorphism.constant(np.diag([2.0, 1.0]))
    with pytest.raises(ValueError):
        extract_R0(X, f, PTS, tol=1e-10)


def test_gauge_consistency_constant_g():
    # with zero-weight-compatible data, the gauged (tilded) coefficient
    # set satisfies the plain relations iff the original set satisfies
    # the extended ones
    from sdreflect.dyncore import adjoint_auto

    g = Automorphism.constant(np.diag([2.0, 1.0]))
    b = function_dynmat(
        SCH, (1,),
        lambda lam, u: np.array([[1.0, 0.2 + 0.1 * lam[0]], [0.0, 1.0]], dtype=complex),
    )
    q = diag_b(17)
    R = yangian_r(SCH, (1, 2))
    B, C = build_BC(b, g, SCH)
    A = build_A(R, b, g, SCH)
    D = build_D_twist(R, q, SCH)
    S = StructureSet(A, B, C, D, SCH, g)
    ext = residual_gybce(S, PTS, 1e-9)
    assert all(r.passed for r in ext.values())

    At = adjoint_auto(adjoint_auto(A, g, (1,), "left"), g, (2,), "right", -1)
    Bt = adjoint_auto(B, g, (2,), "left")
    Ct = adjoint_auto(C, g, (1,), "left")
    St = StructureSet(At, Bt, Ct, D, SCH)
    plain = residual_ybce(St, PTS, 1e-9)
    assert all(r.passed for r in plain.values())

    # and breaking one of the originals breaks the gauged set too
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    noise = np.kron(e12, e12.T)
    bad = A + function_dynmat(SCH, (1, 2),
                              lambda lam, u: 0.05 * lam[0] * noise)
    Sbad = StructureSet(bad, B, C, D, SCH, g)
    assert not residual_gybce(Sbad, PTS, 1e-9)["gybce_a"].passed
    badt = adjoint_auto(adjoint_auto(bad, g, (1,), "left"), g, (2,), "right", -1)
    Sbadt = StructureSet(badt, Bt, Ct, D, SCH)
    assert not residual_ybce(Sbadt, PTS, 1e-9)["ybce_a"].passed


def test_spectral_shift_A_has_shifted_wings():
    # the automorphism-dressed parametrization shifts the b arguments
    g = Automorphism.spectral_shift(1.0)
    b = function_dynmat(
        SCH, (1,),
        lambda lam, u: np.diag([np.exp(0.2 * u[1] + 0.3 * lam[0]),
                                np.exp(-0.1 * u[1] + 0.1 * lam[1])]),
        spectral_legs=(1,),
    )
    R = yangian_r(SCH, (1, 2))
    A = build_A(R, b, g, SCH)
    lam = np.array([0.4, -0.2])
    u = {1: 0.9, 2: -1.2}

    def bm(uv):
        return b.eval(lam, {1: uv})

    expect = (
        np.kron(np.linalg.inv(bm(u[1])), np.linalg.inv(bm(u[2] + 1.0)))
        @ R.eval(lam, u)
        @ np.kron(bm(u[1] + 1.0), bm(u[2]))
    )
    np.testing.assert_allclose(A.eval(lam, u), expect, atol=1e-12)

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
from sdreflect.consistency import StructureSet, rel_residual
from sdreflect.dyncore import chain_product
from sdreflect.monodromy import (
    build_gauged_core,
    build_monodromy_direct,
    build_monodromy_factored,
    build_ON_blocks,
    ingredient_reports,
    locality_preset,
    transfer_commutation,
    transfer_trace,
)
from sdreflect.parametrize import auto_dress, build_A, build_BC, build_D_twist
from sdreflect.sampling import sample_points
from sdreflect.shiftops import ShiftOpSum, shiftop_commutators, shiftop_difference_residual
from sdreflect.solutions import build_dual, build_K_nondyn

RNG = np.random.default_rng(77)
U_Q = {1: -0.9 + 0.11j, 2: 0.73 - 0.4j, 3: 1.61 + 0.3j, 4: -1.97 - 0.22j}
U_LIST = [0.52 + 0.21j, -0.63 + 0.77j, 2.31 - 0.52j]


def scenario(n=2, dressed=True, seed=3):
    sch = WeightScheme(n, 1.0)
    if dressed:
        rng = np.random.default_rng(seed)
        cb = rng.normal(size=(n, n)) * 0.12
        db = 2.5 + rng.normal(size=n) * 0.2
        cq = rng.normal(size=(n, n)) * 0.12
        dq = 2.5 + rng.normal(size=n) * 0.2
        b = function_dynmat(sch, (1,), lambda lam, u: np.diag(db + cb @ lam))
        q = function_dynmat(sch, (1,), lambda lam, u: np.diag(dq + cq @ lam))
        Q = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        QL = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    else:
        b = identity_dynmat(sch, (1,))
        q = b
        Q = np.eye(n)
        QL = np.eye(n)
    R = yangian_r(sch, (1, 2))
    ident = Automorphism.identity()
    B, C = build_BC(b, ident, sch)
    A = build_A(R, b, ident, sch)
    D = build_D_twist(R, q, sch)
    S = StructureSet(A, B, C, D, sch)
    K = build_K_nondyn(Q, b, q)
    chi = build_dual(q, b, ident, QL)
    return sch, S, R, b, q, Q, QL, K, chi


def lam_points(n, count=4, seed=9):
    sch = WeightScheme(n, 1.0)
    return sample_points(sch, (1, 2, 3), count=count, seed=seed)


def test_trivial_matrix_part_is_R_chain():
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=False)
    T = build_monodromy_direct(S, K, chi, 1, U_Q, 0.4 + 0.1j)
    lam = np.zeros(2)
    # matrix part: sum over weight shifts of R02 R01 projected on leg 0
    r02 = np.kron(R.eval(lam, {1: 0.4 + 0.1j, 2: U_Q[2]}).reshape(2, 2, 2, 2)
                  .transpose(0, 2, 1, 3).reshape(4, 4), np.eye(1))
    full = sum(T.eval_terms(lam)[m] for m in T.terms)
    from sdreflect.dyncore import embed

    R02 = embed(R, (0, 2), (0, 1, 2))
    R01 = embed(R, (0, 1), (0, 1, 2))
    expect = R02.eval(lam, {0: 0.4 + 0.1j, 2: U_Q[2]}) @ R01.eval(
        lam, {0: 0.4 + 0.1j, 1: U_Q[1]}
    )
    np.testing.assert_allclose(full, expect, atol=1e-12)
    assert T.eval_terms(lam)[(1, 0)].shape == (8, 8)


def test_all_identity_structure_gives_pure_shift():
    sch = WeightScheme(2, 1.0)
    I2 = identity_dynmat(sch, (1, 2))
    S = StructureSet(I2, I2, I2, I2, sch)
    K = identity_dynmat(sch, (1,))
    T = build_monodromy_direct(S, K, K, 1, {1: 0.0, 2: 0.0}, 0.0)
    W = ShiftOpSum.weight_shifted(identity_dynmat(sch, (0, 1, 2)), 0)
    assert shiftop_difference_residual(T, W, lam_points(2), 1e-13).passed


def test_build_ON_examples():
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=False)
    O = chain_product(build_ON_blocks(b, q, 1, U_Q))
    np.testing.assert_allclose(O.eval(np.zeros(2)), np.eye(8))
    # diagonal case: O_1 = q on leg 1 times b on leg 2
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=True)
    O = chain_product(build_ON_blocks(b, q, 1, U_Q))
    lam = RNG.uniform(-1, 1, 2)
    expect = np.kron(np.eye(2), np.kron(q.eval(lam), b.eval(lam)))
    np.testing.assert_allclose(O.eval(lam), expect, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("dressed", [False, True])
def test_factorization_identity(n, N, dressed):
    sch, S, R, b, q, Q, QL, K, chi = scenario(n=n, dressed=dressed)
    u0 = 0.52 + 0.21j
    Td = build_monodromy_direct(S, K, chi, N, U_Q, u0)
    Tf = build_monodromy_factored(sch, R, b, q, Q, chi, N, U_Q, u0)
    rep = shiftop_difference_residual(Td, Tf, lam_points(n, 3), 1e-8)
    assert rep.passed and rep.max_residual < 1e-12


def test_transfer_pure_shift():
    sch = WeightScheme(2, 1.0)
    W = ShiftOpSum.weight_shifted(identity_dynmat(sch, (0, 1, 2)), 0)
    t = transfer_trace(W)
    lam = np.zeros(2)
    for m in ((1, 0), (0, 1)):
        np.testing.assert_allclose(t.eval_terms(lam)[m], np.eye(4))


def test_transfer_twisted_identity_matches_plain():
    # Tr_0[w^-1 M w], formed by hand with the twist w = q on leg 0, is the
    # untwisted trace of every term
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=True)
    T = build_monodromy_direct(S, K, chi, 1, U_Q, 0.4)
    t = transfer_trace(T)
    for lam, _ in lam_points(2):
        w = np.kron(q.eval(lam), np.eye(4))
        traced = t.eval_terms(lam)
        for m, M in T.eval_terms(lam).items():
            twisted = (np.linalg.inv(w) @ M @ w).reshape(2, 4, 2, 4)
            assert rel_residual(np.einsum("iaib->ab", twisted), traced[m]) < 1e-13


def test_transfer_trivial_coefficients():
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=False)
    u0 = 0.52 + 0.21j
    T = build_monodromy_direct(S, K, chi, 1, U_Q, u0)
    t = transfer_trace(T)
    from sdreflect.dyncore import embed

    lam = np.zeros(2)
    R02 = embed(R, (0, 2), (0, 1, 2)).eval(lam, {0: u0, 2: U_Q[2]})
    R01 = embed(R, (0, 1), (0, 1, 2)).eval(lam, {0: u0, 1: U_Q[1]})
    M = (R02 @ R01).reshape(2, 4, 2, 4)
    for i, m in ((0, (1, 0)), (1, (0, 1))):
        np.testing.assert_allclose(t.eval_terms(lam)[m], M[i, :, i, :], atol=1e-13)


@pytest.mark.parametrize("dressed", [False, True])
@pytest.mark.parametrize("N", [1, 2])
def test_commuting_family(dressed, N):
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=dressed)
    kappa = constant_dynmat(b.scheme, b.legs, Q)
    gate = ingredient_reports(S, K, kappa, lam_points(2), 1e-9)
    assert all(r.passed for r in gate.values()), gate
    rep = transfer_commutation(build_monodromy_direct(S, K, chi, N, U_Q, None), U_LIST,
                               lam_points(2), tol=1e-8)
    assert rep.passed and rep.max_residual < 1e-12


def test_single_element_family_vacuous():
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=False)
    gate = ingredient_reports(S, K, None, lam_points(2), 1e-9)
    assert all(r.passed for r in gate.values()), gate
    rep = transfer_commutation(build_monodromy_direct(S, K, chi, 1, U_Q, None), [0.5],
                               lam_points(2))
    assert rep.passed and rep.max_residual == 0.0


def test_broken_D_names_decisive_precondition():
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=True)
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    bad = S.D + function_dynmat(
        sch, (1, 2), lambda lam, u: 0.05 * np.kron(e12, np.eye(2))
    )
    Sbad = StructureSet(S.A, S.B, S.C, bad, sch)
    gate = ingredient_reports(Sbad, K, None, lam_points(2), 1e-9)
    assert not gate["twist_zero_weight_D"].passed


def test_conjugation_neutrality():
    # conjugating by the quantum-leg operator preserves the commutation
    # verdict: the factored and direct routes give the same residual scale
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=True)
    pts = lam_points(2)
    members = [{0: u0} for u0 in U_LIST]
    for T in (build_monodromy_direct(S, K, chi, 1, U_Q, None),
              build_monodromy_factored(sch, R, b, q, Q, chi, 1, U_Q, None)):
        worst = max(r.max_residual for r in shiftop_commutators(transfer_trace(T), members,
                                                                pts, 1e-8))
        assert worst < 1e-12


def test_direct_builder_rejects_automorphism():
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=True)
    g = Automorphism.constant(np.diag([2.0, 1.0]))
    Sg = StructureSet(S.A, S.B, S.C, S.D, sch, g)
    with pytest.raises(ValueError):
        build_monodromy_direct(Sg, K, chi, 1, U_Q, 0.3)


def test_gauged_chain_constant_automorphism():
    sch = WeightScheme(2, 1.0)
    g = Automorphism.constant(np.diag([2.0, 1.0]))
    b = function_dynmat(
        sch, (1,),
        lambda lam, u: np.array([[1.0, 0.2 + 0.1 * lam[0]], [0.0, 1.0]], dtype=complex),
    )
    q = function_dynmat(
        sch, (1,), lambda lam, u: np.diag([2.5 + 0.12 * lam[0], 2.2 + 0.1 * lam[1]])
    )
    beta = auto_dress(b, g)
    R = yangian_r(sch, (1, 2))
    B, C = build_BC(b, g, sch)
    A = build_A(R, b, g, sch)
    D = build_D_twist(R, q, sch)
    S = StructureSet(A, B, C, D, sch, g)
    Q = np.array([[1.0, 0.45], [0.21, 1.3]])
    QL = np.array([[1.1, 0.3], [-0.2, 0.9]])
    K = beta.inv() @ constant_dynmat(b.scheme, b.legs, Q) @ q
    chi = build_dual(q, b, g, QL)
    gate = ingredient_reports(S, K, None, lam_points(2), 1e-9)
    assert all(r.passed for r in gate.values()), gate
    chain = build_monodromy_factored(sch, R, b, q, Q, chi, 1, U_Q, None, g=g, QL=QL)
    assert transfer_commutation(chain, U_LIST, lam_points(2)).passed


def _kron_legs(mats, L, n=2):
    """The Kronecker product over legs 0..L-1 of mats[leg], identity elsewhere."""
    out = np.eye(1)
    for leg in range(L):
        out = np.kron(out, mats.get(leg, np.eye(n)))
    return out


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("g", [Automorphism.constant(np.array([[1.3, 0.4], [0.2, 0.9]])),
                               Automorphism.spectral_shift(0.3)], ids=["constant", "shift"])
def test_gauged_core_matches_its_formula(g, N):
    # q0^-1 QL^-1 [g0 R_{0,2N} ... g0 R_{02} Q_0 g0 R_{01} ... g0 R_{0,2N-1}]
    # q0 g0^(-2N), formed densely; a spectral shift by s has no g0 factors
    # and reads the c-th R factor at u0 + c s
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=True)
    u0, L = 0.52 + 0.21j, 2 * N + 1
    core = build_gauged_core(sch, R, q, Q, QL, g, N, U_Q, u0)
    shift = g.variant == Automorphism.SHIFT
    gm = np.eye(2) if shift else g.matrix
    E = [[np.outer(np.eye(2)[i], np.eye(2)[j]) for j in range(2)] for i in range(2)]
    order = [2 * kk for kk in range(N, 0, -1)] + [None] + [2 * kk - 1 for kk in range(1, N + 1)]
    for lam, _ in lam_points(2):
        qm = q.eval(lam)
        m = _kron_legs({0: np.linalg.inv(qm) @ np.linalg.inv(QL)}, L)
        c = 0
        for a in order:
            if a is None:
                m = m @ _kron_legs({0: Q}, L)
                continue
            c += 1
            P = sum(_kron_legs({0: E[i][j], a: E[j][i]}, L) for i in range(2) for j in range(2))
            x = (u0 + c * g.step if shift else u0) - U_Q[a]
            m = m @ _kron_legs({0: gm}, L) @ (np.eye(2 ** L) + P / x)
        m = m @ _kron_legs({0: qm @ np.linalg.matrix_power(np.linalg.inv(gm), 2 * N)}, L)
        assert rel_residual(core.eval(lam), m) < 1e-13


def test_nonsimilar_chain_assembles_with_interleaved_twist():
    # structural check: the two-R variant with an explicit dual block
    # builds an 8x8 operator sum at one site
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=True)
    from sdreflect.scenarios import builtin_scenario

    scen = builtin_scenario("nonsimilar_detwist")
    Rbar = scen.Rbar_mat()
    chi0 = identity_dynmat(sch, (1,))
    Qni = np.diag([1.0, 0.0])
    T = build_monodromy_factored(
        sch, R, b, q, Qni, chi, 1, U_Q, 0.3 + 0.2j, Rbar=Rbar, chi0=chi0
    )
    lam = lam_points(2)[0][0]
    for M in T.eval_terms(lam).values():
        assert M.shape == (8, 8)
    assert len(T.terms) == 2
    with pytest.raises(ValueError):
        build_monodromy_factored(sch, R, b, q, Qni, chi, 1, U_Q, 0.3, Rbar=Rbar)


def test_locality_preset_pattern():
    vals = locality_preset(0.0, 2)
    assert vals == {2: 3.0, 1: 4.0, 4: 1.0, 3: 4.0}


def test_build_ON_identity_automorphism_reduces():
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=True)
    O1 = chain_product(build_ON_blocks(b, q, 2, U_Q))
    O2 = chain_product(build_ON_blocks(b, q, 2, U_Q, g=Automorphism.identity()))
    lam = RNG.uniform(-1, 1, 2)
    np.testing.assert_allclose(O1.eval(lam), O2.eval(lam), atol=1e-13)


def test_factored_terms_view_equals_table():
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=True)
    u0 = 0.52 + 0.21j
    T = build_monodromy_factored(sch, R, b, q, Q, chi, 2, U_Q, u0)
    t = transfer_trace(T)
    lam = lam_points(2)[0][0]
    for op in (T, t):
        assert list(op.eval_terms(lam)) == list(op.terms)


def test_twist_cancels_in_the_partial_trace():
    # Tr_0[w^-1 M w] = Tr_0[M] for w on leg 0 alone (cyclicity over leg 0)
    sch = WeightScheme(2, 1.0)
    rng = np.random.default_rng(31)
    M = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    w = np.kron(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), np.eye(16))
    legs = (0, 1, 2, 3, 4)
    T = ShiftOpSum.of_terms(sch, legs, [((0, 0), constant_dynmat(sch, legs, M))])
    plain = transfer_trace(T).eval_terms(np.zeros(2))
    twisted = np.einsum("iaib->ab", (np.linalg.inv(w) @ M @ w).reshape(2, 16, 2, 16))
    assert rel_residual(plain[(0, 0)], twisted) < 1e-13
    np.testing.assert_allclose(plain[(0, 0)], np.einsum("iaib->ab", M.reshape(2, 16, 2, 16)))


@pytest.mark.parametrize("g", [Automorphism.constant(np.diag([2.0, 1.0])),
                               Automorphism.spectral_shift(0.3)])
def test_gauged_core_builds_nothing_per_evaluation(monkeypatch, g):
    import sdreflect.monodromy as mono

    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=True)
    core = build_gauged_core(sch, R, q, Q, QL, g, 2, U_Q, 0.52 + 0.21j)
    lam = lam_points(2)[0][0]
    first = core.eval(lam)
    calls = []
    for name in ("embed", "bind_spectral", "adjoint_auto"):
        real = getattr(mono, name)
        monkeypatch.setattr(mono, name, lambda *a, _r=real, **kw: calls.append(1) or _r(*a, **kw))
    np.testing.assert_array_equal(core.eval(lam), first)
    assert calls == []


def _spied_traced_calls(monkeypatch):
    """(traced operators, their table calls as (operator, lam, u,
    table)): every transfer_trace result is recorded, and every
    contraction-pass call on one of them, with the rows it formed."""
    import sdreflect.monodromy as mono

    traced, calls = [], []
    real_trace, real_pass = mono.transfer_trace, ShiftOpSum.factor_pass

    def trace(*args, **kwargs):
        traced.append(real_trace(*args, **kwargs))
        return traced[-1]

    def spy(self, lam, u):
        contract = real_pass(self, lam, u)
        if not any(self is t for t in traced):
            return contract

        def call(rows):
            table = contract(rows)
            calls.append((self, lam[rows], {l: v[rows] for l, v in u.items()},
                          {m: c.copy() for m, c in table.items()}))
            return table

        return call

    monkeypatch.setattr(mono, "transfer_trace", trace)
    monkeypatch.setattr(ShiftOpSum, "factor_pass", spy)
    return traced, calls


def test_commuting_family_evaluates_each_traced_table_once_per_block(monkeypatch):
    from sdreflect.cli import Rig
    from sdreflect.scenarios import builtin_scenario

    traced, calls = _spied_traced_calls(monkeypatch)
    rig = Rig(builtin_scenario("diagonal_dressed"), samples=3, seed=2)
    reports, _ = rig.run_suite("transfer-commute")
    assert [r.check_name for r in reports] == ["transfer_commutation_N1",
                                               "transfer_commutation_N2"]
    # one traced operator per chain size, one table call per chunk of
    # rows, a row being one of 3 members x (1 + 2 shifts) at one point.
    # At N = 1 (d = 8) one call holds every row of the three points; at
    # N = 2 (d = 32, 16 rows per call) one call holds the nine rows of
    # one point
    assert len(traced) == 2
    assert [(traced.index(t), len(lam)) for t, lam, _, _ in calls] == [(0, 27)] + [(1, 9)] * 3
    # the shared table gives the report of the worst pairwise commutator
    monkeypatch.undo()
    members = [{0: u0} for u0 in (0.52 + 0.21j, -0.63 + 0.77j, 2.31 - 0.52j)]
    for t, rep in zip(traced, reports):
        pairwise = [shiftop_commutators(t, [members[i], members[j]], rig.points, 1e-8)[0]
                    for i, j in ((0, 1), (0, 2), (1, 2))]
        assert rep.max_residual == max(r.max_residual for r in pairwise)


def test_stacked_family_rows_are_the_tables_of_separate_operators(monkeypatch):
    # every (u0, shift, point) row of the stacked traced table equals, bit
    # for bit, the table of an operator built at that u0 alone, evaluated
    # at that shifted point alone: the direct chain (g = 1) and the gauged
    # factored one (a spectral shift moves each R factor's u0)
    from sdreflect.cli import Rig
    from sdreflect.scenarios import builtin_scenario

    for name in ("diagonal_dressed", "spectral_shift_g"):
        traced, calls = _spied_traced_calls(monkeypatch)
        rig = Rig(builtin_scenario(name, {"sites": 2}), samples=2, seed=4)
        assert all(r.passed for r in rig.run_suite("transfer-commute")[0])
        monkeypatch.undo()
        for t, lam, u, table in calls:
            N = len(t.legs) // 2
            uq = rig.scenario.quantum_values(N)
            for r in range(len(lam)):
                if rig.g.is_identity:
                    T = build_monodromy_direct(rig.S, rig.K, rig.chi, N, uq, u[0][r])
                else:
                    T = build_monodromy_factored(rig.scheme, rig.R0, rig.b, rig.q, rig.Q,
                                                 rig.chi, N, uq, u[0][r], g=rig.g, QL=rig.QL)
                alone = transfer_trace(T).eval_terms(lam[r])
                assert list(alone) == list(table)
                for m, c in alone.items():
                    np.testing.assert_array_equal(table[m][r], c)


def _rows_per_table_call(monkeypatch, op):
    """The list that records how many rows each contraction-pass call on
    ``op`` forms."""
    rows, real = [], ShiftOpSum.factor_pass

    def spy(self, lam, u):
        contract = real(self, lam, u)
        if self is not op:
            return contract
        return lambda r: rows.append(len(lam[r])) or contract(r)

    monkeypatch.setattr(ShiftOpSum, "factor_pass", spy)
    return rows


def test_family_rows_per_call_follow_the_untraced_dimension(monkeypatch):
    # a traced operator forms its tables at the dimension of the untraced
    # chain (d = 32 at two sites, 16 traced): a call holds at most
    # BLOCK_BYTES / (16 d^2) rows, whole member-shift groups, and a row
    # that alone exceeds the budget runs alone
    import sdreflect.shiftops as so

    sch, S, R, b, q, Q, QL, K, chi = scenario()
    t = transfer_trace(build_monodromy_direct(S, K, chi, 2, U_Q, None))
    assert (t.dim, sch.rank ** len(t.legs)) == (32, 16)
    members, pts = [{0: u0} for u0 in U_LIST], lam_points(2, count=5)
    rows = _rows_per_table_call(monkeypatch, t)
    # 9 rows per point: 3 members x (1 + 2 shifts)
    for per_call, want in ((so._rows_per_call(32), [9] * 5), (1, [1] * 45),
                           (4, [4, 4, 1] * 5), (18, [18, 18, 9]), (45, [45])):
        if per_call != so._rows_per_call(32):
            monkeypatch.setattr(so, "BLOCK_BYTES", per_call * 16 * 32 ** 2)
        rows.clear()
        shiftop_commutators(t, members, pts, 1e-8)
        assert rows == want, per_call
        assert all(r * 16 * 32 ** 2 <= so.BLOCK_BYTES for r in rows)


def test_perturbed_B_fails_the_commutator_linearly_in_eps():
    # negative control past the gate: a seeded constant eps X on legs
    # (1, 2) added to B of diagonal_dressed, the family built without the
    # gate.  The residual is linear in eps, with the slopes that one
    # operator per member gave: 2.8180 at N = 1 and 4.0455 at N = 2
    from sdreflect.cli import Rig
    from sdreflect.scenarios import builtin_scenario

    rig = Rig(builtin_scenario("diagonal_dressed"))
    rng = np.random.default_rng(5)
    X = constant_dynmat(rig.scheme, (1, 2), rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for N, slope in ((1, 2.818036), (2, 4.045488)):
        for eps in (1e-8, 1e-6, 1e-4):
            S = StructureSet(rig.A, rig.B + eps * X, rig.C, rig.D, rig.scheme, rig.g)
            T = build_monodromy_direct(S, rig.K, rig.chi, N, rig.scenario.quantum_values(N), None)
            rep = transfer_commutation(T, U_LIST, rig.points[:12])
            assert not rep.passed
            assert rep.max_residual / eps == pytest.approx(slope, rel=2e-4), (N, eps)


def test_bound_auxiliary_value_is_not_a_family():
    # a chain built at one u0 has no slot on leg 0: its members would all
    # be that chain, so the check is refused rather than passed
    from sdreflect.dyncore import SpectralValueError

    sch, S, R, b, q, Q, QL, K, chi = scenario()
    with pytest.raises(SpectralValueError):
        transfer_commutation(build_monodromy_direct(S, K, chi, 1, U_Q, U_LIST[0]), U_LIST,
                             lam_points(2))


def test_shiftop_checks_give_one_report_at_every_block_size(monkeypatch):
    # a rank-2 two-site chain (d = 32, traced tables read off it) checked
    # with one row per table call, one point's 9 rows, two points' (five
    # points: the last block holds one) and all points'
    import sdreflect.shiftops as so

    sch, S, R, b, q, Q, QL, K, chi = scenario()
    Td = build_monodromy_direct(S, K, chi, 2, U_Q, U_LIST[0])
    Tf = build_monodromy_factored(sch, R, b, q, Q, chi, 2, U_Q, U_LIST[0])
    t = transfer_trace(build_monodromy_direct(S, K, chi, 2, U_Q, None))
    members, pts = [{0: u0} for u0 in U_LIST], lam_points(2, count=5)
    sizes = _rows_per_table_call(monkeypatch, t)

    def reports(rows):
        # one d x d complex matrix is 16 d^2 bytes
        monkeypatch.setattr(so, "BLOCK_BYTES", rows * 16 * 32 ** 2)
        sizes.clear()
        reps = [shiftop_difference_residual(Td, Tf, pts, 1e-8)]
        reps += so.shiftop_commutators(t, members, pts, 1e-8)
        return list(sizes), [(r.max_residual, r.worst_point[0].tobytes(), r.worst_point[1])
                             for r in reps]

    calls, expect = reports(1)
    assert calls == [1] * 45
    for rows, blocks in ((9, [9] * 5), (18, [18, 18, 9]), (45, [45])):
        assert reports(rows) == (blocks, expect)


def test_rank3_two_site_conjugator_is_placed_on_the_quantum_legs():
    sch, S, R, b, q, Q, QL, K, chi = scenario(n=3)
    O = chain_product(build_ON_blocks(b, q, 2, U_Q))
    Oinv = O.inv()
    assert O.positions == Oinv.positions == (1, 2, 3, 4)
    lam = lam_points(3)[0][0]
    small = Oinv.eval(lam, local=True)
    assert small.m.shape == (81, 81)
    np.testing.assert_allclose(small.dense(), np.linalg.inv(O.eval(lam)), atol=1e-12)


def _stacked(n, count=3):
    return np.stack([lam for lam, _ in lam_points(n, count)])


@pytest.mark.parametrize("n", [2, 3])
def test_traced_column_blocks_are_the_einsum_of_the_dense_terms(n):
    # the direct (weight-shifted) and the factored (conjugated) chain at
    # two sites: dense operators at rank 2 (d = 32), placed at rank 3
    from sdreflect.dyncore import ColumnBlock

    sch, S, R, b, q, Q, QL, K, chi = scenario(n=n)
    lam, dq = _stacked(n), n ** 4
    for T in (build_monodromy_direct(S, K, chi, 2, U_Q, U_LIST[0]),
              build_monodromy_factored(sch, R, b, q, Q, chi, 2, U_Q, U_LIST[0])):
        assert all(isinstance(c, ColumnBlock) for c in T.raw_terms(lam).values())
        traced = transfer_trace(T).eval_terms(lam)
        for m, M in T.eval_terms(lam).items():
            want = np.einsum("...iaib->...ab", M.reshape(M.shape[:-2] + (n, dq, n, dq)))
            np.testing.assert_array_equal(traced[m], want)


def _dense_table(T):
    """T with every table entry dense."""
    return ShiftOpSum(T.scheme, T.legs, T.terms, T.eval_terms)


@pytest.mark.parametrize("n", [2, 3])
def test_block_difference_matches_the_dense_difference(n):
    sch, S, R, b, q, Q, QL, K, chi = scenario(n=n)
    pts = lam_points(n, 5 - n)
    Td = build_monodromy_direct(S, K, chi, 2, U_Q, U_LIST[0])
    first = Td.terms[0]
    cases = [
        # round-off, and a signal (another auxiliary value)
        (Td, build_monodromy_factored(sch, R, b, q, Q, chi, 2, U_Q, U_LIST[0])),
        (Td, build_monodromy_factored(sch, R, b, q, Q, chi, 2, U_Q, U_LIST[1])),
        # a missing entry counts as zero
        (Td, ShiftOpSum(sch, Td.legs, [first], lambda lam, u: {first: Td.table(lam, u)[first]})),
    ]
    for S1, S2 in cases:
        got = shiftop_difference_residual(S1, S2, pts)
        want = shiftop_difference_residual(_dense_table(S1), _dense_table(S2), pts)
        np.testing.assert_allclose(got.max_residual, want.max_residual, rtol=1e-12)
        assert got.passed == want.passed


def test_nan_in_one_column_block_fails_at_its_point():
    n, legs = 3, (0, 1, 2, 3)
    sch = WeightScheme(n, 1.0)
    rng = np.random.default_rng(67)
    pts = [(rng.normal(size=n) + 0j, {}) for _ in range(3)]
    bad = pts[2][0]
    m = rng.normal(size=(n ** 4, n ** 4)) + 0j

    def core(lam, u):
        out = m * (1 + lam[0])
        if np.array_equal(lam, bad):
            out = out.copy()
            out[5, 40] = np.nan  # column 40 lies in block 1 (columns 27..53)
        return out

    good = ShiftOpSum.weight_shifted(function_dynmat(sch, legs, lambda lam, u: m * (1 + lam[0])), 0)
    broken = ShiftOpSum.weight_shifted(function_dynmat(sch, legs, core), 0)
    rep = shiftop_difference_residual(broken, good, pts, 1e-8)
    assert not rep.passed
    assert np.isnan(rep.max_residual)
    np.testing.assert_array_equal(rep.worst_point[0], bad)


def test_perturbed_site_one_B_fails_the_planned_chain_linearly(monkeypatch):
    # negative control of the planned product: eps X added to the site-1
    # B factor of the direct rank-3 two-site chain only
    import sdreflect.monodromy as mono
    from sdreflect.cli import Rig
    from sdreflect.scenarios import builtin_scenario

    rig = Rig(builtin_scenario("diagonal_dressed", {"rank": 3, "sites": 2}), samples=2)
    rng = np.random.default_rng(71)
    X = constant_dynmat(rig.scheme, rig.S.B.legs,
                        rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    real = mono._place

    def residual(eps):
        def place(Y, at, *args):
            if Y is rig.S.B and at == (0, 2):
                Y = Y + eps * X
            return real(Y, at, *args)

        monkeypatch.setattr(mono, "_place", place)
        reports, _ = rig.run_suite("monodromy-factor")
        rep = {r.check_name: r for r in reports}["monodromy_factorization_N2"]
        assert not rep.passed
        return rep.max_residual

    small, large = residual(1e-6), residual(1e-5)
    assert 5 <= large / small <= 20


def _chain_forms(form):
    """A two-site chain operator of each built form: (operator, rows lam
    (5, 2), rows u).  Its auxiliary slot is free, except in the
    ``row_free`` forms (b = q = 1), which do not depend on the row, and
    the ``mixed_bound`` ones (b and q vary with lam); ``mixed_*_trivial``
    has b = q = 1 and the slot free."""
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=not form.endswith("_trivial"))
    u0 = 0.52 + 0.21j if form.startswith(("row_free", "mixed_bound")) else None
    if form in ("row_free_direct_trivial", "mixed_bound_direct", "mixed_direct_trivial"):
        T = build_monodromy_direct(S, K, chi, 2, U_Q, u0)
    elif form in ("row_free_factored_trivial", "mixed_bound_factored"):
        T = build_monodromy_factored(sch, R, b, q, Q, chi, 2, U_Q, u0)
    elif form == "direct":
        T = build_monodromy_direct(S, K, chi, 2, U_Q, None)
    elif form == "factored":
        T = build_monodromy_factored(sch, R, b, q, Q, chi, 2, U_Q, None)
    elif form == "rbar":
        from sdreflect.scenarios import builtin_scenario

        T = build_monodromy_factored(sch, R, b, q, np.diag([1.0, 0.0]), chi, 2, U_Q, None,
                                     Rbar=builtin_scenario("nonsimilar_detwist").Rbar_mat(),
                                     chi0=q)
    elif form == "traced":
        T = transfer_trace(build_monodromy_direct(S, K, chi, 2, U_Q, None))
    else:
        g = (Automorphism.constant(np.array([[1.3, 0.4], [0.2, 0.9]])) if form == "constant_g"
             else Automorphism.spectral_shift(0.3))
        T = build_monodromy_factored(sch, R, b, q, Q, chi, 2, U_Q, None, g=g, QL=QL)
    rows = np.stack([lam for lam, _ in lam_points(2, count=5)])
    return T, rows, {0: np.array([0.52 + 0.21j, -0.63 + 0.77j, 2.31 - 0.52j, 0.4 - 1.1j, 1.7j])}


def _entries(table):
    """A table's entries as comparable arrays (a column block with its columns)."""
    from sdreflect.dyncore import ColumnBlock

    return {m: (c.index, c.position, c.m) if isinstance(c, ColumnBlock) else (c,)
            for m, c in table.items()}


@pytest.mark.parametrize("form", ["direct", "factored", "rbar", "constant_g", "shift_g",
                                  "traced", "row_free_direct_trivial",
                                  "row_free_factored_trivial", "mixed_bound_direct",
                                  "mixed_bound_factored", "mixed_direct_trivial"])
def test_factor_pass_tables_equal_per_row_calls(form):
    # the contraction pass at a block of rows (a slice, an index array, a
    # single row) is, bit for bit, the table of each of its rows alone; a
    # table that does not depend on the row is one (d, d) matrix per
    # entry, every row's
    T, lam, u = _chain_forms(form)
    contract = T.factor_pass(lam, u)
    for rows in (slice(0, 2), slice(2, 5), np.array([4, 1, 3]), slice(3, 4)):
        block = _entries(contract(rows))
        assert list(block) == list(T.terms)
        assert {np.ndim(e[-1]) for e in block.values()} == {2 if "row_free" in form else 3}
        for k, r in enumerate(np.arange(5)[rows]):
            alone = _entries(T.raw_terms(lam[r], {0: u[0][r]}))
            assert list(alone) == list(block)
            for m, entry in alone.items():
                assert entry[:-1] == block[m][:-1]
                row = block[m][-1] if "row_free" in form else block[m][-1][k]
                np.testing.assert_array_equal(row, entry[-1])
        # the table at a stack is broadcast to its rows
        stacked = _entries(T.raw_terms(lam[rows], {0: u[0][rows]}))
        for m, entry in stacked.items():
            assert entry[-1].shape[0] == len(np.arange(5)[rows])
            np.testing.assert_array_equal(entry[-1], np.broadcast_to(block[m][-1],
                                                                     entry[-1].shape))


def _counted_factors(monkeypatch):
    """Counters of every factor function the chain builders pass to
    chain_product, and of every O_N site block function."""
    from dataclasses import replace

    import sdreflect.monodromy as mono

    factors, blocks = [], []

    def counted(X, into):
        calls = [0]
        into.append(calls)

        def fn(lam, u, _f=X.fn):
            calls[0] += 1
            return _f(lam, u)

        return replace(X, fn=fn)

    chain, on_blocks = mono.chain_product, mono.build_ON_blocks
    monkeypatch.setattr(mono, "chain_product",
                        lambda fs: chain([counted(X, factors) for X in fs]))
    monkeypatch.setattr(mono, "build_ON_blocks",
                        lambda *a, **kw: [counted(B, blocks) for B in on_blocks(*a, **kw)])
    return factors, blocks


@pytest.mark.parametrize("name", ["diagonal_dressed", "spectral_shift_g"])
def test_each_chain_factor_runs_once_per_check(monkeypatch, name):
    # one row per table call, so each check runs many blocks; still every
    # chain factor runs once per check, and each O_N site block once at
    # lam (for its inverse) and once at each lam + gamma e_i
    import sdreflect.shiftops as so
    from sdreflect.cli import Rig
    from sdreflect.scenarios import builtin_scenario

    factors, blocks = _counted_factors(monkeypatch)
    monkeypatch.setattr(so, "BLOCK_BYTES", 1)
    rig = Rig(builtin_scenario(name, {"sites": 2}), samples=4)
    checked = 0
    for suite in ("monodromy-factor", "transfer-commute"):
        reports, _ = rig.run_suite(suite)
        assert all(r.passed for r in reports)
        checked += len(reports)
    assert checked == (4 if rig.g.is_identity else 2)
    assert factors and all(c == [1] for c in factors)
    assert rig.g.is_identity or blocks
    assert all(c == [1 + rig.scheme.rank] for c in blocks)


@pytest.mark.parametrize("name", ["diagonal_dressed", "constant_g"])
def test_chain_suites_add_nothing_to_the_structure_memos(name):
    # the chain builders read the structure matrices unkept; the transfer
    # gate reads the kept ones at the points the other suites read them
    # at (4 samples, all within the gate's 12)
    from sdreflect.cli import Rig
    from sdreflect.scenarios import builtin_scenario

    rig = Rig(builtin_scenario(name, {"sites": 2}), samples=4)
    for suite in ("zero-weight", "ybce", "gybce", "sdre", "zwc"):
        rig.run_suite(suite)
    memos = [X.fn.memo for X in (rig.A, rig.B, rig.C, rig.D)]
    sizes = [len(memo) for memo in memos]
    assert all(sizes)
    reports = rig.run_suite("monodromy-factor")[0] + rig.run_suite("transfer-commute")[0]
    assert reports and all(r.passed for r in reports)
    assert any(r.check_name.startswith("transfer_commutation") for r in reports)
    assert [len(memo) for memo in memos] == sizes


def _products_of_check(monkeypatch, Td, Tf, points):
    """The report of the factorization check of Td and Tf at ``points``
    and how many products it formed: chain products (``_times``),
    left and right applications of placed factors."""
    import sdreflect.dyncore as dc
    import sdreflect.monodromy as mono

    calls = []
    for module, name in ((dc, "_times"), (dc, "_apply_left"), (dc, "_apply_right"),
                         (mono, "_apply_right")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _r=real, _n=name: calls.append(_n) or _r(*a))
    rep = shiftop_difference_residual(Td, Tf, points, 1e-8, name="monodromy_factorization_N2")
    monkeypatch.undo()
    return rep, len(calls)


def test_row_free_chain_is_contracted_once_per_check(monkeypatch):
    # trivial_yangian at rank 3 (b = q = 1, every spectral value bound):
    # neither side of the two-site factorization depends on the row, so
    # each is contracted once per check, however many samples (d = 243,
    # one row per block), and one residual is every sample's
    from sdreflect.cli import Rig
    from sdreflect.scenarios import builtin_scenario
    from sdreflect.shiftops import _rows_per_call

    rig = Rig(builtin_scenario("trivial_yangian", {"rank": 3, "sites": 2}), samples=8)
    uq, u0 = rig.scenario.quantum_values(2), 0.52 + 0.21j
    Td = build_monodromy_direct(rig.S, rig.K, rig.chi, 2, uq, u0)
    Tf = build_monodromy_factored(rig.scheme, rig.R0, rig.b, rig.q, rig.Q, rig.chi, 2, uq, u0)
    assert (Td.dim, _rows_per_call(Td.dim)) == (243, 1)
    rep8, products8 = _products_of_check(monkeypatch, Td, Tf, rig.points[:8])
    rep1, products1 = _products_of_check(monkeypatch, Td, Tf, rig.points[:1])
    assert products8 == products1 > 0
    assert rep8.passed and rep8.max_residual == rep1.max_residual
    np.testing.assert_array_equal(rep8.worst_point[0], rig.points[0][0])


@pytest.mark.parametrize("dressed", [False, True])
def test_nan_in_a_row_free_factor_fails_at_the_first_point(dressed):
    # a NaN in the constant Q of the factored core: with b = q = 1 no
    # factor depends on the row and one residual serves every point; with
    # b and q varying the row-free Q meets rows in each block.  Either
    # way the check fails with the first point as its worst
    sch, S, R, b, q, Q, QL, K, chi = scenario(dressed=dressed)
    u0, pts = 0.52 + 0.21j, lam_points(2, count=4)
    Td = build_monodromy_direct(S, K, chi, 2, U_Q, u0)
    Q_nan = np.array(Q, dtype=complex)
    Q_nan[0, 1] = np.nan
    Tf = build_monodromy_factored(sch, R, b, q, Q_nan, chi, 2, U_Q, u0)
    rep = shiftop_difference_residual(Td, Tf, pts, 1e-8)
    assert np.isnan(rep.max_residual) and not rep.passed
    np.testing.assert_array_equal(rep.worst_point[0], pts[0][0])

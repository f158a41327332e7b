import numpy as np
import pytest

from sdreflect import (
    Automorphism,
    WeightScheme,
    constant_dynmat,
    embed,
    function_dynmat,
    identity_dynmat,
    yangian_r,
)
from sdreflect.consistency import (
    StructureSet,
    residual_dybe,
    residual_gybce,
    residual_projector_compat,
    residual_quasi_nondyn,
    residual_sdre,
    residual_shifted_ybe,
    residual_theta_period,
    residual_ybce,
    residual_zero_weight,
    residual_zwc,
)
from sdreflect.parametrize import build_A, build_BC, build_D_twist
from sdreflect.sampling import sample_points
from sdreflect.solutions import build_K_nondyn

SCH = WeightScheme(2, 1.0)
RNG = np.random.default_rng(7)
PTS = sample_points(SCH, (1, 2, 3), count=20, seed=7)


def _stacked(fm):
    """A one-value matrix function as the stacked one that
    Automorphism.factorizable takes (values of shape (...) to (..., n, n))."""
    return np.vectorize(fm, signature="()->(n,n)", otypes=[complex])


E12 = np.zeros((2, 2))
E12[0, 1] = 1.0


def identity_set(scheme=SCH):
    I2 = identity_dynmat(scheme, (1, 2))
    return StructureSet(I2, I2, I2, I2, scheme)


def yangian_trivial_set(scheme=SCH):
    R = yangian_r(scheme, (1, 2))
    I2 = identity_dynmat(scheme, (1, 2))
    return StructureSet(R, I2, I2, R, scheme)


def dressed_pieces(scheme=SCH, seed=3):
    rng = np.random.default_rng(seed)
    n = scheme.rank
    cb = rng.normal(size=(n, n)) * 0.12
    db = 2.5 + rng.normal(size=n) * 0.2
    cq = rng.normal(size=(n, n)) * 0.12
    dq = 2.5 + rng.normal(size=n) * 0.2
    b = function_dynmat(scheme, (1,), lambda lam, u: np.diag(db + cb @ lam))
    q = function_dynmat(scheme, (1,), lambda lam, u: np.diag(dq + cq @ lam))
    return b, q


def dressed_set(scheme=SCH):
    b, q = dressed_pieces(scheme)
    R = yangian_r(scheme, (1, 2))
    B, C = build_BC(b, Automorphism.identity(), scheme)
    A = build_A(R, b, Automorphism.identity(), scheme)
    D = build_D_twist(R, q, scheme)
    return StructureSet(A, B, C, D, scheme), b, q, R


# -- zero weight --------------------------------------------------------------


def test_zero_weight_identity_all_kinds():
    I2 = identity_dynmat(SCH, (1, 2))
    for kind in "BCD":
        assert residual_zero_weight(I2, kind, PTS, 1e-13).passed


def test_zero_weight_yangian_d_type():
    R = yangian_r(SCH, (1, 2))
    assert residual_zero_weight(R, "D", PTS, 1e-13).passed


def test_zero_weight_fails_on_raising_matrix():
    X = constant_dynmat(SCH, (1, 2), np.kron(E12, np.eye(2)))
    rep = residual_zero_weight(X, "B", PTS, 1e-9)
    assert not rep.passed and rep.max_residual > 0.5


# -- cubic consistency families -----------------------------------------------


def test_ybce_all_identity():
    for rep in residual_ybce(identity_set(), PTS, 1e-12).values():
        assert rep.passed and rep.max_residual < 1e-14


def test_ybce_trivial_yangian():
    reps = residual_ybce(yangian_trivial_set(), PTS, 1e-10)
    for rep in reps.values():
        assert rep.passed


def test_ybce_dressed():
    S, _, _, _ = dressed_set()
    for rep in residual_ybce(S, PTS, 1e-9).values():
        assert rep.passed


def test_ybce_detects_broken_d():
    S, b, q, R = dressed_set()
    bad = S.D @ function_dynmat(
        SCH, (1, 2), lambda lam, u: np.exp(lam[0]) * np.eye(4, dtype=complex)
    )
    Sbad = StructureSet(S.A, S.B, S.C, bad, SCH)
    rep = residual_ybce(Sbad, PTS, 1e-9)["ybce_d"]
    assert not rep.passed and rep.max_residual > 1e-2


def test_gybce_reduces_to_ybce_for_identity():
    S, _, _, _ = dressed_set()
    plain = residual_ybce(S, PTS, 1e-9)
    ext = residual_gybce(S, PTS, 1e-9)
    for key in "abcd":
        assert np.isclose(
            plain[f"ybce_{key}"].max_residual, ext[f"gybce_{key}"].max_residual,
            rtol=0, atol=1e-14,
        )


def test_gybce_spectral_shift_difference_form():
    g = Automorphism.spectral_shift(1.0)
    R = yangian_r(SCH, (1, 2))
    I2 = identity_dynmat(SCH, (1, 2))
    S = StructureSet(R, I2, I2, R, SCH, g)
    for rep in residual_gybce(S, PTS, 1e-9).values():
        assert rep.passed


def test_gybce_constant_compatible_g():
    g = Automorphism.constant(np.diag([2.0, 1.0]))
    R = yangian_r(SCH, (1, 2))  # zero weight, so [g x g, R] = 0
    I2 = identity_dynmat(SCH, (1, 2))
    S = StructureSet(R, I2, I2, R, SCH, g)
    for rep in residual_gybce(S, PTS, 1e-9).values():
        assert rep.passed


# -- reflection residuals -------------------------------------------------------


def test_sdre_trivial():
    S = yangian_trivial_set()
    K = identity_dynmat(SCH, (1,))
    rep = residual_sdre(S, K, PTS, 1e-12)
    assert rep.passed and rep.max_residual < 1e-14


def test_sdre_dressed_solution():
    S, b, q, R = dressed_set()
    Q = np.array([[1.0, 0.4], [0.2, 1.0]])
    K = build_K_nondyn(Q, b, q)
    assert residual_sdre(S, K, PTS, 1e-9).passed


def test_constant_k_solves_trivial_relation():
    # any constant K works here: both wings of the rational coefficient
    # commute with M (x) M, so even a nilpotent constant passes
    S = yangian_trivial_set()
    K = constant_dynmat(SCH, (1,), E12)
    assert residual_sdre(S, K, PTS, 1e-10).passed


def test_sdre_detects_wrong_k():
    # a cross-coordinate lambda dependence breaks the shifted relation
    # in the trivial scenario
    S = yangian_trivial_set()
    K = function_dynmat(SCH, (1,), lambda lam, u: np.diag([lam[1], 1.0]))
    rep = residual_sdre(S, K, PTS, 1e-9)
    assert not rep.passed and rep.max_residual > 1e-2


def test_sdre_scaling_invariance():
    # both sides scale by c under A -> cA, D -> cD
    S, b, q, _ = dressed_set()
    K = build_K_nondyn(np.eye(2), b, q)
    base = residual_sdre(S, K, PTS, 1e-9)
    c = 2.7 - 0.4j
    S2 = StructureSet(c * S.A, S.B, S.C, c * S.D, SCH)
    again = residual_sdre(S2, K, PTS, 1e-9)
    assert np.isclose(base.max_residual, again.max_residual, rtol=1e-6, atol=1e-13)


# -- dynamical cubic relation ----------------------------------------------------


def test_dybe_identity_and_twist():
    assert residual_dybe(identity_dynmat(SCH, (1, 2)), PTS, 1e-13).passed
    _, q = dressed_pieces()
    D = build_D_twist(yangian_r(SCH, (1, 2)), q, SCH)
    assert residual_dybe(D, PTS, 1e-9).passed


def test_dybe_perturbation():
    _, q = dressed_pieces()
    D = build_D_twist(yangian_r(SCH, (1, 2)), q, SCH)
    noise = np.kron(E12, E12.T)
    bad = D + function_dynmat(SCH, (1, 2), lambda lam, u: 0.01 * lam[0] * noise)
    rep = residual_dybe(bad, PTS, 1e-9)
    assert not rep.passed and rep.max_residual > 1e-3


# -- quasi-non-dynamicity ---------------------------------------------------------


def test_quasi_nondyn_trivial():
    X = constant_dynmat(SCH, (1, 2), RNG.normal(size=(4, 4)))
    assert residual_quasi_nondyn(X, Automorphism.identity(), PTS, 1e-12).passed


def test_quasi_nondyn_commuting_construction():
    # constant core commuting with f (x) f: the dressing is trivial and
    # the residual vanishes identically
    from sdreflect import sigma_conjugate

    f = Automorphism.constant(np.diag([2.0, 1.0]))
    R0 = yangian_r(SCH, (1, 2))
    X = sigma_conjugate(R0, f, (1, 2), sign=-1)
    assert residual_quasi_nondyn(X, f, PTS, 1e-11).passed


def test_quasi_nondyn_noncommuting_construction():
    # gamma = -1 makes the sigma dressing match the per-step conjugation
    from sdreflect import sigma_conjugate

    sch = WeightScheme(2, -1.0)
    pts = sample_points(sch, (), count=15, seed=5)
    f = Automorphism.constant(np.diag([2.0, 1.0]))
    core = np.eye(4) + np.kron(E12, E12)
    X = sigma_conjugate(constant_dynmat(sch, (1, 2), core), f, (1, 2), sign=-1)
    # genuinely dynamical
    a = X.eval(np.array([0.3, 0.4]))
    b = X.eval(np.array([1.0, -0.5]))
    assert np.linalg.norm(a - b) > 1e-3
    assert residual_quasi_nondyn(X, f, pts, 1e-10).passed


def test_quasi_nondyn_fails_on_generic_dynamics():
    X = function_dynmat(
        SCH, (1, 2), lambda lam, u: np.exp(lam[0]) * (np.eye(4) + np.kron(E12, E12))
    )
    rep = residual_quasi_nondyn(X, Automorphism.identity(), PTS, 1e-9)
    assert not rep.passed


# -- factorization condition -------------------------------------------------------


def test_theta_period_sigma_only():
    kappa = function_dynmat(
        SCH, (1,), lambda lam, u: np.exp(0.3 * (lam[0] + lam[1])) * np.eye(2, dtype=complex)
    )
    rep = residual_theta_period(kappa, PTS, 1e-12)
    assert rep.passed


def test_theta_period_periodic_construction():
    # explicitly 2-gamma-periodic in theta at fixed sigma
    def fn(lam, u):
        s = lam[0] + lam[1]
        th = s - 2 * lam[1]
        return np.diag([np.exp(1j * np.pi * th), np.exp(0.2 * s)])

    rep = residual_theta_period(function_dynmat(SCH, (1,), fn), PTS, 1e-10)
    assert rep.passed


def test_theta_period_fails_on_linear():
    kappa = function_dynmat(SCH, (1,), lambda lam, u: lam[0] * np.eye(2, dtype=complex))
    assert not residual_theta_period(kappa, PTS, 1e-10).passed


# -- projector compatibility ---------------------------------------------------------


def test_projector_compat_weight_projectors():
    b, _ = dressed_pieces()
    R = yangian_r(SCH, (1, 2))
    projs = [SCH.projector(0), SCH.projector(1)]
    assert residual_projector_compat(R, projs, b, PTS, 1e-10).passed


def test_projector_compat_identity():
    b, _ = dressed_pieces()
    R = yangian_r(SCH, (1, 2))
    assert residual_projector_compat(R, [np.eye(2)], b, PTS, 1e-12).passed


def test_projector_compat_offdiagonal_b_fails():
    R = yangian_r(SCH, (1, 2))
    b = constant_dynmat(SCH, (1,), E12 + E12.T)
    rep = residual_projector_compat(R, [SCH.projector(0)], b, PTS, 1e-9)
    assert not rep.passed


def test_projector_compat_rejects_non_idempotent():
    b, _ = dressed_pieces()
    R = yangian_r(SCH, (1, 2))
    with pytest.raises(ValueError, match=r"^projectors\[0\]: must be idempotent"):
        residual_projector_compat(R, [2.0 * np.eye(2)], b, PTS)


# -- automorphism weight compatibility -------------------------------------------------


def test_zwc_diagonal_g_zero_weight_set():
    S, _, _, _ = dressed_set()
    Sg = StructureSet(S.A, S.B, S.C, S.D, SCH, Automorphism.constant(np.diag([2.0, 1.0])))
    assert residual_zwc(Sg, PTS, 1e-10).passed


def test_zwc_detects_incompatible_g():
    S, _, _, _ = dressed_set()
    g = Automorphism.constant(np.array([[1.0, 0.7], [0.0, 1.0]]))
    Sg = StructureSet(S.A, S.B, S.C, S.D, SCH, g)
    assert not residual_zwc(Sg, PTS, 1e-9).passed


# -- shifted cubic relation -------------------------------------------------------------


def test_shifted_ybe_commuting_case():
    f = Automorphism.constant(np.diag([2.0, 1.0]))
    R = yangian_r(SCH, (1, 2))
    assert residual_shifted_ybe(R, f, PTS, 1e-10).passed


def test_shifted_ybe_detects_violation():
    f = Automorphism.constant(np.diag([2.0, 1.0]))
    X = constant_dynmat(SCH, (1, 2), np.eye(4) + np.kron(E12, E12))
    assert not residual_shifted_ybe(X, f, PTS, 1e-9).passed


# -- perturbation monotonicity ------------------------------------------------------------


def test_perturbation_linearity():
    _, q = dressed_pieces()
    D = build_D_twist(yangian_r(SCH, (1, 2)), q, SCH)
    noise = np.kron(E12, E12.T) + 0.5 * np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    res = []
    for eps in (1e-6, 1e-5, 1e-4):
        bad = D + constant_dynmat(SCH, (1, 2), eps * noise)
        res.append(residual_dybe(bad, PTS, 1e-9).max_residual)
    assert 5 <= res[1] / res[0] <= 20
    assert 5 <= res[2] / res[1] <= 20


def test_report_fields_and_serialization():
    rep = residual_dybe(identity_dynmat(SCH, (1, 2)), PTS, 1e-12)
    doc = rep.to_dict()
    assert doc["pass"] is True and doc["samples"] == len(PTS)
    assert len(doc["worst_point"]["lambda"]) == 2
    with pytest.raises(ValueError):
        from sdreflect.consistency import ResidualReport
        ResidualReport("x", 0, 0.0, 1e-9)


def test_gybce_factorizable_automorphism():
    # the machinery evaluates spectrally dependent automorphism
    # insertions; a constant-valued one is neutral for the trivial set,
    # while a genuinely varying one correctly breaks the first relation
    R = yangian_r(SCH, (1, 2))
    I2 = identity_dynmat(SCH, (1, 2))
    f_const = Automorphism.factorizable(_stacked(lambda u: np.diag([1.3, 1.0])))
    S1 = StructureSet(R, I2, I2, R, SCH, f_const)
    assert all(r.passed for r in residual_gybce(S1, PTS, 1e-9).values())
    f_var = Automorphism.factorizable(_stacked(lambda u: np.diag([1.0 + 0.1 * u, 1.0])))
    S2 = StructureSet(R, I2, I2, R, SCH, f_var)
    reps = residual_gybce(S2, PTS, 1e-9)
    assert not reps["gybce_a"].passed
    assert reps["gybce_d"].passed


# -- non-finite residuals -----------------------------------------------------


def test_all_nan_matrix_fails():
    X = constant_dynmat(SCH, (1, 2), np.full((4, 4), np.nan))
    for rep in (residual_dybe(X, PTS, 1e-9), residual_zero_weight(X, "D", PTS, 1e-9)):
        assert not rep.passed
        assert np.isnan(rep.max_residual)
        np.testing.assert_array_equal(rep.worst_point[0], PTS[0][0])


def test_nan_at_one_point_fails_and_is_the_worst_point():
    from sdreflect.consistency import residual_nondynamical

    bad = PTS[5][0]

    def fn(lam, u):
        if np.array_equal(lam, bad):
            return np.full((4, 4), np.nan)
        # lambda-dependent, so every other point has a finite residual
        return np.diag([lam[0], 1.0, 1.0, 1.0])

    rep = residual_nondynamical(function_dynmat(SCH, (1, 2), fn), PTS, 1e-9)
    assert not rep.passed
    assert np.isnan(rep.max_residual)
    np.testing.assert_array_equal(rep.worst_point[0], bad)


def test_nan_inside_a_per_point_max_fails():
    # with gamma = 100 only the shift along e_2 leaves |lam_2| < 50, so one
    # of the two per-index sub-residuals is NaN and the other is 0
    sch = WeightScheme(2, 100.0)
    pts = sample_points(sch, (1, 2, 3), count=4, seed=3)

    def fn(lam, u):
        return np.eye(4) if abs(lam[1]) < 50 else np.full((4, 4), np.nan)

    X = function_dynmat(sch, (1, 2), fn)
    rep = residual_quasi_nondyn(X, Automorphism.identity(), pts, 1e-9)
    assert not rep.passed and np.isnan(rep.max_residual)


def test_nan_operator_coefficient_fails():
    from sdreflect.shiftops import ShiftOpSum, shiftop_difference_residual

    one = ShiftOpSum.of_terms(SCH, (1,), [((0, 0), identity_dynmat(SCH, (1,)))])
    nan = ShiftOpSum.of_terms(
        SCH, (1,), [((0, 0), constant_dynmat(SCH, (1,), np.full((2, 2), np.nan)))])
    rep = shiftop_difference_residual(one, nan, PTS, 1e-8)
    assert not rep.passed and np.isnan(rep.max_residual)


def test_nan_core_fails_both_exchange_residuals():
    from sdreflect.solutions import (
        Decoration,
        DecorationFactor,
        IntertwinerSpec,
        residual_intertwiner,
        residual_reduced_exchange,
    )

    R = yangian_r(SCH, (1, 2))
    nan = np.full((2, 2), np.nan)
    g = Automorphism.constant(np.diag([2.0, 1.0]))
    decorated = IntertwinerSpec(R, R, [Decoration("conjugate", [DecorationFactor(g, "-sigma")])])
    reps = [residual_intertwiner(IntertwinerSpec(R, R), nan, PTS, 1e-9),
            residual_intertwiner(decorated, nan, PTS, 1e-9),
            residual_reduced_exchange(R, R, constant_dynmat(SCH, (1,), nan), PTS, 1e-9)]
    for rep in reps:
        assert not rep.passed
        assert np.isnan(rep.max_residual)
        np.testing.assert_array_equal(rep.worst_point[0], PTS[0][0])


def test_nan_survives_index_placement_and_shift():
    # the index tables copy a NaN into its own entries only (no NaN*0
    # smear over identity blocks); the product check must still fail
    bad = PTS[4][0]

    def fn(lam, u):
        if np.array_equal(lam, bad):
            return np.full((2, 2), np.nan)
        return np.diag([2.0 + lam[0], 1.5])

    X = function_dynmat(SCH, (1,), fn)
    rep = residual_dybe(embed(X, (1,), (1, 2)), PTS, 1e-9)
    assert not rep.passed
    assert np.isnan(rep.max_residual)
    np.testing.assert_array_equal(rep.worst_point[0], bad)


# -- batched evaluation ---------------------------------------------------------


def test_batched_residuals_equal_the_per_point_calls(monkeypatch):
    # every _collect check of the builtins' suites: the residual vector of
    # the one stacked call equals the batch-free calls point by point
    from sdreflect import consistency
    from sdreflect.cli import Rig, applicable_suites
    from sdreflect.scenarios import builtin_names, builtin_scenario

    collect = consistency._collect
    seen = []

    def checked(name, points, tol, func):
        batched = []

        def once(lam, u):
            batched.append(np.broadcast_to(func(lam, u), (len(points),)))
            return batched[-1]

        report = collect(name, points, tol, once)
        np.testing.assert_array_equal(batched[0], [func(lam, u) for lam, u in points])
        seen.append(name)
        return report

    monkeypatch.setattr(consistency, "_collect", checked)
    for builtin in builtin_names():
        rig = Rig(builtin_scenario(builtin), samples=5, seed=3)
        for suite in applicable_suites(rig)[0]:
            if suite not in ("monodromy-factor", "transfer-commute"):
                for rep in rig.run_suite(suite)[0]:
                    assert rep.passed, str(rep)
    assert {"cubic_a", "zero_weight_D", "sdre", "intertwiner_Q", "projector_compat",
            "detwist_nondynamical", "theta_period", "zwc"} <= set(seen)


def test_blocked_shiftop_residuals_equal_the_per_point_calls(monkeypatch):
    # both shift-operator checks of the chain suites: the per-point residual
    # vector of the blocked calls (as the budget sizes them, or every row of
    # a check in one call) equals that of one row per table call (one point,
    # or one family member at one shifted point), bit for bit
    from sdreflect import shiftops
    from sdreflect.cli import Rig, applicable_suites
    from sdreflect.scenarios import builtin_names, builtin_scenario

    report, seen, rows = shiftops._report, [], []
    eval_terms = shiftops.ShiftOpSum.eval_terms

    def recorded(name, points, tol, residuals):
        seen.append((name, np.asarray(residuals, dtype=float)))
        return report(name, points, tol, residuals)

    def residuals(rig, suites, budget):
        monkeypatch.setattr(shiftops, "BLOCK_BYTES", budget)
        seen.clear()
        rows.clear()
        for suite in suites:
            for rep in rig.run_suite(suite)[0]:
                assert rep.passed, str(rep)
        return list(seen)

    monkeypatch.setattr(shiftops, "_report", recorded)
    monkeypatch.setattr(shiftops.ShiftOpSum, "eval_terms",
                        lambda S, lam, u=None: rows.append(len(lam)) or eval_terms(S, lam, u))
    names = set()
    for builtin in builtin_names():
        rig = Rig(builtin_scenario(builtin), samples=5, seed=3)
        suites = [s for s in applicable_suites(rig)[0]
                  if s in ("monodromy-factor", "transfer-commute")]
        per_point = residuals(rig, suites, 1)
        assert set(rows) <= {1}
        for budget in (shiftops.BLOCK_BYTES, 2 ** 40):
            got = residuals(rig, suites, budget)
            assert [n for n, _ in got] == [n for n, _ in per_point]
            for (_, r), (_, expect) in zip(got, per_point):
                np.testing.assert_array_equal(r, expect)
        names |= {n for n, _ in per_point}
    assert {"monodromy_factorization_N1", "monodromy_factorization_N2",
            "transfer_commutation"} <= names


def test_first_nan_of_a_batch_is_the_worst_point():
    from sdreflect.consistency import residual_nondynamical

    nans = {PTS[3][0].tobytes(), PTS[9][0].tobytes()}

    def fn(lam, u):
        if lam.tobytes() in nans:
            return np.full((2, 2), np.nan)
        # a large finite residual at point 1, before the first NaN
        return np.diag([1.0 + (1e3 if np.array_equal(lam, PTS[1][0]) else 1.0) * lam[0],
                        1.0])

    rep = residual_nondynamical(function_dynmat(SCH, (1,), fn), PTS, 1e-9)
    assert not rep.passed and np.isnan(rep.max_residual)
    np.testing.assert_array_equal(rep.worst_point[0], PTS[3][0])


def test_singular_inverse_in_a_batch_names_its_point():
    from sdreflect.dyncore import PoleError

    singular = {PTS[6][0].tobytes(), PTS[11][0].tobytes()}

    def fn(lam, u):
        return np.zeros((4, 4)) if lam.tobytes() in singular else np.eye(4) * (2 + lam[0])

    Xinv = function_dynmat(SCH, (1, 2), fn).inv()
    lams = np.stack([lam for lam, _ in PTS])
    with pytest.raises(PoleError) as exc:
        Xinv.eval(lams)
    np.testing.assert_array_equal(exc.value.lam, PTS[6][0])
    with pytest.raises(PoleError) as exc:
        residual_zero_weight(Xinv, "D", PTS, 1e-9)
    np.testing.assert_array_equal(exc.value.lam, PTS[6][0])

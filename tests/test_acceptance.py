"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np

from sdreflect import (
    Automorphism,
    WeightScheme,
    constant_dynmat,
    function_dynmat,
    identity_dynmat,
    sigma_conjugate,
    yangian_r,
)
from sdreflect.cli import run as cli_run
from sdreflect.consistency import (
    StructureSet,
    rel_residual,
    residual_dybe,
    residual_gybce,
    residual_quasi_nondyn,
    residual_sdre,
    residual_theta_period,
    residual_ybce,
    residual_zero_weight,
    residual_zwc,
)
from sdreflect.exprparse import (
    EvalOverflowError,
    EvalPoleError,
    eval_ast,
    parse_expr,
)
from sdreflect.monodromy import (
    build_monodromy_direct,
    build_monodromy_factored,
    ingredient_reports,
    transfer_commutation,
)
from sdreflect.parametrize import (
    auto_dress,
    build_A,
    build_BC,
    build_D_twist,
    detwist,
    extract_R0,
)
from sdreflect.sampling import sample_points
from sdreflect.scenarios import builtin_scenario
from sdreflect.shiftops import shiftop_difference_residual
from sdreflect.solutions import (
    build_dual,
    build_K_g,
    build_K_nondyn,
    build_K_quasinondyn,
    dress,
    k_g_power,
    residual_reduced_exchange,
)

from exproracle import random_expression, reference_eval

E12 = np.zeros((2, 2))
E12[0, 1] = 1.0


def verdict(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def structure_rig(name, samples=50, seed=None):
    sc = builtin_scenario(name)
    pts = sc.sample(count=samples, seed=seed)
    b, q = sc.b_mat(), sc.q_mat()
    g = sc.g_auto()
    R = sc.R0_mat()
    B, C = build_BC(b, g, sc.scheme)
    A = build_A(R, b, g, sc.scheme)
    D = build_D_twist(R, q, sc.scheme)
    S = StructureSet(A, B, C, D, sc.scheme, g)
    return sc, S, R, b, q, pts


def test_criterion_1_yangian_baseline():
    t0 = time.monotonic()
    worst = 0.0
    for n in (2, 3):
        sch = WeightScheme(n, 1.0)
        R = yangian_r(sch, (1, 2))
        I2 = identity_dynmat(sch, (1, 2))
        S = StructureSet(R, I2, I2, R, sch)
        pts = sample_points(sch, (1, 2, 3), count=100, seed=1)
        rep = residual_ybce(S, pts, 1e-10)["ybce_a"]
        worst = max(worst, rep.max_residual)
    dt = time.monotonic() - t0
    verdict(1, worst < 1e-10 and dt < 1.0,
            f"cubic-relation residual {worst:.2e} over 100 samples, n in (2,3), {dt:.2f}s")


def test_criterion_2_parametrization_soundness():
    t0 = time.monotonic()
    sc, S, R, b, q, pts = structure_rig("diagonal_dressed", samples=50)
    worst_ybce = max(r.max_residual for r in residual_ybce(S, pts, 1e-9).values())
    worst_zw = max(
        residual_zero_weight(X, kind, pts, 1e-13).max_residual
        for X, kind in ((S.B, "B"), (S.C, "C"), (S.D, "D"))
    )
    dt = time.monotonic() - t0
    verdict(2, worst_ybce < 1e-9 and worst_zw < 1e-13 and dt < 2.0,
            f"cubic {worst_ybce:.2e}, weight {worst_zw:.2e}, 50 samples, {dt:.2f}s")


def test_criterion_3_scalar_solution_equivalence():
    sc, S, R, b, q, pts = structure_rig("diagonal_dressed")
    result = detwist(S.D, q, sc.scheme, pts, 1e-10)
    ok1 = result.nondyn_report.passed and "nondynamical" in result.verdicts
    rep = residual_sdre(S, b.inv() @ q, pts, 1e-10)
    verdict(3, ok1 and rep.passed,
            f"untwisted core variation {result.nondyn_report.max_residual:.2e}, "
            f"scalar-solution residual {rep.max_residual:.2e}")


def test_criterion_4_solution_builders():
    sc, S, R, b, q, pts = structure_rig("diagonal_dressed")
    r1 = residual_sdre(S, build_K_nondyn(sc.Q, b, q), pts, 1e-9)
    r2 = residual_sdre(S, build_K_nondyn(np.diag([1.0, 0.0]), b, q), pts, 1e-9)
    a = Automorphism.constant(np.diag([2.0, 1.0]))
    Kq = build_K_quasinondyn(E12, a, b, q)
    middle = function_dynmat(sc.scheme, (1,),
                             lambda lam, u: 2.0 ** np.sum(lam) * E12)
    r3 = residual_quasi_nondyn(middle, a, pts, 1e-10, name="quasi_condition")
    r4 = residual_sdre(S, Kq, pts, 1e-9)
    ok = all(r.passed for r in (r1, r2, r3, r4))
    verdict(4, ok,
            f"constant core {r1.max_residual:.2e}, rank-one core {r2.max_residual:.2e}, "
            f"quasi condition {r3.max_residual:.2e}, dressed reflection {r4.max_residual:.2e}")


def test_criterion_5_theta_machinery():
    sc, S, R, b, q, pts = structure_rig("diagonal_dressed")
    K = build_K_nondyn(sc.Q, b, q)
    kappa = b @ K @ q.inv()
    r1 = residual_theta_period(kappa, pts, 1e-12)
    r2 = residual_reduced_exchange(R, R, kappa, pts, 1e-10)
    a = Automorphism.constant(np.diag([2.0, 1.0]))
    Kq = build_K_quasinondyn(E12, a, b, q)
    r3 = residual_theta_period(b @ Kq @ q.inv(), pts, 1e-12)
    r4 = residual_reduced_exchange(R, R, b @ Kq @ q.inv(), pts, 1e-10)
    verdict(5, all(r.passed for r in (r1, r2, r3, r4)),
            f"factorization condition {max(r1.max_residual, r3.max_residual):.2e}, "
            f"reduced exchange {max(r2.max_residual, r4.max_residual):.2e}")


def _monodromy_pieces(name):
    sc, S, R, b, q, pts = structure_rig(name, samples=10)
    K = build_K_nondyn(sc.Q, b, q)
    chi = build_dual(q, b, sc.g_auto(), sc.Q_L)
    return sc, S, R, b, q, K, chi, pts


def test_criterion_6_monodromy_factorization():
    t0 = time.monotonic()
    worst = 0.0
    for name in ("trivial_yangian", "diagonal_dressed"):
        sc, S, R, b, q, K, chi, pts = _monodromy_pieces(name)
        for N in (1, 2):
            uq = sc.quantum_values(N)
            u0 = 0.52 + 0.21j
            Td = build_monodromy_direct(S, K, chi, N, uq, u0)
            Tf = build_monodromy_factored(sc.scheme, R, b, q, sc.Q, chi, N, uq, u0)
            rep = shiftop_difference_residual(Td, Tf, pts[:6], 1e-8)
            worst = max(worst, rep.max_residual)
    dt = time.monotonic() - t0
    verdict(6, worst < 1e-8 and dt < 10.0,
            f"per-shift coefficient residual {worst:.2e}, N in (1,2), {dt:.2f}s")


def test_criterion_7_transfer_commutation():
    t0 = time.monotonic()
    u_list = [0.52 + 0.21j, -0.63 + 0.77j, 2.31 - 0.52j]
    worst = 0.0
    for name in ("trivial_yangian", "diagonal_dressed"):
        sc, S, R, b, q, K, chi, pts = _monodromy_pieces(name)
        kappa = constant_dynmat(b.scheme, b.legs, sc.Q)
        gate = ingredient_reports(S, K, kappa, pts[:8], 1e-9)
        assert all(r.passed for r in gate.values()), gate
        for N in (1, 2):
            uq = sc.quantum_values(N)
            rep = transfer_commutation(build_monodromy_direct(S, K, chi, N, uq, None), u_list,
                                       pts[:8], tol=1e-8)
            assert rep.passed, str(rep)
            worst = max(worst, rep.max_residual)
    # deliberately broken diagonal weight condition: the gate must refuse
    # and point at the twisted-coefficient weight hypothesis
    sc, S, R, b, q, K, chi, pts = _monodromy_pieces("diagonal_dressed")
    bad = S.D + function_dynmat(sc.scheme, (1, 2),
                                lambda lam, u: 0.05 * np.kron(E12, np.eye(2)))
    Sbad = StructureSet(S.A, S.B, S.C, bad, sc.scheme)
    named = not ingredient_reports(Sbad, K, None, pts[:6], 1e-9)["twist_zero_weight_D"].passed
    dt = time.monotonic() - t0
    verdict(7, worst < 1e-8 and named and dt < 15.0,
            f"commutator residual {worst:.2e}; broken variant names "
            f"twist_zero_weight_D; {dt:.2f}s")


def test_criterion_8_automorphism_suite():
    # constant automorphism
    sc, Sg, R, b, q, pts = structure_rig("constant_g")
    g = sc.g_auto()
    worst_g = max(r.max_residual for r in residual_gybce(Sg, pts, 1e-9).values())
    K4a = build_K_g(E12, g, b, q, "prop4a")
    r4a = residual_sdre(Sg, K4a, pts, 1e-9)
    # spectral shift: the dressed coefficient carries shifted arguments
    sc2, Ss, R2, b2, q2, pts2 = structure_rig("spectral_shift_g")
    reps = residual_gybce(Ss, pts2, 1e-9)
    worst_s = max(reps[f"gybce_{x}"].max_residual for x in "abc")
    # integer automorphism powers under the verified weight compatibility
    zwc = residual_zwc(Sg, pts, 1e-9)
    k_scal = auto_dress(b, g).inv() @ q
    worst_p = 0.0
    for p in (-2, -1, 0, 1, 2):
        Kp = k_g_power(k_scal, g, p, Sg, pts)
        worst_p = max(worst_p, residual_sdre(Sg, Kp, pts, 1e-9).max_residual)
    ok = worst_g < 1e-9 and r4a.passed and worst_s < 1e-9 and zwc.passed and worst_p < 1e-9
    verdict(8, ok,
            f"extended cubic {worst_g:.2e}, dressed-core reflection "
            f"{r4a.max_residual:.2e}, shifted-argument relations {worst_s:.2e}, "
            f"powers {worst_p:.2e}")


def test_criterion_9_quasi_detwist():
    f = Automorphism.constant(np.diag([2.0, 1.0]))
    sch = WeightScheme(2, 1.0)
    pts = sample_points(sch, (1, 2, 3), count=30, seed=9)
    R0 = yangian_r(sch, (1, 2))
    Rt = sigma_conjugate(R0, f, (1, 2), sign=-1)
    r1 = residual_quasi_nondyn(Rt, f, pts, 1e-10)
    R0x, reports = extract_R0(Rt, f, pts, tol=1e-10, ybe_tol=1e-9)
    lam, u = pts[0]
    rt = rel_residual(R0x.eval(lam, u), R0.eval(lam, u))
    r3 = reports["shifted_ybe"]
    verdict(9, r1.passed and rt < 1e-11 and r3.passed,
            f"quasi-non-dynamicity {r1.max_residual:.2e}, round trip {rt:.2e}, "
            f"shift-modified cubic {r3.max_residual:.2e}")


def test_criterion_10_dressing():
    sc, S, R, b, q, pts = structure_rig("diagonal_dressed")
    Q = sc.Q
    kd = dress(b.inv() @ q, Q, b, variant="prop3")
    r1 = residual_sdre(S, kd, pts, 1e-9)
    direct = build_K_nondyn(Q, b, q)
    worst_eq = max(
        rel_residual(kd.eval(lam), direct.eval(lam)) for lam, _ in pts[:20]
    )
    scg, Sg, Rg, bg, qg, ptsg = structure_rig("constant_g")
    g = scg.g_auto()
    k_scal = auto_dress(bg, g).inv() @ qg
    kd5 = dress(k_scal, E12, bg, g=g, variant="prop5")
    r2 = residual_sdre(Sg, kd5, ptsg, 1e-9)
    verdict(10, r1.passed and worst_eq < 1e-12 and r2.passed,
            f"left-dressing reflection {r1.max_residual:.2e}, builder match "
            f"{worst_eq:.2e}, extended dressing {r2.max_residual:.2e}")


def test_criterion_11_parser_and_determinism(tmp_path):
    rng = np.random.default_rng(42)
    lam = np.array([0.3 + 0.2j, -0.7 + 0.1j])
    u = {1: 1.4 - 0.3j, 2: -0.8 + 0.9j}
    worst = 0.0
    for _ in range(1000):
        src = random_expression(rng)
        try:
            v1 = eval_ast(parse_expr(src), lam, u, 1.0)
            v2 = reference_eval(src, lam, u, 1.0)
        except (EvalPoleError, EvalOverflowError):
            continue
        worst = max(worst, abs(v1 - v2) / max(abs(v1), abs(v2), 1.0))
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    args = ["--builtin", "trivial_yangian", "--suite", "ybce",
            "--samples", "6", "--seed", "3"]
    c1 = cli_run(args + ["--report", str(r1)])
    c2 = cli_run(args + ["--report", str(r2)])
    identical = r1.read_bytes() == r2.read_bytes()
    code_fail = cli_run(["--builtin", "trivial_yangian", "--suite", "ybce",
                         "--samples", "4", "--seed", "3", "--tol", "1e-20"])
    code_usage = cli_run(["--scenario", str(tmp_path / "missing.json")])
    ok = (worst < 1e-14 and identical and c1 == 0 and c2 == 0
          and code_fail == 1 and code_usage == 2)
    verdict(11, ok,
            f"evaluator agreement {worst:.2e} over 1000 expressions, "
            f"byte-identical reports {identical}, exit codes (0,1,2) verified")


def test_criterion_12_perturbation_sensitivity():
    sch = WeightScheme(2, 1.0)
    pts = sample_points(sch, (1, 2, 3), count=15, seed=21)
    rng = np.random.default_rng(12)
    c = rng.normal(size=(2, 2)) * 0.12
    d = 2.5 + rng.normal(size=2) * 0.2
    b = function_dynmat(sch, (1,), lambda lam, u: np.diag(d + c @ lam))
    q = function_dynmat(sch, (1,),
                        lambda lam, u: np.diag(d[::-1] + (0.5 * c)[::-1] @ lam))
    R = yangian_r(sch, (1, 2))
    ident = Automorphism.identity()
    B, C = build_BC(b, ident, sch)
    A = build_A(R, b, ident, sch)
    D = build_D_twist(R, q, sch)
    S = StructureSet(A, B, C, D, sch)
    K = build_K_nondyn(np.eye(2), b, q)
    zw_noise = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])) \
        + np.kron(E12, E12.T)
    raising = np.kron(E12, np.eye(2))

    def perturbed(X, noise, eps):
        return X + constant_dynmat(sch, X.legs, eps * noise)

    checkers = {
        "zero_weight": lambda eps: residual_zero_weight(
            perturbed(S.D, raising, eps), "D", pts, 1e-9).max_residual,
        "cubic_d": lambda eps: residual_ybce(
            StructureSet(S.A, S.B, S.C, perturbed(S.D, zw_noise, eps), sch),
            pts, 1e-9)["ybce_d"].max_residual,
        "dynamical_cubic": lambda eps: residual_dybe(
            perturbed(S.D, zw_noise, eps), pts, 1e-9).max_residual,
        "reflection": lambda eps: residual_sdre(
            S, perturbed(K, E12, eps), pts, 1e-9).max_residual,
        "quasi_nondyn": lambda eps: residual_quasi_nondyn(
            function_dynmat(sch, (1, 2),
                            lambda lam, u: np.eye(4) + eps * lam[0] * np.kron(E12, E12)),
            ident, pts, 1e-9).max_residual,
        "theta_period": lambda eps: residual_theta_period(
            function_dynmat(sch, (1,),
                            lambda lam, u: np.eye(2) + eps * lam[0] * E12),
            pts, 1e-9).max_residual,
    }
    ratios = {}
    ok = True
    for name, fn in checkers.items():
        r = [fn(eps) for eps in (1e-6, 1e-5, 1e-4)]
        q1 = r[1] / r[0]
        q2 = r[2] / r[1]
        ratios[name] = (q1, q2)
        ok = ok and 5 <= q1 <= 20 and 5 <= q2 <= 20
    detail = ", ".join(f"{k}:{v[0]:.1f}/{v[1]:.1f}" for k, v in ratios.items())
    verdict(12, ok, f"consecutive-level ratios {detail}")

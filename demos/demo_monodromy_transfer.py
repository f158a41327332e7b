"""Walkthrough: chain operators and the commuting traced family.

The site-by-site operator equals its factorized form (a bare chain of
R-matrices conjugated by a quantum-leg operator) coefficient by
coefficient, and the traced operators at different auxiliary values
commute as shift-operator sums: the working definition of an integrable
family here.  The family is checked in two steps: ``ingredient_reports``
checks the hypotheses (weight conditions, cubic relations, the
reflection equation, the factorization condition), and only if all hold
``transfer_commutation`` traces the chains and reports the worst
pairwise commutator.
"""

from sdreflect.consistency import StructureSet
from sdreflect.monodromy import (
    build_monodromy_direct,
    build_monodromy_factored,
    ingredient_reports,
    transfer_commutation,
)
from sdreflect.parametrize import build_A, build_BC, build_D_twist
from sdreflect.scenarios import builtin_scenario
from sdreflect.shiftops import shiftop_difference_residual
from sdreflect.dyncore import constant_dynmat
from sdreflect.solutions import build_dual, build_K_nondyn

for name in ("trivial_yangian", "diagonal_dressed"):
    scenario = builtin_scenario(name)
    scheme = scenario.scheme
    b, q = scenario.b_mat(), scenario.q_mat()
    g = scenario.g_auto()
    R = scenario.R0_mat()
    points = scenario.sample(count=8)

    B, C = build_BC(b, g, scheme)
    S = StructureSet(build_A(R, b, g, scheme), B, C,
                     build_D_twist(R, q, scheme), scheme, g)
    K = build_K_nondyn(scenario.Q, b, q)
    chi = build_dual(q, b, g, scenario.Q_L)

    print(f"--- {name} ---")
    for N in (1, 2):
        uq = scenario.quantum_values(N)
        u0 = 0.52 + 0.21j
        direct = build_monodromy_direct(S, K, chi, N, uq, u0)
        factored = build_monodromy_factored(scheme, R, b, q, scenario.Q, chi, N, uq, u0)
        rep = shiftop_difference_residual(direct, factored, points[:4], 1e-8,
                                          name=f"factorization_N{N}")
        print(f"  {rep}")
        print(f"  operator has {len(direct.terms)} shift terms of dimension "
              f"{scheme.rank ** len(direct.legs)}")

    gate = ingredient_reports(S, K, constant_dynmat(b.scheme, b.legs, scenario.Q),
                              points[:6], 1e-9)
    failed = [name for name, rep in gate.items() if not rep.passed]
    print(f"  ingredients hold: {not failed} ({len(gate)} checks)")
    uq = scenario.quantum_values(2)
    rep = transfer_commutation(
        [build_monodromy_direct(S, K, chi, 2, uq, u0)
         for u0 in (0.52 + 0.21j, -0.63 + 0.77j, 2.31 - 0.52j)],
        points[:6],
    )
    print(f"  commuting family certified: {not failed and rep.passed}")
    print(f"  {rep}")

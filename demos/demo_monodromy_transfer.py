"""Walkthrough: chain operators and the commuting traced family.

The site-by-site operator equals its factorized form (a bare chain of
R-matrices conjugated by a quantum-leg operator) coefficient by
coefficient, and the traced operators at different auxiliary values
commute as shift-operator sums: the working definition of an integrable
family here.  The rig's ``transfer-commute`` suite checks the family in
two steps: its gate runs the rows of the hypotheses' suites (weight
conditions, cubic relations, the reflection equation, the factorization
condition), and only if all hold ``transfer_commutation`` traces one
chain per length, built with its auxiliary value left free, and reports
the worst pairwise commutator of its members.
"""

from sdreflect.cli import Rig
from sdreflect.consistency import StructureSet
from sdreflect.monodromy import build_monodromy_direct, build_monodromy_factored
from sdreflect.parametrize import build_A, build_BC, build_D_twist
from sdreflect.scenarios import builtin_scenario
from sdreflect.shiftops import shiftop_difference_residual
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

    reports, _ = Rig(scenario, samples=6).run_suite("transfer-commute")
    print(f"  commuting family certified: {all(rep.passed for rep in reports)}")
    for rep in reports:
        print(f"  {rep}")

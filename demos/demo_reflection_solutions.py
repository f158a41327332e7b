"""Walkthrough: building reflection solutions and their certificates.

All solution families share one shape: dressing on the left, a
non-dynamical (possibly sigma-conjugated) core in the middle, the twist
on the right.  Every builder output is certified against the exchange
relation, and the twisted core passes the factorization condition in
the summed variable.
"""

import numpy as np

from sdreflect import Automorphism
from sdreflect.consistency import StructureSet, residual_sdre, residual_theta_period
from sdreflect.parametrize import build_A, build_BC, build_D_twist
from sdreflect.scenarios import builtin_scenario
from sdreflect.solutions import (
    build_K_nondyn,
    build_K_quasinondyn,
    dress,
    residual_reduced_exchange,
)

scenario = builtin_scenario("diagonal_dressed")
scheme = scenario.scheme
b, q = scenario.b_mat(), scenario.q_mat()
R = scenario.R0_mat()
points = scenario.sample(count=40)

ident = Automorphism.identity()
B, C = build_BC(b, ident, scheme)
S = StructureSet(build_A(R, b, ident, scheme), B, C,
                 build_D_twist(R, q, scheme), scheme)

print("constant-core solutions K = b^-1 Q q:")
for label, Q in (("invertible Q", scenario.Q), ("rank-one Q", np.diag([1.0, 0.0]))):
    K = build_K_nondyn(Q, b, q)
    print(f"  {label}: {residual_sdre(S, K, points, 1e-9)}")

print("\nsigma-dressed core (a = diag(2,1), nilpotent Q):")
a = Automorphism.constant(np.diag([2.0, 1.0]))
e12 = np.zeros((2, 2)); e12[0, 1] = 1.0
Kq = build_K_quasinondyn(e12, a, b, q, check_points=points[:10])
print(f"  {residual_sdre(S, Kq, points, 1e-9)}")
lam = np.array([0.4 + 0.2j, -0.1])
sig = np.sum(lam)
middle = np.linalg.inv(b.eval(lam)) @ Kq.eval(lam) @ np.linalg.inv(q.eval(lam))
print(f"  middle factor equals 2^sigma e12: "
      f"{np.allclose(middle, 2.0 ** sig * e12)}")

print("\nfactorization condition and reduced exchange for kappa = b K q^-1:")
K = build_K_nondyn(scenario.Q, b, q)
kappa = b @ K @ q.inv()
print(f"  {residual_theta_period(kappa, points, 1e-12)}")
print(f"  {residual_reduced_exchange(R, R, kappa, points, 1e-10)}")

print("\ndressing a known solution by a constant exchange core:")
kd = dress(b.inv() @ q, scenario.Q, b, variant="prop3")
print(f"  {residual_sdre(S, kd, points, 1e-9)}")
direct = build_K_nondyn(scenario.Q, b, q)
gap = max(np.linalg.norm(kd.eval(l) - direct.eval(l)) for l, _ in points[:10])
print(f"  dressed solution equals the direct builder entrywise: gap {gap:.2e}")

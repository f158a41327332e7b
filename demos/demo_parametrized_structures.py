"""Walkthrough: parametrizing the four structure matrices and undoing
the twist.

A dynamical conjugation b and a twist q turn one non-dynamical R-matrix
into a full coefficient set (A, B, C, D).  The set passes the cubic
consistency relations, and untwisting D with the same q returns a
lambda-independent core, while a wrong twist returns 'neither'.
"""

from sdreflect import Automorphism
from sdreflect.consistency import residual_sdre, residual_ybce, residual_zero_weight, StructureSet
from sdreflect.parametrize import build_A, build_BC, build_D_twist, detwist
from sdreflect.scenarios import builtin_scenario

scenario = builtin_scenario("diagonal_dressed")
scheme = scenario.scheme
b, q = scenario.b_mat(), scenario.q_mat()
R = scenario.R0_mat()
points = scenario.sample(count=40)

ident = Automorphism.identity()
B, C = build_BC(b, ident, scheme)
A = build_A(R, b, ident, scheme)
D = build_D_twist(R, q, scheme)
S = StructureSet(A, B, C, D, scheme)

print("coefficient set from (R, b, q):")
for rep in residual_ybce(S, points, 1e-9).values():
    print(f"  {rep}")
for X, kind in ((B, "B"), (C, "C"), (D, "D")):
    print(f"  {residual_zero_weight(X, kind, points, 1e-13)}")

print("\nscalar solution k = b^-1 q:")
print(f"  {residual_sdre(S, b.inv() @ q, points, 1e-10)}")

print("\nuntwisting D:")
good = detwist(D, q, scheme, points, 1e-10)
print(f"  with the true twist: verdicts = {good.verdicts}")
wrong = builtin_scenario("diagonal_dressed").b_mat()  # not the twist
bad = detwist(D, wrong, scheme, points, 1e-9)
print(f"  with a wrong twist:  verdicts = {bad.verdicts}")

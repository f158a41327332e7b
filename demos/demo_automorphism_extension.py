"""Walkthrough: the automorphism-extended consistency relations.

An auxiliary-space automorphism g extends the cubic relations by
adjoint insertions.  Two instances: a constant diagonal matrix (with a
non-diagonal b, so the insertions act non-trivially) and a spectral
shift u -> u + 1 (with spectrally dependent b, realizing the
shifted-argument coefficient).  Integer powers K g^p stay solutions
once the weight-compatibility residual passes.
"""

import numpy as np

from sdreflect.consistency import CUBIC, residual_cubic, residual_sdre, residual_zwc, StructureSet
from sdreflect.parametrize import auto_dress, build_A, build_BC, build_D_twist
from sdreflect.scenarios import builtin_scenario
from sdreflect.solutions import build_K_g, k_g_power

for name in ("constant_g", "spectral_shift_g"):
    scenario = builtin_scenario(name)
    scheme = scenario.scheme
    b, q = scenario.b_mat(), scenario.q_mat()
    g = scenario.g_auto()
    R = scenario.R0_mat()
    points = scenario.sample(count=30)

    B, C = build_BC(b, g, scheme)
    S = StructureSet(build_A(R, b, g, scheme), B, C,
                     build_D_twist(R, q, scheme), scheme, g)
    print(f"--- {name} ---")
    for c in CUBIC:
        print(f"  {residual_cubic(S, c, points, 1e-9, f'gybce_{c}')}")
    print(f"  {residual_zwc(S, points, 1e-9)}")

    scalar = auto_dress(b, g).inv() @ q
    print(f"  {residual_sdre(S, scalar, points, 1e-9, name='sdre_scalar')}")
    for p in (-2, -1, 1, 2):
        Kp = k_g_power(scalar, g, p, S, points)
        rep = residual_sdre(S, Kp, points, 1e-9, name=f"sdre_power_{p:+d}")
        print(f"  {rep}")

# a sigma-dressed nilpotent core for the constant instance
scenario = builtin_scenario("constant_g")
b, q, g = scenario.b_mat(), scenario.q_mat(), scenario.g_auto()
scheme = scenario.scheme
points = scenario.sample(count=30)
B, C = build_BC(b, g, scheme)
S = StructureSet(build_A(scenario.R0_mat(), b, g, scheme), B, C,
                 build_D_twist(scenario.R0_mat(), q, scheme), scheme, g)
e12 = np.zeros((2, 2)); e12[0, 1] = 1.0
K = build_K_g(e12, g, b, q, "prop4a")
print("\nsigma-dressed nilpotent core under the constant automorphism:")
print(f"  {residual_sdre(S, K, points, 1e-9, name='sdre_dressed_core')}")

"""Walkthrough: the rational R-matrix and its basic certificates.

Builds R(u1, u2) = 1 + P/(u1 - u2) and checks the cubic exchange
relation and the weight structure by sampled residuals.
"""

import numpy as np

from sdreflect import WeightScheme, identity_dynmat, yangian_r
from sdreflect.consistency import CUBIC, StructureSet, residual_cubic, residual_zero_weight
from sdreflect.sampling import sample_points

for n in (2, 3):
    scheme = WeightScheme(rank=n, gamma=1.0)
    R = yangian_r(scheme, (1, 2))
    one = identity_dynmat(scheme, (1, 2))
    points = sample_points(scheme, (1, 2, 3), count=100, seed=1)

    print(f"--- rank {n} ---")
    m = R.eval(np.zeros(n), {1: 2.0, 2: 0.0})
    print(f"R at spectral gap 2 is 1 + P/2; corner entry = {m[0, 0].real}")

    # the trivial structure set (A = D = R, B = C = 1) passes all four
    # cubic relations
    S = StructureSet(R, one, one, R, scheme)
    for c in CUBIC:
        print(f"  {residual_cubic(S, c, points, 1e-10, f'ybce_{c}')}")

    # R is zero-weight in the diagonal sense: it commutes with every
    # h^(1) + h^(2), so its only entries are weight (e_ii x e_jj) and
    # exchange (e_ij x e_ji) slots
    rep = residual_zero_weight(R, "D", points, 1e-13)
    print(f"  {rep}")

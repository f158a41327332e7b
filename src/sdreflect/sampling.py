"""Pole-aware rejection sampler for dynamical and spectral points."""

from __future__ import annotations

import numpy as np

from .dyncore import PoleError, WeightScheme


class RetryCapError(RuntimeError):
    """Rejection sampling exhausted its retry budget (over-constrained)."""


def _draw_separated(rng, count, box, min_sep, cap_left):
    """Draw ``count`` complex numbers in the box with pairwise separation."""
    vals = []
    tries = 0
    while len(vals) < count:
        if tries > cap_left:
            raise RetryCapError(
                "could not satisfy the separation constraint; "
                "box too small for the requested minimum separation?"
            )
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        tries += 1
        if all(abs(z - w) >= min_sep for w in vals):
            vals.append(z)
    return vals, tries


def sample_points(
    scheme: WeightScheme,
    spectral_legs=(),
    count=50,
    seed=0,
    box=2.0,
    min_sep=0.1,
    guards=(),
    retry_cap=10_000,
):
    """Deterministic list of (lambda, u) samples.

    lambda coordinates and spectral values are drawn from the complex box
    [-box, box] x [-box, box]i with pairwise separation ``min_sep``
    within each group; ``guards`` are predicates (lam, u) -> bool marking
    points to reject (pole predicates plug in here).  Raises
    :class:`RetryCapError` when the constraints cannot be met.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    spectral_legs = tuple(spectral_legs)
    points = []
    budget = retry_cap
    while len(points) < count:
        if budget <= 0:
            raise RetryCapError("sampler retry cap exceeded (over-constrained poles?)")
        try:
            lam_vals, t1 = _draw_separated(rng, scheme.rank, box, min_sep, budget)
            budget -= t1
            u_vals, t2 = _draw_separated(rng, len(spectral_legs), box, min_sep, budget)
            budget -= t2
        except RetryCapError:
            raise RetryCapError("sampler retry cap exceeded (over-constrained poles?)")
        lam = np.array(lam_vals, dtype=complex)
        u = dict(zip(spectral_legs, u_vals))
        if any(g(lam, u) for g in guards):
            budget -= 1
            continue
        points.append((lam, u))
    return points


def invertibility_guard(dynmats, floor=0.05, probe_shifts=()):
    """Guard rejecting points where any matrix gets close to singular.

    ``probe_shifts`` is a list of lambda offset vectors; the matrices are
    probed at the shifted points as well, so that dynamical shifts
    performed downstream stay away from singularities.  Each matrix is
    evaluated once over the batch of the point and its shifts.
    """

    def guard(lam, u):
        at = lam + np.array([np.zeros_like(lam)] + list(probe_shifts), dtype=complex)
        for X in dynmats:
            uvals = {l: u[l] for l in X.spectral_legs if l in u}
            try:
                m = X.eval(at, uvals)
            except (PoleError, np.linalg.LinAlgError, ZeroDivisionError,
                    OverflowError):
                # a pole, a singular inverse, or an entry-expression
                # pole or overflow; anything else is a fault and raises
                return True
            if np.any(np.linalg.svd(m, compute_uv=False)[..., -1] < floor):
                return True
        return False

    return guard

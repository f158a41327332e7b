"""Pole-aware rejection sampler for dynamical and spectral points."""

from __future__ import annotations

import math

import numpy as np

from .dyncore import PoleError, WeightScheme


class RetryCapError(RuntimeError):
    """Rejection sampling exhausted its retry budget (over-constrained)."""


def _coordinates(rng, box, block):
    """Complex numbers in the box [-box, box] x [-box, box]i: the values
    of the scalar draws ``complex(rng.uniform(-box, box), rng.uniform(-box,
    box))`` in order, drawn ``block`` at a time."""
    while True:
        yield from rng.uniform(-box, box, size=2 * block).view(complex).tolist()


def _draw_separated(coords, count, min_sep, cap_left):
    """``count`` numbers from ``coords`` with pairwise separation and the
    tries they took, or (None, inf) once the tries exceed ``cap_left``."""
    vals = []
    tries = 0
    while len(vals) < count:
        if tries > cap_left:
            return None, math.inf
        z = next(coords)
        tries += 1
        if all(abs(z - w) >= min_sep for w in vals):
            vals.append(z)
    return vals, tries


def _verdicts(guards, cands, legs):
    """Verdicts (True: rejected) of ``cands`` up to the first one a guard
    rejects, found by bisection: one guard call answers for a stack."""

    def rejects(lo, hi):
        lam = np.array([c[0] for c in cands[lo:hi]], dtype=complex)
        u = {l: np.array([c[1][i] for c in cands[lo:hi]]) for i, l in enumerate(legs)}
        return any(g(lam, u) for g in guards)

    lo, hi = 0, len(cands)
    if not rejects(lo, hi):
        return [False] * hi
    while hi - lo > 1:  # cands[:lo] are accepted, cands[lo:hi] hold a rejected one
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if rejects(lo, mid) else (mid, hi)
    return [False] * lo + [True]


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
    within each group.  ``guards`` are predicates (lam, u) -> bool over a
    stack of k candidates (``lam`` (k, n), ``u`` each spectral leg's k
    values), True to reject one of them; pole predicates plug in here.

    A candidate costs the tries its draws took, and one more if it is
    rejected, from the budget ``retry_cap``, charged in candidate order;
    :class:`RetryCapError` is raised when it is spent.  Candidates are
    drawn ahead in one RNG order and guarded in blocks (doubled after no
    rejection, else cut to the run up to the rejection), which leaves
    the samples and the error those of guarding one at a time.  The
    coordinates come from the generator in blocks, as many as ``count``
    candidates take without a retry; the generator is private to the
    call, so what it draws ahead and leaves unused changes nothing.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    spectral_legs = tuple(spectral_legs)
    coords = _coordinates(np.random.default_rng(seed), box,
                          count * (scheme.rank + len(spectral_legs)))
    exceeded = RetryCapError("sampler retry cap exceeded (over-constrained poles?)")
    points, drawn, verdicts, budget, block = [], [], [], retry_cap, count
    pending = 0  # the tries of the candidates in drawn
    while len(points) < count:
        if budget <= 0:
            raise exceeded
        # each draw under the budget left if no candidate before it is
        # rejected; one that runs out even so takes infinite tries
        ahead = budget - pending
        while len(points) + len(drawn) < count and ahead > 0:
            lam, t1 = _draw_separated(coords, scheme.rank, min_sep, ahead)
            u, t2 = _draw_separated(coords, len(spectral_legs), min_sep, ahead - t1)
            drawn.append((lam, u, t1 + t2))
            ahead -= t1 + t2
            pending += t1 + t2
        lam, u, tries = drawn.pop(0)
        # a draw runs out when its tries exceed the budget by more than one
        if tries - 1 > budget:
            raise exceeded
        budget -= tries
        pending -= tries
        if not verdicts:
            verdicts = _verdicts(guards, [(lam, u)] + [c for c in drawn[:block - 1]
                                                      if c[2] < math.inf], spectral_legs)
            block = len(verdicts) if verdicts[-1] else 2 * block
        if verdicts.pop(0):
            budget -= 1
            continue
        points.append((np.array(lam, dtype=complex), dict(zip(spectral_legs, u))))
    return points


def _clears_floor(m, floor):
    """True when the stack ``m`` (..., d, d) is certified to pass the
    floor test ``np.linalg.svd(m)[..., -1] >= floor``; False says nothing.

    The certificate is a Cholesky factorization of M^H M - s I with
    s = floor**2 * (1 + 1e-6) + 16 (d + 2) eps |M|_F**2.  Forming and
    factoring it errs by about (d + 2) eps |M|_F**2, well below the last
    term, so where it succeeds the smallest singular value of M exceeds
    floor by a relative 5e-7 and by more than the SVD's own backward
    error.  ``m`` is finite; a Gram matrix that overflows leaves a factor
    that is not finite.
    """
    d = m.shape[-1]
    diag = np.arange(d)
    with np.errstate(all="ignore"):
        mc = m.conj()
        # M^H M by rows: several times faster than matmul on stacks of d x d
        gram = sum(mc[..., k, :, None] * m[..., k, None, :] for k in range(d))
        fro2 = gram[..., diag, diag].real.sum(axis=-1)
        gram[..., diag, diag] -= (floor ** 2 * (1 + 1e-6)
                                  + 16 * (d + 2) * np.finfo(float).eps * fro2)[..., None]
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return False
        return bool(np.isfinite(factor).all())


def invertibility_guard(dynmats, floor=0.05, probe_shifts=()):
    """Guard rejecting points where any matrix gets close to singular.

    The guard takes a stack of candidates, ``lam`` of shape (..., n) and
    spectral values of shape (...), a point being a stack of one, and
    returns one bool: True when any matrix fails at any candidate, or at
    a candidate shifted by one of ``probe_shifts`` (lambda offsets, so
    that dynamical shifts downstream stay away from singularities).
    A matrix fails where it meets a pole or an overflow, where a value
    is not finite, or where its smallest singular value is below
    ``floor``.  Each matrix is evaluated once over the stack of
    candidates and shifts; its singular values are computed only when a
    Cholesky certificate does not clear the whole stack.
    """

    def guard(lam, u):
        lam = np.asarray(lam, dtype=complex)
        at = lam[..., None, :] + np.array([np.zeros(lam.shape[-1])] + list(probe_shifts),
                                          dtype=complex)
        for X in dynmats:
            uvals = {l: np.asarray(u[l])[..., None] for l in X.spectral_legs if l in u}
            try:
                m = X.eval(at, uvals)
            except (PoleError, np.linalg.LinAlgError, ZeroDivisionError,
                    OverflowError):
                # a pole, a singular inverse, or an entry-expression
                # pole or overflow; anything else is a fault and raises
                return True
            if not np.isfinite(m).all():
                return True  # e.g. inf * 0 in an entry expression
            if _clears_floor(m, floor):
                continue
            if np.any(np.linalg.svd(m, compute_uv=False)[..., -1] < floor):
                return True
        return False

    return guard

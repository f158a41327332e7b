import numpy as np
import pytest

from sdreflect import WeightScheme, constant_dynmat, function_dynmat, identity_dynmat
from sdreflect.dyncore import LegError, PoleError, SpectralValueError
from sdreflect.shiftops import (
    ShiftOpSum,
    shiftop_commutators,
    shiftop_difference_residual,
)

SCH = WeightScheme(2, 1.0)
RNG = np.random.default_rng(55)
LEGS = (1,)
PTS = [(RNG.uniform(-1, 1, 2) + 1j * RNG.uniform(-1, 1, 2), {}) for _ in range(5)]


def commutator(S1, S2, points, tol):
    """The report of S1 S2 - S2 S1 alone: the commutator of the family
    whose member u = 0 (the spectral value of leg 1) is S1 and u = 1 is
    S2, each with the other's terms as zeros."""
    keys = dict.fromkeys(S1.terms + S2.terms)

    def table(lam, u):
        first = (u[1] == 0)[:, None, None]
        t1, t2 = S1.eval_terms(lam), S2.eval_terms(lam)
        return {m: np.where(first, t1.get(m, 0), t2.get(m, 0)) for m in keys}

    family = ShiftOpSum(SCH, LEGS, keys, table, LEGS)
    return shiftop_commutators(family, [{1: 0.0}, {1: 1.0}], points, tol)[0]


def term(shift, fn):
    return ShiftOpSum.of_terms(SCH, LEGS, [(shift, function_dynmat(SCH, LEGS, fn))])


def test_identity_element():
    S = term((1, 0), lambda lam, u: np.diag([lam[0], lam[1] ** 2]))
    one = ShiftOpSum.of_terms(SCH, LEGS, [((0, 0), identity_dynmat(SCH, LEGS))])
    out = one.compose(S)
    assert set(out.terms) == {(1, 0)}
    lam = PTS[0][0]
    np.testing.assert_allclose(out.eval_terms(lam)[(1, 0)], S.eval_terms(lam)[(1, 0)])


def test_composition_shifts_argument():
    # (lam_1 . 1, e1) twice gives coefficient lam_1 (lam_1 + gamma) at shift 2 e1
    S = term((1, 0), lambda lam, u: lam[0] * np.eye(2, dtype=complex))
    out = S.compose(S)
    assert set(out.terms) == {(2, 0)}
    val = out.eval_terms(np.array([2.0, 0.0]))[(2, 0)]
    np.testing.assert_allclose(val, 6.0 * np.eye(2))


def test_associativity():
    sums = []
    for _ in range(3):
        shift = tuple(int(s) for s in RNG.integers(-1, 2, size=2))
        m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        c = RNG.normal(size=2)
        sums.append(term(shift, lambda lam, u, m=m, c=c: m * np.exp(c @ lam)))
    a, b, c = sums
    left = (a.compose(b)).compose(c)
    right = a.compose(b.compose(c))
    rep = shiftop_difference_residual(left, right, PTS, 1e-12)
    assert rep.passed


def test_terms_merge_by_shift():
    m1 = constant_dynmat(SCH, LEGS, np.diag([1.0, 2.0]))
    m2 = constant_dynmat(SCH, LEGS, np.diag([3.0, 4.0]))
    S = ShiftOpSum.of_terms(SCH, LEGS, [((0, 1), m1), ((0, 1), m2)])
    assert len(S.terms) == 1
    np.testing.assert_allclose(S.eval_terms(PTS[0][0])[(0, 1)], np.diag([4.0, 6.0]))


def test_weight_shift_expansion():
    W = ShiftOpSum.weight_shifted(identity_dynmat(SCH, (0, 1)), 0)
    assert set(W.terms) == {(1, 0), (0, 1)}
    lam = PTS[0][0]
    np.testing.assert_allclose(
        W.eval_terms(lam)[(1, 0)], np.kron(SCH.projector(0), np.eye(2))
    )


def test_commutator_with_identity_term():
    S = term((1, 0), lambda lam, u: np.diag([np.exp(lam[0]), lam[1]]))
    one = ShiftOpSum.of_terms(SCH, LEGS, [((0, 0), identity_dynmat(SCH, LEGS))])
    rep = commutator(S, one, PTS, 1e-12)
    assert rep.passed and rep.max_residual < 1e-14


def test_commutator_constant_diagonal_coefficients():
    S1 = term((1, 0), lambda lam, u: np.diag([2.0, 3.0]).astype(complex))
    S2 = term((0, 1), lambda lam, u: np.diag([0.5, 4.0]).astype(complex))
    assert commutator(S1, S2, PTS, 1e-13).passed


def test_commutator_detects_noncommuting():
    S1 = term((1, 0), lambda lam, u: lam[0] * np.eye(2, dtype=complex))
    S2 = term((0, 0), lambda lam, u: lam[0] * np.eye(2, dtype=complex))
    rep = commutator(S1, S2, PTS, 1e-10)
    assert not rep.passed  # coefficients fail to commute through the shift


def test_leg_mismatch():
    S1 = term((0, 0), lambda lam, u: np.eye(2, dtype=complex))
    S2 = ShiftOpSum.of_terms(SCH, (1, 2), [((0, 0), identity_dynmat(SCH, (1, 2)))])
    with pytest.raises(LegError):
        S1.compose(S2)


def test_shift_vector_length_checked():
    with pytest.raises(ValueError):
        ShiftOpSum.of_terms(SCH, LEGS, [((1,), identity_dynmat(SCH, LEGS))])


def test_pure_shift_commutes_with_constant_quantum_coefficient():
    # the expanded auxiliary shift factor commutes with any
    # lambda-independent coefficient on the other legs
    legs = (0, 1)
    W = ShiftOpSum.weight_shifted(identity_dynmat(SCH, legs), 0)
    m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    C = ShiftOpSum.of_terms(
        SCH, legs, [((0, 0), constant_dynmat(SCH, legs, np.kron(np.eye(2), m)))])
    assert commutator(W, C, PTS, 1e-13).passed


def _counted(shift, fn, calls):
    """A one-term sum whose coefficient records each point it is evaluated at."""
    def counted(lam, u):
        calls.append(np.asarray(lam).tobytes())
        return fn(lam, u)

    return ShiftOpSum.of_terms(SCH, LEGS, [(shift, function_dynmat(SCH, LEGS, counted))])


def _random_sum(rng, shifts):
    terms = []
    for shift in shifts:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = rng.normal(size=2)
        terms.append((shift, function_dynmat(
            SCH, LEGS, lambda lam, u, m=m, c=c: m * np.exp(c @ lam))))
    return ShiftOpSum.of_terms(SCH, LEGS, terms)


def test_triple_product_table_matches_explicit_formula():
    rng = np.random.default_rng(5)
    S1 = _random_sum(rng, [(0, 0), (1, 0)])
    S2 = _random_sum(rng, [(0, 1), (1, -1)])
    S3 = _random_sum(rng, [(0, 0), (-1, 1), (2, 0)])
    lam = PTS[1][0]
    gamma = SCH.gamma
    expect = {}
    for m1 in S1.terms:
        for m2 in S2.terms:
            for m3 in S3.terms:
                key = tuple(np.add(np.add(m1, m2), m3))
                val = (S1.eval_terms(lam)[m1] @ S2.eval_terms(lam + gamma * np.asarray(m1))[m2]
                       @ S3.eval_terms(lam + gamma * np.add(m1, m2))[m3])
                expect[key] = expect.get(key, 0) + val
    for prod in (S1.compose(S2).compose(S3), S1.compose(S2.compose(S3))):
        got = prod.eval_terms(lam)
        assert list(got) == list(prod.terms)
        assert set(got) == set(expect)
        for key, val in expect.items():
            np.testing.assert_allclose(got[key], val, rtol=1e-13, atol=1e-13)


def test_product_evaluates_each_coefficient_once_per_shifted_point():
    calls = {"a": [], "b": [], "c": []}
    diag = lambda lam, u: np.diag([lam[0], lam[1] + 2.0])
    A = _counted((1, 0), diag, calls["a"]).compose(
        ShiftOpSum.weight_shifted(identity_dynmat(SCH, LEGS), 1))
    B = _counted((0, 0), diag, calls["b"])
    C = _counted((0, 1), diag, calls["c"])
    prod = A.compose(B).compose(C)
    prod.eval_terms(PTS[0][0])
    # A at lam; B at lam + (2, 0) and lam + (1, 1); C at the same two points
    assert len(calls["a"]) == 1
    for name in ("b", "c"):
        assert len(calls[name]) == 2 == len(set(calls[name]))


def test_product_raises_at_a_shifted_pole():
    lam = PTS[0][0]
    pole_at = lam + SCH.gamma * np.array([1.0, 0.0])

    def poles(x, u):
        return np.allclose(x, pole_at)

    S1 = term((1, 0), lambda x, u: np.eye(2, dtype=complex))
    S2 = ShiftOpSum.of_terms(SCH, LEGS, [((0, 0), function_dynmat(
        SCH, LEGS, lambda x, u: np.eye(2, dtype=complex), poles=poles))])
    S2.eval_terms(lam)  # no pole at lam itself
    prod = S1.compose(S2)
    with pytest.raises(PoleError):
        prod.eval_terms(lam)


def test_commutator_nan_coefficient_fails_the_report():
    bad = PTS[3][0]

    def coeff(lam, u):
        m = np.diag([lam[0], 2.0]).astype(complex)
        if np.array_equal(lam, bad):
            m[0, 0] = np.nan
        return m

    S1 = term((0, 0), coeff)
    S2 = term((1, 0), lambda lam, u: np.diag([2.0, 3.0]).astype(complex))
    rep = commutator(S1, S2, PTS, 1e-10)
    assert not rep.passed
    assert np.isnan(rep.max_residual)
    np.testing.assert_array_equal(rep.worst_point[0], bad)


def test_first_nan_in_a_later_block_beats_a_larger_finite_residual(monkeypatch):
    # blocks of two points, the last a stack of one: the NaN coefficient at
    # point 3 (second block) is the worst point of both checks, not the
    # finite residual at point 0
    import sdreflect.shiftops as so

    big, bad = PTS[0][0], PTS[3][0]

    def coeff(lam, u):
        m = np.diag([1.0, 2.0]).astype(complex)
        if np.array_equal(lam, big):
            m[0, 1] = 5.0
        if np.array_equal(lam, bad):
            m[0, 0] = np.nan
        return m

    S1 = term((0, 0), coeff)
    diag = term((0, 0), lambda lam, u: np.diag([1.0, 2.0]).astype(complex))
    shift = term((1, 0), lambda lam, u: np.diag([2.0, 3.0]).astype(complex))
    monkeypatch.setattr(so, "BLOCK_BYTES", 2 * 16 * 2 ** 2)
    assert so._rows_per_call(S1.dim) == 2
    for check in (lambda pts: shiftop_difference_residual(S1, diag, pts, 1e-10),
                  lambda pts: commutator(S1, shift, pts, 1e-10)):
        rep = check(PTS[:3])
        assert rep.max_residual > 0.1
        np.testing.assert_array_equal(rep.worst_point[0], big)
        rep = check(PTS)
        assert not rep.passed and np.isnan(rep.max_residual)
        np.testing.assert_array_equal(rep.worst_point[0], bad)


def test_pole_in_a_later_block_raises_for_its_point(monkeypatch):
    import sdreflect.shiftops as so

    monkeypatch.setattr(so, "BLOCK_BYTES", 2 * 16 * 2 ** 2)
    pole = PTS[3][0]
    S1 = ShiftOpSum.of_terms(SCH, LEGS, [((0, 0), function_dynmat(
        SCH, LEGS, lambda lam, u: np.eye(2, dtype=complex),
        poles=lambda lam, u: np.array_equal(lam, pole)))])
    S2 = term((1, 0), lambda lam, u: np.diag([2.0, 3.0]).astype(complex))
    for check in (shiftop_difference_residual, commutator):
        with pytest.raises(PoleError) as exc:
            check(S1, S2, PTS, 1e-10)
        np.testing.assert_array_equal(exc.value.lam, pole)


def test_family_member_on_a_leg_without_a_slot_is_refused():
    # a value that no coefficient reads would make every member the same
    # operator, whose commutators pass vacuously
    S = term((1, 0), lambda lam, u: np.diag([lam[0], 1.0]))
    with pytest.raises(SpectralValueError):
        shiftop_commutators(S, [{1: 0.5}, {1: 1.5}], PTS, 1e-10)


@pytest.mark.parametrize("varying", [True, False])
def test_family_with_a_row_free_table_entry(varying):
    # a contraction pass may give an entry that does not depend on the
    # row as one (d, d) matrix: the commutator engine reads it as every
    # row's, bit for bit as if it were broadcast.  A table of row-free
    # entries only is the same operator for every member: one exact 0.0
    # serves every point, the first its worst
    C = np.array([[1.0, 0.3], [0.2, 0.7]], dtype=complex)
    E = np.array([[2.0, 0.0], [0.5, 3.0]], dtype=complex)

    def family(broadcast):
        def factor_pass(lam, u):
            def contract(rows):
                lam_r, u_r = lam[rows], u[1][rows]
                if varying:
                    M = np.zeros(lam_r.shape[:-1] + (2, 2), dtype=complex)
                    M[..., 0, 0] = lam_r[..., 0] + u_r
                    M[..., 0, 1], M[..., 1, 1] = u_r, 1.0
                else:
                    M = E
                table = {(0, 0): C, (1, 0): M}
                shape = lam_r.shape[:-1] + (2, 2)
                return {m: np.broadcast_to(x, shape) if broadcast else x
                        for m, x in table.items()}

            return contract

        return ShiftOpSum(SCH, LEGS, [(0, 0), (1, 0)], spectral_legs=LEGS,
                          factor_pass=factor_pass)

    members = [{1: 0.3}, {1: -0.5 + 0.2j}, {1: 1.1}]
    free, broadcast = (shiftop_commutators(family(b), members, PTS, 1e-10) for b in (False, True))
    assert len(free) == 3
    for a, b in zip(free, broadcast):
        assert a.passed != varying and a.max_residual == b.max_residual
        np.testing.assert_array_equal(a.worst_point[0], b.worst_point[0])
        if not varying:
            assert a.max_residual == 0.0
            np.testing.assert_array_equal(a.worst_point[0], PTS[0][0])

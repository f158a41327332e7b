import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from sdreflect.consistency import rel_residual
from sdreflect.dyncore import DynMat, PoleError
from sdreflect.parametrize import auto_dress
from sdreflect.sampling import RetryCapError, invertibility_guard, sample_points
from sdreflect.scenarios import (
    ScenarioError,
    builtin_names,
    builtin_scenario,
    compile_matrix_spec,
    load_scenario,
    scenario_from_dict,
)
from sdreflect import WeightScheme, exprparse, function_dynmat, scenarios
from sdreflect.cli import Rig

SCH = WeightScheme(2, 1.0)


def test_builtin_catalog_names():
    names = builtin_names()
    assert names == sorted(names)
    for expected in ("trivial_yangian", "diagonal_dressed", "projector_b",
                     "constant_g", "spectral_shift_g", "nonsimilar_detwist"):
        assert expected in names


def test_unknown_builtin_lists_catalog():
    with pytest.raises(ScenarioError) as err:
        builtin_scenario("nope")
    assert "trivial_yangian" in str(err.value)


def _k_closed_form(sc):
    """k = (g b g^-1)^-1 q in closed form for the two builtins with g != 1."""
    if sc.name == "constant_g":
        # b is unit-determinant triangular, so beta = g b g^-1 scales its
        # off-diagonal entry by g1/g2 = 2
        q1, q2 = sc.q["entries"]
        off = sc.b["entries"][0][1]
        return {"kind": "matrix", "entries": [[f"({q1})", f"0-2*({off})*({q2})"],
                                              ["0", f"({q2})"]]}
    # a spectral shift by 1: beta reads b at u1 + 1
    return {"kind": "diagonal", "entries": ["exp(0.4*lambda1-0.2*(u1+1)-0.3*lambda1)",
                                            "exp(0-0.3*lambda2+0.1*(u1+1)-0.1*lambda2)"]}


def test_catalog_twist_consistency():
    # the derived beta^-1 q matches the closed form of k at every sampled point
    for name in ("constant_g", "spectral_shift_g"):
        rig = Rig(builtin_scenario(name), samples=8)
        k = compile_matrix_spec(_k_closed_form(rig.scenario), rig.scheme, (1,), "k")
        derived = rig.beta.inv() @ rig.q
        for lam, u in rig.points:
            uu = {1: u[1]}
            assert rel_residual(derived.eval(lam, uu), k.eval(lam, uu)) < 1e-12


def test_rank_override_dimensions():
    sc = builtin_scenario("diagonal_dressed", {"rank": 3})
    assert sc.rank == 3
    assert sc.b_mat().eval(np.zeros(3)).shape == (3, 3)
    assert sc.R0_mat().eval(np.zeros(3), {1: 1.0, 2: -1.0}).shape == (9, 9)


def test_k_override_names_its_reason():
    with pytest.raises(ScenarioError, match="k: derived from b, g and q; remove this field"):
        builtin_scenario("constant_g", {"k": {"kind": "identity"}})


def test_scenario_file_roundtrip(tmp_path):
    sc = builtin_scenario("diagonal_dressed")
    path = tmp_path / "scen.json"
    sc.save(path)
    sc2 = load_scenario(path)
    assert sc.to_dict() == sc2.to_dict()


def test_zero_gamma_rejected():
    data = builtin_scenario("trivial_yangian").to_dict()
    data["gamma"] = [0.0, 0.0]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "gamma" in str(err.value)


def test_unknown_automorphism_kind_names_field():
    data = builtin_scenario("trivial_yangian").to_dict()
    data["g"] = {"kind": "mystery"}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "g.kind" in str(err.value)


def test_unknown_field_rejected():
    data = builtin_scenario("trivial_yangian").to_dict()
    data["surprise"] = 1
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_missing_field_rejected():
    data = builtin_scenario("trivial_yangian").to_dict()
    del data["R0"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "R0" in str(err.value)


def test_bad_expression_carries_path():
    data = builtin_scenario("diagonal_dressed").to_dict()
    data["b"] = {"kind": "diagonal", "entries": ["lambda1 +", "1"]}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "b.entries[0]" in str(err.value)


def test_malformed_json_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)


@pytest.mark.parametrize("name,box", [(name, None) for name in builtin_names()]
                         + [("spectral_shift_g", 8.0)])
def test_sample_matches_the_guard_over_every_ordered_shift(name, box):
    # the guard over the n + n^2 + n^3 ordered weight-step sums (repeats
    # included) rejects exactly the points the scenario's guard rejects;
    # the builtins' own boxes reject nothing, the wide box does
    data = builtin_scenario(name).to_dict()
    if box is not None:
        data["sampler"]["box"] = box
    sc = scenario_from_dict(data)
    units = [sc.gamma * sc.scheme.unit(i) for i in range(sc.rank)]
    shifts = []
    for a in units:
        shifts.append(a)
        for b in units:
            shifts.append(a + b)
            shifts.extend(a + b + c for c in units)
    bm = sc.b_mat()
    guard = invertibility_guard([bm, sc.q_mat(), auto_dress(bm, sc.g_auto())], floor=0.05,
                                probe_shifts=shifts)
    verdicts = []

    def counted(lam, u):
        verdicts.append(guard(lam, u))
        return verdicts[-1]

    ref = sample_points(sc.scheme, (1, 2, 3) if sc.spectral else (), count=12,
                        seed=4, box=sc.sampler["box"],
                        min_sep=sc.sampler["min_separation"], guards=[counted])
    assert any(verdicts) == (box is not None)
    got = sc.sample(count=12, seed=4)
    assert len(got) == len(ref)
    for (la, ua), (lb, ub) in zip(got, ref):
        np.testing.assert_array_equal(la, lb)
        assert ua == ub


def test_sampler_determinism_and_separation():
    sc = builtin_scenario("diagonal_dressed")
    a = sc.sample(count=10, seed=5)
    b = sc.sample(count=10, seed=5)
    for (la, ua), (lb, ub) in zip(a, b):
        np.testing.assert_array_equal(la, lb)
        assert ua == ub
    for lam, u in a:
        assert abs(lam[0] - lam[1]) >= 0.1
        vals = [u[k] for k in sorted(u)]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert abs(vals[i] - vals[j]) >= 0.1


def test_sampler_retry_cap():
    with pytest.raises(RetryCapError):
        sample_points(SCH, (), count=5, seed=0, box=0.01, min_sep=0.5, retry_cap=200)


# -- the block sampler against the one-candidate loop -------------------------


def _draw(rng, count, box, min_sep, cap_left):
    vals, tries = [], 0
    while len(vals) < count:
        if tries > cap_left:
            raise RetryCapError("sampler retry cap exceeded")
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        tries += 1
        if all(abs(z - w) >= min_sep for w in vals):
            vals.append(z)
    return vals, tries


def _one_at_a_time(scheme, spectral_legs=(), count=50, seed=0, box=2.0, min_sep=0.1,
                   guards=(), retry_cap=10_000):
    """The sampler that guarded one candidate at a time: the reference."""
    rng = np.random.default_rng(seed)
    spectral_legs = tuple(spectral_legs)
    points = []
    budget = retry_cap
    while len(points) < count:
        if budget <= 0:
            raise RetryCapError("sampler retry cap exceeded")
        lam_vals, t1 = _draw(rng, scheme.rank, box, min_sep, budget)
        budget -= t1
        u_vals, t2 = _draw(rng, len(spectral_legs), box, min_sep, budget)
        budget -= t2
        lam = np.array(lam_vals, dtype=complex)
        u = dict(zip(spectral_legs, u_vals))
        if any(g(lam, u) for g in guards):
            budget -= 1
            continue
        points.append((lam, u))
    return points


def _outcome(sample):
    """The samples' exact bytes, or the error class."""
    try:
        points = sample()
    except RetryCapError:
        return RetryCapError
    return [(lam.tobytes(), [(l, np.complex128(v).tobytes()) for l, v in sorted(u.items())])
            for lam, u in points]


def _sampling_with(monkeypatch, sampler, **fixed):
    """Scenario.sample through ``sampler``; returns the list of its guard
    calls' stack sizes and verdicts."""
    calls = []

    def run(*args, guards, **kwargs):
        def counted(lam, u):
            calls.append((len(np.atleast_2d(lam)), any(g(lam, u) for g in guards)))
            return calls[-1][1]

        return sampler(*args, guards=[counted], **{**kwargs, **fixed})

    monkeypatch.setattr(scenarios, "sample_points", run)
    return calls


@pytest.mark.parametrize("name,rank,box", [
    (name, rank, None) for name in builtin_names() for rank in (2, 3)
    if rank == 2 or name not in ("constant_g", "spectral_shift_g")
] + [("spectral_shift_g", 2, 8.0)])
def test_block_sampler_draws_the_one_at_a_time_samples(name, rank, box, monkeypatch):
    data = builtin_scenario(name, {"rank": rank}).to_dict()
    if box is not None:
        data["sampler"]["box"] = box
    sc = scenario_from_dict(data)
    blocks = _sampling_with(monkeypatch, sample_points)
    got = _outcome(sc.sample)
    ones = _sampling_with(monkeypatch, _one_at_a_time)
    assert got == _outcome(sc.sample)
    assert len(got) == sc.sampler["count"]
    # the builtins' own boxes reject nothing, the wide box does
    assert any(v for _, v in ones) == (box is not None)
    assert len(blocks) < len(ones) and max(k for k, _ in blocks) > 1


def _right_half_plane(lam, u):
    return bool(np.any(np.asarray(lam)[..., 0].real > 0.0))


@pytest.mark.parametrize("count", [1, 3, 6])
def test_block_sampler_runs_out_at_the_same_candidate(count):
    # a small box: draws retry for separation, and half the candidates
    # are rejected, so the budget runs out inside guarded blocks; equal
    # outcomes at every cap and count put the error at the same candidate
    sch = WeightScheme(3, 1.0)
    outcomes, stacked_raise = [], False
    for cap in range(1, 110):
        args = dict(scheme=sch, spectral_legs=(1, 2), count=count, seed=9, box=0.3,
                    min_sep=0.2, retry_cap=cap)
        sizes = []

        def guard(lam, u):
            sizes.append(len(np.atleast_2d(lam)))
            return _right_half_plane(lam, u)

        got = _outcome(lambda: sample_points(guards=[guard], **args))
        assert got == _outcome(lambda: _one_at_a_time(guards=[_right_half_plane], **args)), cap
        outcomes.append(got is RetryCapError)
        stacked_raise |= got is RetryCapError and max(sizes, default=0) > 1
    assert outcomes[0] and not outcomes[-1]
    assert stacked_raise or count == 1


def test_block_sampler_runs_out_where_the_guard_rejects(monkeypatch):
    # the wide box of spectral_shift_g: the invertibility guard rejects
    # candidates, and the budget runs out at each cap as one at a time
    data = builtin_scenario("spectral_shift_g").to_dict()
    data["sampler"]["box"] = 8.0
    sc = scenario_from_dict(data)
    raised = []
    for cap in range(20, 140, 7):
        _sampling_with(monkeypatch, sample_points, retry_cap=cap)
        got = _outcome(lambda: sc.sample(count=12))
        _sampling_with(monkeypatch, _one_at_a_time, retry_cap=cap)
        assert got == _outcome(lambda: sc.sample(count=12)), cap
        raised.append(got is RetryCapError)
    assert raised[0] and not raised[-1]


def test_expression_matrix_pole_surfaces():
    spec = {"kind": "diagonal", "entries": ["1/(lambda1-lambda2)", "1"]}
    m = compile_matrix_spec(spec, SCH, (1,), "b")
    with pytest.raises(PoleError):
        m.eval(np.array([0.5, 0.5]))


@pytest.mark.parametrize("spec", [{"kind": "yangian"},
                                  {"kind": "yangian_offdiag", "mu": [2.0, 0.0]}])
def test_compiled_r_matrix_pole_gap_is_1e9(spec):
    R = compile_matrix_spec(spec, SCH, (1, 2), "R0")
    lam = np.array([0.3, -0.2])
    with pytest.raises(PoleError):
        R.eval(lam, {1: 0.5 + 1e-10, 2: 0.5})
    # just outside the gap the matrix is finite
    assert np.all(np.isfinite(R.eval(lam, {1: 0.5 + 2e-9, 2: 0.5})))


def test_quantum_values_presets():
    sc = builtin_scenario("trivial_yangian")
    vals = sc.quantum_values(2)
    assert set(vals) == {1, 2, 3, 4}
    sc.quantum_spectral = "locality"
    loc = sc.quantum_values(1, u_ref=0.0)
    assert loc == {2: 1.0, 1: 2.0}
    sc.quantum_spectral = [[0.1, 0.0], [0.2, 0.0]]
    assert sc.quantum_values(1) == {1: 0.1, 2: 0.2}


def test_spectral_entry_binding():
    spec = {"kind": "diagonal", "entries": ["exp(0.2*u1)", "1"]}
    m = compile_matrix_spec(spec, SCH, (1,), "b")
    assert m.spectral_legs == frozenset({1})
    v = m.eval(np.zeros(2), {1: 2.0})
    assert np.isclose(v[0, 0], np.exp(0.4))


# -- per-point leaf memo ------------------------------------------------------


def _count_leaf_evals(monkeypatch):
    calls = []
    real = exprparse.eval_ast

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(exprparse, "eval_ast", counted)
    return calls


def test_compiled_leaf_memoizes_by_exact_point(monkeypatch):
    calls = _count_leaf_evals(monkeypatch)
    spec = {"kind": "diagonal", "entries": ["1+lambda1*u1", "2-lambda2"]}
    m = compile_matrix_spec(spec, SCH, (1,), "b")
    lam = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    first = m.eval(lam, {1: 0.7})
    assert len(calls) == 2  # one per entry expression
    second = m.eval(lam.copy(), {1: 0.7})
    assert len(calls) == 2 and second is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    m.eval(lam, {1: 0.8})  # another spectral value is another point
    m.eval(lam + 1e-15, {1: 0.7})
    assert len(calls) == 6


def test_stack_of_spectral_values_is_one_leaf_call_per_entry(monkeypatch):
    # spectral_shift_g's b reads u1: a stack whose rows all carry their own
    # u1 is one eval_ast call per diagonal entry, with the point values
    sc = builtin_scenario("spectral_shift_g")
    b, fresh = sc.b_mat(), sc.b_mat()
    rng = np.random.default_rng(5)
    lam = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    u1 = rng.normal(size=6) + 1j * rng.normal(size=6)
    points = [fresh.eval(lam[r], {1: u1[r]}) for r in range(6)]
    calls = _count_leaf_evals(monkeypatch)
    got = b.eval(lam[:4], {1: u1[:4]})
    assert len(calls) == 2
    # two new rows beside four known ones: one more call per entry
    got = b.eval(lam, {1: u1})
    assert len(calls) == 4
    assert got.tobytes() == np.array(points).tobytes()


def test_compiled_leaf_pole_raises_every_time(monkeypatch):
    # a point is a stack of one row: each call evaluates every entry once,
    # and the pole row is not kept, so the second call evaluates them again
    calls = _count_leaf_evals(monkeypatch)
    spec = {"kind": "diagonal", "entries": ["1/(lambda1-lambda2)", "1"]}
    m = compile_matrix_spec(spec, SCH, (1,), "b")
    for _ in range(2):
        with pytest.raises(PoleError):
            m.eval(np.array([0.5, 0.5]))
    assert len(calls) == 4


def test_stacked_leaf_pole_raises_for_its_first_point():
    # entry (0, 0) meets its pole at the last point, entry (1, 1) at the
    # middle one: the error is the middle point's, as point by point
    spec = {"kind": "diagonal", "entries": ["1/(lambda1-0.3)", "1/(lambda1-lambda2)"]}
    m = compile_matrix_spec(spec, SCH, (1,), "b")
    lam = np.array([[0.1, 0.2], [0.5, 0.5], [0.3, 0.9]], dtype=complex)
    for stack in (lam, lam[None]):
        with pytest.raises(PoleError) as err:
            m.eval(stack)
        np.testing.assert_array_equal(err.value.lam, lam[1])
    assert m.eval(lam[:1]).shape == (1, 2, 2)


def test_rigs_share_no_leaf_memo(monkeypatch):
    sc = builtin_scenario("diagonal_dressed")
    r1, r2 = Rig(sc, samples=2), Rig(sc, samples=2)
    calls = _count_leaf_evals(monkeypatch)
    lam = np.array([0.31 + 0.2j, -0.4 + 0.1j])
    np.testing.assert_array_equal(r1.b.eval(lam), r2.b.eval(lam))
    assert len(calls) == 4  # two diagonal entries, once in each rig
    r1.b.eval(lam)
    assert len(calls) == 4


def test_guard_rejects_poles_and_raises_faults():
    def pole(lam, u):
        raise PoleError("pole", lam, u)

    def broken(lam, u):
        raise KeyError("missing table entry")

    lam = np.array([0.1 + 0.2j, 0.3 - 0.1j])
    assert invertibility_guard([function_dynmat(SCH, (1,), pole)])(lam, {})
    with pytest.raises(KeyError):
        invertibility_guard([function_dynmat(SCH, (1,), broken)])(lam, {})


def test_sampler_guard_probes_the_rigs_matrices(monkeypatch):
    sc = builtin_scenario("diagonal_dressed")
    fresh = sc.sample(count=4)
    rig = Rig(sc, samples=4)
    for (lam1, u1), (lam2, u2) in zip(fresh, rig.points):
        assert lam1.tobytes() == lam2.tobytes() and u1 == u2
    calls = _count_leaf_evals(monkeypatch)
    for X in (rig.b, rig.q, rig.beta):
        for lam, u in rig.points:
            X.eval(lam, {l: u[l] for l in X.spectral_legs})
    assert calls == []  # every sampled point was probed by the guard


@pytest.mark.parametrize("name", ["diagonal_dressed", "constant_g"])
def test_rig_keeps_no_guard_stack(name):
    sc = builtin_scenario(name)
    rig = Rig(sc)
    # the guard's candidate stacks have shape (k, 1 + shifts, n)
    shifts = sum(math.comb(sc.rank + r - 1, r) for r in (1, 2, 3))
    memos = [X.fn.memo for X in (rig.b, rig.q, rig.beta) if hasattr(X.fn, "memo")]
    assert len(memos) >= 2  # b and q compile to memoized leaves
    for memo in memos:
        assert all(key[0][1][-2:] != (1 + shifts, sc.rank) for key in memo)
    # and the samples are those of a fresh guard
    fresh = sc.sample()
    assert [(lam.tobytes(), u) for lam, u in fresh] == \
        [(lam.tobytes(), u) for lam, u in rig.points]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-9, 0.0,
                                 "1e-9", True])
def test_tolerance_must_be_finite_and_positive(tol, tmp_path, capsys):
    from sdreflect.cli import run

    data = builtin_scenario("trivial_yangian").to_dict()
    data["tolerance"] = tol
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "tolerance" in str(err.value)
    # json writes NaN / Infinity tokens, which the loader parses
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(data))
    assert run(["--scenario", str(path), "--suite", "zero-weight", "--samples", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: tolerance")


# -- the guard's certificate, non-finite values and pinned samples -------------


def _svd_only_guard(dynmats, floor=0.05):
    """The guard as the SVD alone decides it, without probe shifts: the
    reference for the certified guard."""

    def guard(lam, u):
        at = np.asarray(lam, dtype=complex)[..., None, :]
        for X in dynmats:
            try:
                m = X.eval(at, {})
            except (PoleError, np.linalg.LinAlgError, ZeroDivisionError, OverflowError):
                return True
            if not np.isfinite(m).all():
                return True
            if np.any(np.linalg.svd(m, compute_uv=False)[..., -1] < floor):
                return True
        return False

    return guard


def _table(stack):
    """A one-leg DynMat whose value at lam is stack[int(lam[0].real)], and
    the candidates that read the whole stack."""
    stack = np.asarray(stack, dtype=complex)
    sch = WeightScheme(stack.shape[-1], 1.0)
    X = DynMat(sch, (1,), lambda lam, u: stack[lam[..., 0].real.astype(int)])
    lam = np.zeros((len(stack), sch.rank), dtype=complex)
    lam[:, 0] = np.arange(len(stack))
    return X, lam


def _with_singular_values(rng, sigmas):
    """A matrix with the singular values ``sigmas`` between random unitaries."""
    n = len(sigmas)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return u @ np.diag(sigmas).astype(complex) @ v.conj().T


def _stack_holding(rng, special, n):
    """Five comfortably invertible n x n matrices with ``special`` third."""
    plain = [_with_singular_values(rng, rng.uniform(0.5, 3.0, size=n)) for _ in range(5)]
    return plain[:2] + [special] + plain[2:]


_FLOOR = 0.05


def _special_matrices(rng, n):
    """(label, matrix, True when the SVD test rejects it, or None when the
    SVD's round-off decides)."""
    top = [1.7] * (n - 1)
    out = []
    for delta in (1e-9, -1e-9):
        near = _with_singular_values(rng, top + [_FLOOR * (1 + delta)])
        out.append((f"near {delta:+g}", near, delta < 0))
        for scale in (1e8, 1e-8):
            out.append((f"near {delta:+g} x {scale:g}", scale * near, scale < 1))
        out.append((f"1e8 over near {delta:+g}",
                    _with_singular_values(rng, [1e8] + top[1:] + [_FLOOR * (1 + delta)]), None))
    out.append(("zero singular value", _with_singular_values(rng, top + [0.0]), True))
    out.append(("rank one", np.ones((n, n), dtype=complex), True))
    out.append(("zero", np.zeros((n, n), dtype=complex), True))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_certified_guard_is_the_svd_guard(n):
    # a stack the Cholesky certificate clears is one the SVD clears: the
    # verdicts agree at the floor to a relative 1e-9, at scales 1e+-8 and
    # on singular matrices
    rng = np.random.default_rng(n)
    for label, special, rejected in _special_matrices(rng, n):
        X, lam = _table(_stack_holding(rng, special, n))
        got = invertibility_guard([X], floor=_FLOOR)(lam, {})
        assert got == _svd_only_guard([X], floor=_FLOOR)(lam, {}), label
        if rejected is not None:
            assert got == rejected, label
    X, lam = _table(_stack_holding(rng, _with_singular_values(rng, [1.0] * n), n))
    assert not invertibility_guard([X], floor=_FLOOR)(lam, {})


def _count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_guard_runs_the_svd_only_where_the_certificate_fails(monkeypatch):
    # every builtin at rank 2 and, where it has one, its rank-3 form
    scens = [builtin_scenario(name, {"rank": rank}) for name in builtin_names()
             for rank in (2, 3) if rank == 2 or name not in ("constant_g", "spectral_shift_g")]
    calls = _count_svd(monkeypatch)
    for sc in scens:
        sc.sample()
    assert calls == []
    rng = np.random.default_rng(5)
    X, lam = _table(_stack_holding(rng, _with_singular_values(rng, [1.7, _FLOOR * (1 + 1e-9)]),
                                   2))
    assert not invertibility_guard([X], floor=_FLOOR)(lam, {})
    assert len(calls) == 1


def test_guard_samples_where_the_values_are_finite():
    # inf * 0 makes b NaN where (lambda1 * 1e154)^2 overflows; the guard
    # rejects such a candidate, so every sample and its probe shifts stay
    # where b is finite
    entry = "1 + (lambda1*1e154)*(lambda1*1e154)*0"
    sc = builtin_scenario("diagonal_dressed", {
        "gamma": [0.1, 0.0], "b": {"kind": "diagonal", "entries": [entry, "1"]}})
    b = sc.b_mat()
    assert not np.isfinite(b.eval(np.array([1.5, 0.0]))).all()  # inside the box
    units = [sc.gamma * sc.scheme.unit(i) for i in range(sc.rank)]
    shifts = [0 * units[0]] + [sum(c) for r in (1, 2, 3)
                               for c in itertools.combinations_with_replacement(units, r)]
    points = sc.sample(count=20)
    assert len(points) == 20
    for lam, _ in points:
        assert np.isfinite(b.eval(lam + np.array(shifts))).all()


# sha256 of each builtin's default sample list: every point's lambda bytes,
# then its spectral values' bytes in leg order
_SAMPLE_DIGESTS = {
    "constant_g": "27efead478c56fe717bff833f2dea9d057344d4a8d9057a4b09ec91ba0211c59",
    "diagonal_dressed": "fdfcca8855b8923182ebd0d2a13884405765c01df3c393c5f6ff2e37610031e3",
    "nonsimilar_detwist": "42bbf81dc327c42fa9275ca9e93a097a80bc4b174097e71c9588216fec16b03f",
    "projector_b": "cc12896e16418333b7fb772427e38c91d902f39fb3f992c12955bd3f500b8f19",
    "spectral_shift_g": "8130eec7d4bd3bd00045ef13b986d527e6175b08e839aebba5c8a2795ac56d87",
    "trivial_yangian": "8123d6a56896b6213f016f388a1b9e2d3d6d674b83058794103d210be3e3cbba",
}


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_default_samples_are_pinned(name):
    digest = hashlib.sha256()
    for lam, u in builtin_scenario(name).sample():
        digest.update(lam.tobytes())
        for leg in sorted(u):
            digest.update(np.complex128(u[leg]).tobytes())
    assert digest.hexdigest() == _SAMPLE_DIGESTS[name]

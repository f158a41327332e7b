import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdreflect.cli import SUITES, run
from sdreflect.scenarios import builtin_names, builtin_scenario


def test_exit_zero_on_pass(capsys):
    code = run(["--builtin", "trivial_yangian", "--suite", "ybce",
                "--samples", "8", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_missing_scenario_file_is_usage_error(capsys):
    code = run(["--scenario", "does_not_exist.json"])
    assert code == 2


def test_no_scenario_is_usage_error():
    assert run([]) == 2


def test_unknown_suite_is_usage_error():
    assert run(["--builtin", "trivial_yangian", "--suite", "bogus"]) == 2


def test_unknown_builtin_is_usage_error():
    assert run(["--builtin", "bogus"]) == 2


def test_list_flags(capsys):
    assert run(["--list-builtins"]) == 0
    assert "trivial_yangian" in capsys.readouterr().out
    assert run(["--list-suites"]) == 0
    out = capsys.readouterr().out
    assert "ybce" in out and "all" in out


def test_report_has_four_cubic_checks(tmp_path, capsys):
    report = tmp_path / "out.json"
    code = run(["--builtin", "trivial_yangian", "--suite", "ybce",
                "--samples", "5", "--seed", "7", "--tol", "1e-9",
                "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["pass"] is True
    assert doc["scenario"] == "trivial_yangian"
    assert len(doc["checks"]) == 4
    names = {c["name"] for c in doc["checks"]}
    assert names == {"ybce_a", "ybce_b", "ybce_c", "ybce_d"}
    for c in doc["checks"]:
        assert c["samples"] == 5
        assert len(c["worst_point"]["lambda"]) == 2


def test_reports_are_byte_identical(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    args = ["--builtin", "diagonal_dressed", "--suite", "zero-weight",
            "--suite", "dybe", "--samples", "6", "--seed", "11"]
    assert run(args + ["--report", str(r1)]) == 0
    assert run(args + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_failing_check_exits_one(tmp_path, capsys):
    # a generic constant matrix in place of R0 violates the cubic relation
    data = builtin_scenario("diagonal_dressed").to_dict()
    rng = np.random.default_rng(4)
    bad = np.eye(4) + 0.4 * rng.normal(size=(4, 4))
    data["R0"] = {"kind": "constant",
                  "entries": [[[float(x), 0.0] for x in row] for row in bad]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    report = tmp_path / "rep.json"
    code = run(["--scenario", str(path), "--suite", "ybce",
                "--samples", "6", "--seed", "2", "--report", str(report)])
    assert code == 1
    doc = json.loads(report.read_text())
    assert doc["pass"] is False
    failing = [c["name"] for c in doc["checks"] if not c["pass"]]
    assert "ybce_a" in failing  # identifiable by name


def test_structured_format_prints_document(capsys):
    code = run(["--builtin", "trivial_yangian", "--suite", "zero-weight",
                "--samples", "4", "--seed", "1", "--format", "structured"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "trivial_yangian"
    assert doc["runtime_ms"] is None


def test_schema_error_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x"}))
    assert run(["--scenario", str(path)]) == 2


@pytest.mark.parametrize("field,value,message", [
    ("sampler", {"box": "x"}, "sampler.box: expected a number"),
    ("sampler", [1], "sampler: expected an object"),
    ("sampler", {"foo": 1}, "sampler: unknown fields ['foo']"),
    ("b", {"kind": "diagonal", "entries": [1, 2]}, "b.entries[0][0]: expected an expression"),
    ("quantum_spectral", 5, "quantum_spectral: expected a preset name"),
    ("sites", "x", "sites: expected an integer of at least 1"),
    ("spectral", "no", "spectral: expected true or false"),
    ("g", {"kind": "factorizable", "entries": [[1, 0], [0, 1]]},
     "g.entries[0][0]: expected an expression string"),
    ("g", {"kind": "factorizable", "entries": [["1+", "0"], ["0", "1"]]},
     "g.entries[0][0]: unexpected end"),
    ("projectors", 5, "projectors: expected a list of 2 2x2 matrices"),
    ("rank", 2.0, "rank: expected an integer of at least 2"),
    ("rank", True, "rank: expected an integer of at least 2"),
    ("tolerance", "1e-9", "tolerance: must be a finite positive number"),
    ("tolerance", True, "tolerance: must be a finite positive number"),
    ("sampler", {"box": float("inf")}, "sampler.box: expected a number > 0"),
    ("sampler", {"box": float("nan")}, "sampler.box: expected a number > 0"),
    ("sampler", {"box": 1e308}, "sampler.box: expected a number > 0"),
    ("sampler", {"min_separation": float("nan")},
     "sampler.min_separation: expected a number, finite and >= 0"),
    ("sampler", {"min_separation": -0.1},
     "sampler.min_separation: expected a number, finite and >= 0"),
    ("gamma", True, "gamma: complex numbers are [re, im] pairs"),
    ("gamma", [True, 0.0], "gamma: complex numbers are [re, im] pairs"),
    ("quantum_spectral", "x", "quantum_spectral: unknown preset 'x'"),
    ("quantum_spectral", [], "quantum_spectral: need two values per site"),
    ("name", float("nan"), "name: expected a string"),
    ("name", True, "name: expected a string"),
    ("name", None, "name: expected a string"),
    ("name", 3, "name: expected a string"),
    ("name", [], "name: expected a string"),
    ("name", {}, "name: expected a string"),
    ("k", {"kind": "identity"}, "k: derived from b, g and q; remove this field"),
    ("sampler", {"seed": -1}, "sampler.seed: expected an integer >= 0"),
    ("sampler", {"count": 0}, "sampler.count: expected an integer >= 1"),
    ("sampler", {"count": -5}, "sampler.count: expected an integer >= 1"),
], ids=["sampler-box", "sampler-list", "sampler-unknown", "b-entries", "quantum-spectral",
        "sites", "spectral", "factorizable-numbers", "factorizable-parse", "projectors",
        "rank-float", "rank-bool", "tolerance-string", "tolerance-bool", "box-inf", "box-nan",
        "box-wide", "min-separation-nan", "min-separation-negative", "gamma-bool",
        "gamma-pair-bool", "quantum-spectral-preset", "quantum-spectral-empty", "name-nan",
        "name-bool", "name-null", "name-number", "name-list", "name-object", "k-retired",
        "seed-negative", "count-zero", "count-negative"])
def test_malformed_scenario_field_exits_two(tmp_path, capsys, field, value, message):
    data = builtin_scenario("diagonal_dressed").to_dict()
    data[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["--scenario", str(path), "--suite", "zero-weight", "--samples", "3"]) == 2
    assert f"error: {message}" in capsys.readouterr().err



_NAN, _INF = float("nan"), float("inf")


def _set_entry(field, *index, value):
    """An edit of the scenario document: one [re, im] entry of ``field``."""
    def edit(data):
        target = data[field]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value
    return edit


@pytest.mark.parametrize("name,edit,path", [
    ("diagonal_dressed", lambda d: d.update(gamma=[_NAN, 0.0]), "gamma"),
    ("diagonal_dressed", lambda d: d.update(gamma=[_INF, 0.0]), "gamma"),
    ("diagonal_dressed", lambda d: d.update(gamma=-_INF), "gamma"),
    ("diagonal_dressed", lambda d: d.update(gamma=[10 ** 400, 0]), "gamma"),
    ("diagonal_dressed", _set_entry("Q", 0, 1, value=[_NAN, 0.0]), "Q[0][1]"),
    ("diagonal_dressed", _set_entry("Q_L", 1, 0, value=[0.0, -_INF]), "Q_L[1][0]"),
    ("diagonal_dressed", lambda d: d.update(b={"kind": "constant", "entries": [
        [[_NAN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}), "b.entries[0][0]"),
    ("nonsimilar_detwist", lambda d: d.update(Rbar={"kind": "yangian_offdiag",
                                                    "mu": [_NAN, 0.0]}), "Rbar.mu"),
    ("spectral_shift_g", lambda d: d.update(g={"kind": "spectral_shift",
                                               "step": [_INF, 0.0]}), "g.step"),
    ("constant_g", _set_entry("g", "matrix", 0, 0, value=[_NAN, 0.0]), "g.matrix[0][0]"),
    ("projector_b", _set_entry("projectors", 1, 1, 1, value=[_NAN, 0.0]),
     "projectors[1][1][1]"),
    ("diagonal_dressed", lambda d: d.update(quantum_spectral=[
        [0.1, 0.0], [_NAN, 0.0], [0.3, 0.0], [0.4, 0.0]]), "quantum_spectral[1]"),
], ids=["gamma-nan", "gamma-inf", "gamma-number-inf", "gamma-huge-int", "Q", "Q_L",
        "constant-entries", "mu", "step", "constant-g-matrix", "projectors",
        "quantum-spectral"])
def test_non_finite_number_is_refused_at_load(tmp_path, capsys, name, edit, path):
    # json writes NaN / Infinity tokens, which the loader parses
    data = builtin_scenario(name).to_dict()
    edit(data)
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(data))
    assert run(["--scenario", str(scen), "--suite", "all", "--samples", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: complex numbers must be finite"), err


def test_zero_mu_is_refused_at_load(tmp_path, capsys):
    data = builtin_scenario("nonsimilar_detwist").to_dict()
    data["Rbar"]["mu"] = [0.0, 0.0]
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(data))
    assert run(["--scenario", str(scen), "--suite", "all", "--samples", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: Rbar.mu: must be nonzero")


def _matrix(rows, cols):
    """A rows x cols matrix of [re, im] pairs, invertible when square."""
    return [[[float(i == j) + 0.1 * (i + j), 0.0] for j in range(cols)] for i in range(rows)]


@pytest.mark.parametrize("name,field,value,message", [
    ("diagonal_dressed", ("Q",), _matrix(1, 2), "Q: expected a 2 x 2 matrix, got 1 x 2"),
    ("diagonal_dressed", ("Q",), _matrix(3, 3), "Q: expected a 2 x 2 matrix, got 3 x 3"),
    ("diagonal_dressed", ("Q",), [], "Q: expected a 2 x 2 matrix, got an array of shape (0,)"),
    ("diagonal_dressed", ("Q_L",), _matrix(3, 3), "Q_L: expected a 2 x 2 matrix, got 3 x 3"),
    ("constant_g", ("g", "matrix"), _matrix(3, 3),
     "g.matrix: expected a 2 x 2 matrix, got 3 x 3"),
    ("constant_g", ("a", "matrix"), _matrix(2, 1),
     "a.matrix: expected a 2 x 2 matrix, got 2 x 1"),
    ("projector_b", ("projectors", 1), _matrix(3, 3),
     "projectors[1]: expected a 2 x 2 matrix, got 3 x 3"),
    ("diagonal_dressed", ("R0",), {"kind": "constant", "entries": _matrix(3, 3)},
     "R0.entries: expected a 4 x 4 matrix, got 3 x 3"),
], ids=["Q-1x2", "Q-3x3", "Q-empty", "Q_L", "g-matrix", "a-matrix", "projectors",
        "R0-entries"])
def test_wrong_matrix_dimension_names_its_field(tmp_path, capsys, name, field, value,
                                               message):
    data = builtin_scenario(name).to_dict()
    target = data
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(data))
    assert run(["--scenario", str(scen), "--suite", "all", "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


# JSON values that are wrong for most fields
_MALFORMED = [True, None, -1, 2.0, "x", [], {}, 1e308, float("nan"), float("inf")]


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(builtin_names()), value=st.sampled_from(_MALFORMED),
       data=st.data())
def test_malformed_field_exit_code_is_total(tmp_path_factory, name, value, data):
    # one top-level or sampler field replaced: the run passes, fails or
    # is a usage error, and never raises
    doc = builtin_scenario(name).to_dict()
    fields = [(f,) for f in sorted(doc)] + [("sampler", k) for k in sorted(doc["sampler"])]
    path = data.draw(st.sampled_from(fields))
    (doc if len(path) == 1 else doc["sampler"])[path[-1]] = value
    scen = tmp_path_factory.mktemp("malformed") / "scen.json"
    scen.write_text(json.dumps(doc))
    assert run(["--scenario", str(scen), "--suite", "zero-weight", "--samples", "2"]) in (0, 1, 2)


# values for the CLI's own flags, valid and not (a tolerance of 1e-300
# fails every check that is not exactly zero)
_FLAG_VALUES = {
    "--suite": st.sampled_from([*SUITES, "all", "bogus"]),
    "--sites": st.integers(0, 2).map(str),
    "--seed": st.integers(-1, 3).map(str),
    "--tol": st.sampled_from(["1e-8", "1e-300", "0", "-1", "nan", "inf", "x"]),
    "--format": st.sampled_from(["text", "structured", "xml"]),
}


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(builtin=st.sampled_from([*builtin_names(), "bogus", None]), samples=st.integers(-1, 3),
       flags=st.lists(st.sampled_from([*_FLAG_VALUES, "--list-suites", "--bogus"]),
                      max_size=3),
       data=st.data())
def test_cli_exit_codes_are_total(builtin, samples, flags, data):
    # any argv of the CLI's flags passes, fails or is a usage error, and
    # never shows a traceback; --samples is always given, and small
    argv = ["--samples", str(samples)] + ([] if builtin is None else ["--builtin", builtin])
    for flag in flags:
        argv += [flag, data.draw(_FLAG_VALUES[flag])] if flag in _FLAG_VALUES else [flag]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


def test_all_suite_skips_inapplicable(capsys):
    code = run(["--builtin", "nonsimilar_detwist", "--suite", "all",
                "--samples", "6", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "note:" in out


def test_catalog_self_consistency():
    # every builtin passes its own applicable suite list at its declared
    # tolerance
    from sdreflect.cli import Rig, applicable_suites
    from sdreflect.scenarios import builtin_names

    for name in builtin_names():
        rig = Rig(builtin_scenario(name), samples=8, seed=2)
        suites, skipped = applicable_suites(rig)
        for suite in suites:
            reports, _ = rig.run_suite(suite)
            for rep in reports:
                assert rep.passed, f"{name}/{suite}: {rep}"


def test_all_suite_emits_skip_notices_for_inapplicable(capsys):
    code = run(["--builtin", "constant_g", "--suite", "all",
                "--samples", "6", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[ybce] skipped" in out


def test_rank3_catalog_self_consistency():
    from sdreflect.cli import Rig, applicable_suites

    rig = Rig(builtin_scenario("diagonal_dressed", {"rank": 3}), samples=5, seed=3)
    suites, _ = applicable_suites(rig)
    for suite in suites:
        if suite in ("monodromy-factor", "transfer-commute"):
            continue  # covered at rank 3 by the operator tests, slow here
        reports, _ = rig.run_suite(suite)
        for rep in reports:
            assert rep.passed, f"rank3/{suite}: {rep}"


def test_unwritable_report_is_usage_error(tmp_path):
    target = tmp_path / "no_such_dir" / "out.json"
    code = run(["--builtin", "trivial_yangian", "--suite", "zero-weight",
                "--samples", "4", "--seed", "1", "--report", str(target)])
    assert code == 2


def test_sites_flag_limits_chain_size(capsys):
    code = run(["--builtin", "diagonal_dressed", "--suite", "transfer-commute",
                "--samples", "6", "--seed", "4", "--sites", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "transfer_commutation_N1" in out
    assert "transfer_commutation_N2" not in out


def test_sampler_exhaustion_is_usage_error(tmp_path, capsys):
    # b overflows on the whole sampling box, so every draw is rejected
    data = builtin_scenario("trivial_yangian").to_dict()
    data["b"] = {"kind": "matrix",
                 "entries": [["exp(400*lambda1)", "0"], ["0", "1"]]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    assert run(["--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_list_suites_output_is_stable(capsys):
    assert run(["--list-suites"]) == 0
    assert capsys.readouterr().out.split() == [
        "zero-weight", "ybce", "gybce", "dybe", "sdre", "intertwiner", "detwist",
        "theta-period", "monodromy-factor", "transfer-commute", "zwc", "all",
    ]


@pytest.mark.parametrize("name,suites", [
    ("constant_g", ["gybce", "dybe"]),
    ("diagonal_dressed", ["ybce", "dybe"]),
    ("diagonal_dressed", ["dybe", "ybce"]),
])
def test_cubic_relation_d_is_evaluated_once(name, suites, monkeypatch, capsys):
    from sdreflect import consistency

    engine = consistency._product_residual
    calls = []

    def counted(check_name, *args, **kwargs):
        calls.append(check_name)
        return engine(check_name, *args, **kwargs)

    monkeypatch.setattr(consistency, "_product_residual", counted)
    argv = ["--builtin", name, "--samples", "4", "--seed", "3", "--format", "structured"]
    for s in suites:
        argv += ["--suite", s]
    assert run(argv) == 0
    assert len(calls) == 4  # relations a, b, c and d, each once
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    cubic = next(s for s in suites if s != "dybe")
    shared = dict(checks[f"{cubic}_d"], name="dybe")
    assert shared == checks["dybe"]


def test_skip_reason_is_the_explicit_notice():
    from sdreflect.cli import Rig, applicable_suites
    from sdreflect.scenarios import builtin_names

    seen = 0
    for name in builtin_names():
        rig = Rig(builtin_scenario(name), samples=2, seed=1)
        _, skipped = applicable_suites(rig)
        for suite, why in skipped:
            assert rig.run_suite(suite) == ([], [why])
            seen += 1
    assert seen > 0


@pytest.mark.parametrize("flag,value", [("--tol", "inf"), ("--tol", "nan"), ("--tol", "-1"),
                                        ("--tol", "0"), ("--sites", "0"), ("--sites", "-2"),
                                        ("--seed", "-1"), ("--samples", "0"),
                                        ("--samples", "-3")])
def test_bad_tolerance_or_sites_is_usage_error(flag, value, capsys):
    code = run(["--builtin", "trivial_yangian", "--suite", "zero-weight",
                "--samples", "2", flag, value])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("message", ["Unable to allocate 1.46 TiB for an array with shape "
                                     "(100000000000, 2) and data type float64", ""])
def test_unallocatable_sample_count_is_usage_error(message, monkeypatch, capsys):
    # the sampler's allocation fails as numpy's would for --samples 1e11;
    # nothing here really asks for that much memory
    from sdreflect import sampling

    def unallocatable(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(sampling, "_coordinates", unallocatable)
    code = run(["--builtin", "trivial_yangian", "--suite", "zero-weight",
                "--samples", "100000000000"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message or 'out of memory'}\n"
    assert captured.out == ""


def test_rank3_two_site_factorization():
    from sdreflect.cli import Rig

    rig = Rig(builtin_scenario("diagonal_dressed", {"rank": 3, "sites": 2}), samples=2)
    reports, notices = rig.run_suite("monodromy-factor")
    assert [r.check_name for r in reports] == ["monodromy_factorization_N1",
                                               "monodromy_factorization_N2"]
    for rep in reports:
        assert rep.passed and rep.samples == 2, str(rep)


def test_transfer_commute_gates_once_per_rig(monkeypatch):
    # the ingredient gate does not depend on the chain length: two sizes
    # (N = 1, 2) share one evaluation of it
    from sdreflect import monodromy

    ybce = monodromy.residual_ybce
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return ybce(*args, **kwargs)

    monkeypatch.setattr(monodromy, "residual_ybce", counted)
    assert run(["--builtin", "diagonal_dressed", "--suite", "transfer-commute",
                "--samples", "4", "--seed", "2"]) == 0
    assert len(calls) == 1


def test_sites_flag_sets_the_chain_length(capsys):
    code = run(["--builtin", "diagonal_dressed", "--sites", "3", "--suite",
                "monodromy-factor", "--samples", "2", "--format", "structured"])
    assert code == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert names == ["monodromy_factorization_N1", "monodromy_factorization_N3"]


def _q_offdiag_scenario(tmp_path):
    """diagonal_dressed with q = [[q1, 0.4], [0, q2]]: the twisted D is no
    longer zero weight, so the transfer-commute gate fails."""
    data = builtin_scenario("diagonal_dressed").to_dict()
    q1, q2 = data["q"]["entries"]
    data["q"] = {"kind": "matrix", "entries": [[q1, "0.4"], ["0", q2]]}
    path = tmp_path / "q_offdiag.json"
    path.write_text(json.dumps(data))
    return path


def test_failing_transfer_gate_builds_no_chain(tmp_path, monkeypatch):
    from sdreflect import cli
    from sdreflect.scenarios import load_scenario

    path = _q_offdiag_scenario(tmp_path)
    built = []
    monkeypatch.setattr(cli, "build_monodromy_direct", lambda *a, **kw: built.append(a))
    reports, _ = cli.Rig(load_scenario(path)).run_suite("transfer-commute")
    # the failing ingredient reports in gate order, for N = 1 and again for N = 2
    assert [(r.check_name, r.passed) for r in reports] == 2 * [
        ("twist_zero_weight_D", False), ("ybce_c", False), ("ybce_d", False)]
    assert built == []
    # the chain length is read before the gate's verdict is used
    assert run(["--scenario", str(path), "--suite", "transfer-commute", "--sites", "9"]) == 2


def test_explicit_quantum_spectral_matches_the_preset(tmp_path, capsys):
    # the default values written out as [re, im] pairs give the preset's report
    scenario = builtin_scenario("diagonal_dressed")
    data = scenario.to_dict()
    data["quantum_spectral"] = [[v.real, v.imag]
                                for v in scenario.quantum_values(scenario.sites).values()]
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(data))
    argv = ["--suite", "monodromy-factor", "--suite", "transfer-commute", "--samples", "4",
            "--format", "structured"]
    assert run(["--builtin", "diagonal_dressed"] + argv) == 0
    preset = capsys.readouterr().out
    assert run(["--scenario", str(path)] + argv) == 0
    assert capsys.readouterr().out == preset


def test_chain_length_without_spectral_values_is_usage_error(capsys):
    code = run(["--builtin", "diagonal_dressed", "--sites", "9", "--suite",
                "monodromy-factor", "--samples", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_rank4_placed_products_over_a_batch(tmp_path, capsys):
    # three rank-4 legs (d = 64) take the leg-local placed path with batch axes
    path = tmp_path / "rank4.json"
    builtin_scenario("trivial_yangian", {"rank": 4}).save(path)
    code = run(["--scenario", str(path), "--suite", "ybce", "--suite", "sdre",
                "--samples", "4"])
    assert code == 0, capsys.readouterr().out


# -- the per-rig memo of the structure matrices ---------------------------------

def test_structure_matrices_run_once_per_distinct_point_set(monkeypatch, capsys):
    from dataclasses import replace

    from sdreflect import cli

    calls = []

    def counted(name, X):
        def fn(lam, u, _f=X.fn):
            calls.append((name, lam.shape, lam.tobytes(),
                          tuple((l, np.shape(u[l]), np.asarray(u[l]).tobytes())
                                for l in sorted(X.spectral_legs))))
            return _f(lam, u)

        return replace(X, fn=fn)

    build_A, build_BC, build_D = cli.build_A, cli.build_BC, cli.build_D_twist
    monkeypatch.setattr(cli, "build_A", lambda *a: counted("A", build_A(*a)))
    monkeypatch.setattr(cli, "build_BC", lambda *a: tuple(
        counted(name, X) for name, X in zip("BC", build_BC(*a))))
    monkeypatch.setattr(cli, "build_D_twist", lambda *a: counted("D", build_D(*a)))
    argv = ["--builtin", "diagonal_dressed"]
    for s in ("zero-weight", "ybce", "dybe", "sdre", "intertwiner", "detwist",
              "theta-period"):
        argv += ["--suite", s]
    assert run(argv) == 0
    # one call per distinct point set; without the rig's memo these suites make 44
    assert len(calls) == len(set(calls)) == 18
    assert {name for name, *_ in calls} == set("ABCD")


def test_perturbed_r0_fails_both_suites_that_read_a(monkeypatch, capsys):
    from sdreflect.dyncore import constant_dynmat
    from sdreflect.scenarios import Scenario

    rng = np.random.default_rng(19)
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    R0_mat = Scenario.R0_mat
    residuals = []
    for eps in (1e-7, 1e-6):
        monkeypatch.setattr(Scenario, "R0_mat", lambda self, eps=eps: R0_mat(self)
                            + constant_dynmat(self.scheme, (1, 2), eps * X))
        assert run(["--builtin", "diagonal_dressed", "--suite", "ybce", "--suite", "sdre",
                    "--format", "structured"]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not checks["ybce_a"]["pass"] and not checks["sdre"]["pass"]
        residuals.append([checks[name]["max_residual"] for name in ("ybce_a", "sdre")])
    # both residuals are linear in eps
    for small, large in zip(*residuals):
        assert 5 <= large / small <= 20

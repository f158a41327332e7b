"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

The traced-run tests run every workload twice and take a few minutes.
"""

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import workloads
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("sampling.draws", "exprparse.leaf_evals", "exprparse.leaf_distinct",
          "dyncore.evals", "dyncore.placements", "consistency.points",
          "shiftops.compose_calls", "shiftops.terms", "shiftops.coeff_evals")


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def synthetic_report(exp):
    """A structured report that meets ``exp`` exactly."""
    zeros = exp.get("exact_zero", ())
    return {"checks": [{"name": n, "pass": ok,
                        "max_residual": 0.0 if n in zeros else (1e-16 if ok else 0.5)}
                       for n, ok in exp["checks"]]}


def test_expectations_cover_the_named_exact_zeros():
    catalog = workloads.load_expectations("catalog")
    builtins = [e for e in catalog if e["argv"][0] == "--builtin"]
    assert len(builtins) == 6
    for e in builtins:
        assert {"zero_weight_B", "zero_weight_C", "zero_weight_D"} <= set(e["exact_zero"])
    assert {e["id"] for e in builtins if "zwc" in e.get("exact_zero", ())} == {
        "constant_g", "spectral_shift_g"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_verdict_check_rejects_flipped_expectation(workload):
    for exp in workloads.load_expectations(workload):
        doc = synthetic_report(exp)
        assert workloads.verdict_errors(exp, exp["exit"], doc) == []
        for k in range(len(exp["checks"])):
            flipped = copy.deepcopy(exp)
            flipped["checks"][k][1] = not flipped["checks"][k][1]
            assert workloads.verdict_errors(flipped, exp["exit"], doc), (exp["id"], k)
        assert workloads.verdict_errors(exp, 1 - exp["exit"], doc)
        assert workloads.verdict_errors(exp, exp["exit"], None)


def test_verdict_check_rejects_inexact_zero_and_non_finite_residual():
    exp = workloads.load_expectations("catalog")[0]
    doc = synthetic_report(exp)
    doc["checks"][0]["max_residual"] = 1e-300
    assert workloads.verdict_errors(exp, exp["exit"], doc)
    doc = synthetic_report(exp)
    doc["checks"][-1]["max_residual"] = float("nan")
    assert workloads.verdict_errors(exp, exp["exit"], doc)


def test_real_negative_control_meets_and_flipped_fails(tmp_path):
    gate = next(e for e in workloads.load_expectations("chain")
                if e["id"] == "gate_r0_constant")
    [(exp, argv)] = workloads.build_invocations([gate], 7, str(tmp_path))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = workloads.cli.run(argv)
    doc = json.loads(buf.getvalue())
    assert workloads.verdict_errors(exp, code, doc) == []
    flipped = copy.deepcopy(exp)
    flipped["must_fail"] = "ybce_b"
    assert workloads.verdict_errors(flipped, code, doc)
    flipped = copy.deepcopy(exp)
    flipped["checks"][1][1] = True
    assert workloads.verdict_errors(flipped, code, doc)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_command_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    lines = proc.stdout.splitlines()
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(ln.split()[:1] == [m["name"]] and ln.split()[2] == m["unit"]
                   for ln in lines), m["name"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert any(ln.startswith("verdict_errors ") and " share " in ln for ln in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert set(first["metrics"]) == set(LAYER_METRICS) == {
        m["name"] for m in BENCHMARK["per_layer"]}
    assert first["correct"] and second["correct"]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["exprparse.leaf_evals"]["value"] > 0
    assert first["metrics"]["dyncore.placements"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0",
                 root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

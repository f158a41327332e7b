"""One workload in one process: generate inputs, time ``cli.run``, check verdicts.

Started by ``run.py`` with the BLAS thread count pinned; prints one JSON
object on its last stdout line.  The program under test only sees the
scenario files written here and the argv in ``expected.json``.

    python3 bench/workloads.py --workload chain --seed 3 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = tuple(json.loads((HERE / "expected.json").read_text()))
# setup-only rounds per run, on top of one setup per timed pass
SETUP_ROUNDS = 5

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402

from sdreflect import cli  # noqa: E402
from sdreflect.scenarios import builtin_scenario  # noqa: E402


def load_expectations(workload):
    with open(HERE / "expected.json") as fh:
        return json.load(fh)[workload]


# -- inputs ----------------------------------------------------------------


def _constant_spec(m):
    return {"kind": "constant",
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m]}


def _r0_constant(seed):
    """diagonal_dressed with R0 replaced by a seeded generic constant matrix,
    which breaks every relation R0 enters (ybce_a first)."""
    data = builtin_scenario("diagonal_dressed").to_dict()
    rng = np.random.default_rng([seed, 1])
    data["R0"] = _constant_spec(np.eye(4) + 0.4 * rng.normal(size=(4, 4)))
    return data, data["R0"]["entries"]


def _q_offdiag(seed):
    """diagonal_dressed with a seeded constant off-diagonal entry in q,
    so the twisted D is no longer zero weight."""
    data = builtin_scenario("diagonal_dressed").to_dict()
    c = float(np.random.default_rng([seed, 2]).uniform(0.2, 0.6))
    q1, q2 = data["q"]["entries"]
    data["q"] = {"kind": "matrix", "entries": [[q1, repr(c)], ["0", q2]]}
    return data, [c]


def _rank3(name):
    def make(seed):
        return builtin_scenario(name, {"rank": 3, "sites": 2}).to_dict(), []
    return make


SCENARIO_FILES = {
    "r0_constant": _r0_constant,
    "q_offdiag": _q_offdiag,
    "diagonal_dressed_rank3": _rank3("diagonal_dressed"),
    "trivial_yangian_rank3": _rank3("trivial_yangian"),
}


def build_invocations(expectations, seed, workdir):
    """(expectation, argv) per invocation; writes the scenario files it needs.

    The seed only enters the negative-control perturbations.  Every
    invocation samples with its scenario's own sampler seed, so the
    positive verdicts and the sampled work are the same for every
    workload seed.
    """
    paths = {}
    out = []
    for exp in expectations:
        argv = []
        for arg in exp["argv"]:
            if arg.startswith("{") and arg.endswith("}"):
                key = arg[1:-1]
                if key not in paths:
                    data, perturbation = SCENARIO_FILES[key](seed)
                    if not np.all(np.isfinite(np.asarray(perturbation, dtype=float))):
                        raise ValueError(f"non-finite perturbation in {key}")
                    paths[key] = os.path.join(workdir, f"{key}.json")
                    with open(paths[key], "w") as fh:
                        json.dump(data, fh)
                arg = paths[key]
            argv.append(arg)
        out.append((exp, argv + ["--format", "structured"]))
    return out


# -- verdicts -------------------------------------------------------------


def verdict_errors(exp, code, doc):
    """Ways one invocation's outcome differs from its expectation (empty: ok)."""
    errs = []
    if code != exp["exit"]:
        errs.append(f"exit code {code}, expected {exp['exit']}")
    if doc is None:
        return errs + ["no structured report"]
    got = [[c["name"], c["pass"]] for c in doc["checks"]]
    if got != exp["checks"]:
        errs.append(f"checks {got}, expected {exp['checks']}")
    for c in doc["checks"]:
        r = c["max_residual"]
        if not (math.isfinite(r) and r >= 0.0):
            errs.append(f"{c['name']}: residual {r!r} is not a finite non-negative number")
        if c["name"] in exp.get("exact_zero", ()) and r != 0.0:
            errs.append(f"{c['name']}: residual {r!r}, expected exactly 0.0")
    must_fail = exp.get("must_fail")
    if must_fail and not any(c["name"] == must_fail and not c["pass"] for c in doc["checks"]):
        errs.append(f"negative control did not fail on {must_fail}")
    return errs


# -- timing ---------------------------------------------------------------


class SetupDone(Exception):
    """Raised at the first suite of a setup-only invocation."""


class Boundary:
    """The one timestamp per invocation: when its first suite starts."""

    def __init__(self):
        self.t = None
        self.setup_only = False
        run_suite = cli.Rig.run_suite

        def stamped(rig, suite):
            if self.t is None:
                self.t = perf_counter()
                if self.setup_only:
                    raise SetupDone
            return run_suite(rig, suite)

        cli.Rig.run_suite = stamped


def run_pass(invocations, boundary, tracer=None, setup_only=False):
    """Run every invocation once.

    Returns (setup times, verify times, failed), one time per invocation;
    an invocation that raised counts as failed.  With ``setup_only`` each
    invocation stops where its first suite would start and no verdict is
    checked.
    """
    setups, verifies = [], []
    failed = 0
    boundary.setup_only = setup_only
    for k, (exp, argv) in enumerate(invocations):
        if tracer is not None:
            tracer.invocation = k
        buf = io.StringIO()
        boundary.t = None
        code = doc = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
        except SetupDone:
            pass
        except Exception:
            traceback.print_exc()
        t1 = perf_counter()
        split = t1 if boundary.t is None else boundary.t
        setups.append(split - t0)
        if setup_only:
            continue
        verifies.append(t1 - split)
        if code is not None:
            try:
                doc = json.loads(buf.getvalue())
            except json.JSONDecodeError:
                pass
        errs = verdict_errors(exp, code, doc)
        if errs:
            failed += 1
            print(f"verdict error in {exp['id']}: " + "; ".join(errs), file=sys.stderr)
    return setups, verifies, failed


def sum_of_medians(rounds):
    """Sum over invocations of each invocation's median over rounds."""
    return sum(statistics.median(col) for col in zip(*rounds))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    task_dir = "/proc/self/task"
    return {
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "os_threads": len(os.listdir(task_dir)) if os.path.isdir(task_dir) else None,
        "seed": seed,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seed = args.seed % 2**32

    OUT.mkdir(exist_ok=True)
    expectations = load_expectations(args.workload)
    boundary = Boundary()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        invocations = build_invocations(expectations, seed, workdir)
        # warm the interpreter and numpy code paths; sdreflect keeps no
        # state between cli.run calls, so nothing the workload needs is cached
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["--builtin", "trivial_yangian", "--suite", "zero-weight",
                     "--samples", "2"])
        start = perf_counter()
        setups = [] if args.trace else [
            run_pass(invocations, boundary, setup_only=True)[0]
            for _ in range(SETUP_ROUNDS)]
        passes = []
        while True:
            t0 = perf_counter()
            passes.append(run_pass(invocations, boundary))
            took = perf_counter() - t0
            if args.trace or perf_counter() - start + took > args.seconds:
                break
        result = {
            "workload": args.workload,
            "passes": len(passes),
            "attempted": len(invocations) * len(passes),
            "failed": sum(f for _, _, f in passes),
            "env": environment(seed),
            "setup_s": sum_of_medians(setups + [s for s, _, _ in passes]),
            "verify_s": sum_of_medians([v for _, v, _ in passes]),
        }
        if args.trace:
            from tracing import LAYER_METRICS, Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
            _, traced_verify, failed = run_pass(invocations, boundary, tracer)
            result["attempted"] += len(invocations)
            result["failed"] += failed
            values = layer_metrics(tracer, sum(traced_verify), result["verify_s"])
            result["layers"] = {name: {"value": values[name], "unit": unit}
                                for name, (unit, _) in LAYER_METRICS.items()}
            spans = OUT / f"spans-{args.workload}-seed{seed}.csv.gz"
            tracer.dump(spans)
            result["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Walkthrough: scenario files and the verification front end.

Scenarios are JSON documents with matrix entries written in a small
expression grammar.  This demo writes one to disk, loads it back, and
drives the full verification through the same entry point the
command-line tool uses.
"""

import json
import tempfile
from pathlib import Path

from sdreflect.cli import run
from sdreflect.exprparse import eval_ast, parse_expr
from sdreflect.scenarios import builtin_scenario, load_scenario

# the expression grammar
src = "exp(0.3*lambda1)/(2.5+0.1*lambda2) + i*gamma"
ast = parse_expr(src)
print(f"expression: {src}")
print(f"value at lambda = (1, 2), gamma = 1: {eval_ast(ast, [1.0, 2.0], gamma=1.0):.6f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "dressed.json"
    scenario = builtin_scenario("diagonal_dressed")
    scenario.save(path)
    print(f"\nwrote {path.name}: {len(path.read_text())} bytes")

    reloaded = load_scenario(path)
    print(f"reloaded scenario {reloaded.name!r}, rank {reloaded.rank}, "
          f"tolerance {reloaded.tolerance}")

    report = Path(tmp) / "report.json"
    code = run(["--scenario", str(path), "--suite", "zero-weight",
                "--suite", "dybe", "--samples", "10", "--seed", "5",
                "--report", str(report)])
    print(f"\nverification exit code: {code}")
    doc = json.loads(report.read_text())
    print(f"report: pass={doc['pass']} with {len(doc['checks'])} checks")
    for check in doc["checks"]:
        print(f"  {check['name']}: {check['max_residual']:.2e}")

"""sdreflect benchmark launcher: one fresh single-threaded process per workload.

    python3 bench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (setup_s, verify_s,
peak_rss_mb; verdict errors as ``failed`` of ``attempted``), with
``--trace 1`` the per-layer metrics of one traced pass.  The last stdout
line is one JSON object; the lines before it name every metric with its
unit and record the environment.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(json.loads((HERE / "expected.json").read_text()))
TIMEOUT_S = 170
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sdreflect" / "cli.py").is_file():
        print(f"error: no sdreflect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env={**os.environ, **PINNED_ENV}) as proc:
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"error: workload exceeded {TIMEOUT_S} s", file=sys.stderr)
            return 3
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(out.strip().splitlines()[-1])
    # the only child this process started, so its peak is the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    if args.trace:
        metrics = child["layers"]
    else:
        metrics = {
            "setup_s": {"value": child["setup_s"], "unit": "s"},
            "verify_s": {"value": child["verify_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    attempted, failed = child["attempted"], child["failed"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={child['passes']}")
    print(f"# env {json.dumps(child['env'], sort_keys=True)}")
    if args.trace:
        print(f"# spans written to {child['spans']}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'verdict_errors':32s} {failed / attempted:.6g} share "
          f"({failed} of {attempted} invocations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: the check table, suite selection, execution,
reporting.

Exit codes: 0 all checks passed, 1 at least one check failed,
2 usage or configuration error (a run that checks nothing included).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

from .consistency import (
    CUBIC,
    StructureSet,
    residual_cubic,
    residual_projector_compat,
    residual_sdre,
    residual_theta_period,
    residual_zero_weight,
    residual_zwc,
)
from .dyncore import memoized
from .exprparse import EvalOverflowError
from .monodromy import (
    build_monodromy_direct,
    build_monodromy_factored,
    transfer_commutation,
)
from .parametrize import (
    auto_dress,
    build_A,
    build_BC,
    build_BC_projector,
    build_D_twist,
    detwist,
)
from .sampling import RetryCapError
from .scenarios import (
    Scenario,
    ScenarioError,
    builtin_names,
    builtin_scenario,
    is_tolerance,
    load_scenario,
)
from .shiftops import shiftop_difference_residual
from .solutions import (
    IntertwinerSpec,
    build_K_nondyn,
    build_dual,
    residual_intertwiner,
)


class Rig:
    """A scenario compiled into its derived verification objects."""

    def __init__(self, scenario: Scenario, samples=None, seed=None, tol=None,
                 sites=None):
        self.scenario = scenario
        self.scheme = scenario.scheme
        self.tol = scenario.tolerance if tol is None else tol
        self.sites = scenario.sites if sites is None else sites
        self.b = scenario.b_mat()
        self.q = scenario.q_mat()
        self.R0 = scenario.R0_mat()
        self.Rbar = scenario.Rbar_mat()
        self.g = scenario.g_auto()
        self.beta = auto_dress(self.b, self.g)
        self.projs = scenario.projector_list()
        if self.projs is not None:
            B, C = build_BC_projector(self.b, self.projs, self.scheme)
        else:
            B, C = build_BC(self.b, self.g, self.scheme)
        structure = (build_A(self.R0, self.b, self.g, self.scheme), B, C,
                     build_D_twist(self.Rbar or self.R0, self.q, self.scheme))
        # the chain builders read the structure matrices as they are: a
        # chain check evaluates each of its factors once (its factor pass)
        self.S = StructureSet(*structure, self.scheme, self.g)
        # every other suite and the transfer gate read one evaluation of
        # each per distinct point set, kept for this rig only
        self.A, self.B, self.C, self.D = map(memoized, structure)
        self.kept = StructureSet(self.A, self.B, self.C, self.D, self.scheme, self.g)
        self.Q = scenario.Q
        self.QL = scenario.Q_L
        # direct reflection solution K = beta^-1 Q q and its twisted core
        self.K = build_K_nondyn(self.Q, self.beta, self.q)
        self.kappa = self.beta @ self.K @ self.q.inv()
        self.chi = build_dual(self.q, self.b, self.g, self.QL)
        self.points = scenario.sample(count=samples, seed=seed, leaves=(self.b, self.q))
        # cubic-relation reports by (letter, point count, bound): ybce /
        # gybce, dybe and the transfer gate share them
        self._cubic = {}

    def monodromy_applicable(self):
        return self.Rbar is None and self.projs is None

    def chain_sizes(self):
        """The chain lengths the chain suites certify: one site and the
        requested length."""
        return sorted({1, self.sites})

    def cubic(self, letter, name, points, tol):
        """Cubic relation ``letter`` under the check name ``name``; each
        relation is evaluated once per point set (a prefix of the rig's
        points) and bound."""
        key = letter, len(points), tol
        if key not in self._cubic:
            self._cubic[key] = residual_cubic(self.kept, letter, points, tol)
        return replace(self._cubic[key], check_name=name)

    def run_suite(self, suite):
        """Returns (reports, notices) of the suite's rows; empty reports
        with a notice means the suite does not apply to this scenario's
        ingredients."""
        if suite not in SUITE_REASONS:
            raise ScenarioError(f"unknown suite {suite!r}")
        reason = SUITE_REASONS[suite](self)
        if reason:
            return [], [reason]
        out = [x for row in CHECK_TABLE if row.suite == suite
               for x in row.build(self, self.points[:row.count], row.tol or self.tol)]
        return ([x for x in out if not isinstance(x, str)],
                [x for x in out if isinstance(x, str)])


def _unless(applies, reason):
    """A suite's reason-not-applicable: ``reason`` unless ``applies(rig)``."""
    return lambda rig: None if applies(rig) else reason


_ALWAYS = _unless(lambda rig: True, None)  # applies to every scenario
_NONTRIVIAL_G = _unless(lambda rig: not rig.g.is_identity,
                        "trivial for the identity automorphism")

# suite -> its reason not to apply to a rig (None: it applies), in the
# order ``all`` runs them
SUITE_REASONS = {
    "zero-weight": _ALWAYS,
    "ybce": _unless(lambda rig: rig.g.is_identity,
                    "superseded by gybce for a non-trivial automorphism"),
    "gybce": _NONTRIVIAL_G,
    "dybe": _ALWAYS,
    "sdre": _ALWAYS,
    "intertwiner": _ALWAYS,
    "detwist": _ALWAYS,
    "theta-period": _ALWAYS,
    "monodromy-factor": _unless(lambda rig: rig.g.is_identity and rig.monodromy_applicable(),
                                "needs the invertible identity-automorphism chain"),
    "transfer-commute": _unless(Rig.monodromy_applicable, "needs the invertible single-R0 chain"),
    "zwc": _NONTRIVIAL_G,
}
SUITES = tuple(SUITE_REASONS)

# the bounds of the rows that are not held to the rig's tolerance
ZERO_WEIGHT_TOL = 1e-13
THETA_TOL = 1e-10
CHAIN_TOL = 1e-8
# the auxiliary spectral value of the factorization check's chains, and
# the members u_0 of the traced family whose commutation is checked
CHAIN_AUX = 0.52 + 0.21j
FAMILY = (0.52 + 0.21j, -0.63 + 0.77j, 2.31 - 0.52j)
# the names the transfer gate gives its reports, where they differ
GATE_NAMES = {"zero_weight_D": "twist_zero_weight_D", "sdre": "sdre_reflection"}


@dataclass(frozen=True)
class Row:
    """One row of the check table.

    ``build(rig, points, tol)`` returns the row's reports, each over
    ``points`` and held to ``tol``; a str among them is a notice.  A row
    runs over the first ``count`` sampled points (None: all of them),
    held to ``tol`` (None: the rig's tolerance).  ``gate`` marks a row
    of the transfer gate, which holds it to max(rig tolerance, gate).
    """

    suite: str
    build: Callable
    tol: float = None
    count: int = None
    gate: float = None


def _sdre_scalar(rig, points, tol):
    if rig.Rbar is not None:
        return ["no invertible scalar solution exists when the twist core differs "
                "from R0; skipping sdre_scalar"]
    return [residual_sdre(rig.kept, rig.beta.inv() @ rig.q, points, tol, name="sdre_scalar")]


def _detwist(rig, points, tol):
    candidates = [] if rig.scenario.f is None else [("f", rig.scenario.f_auto())]
    result = detwist(rig.D, rig.q, rig.scheme, points, tol, candidates=candidates)
    return [result.nondyn_report, *result.quasi_reports.values(),
            f"verdicts: {', '.join(result.verdicts)}"]


def _monodromy_factor(rig, points, tol):
    reps = []
    for N in rig.chain_sizes():
        uq = rig.scenario.quantum_values(N)
        Td = build_monodromy_direct(rig.S, rig.K, rig.chi, N, uq, CHAIN_AUX)
        Tf = build_monodromy_factored(rig.scheme, rig.R0, rig.b, rig.q, rig.Q, rig.chi, N, uq,
                                      CHAIN_AUX)
        reps.append(shiftop_difference_residual(Td, Tf, points, tol,
                                                name=f"monodromy_factorization_N{N}"))
    return reps


def _transfer_commute(rig, points, tol):
    """Per chain size, the commutation of its traced family; or, when a
    row of the gate fails at these points (each row held to its gate
    bound), the failing gate reports in gate order instead."""
    reps, failed = [], None  # the gate runs for the first size only
    for N in rig.chain_sizes():
        uq = rig.scenario.quantum_values(N)
        if failed is None:
            gate = [row for row in CHECK_TABLE
                    if row.gate is not None and not SUITE_REASONS[row.suite](rig)]
            failed = [replace(r, check_name=GATE_NAMES.get(r.check_name, r.check_name))
                      for row in gate for r in row.build(rig, points, max(rig.tol, row.gate))
                      if not r.passed]
        if failed:
            reps.extend(failed)
            continue
        # one chain per size, its auxiliary slot free: the family's members are its rows
        if rig.g.is_identity:
            chain = build_monodromy_direct(rig.S, rig.K, rig.chi, N, uq, None)
        else:
            chain = build_monodromy_factored(rig.scheme, rig.R0, rig.b, rig.q, rig.Q,
                                             rig.chi, N, uq, None, g=rig.g, QL=rig.QL)
        reps.append(transfer_commutation(chain, FAMILY, points, tol,
                                         name=f"transfer_commutation_N{N}"))
    return reps


# every check, in the order a suite lists its reports; the gate rows are
# in the transfer gate's order
CHECK_TABLE = (
    *(Row("zero-weight", lambda rig, pts, tol, k=k: [
        residual_zero_weight(getattr(rig, k), k, pts, tol)], tol=ZERO_WEIGHT_TOL, gate=0.0)
      for k in "BCD"),
    *(Row(suite, lambda rig, pts, tol, c=c, s=suite: [rig.cubic(c, f"{s}_{c}", pts, tol)],
          gate=0.0) for suite in ("ybce", "gybce") for c in CUBIC),
    Row("zwc", lambda rig, pts, tol: [residual_zwc(rig.kept, pts, tol)], gate=0.0),
    Row("dybe", lambda rig, pts, tol: [rig.cubic("d", "dybe", pts, tol)]),
    Row("sdre", lambda rig, pts, tol: [residual_sdre(rig.kept, rig.K, pts, tol)], gate=0.0),
    Row("sdre", _sdre_scalar),
    Row("intertwiner", lambda rig, pts, tol: [residual_intertwiner(
        IntertwinerSpec(rig.R0, rig.Rbar or rig.R0), rig.Q, pts, tol, name="intertwiner_Q")]),
    Row("intertwiner", lambda rig, pts, tol: [residual_intertwiner(
        IntertwinerSpec(rig.R0, rig.R0), rig.QL, pts, tol, name="intertwiner_QL")]),
    Row("intertwiner", lambda rig, pts, tol: [] if rig.projs is None else [
        residual_projector_compat(rig.R0, rig.projs, rig.b, pts, tol)]),
    Row("detwist", _detwist),
    Row("theta-period", lambda rig, pts, tol: [residual_theta_period(rig.kappa, pts, tol)],
        tol=THETA_TOL, gate=THETA_TOL),
    Row("monodromy-factor", _monodromy_factor, tol=CHAIN_TOL, count=8),
    Row("transfer-commute", _transfer_commute, tol=CHAIN_TOL, count=12),
)


def applicable_suites(rig: Rig):
    """(applicable, skipped) suite names for this scenario's ingredients."""
    out, skipped = [], []
    for suite, why_not in SUITE_REASONS.items():
        reason = why_not(rig)
        if reason:
            skipped.append((suite, reason))
        else:
            out.append(suite)
    return out, skipped


def write_report(document, path):
    """Serialize the report document; byte-stable for identical inputs."""
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


def build_parser():
    p = argparse.ArgumentParser(
        prog="sdreflect-verify",
        description="Residual verification suites for reflection-algebra structures",
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument("--scenario", metavar="PATH", help="scenario file (JSON)")
    src.add_argument("--builtin", metavar="NAME", help="catalog scenario name")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name (repeatable; default: all)")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--report", metavar="PATH", help="write the JSON report here")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--list-builtins", action="store_true")
    p.add_argument("--list-suites", action="store_true")
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.list_builtins:
        for name in builtin_names():
            print(name)
        return 0
    if args.list_suites:
        for name in SUITES + ("all",):
            print(name)
        return 0
    if not args.scenario and not args.builtin:
        print("error: a scenario is required (--scenario or --builtin)", file=sys.stderr)
        return 2
    if args.tol is not None and not is_tolerance(args.tol):
        print(f"error: --tol must be finite and positive, got {args.tol}", file=sys.stderr)
        return 2
    for flag, value, low in (("--samples", args.samples, 1), ("--seed", args.seed, 0),
                             ("--sites", args.sites, 1)):
        if value is not None and value < low:
            print(f"error: {flag} must be at least {low}, got {value}", file=sys.stderr)
            return 2

    t0 = time.monotonic()
    try:
        if args.builtin:
            scenario = builtin_scenario(args.builtin)
        else:
            scenario = load_scenario(args.scenario)
        rig = Rig(scenario, samples=args.samples, seed=args.seed, tol=args.tol,
                  sites=args.sites)
        suites, notices, seen = [], [], set()  # each suite runs once, at its first request
        for s in args.suite or ["all"]:
            if s == "all":
                applicable, skipped = applicable_suites(rig)
                suites.extend(name for name in applicable if name not in seen)
                notices.extend(f"[{name}] skipped: {why}" for name, why in skipped
                               if name not in seen)
                seen.update(SUITES)
            elif s not in SUITES:
                print(f"error: unknown suite {s!r} (see --list-suites)", file=sys.stderr)
                return 2
            elif s not in seen:
                suites.append(s)
                seen.add(s)
        reports = []
        for suite in suites:
            reps, notes = rig.run_suite(suite)
            reports.extend(reps)
            notices.extend(f"[{suite}] {n}" for n in notes)
        if not reports:
            print(f"error: no requested suite applies: {'; '.join(notices)}", file=sys.stderr)
            return 2
    except (ScenarioError, OSError, ValueError, RetryCapError, EvalOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation that failed (its size and shape)
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2

    elapsed_ms = int(1000 * (time.monotonic() - t0))
    ok = all(r.passed for r in reports)
    document = {
        "scenario": scenario.name,
        "suite": "+".join(suites),
        "pass": bool(ok),
        # deterministic by design so reports stay byte-stable; wall time
        # goes to the text summary instead
        "runtime_ms": None,
        "checks": [r.to_dict() for r in reports],
        "notices": notices,
    }
    if args.format == "structured":
        print(json.dumps(document, indent=1, sort_keys=True))
    else:
        print(f"scenario: {scenario.name}")
        for n in notices:
            print(f"note: {n}")
        for r in reports:
            print(str(r))
        print(f"{'PASS' if ok else 'FAIL'} ({len(reports)} checks, {elapsed_ms} ms)")
    if args.report:
        try:
            write_report(document, args.report)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

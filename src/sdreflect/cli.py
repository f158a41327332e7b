"""Command-line front end: suite selection, execution, reporting.

Exit codes: 0 all checks passed, 1 at least one check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

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
    ingredient_reports,
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
        # every suite and the transfer gate read one evaluation of each
        # structure matrix per distinct point set, kept for this rig only
        self.A, self.B, self.C, self.D = map(memoized, (
            build_A(self.R0, self.b, self.g, self.scheme), B, C,
            build_D_twist(self.Rbar or self.R0, self.q, self.scheme)))
        self.S = StructureSet(self.A, self.B, self.C, self.D, self.scheme, self.g)
        self.Q = scenario.Q
        self.QL = scenario.Q_L
        # direct reflection solution K = beta^-1 Q q and its twisted core
        self.K = build_K_nondyn(self.Q, self.beta, self.q)
        self.kappa = self.beta @ self.K @ self.q.inv()
        self.chi = build_dual(self.q, self.b, self.g, self.QL)
        self.points = scenario.sample(count=samples, seed=seed, leaves=(self.b, self.q))
        # cubic-relation reports by letter: ybce / gybce and dybe share
        # relation d
        self._cubic = {}

    def monodromy_applicable(self):
        return self.Rbar is None and self.projs is None

    def cubic(self, letter, name):
        """Cubic relation ``letter`` under the check name ``name``; each
        relation is evaluated once per rig."""
        if letter not in self._cubic:
            self._cubic[letter] = residual_cubic(self.S, letter, self.points, self.tol)
        return replace(self._cubic[letter], check_name=name)

    def run_suite(self, suite):
        """Returns (reports, notices); empty reports with a notice means
        the suite does not apply to this scenario's ingredients."""
        if suite not in SUITE_TABLE:
            raise ScenarioError(f"unknown suite {suite!r}")
        why_not, run = SUITE_TABLE[suite]
        reason = why_not(self)
        return ([], [reason]) if reason else run(self)

    # -- suite bodies, each returning (reports, notices) --------------------

    def _zero_weight(self):
        return [residual_zero_weight(X, kind, self.points, 1e-13)
                for X, kind in ((self.B, "B"), (self.C, "C"), (self.D, "D"))], []

    def _sdre(self):
        reps = [residual_sdre(self.S, self.K, self.points, self.tol)]
        notes = []
        if self.Rbar is None:
            scalar = self.beta.inv() @ self.q
            reps.append(residual_sdre(self.S, scalar, self.points, self.tol,
                                      name="sdre_scalar"))
        else:
            notes.append("no invertible scalar solution exists when the "
                         "twist core differs from R0; skipping sdre_scalar")
        return reps, notes

    def _intertwiner(self):
        pts, tol = self.points, self.tol
        reps = [
            residual_intertwiner(IntertwinerSpec(self.R0, self.Rbar or self.R0), self.Q,
                                 pts, tol, name="intertwiner_Q"),
            residual_intertwiner(IntertwinerSpec(self.R0, self.R0), self.QL,
                                 pts, tol, name="intertwiner_QL"),
        ]
        if self.projs is not None:
            reps.append(residual_projector_compat(self.R0, self.projs, self.b, pts, tol))
        return reps, []

    def _detwist(self):
        candidates = []
        if self.scenario.f is not None:
            candidates.append(("f", self.scenario.f_auto()))
        result = detwist(self.D, self.q, self.scheme, self.points, self.tol,
                         candidates=candidates)
        reps = [result.nondyn_report] + list(result.quasi_reports.values())
        return reps, [f"verdicts: {', '.join(result.verdicts)}"]

    def _chain_sizes(self):
        """The chain lengths the chain suites certify: one site and the
        requested length."""
        return sorted({1, self.sites})

    def _monodromy_factor(self):
        reps = []
        for N in self._chain_sizes():
            uq = self.scenario.quantum_values(N)
            u0 = 0.52 + 0.21j
            Td = build_monodromy_direct(self.S, self.K, self.chi, N, uq, u0)
            Tf = build_monodromy_factored(
                self.scheme, self.R0, self.b, self.q, self.Q,
                self.chi, N, uq, u0,
            )
            reps.append(shiftop_difference_residual(
                Td, Tf, self.points[: min(8, len(self.points))], 1e-8,
                name=f"monodromy_factorization_N{N}",
            ))
        return reps, []

    def _transfer_commute(self):
        u_list = [0.52 + 0.21j, -0.63 + 0.77j, 2.31 - 0.52j]
        points = self.points[: min(12, len(self.points))]
        reps = []
        gate = None  # the ingredient reports, computed for the first size only
        for N in self._chain_sizes():
            uq = self.scenario.quantum_values(N)
            if gate is None:
                gate = ingredient_reports(self.S, self.K, self.kappa, points, self.tol)
            failed = [rep for rep in gate.values() if not rep.passed]
            if failed:
                reps.extend(failed)
                continue
            if self.g.is_identity:
                chains = [build_monodromy_direct(self.S, self.K, self.chi, N, uq, u0)
                          for u0 in u_list]
            else:
                chains = [build_monodromy_factored(
                    self.scheme, self.R0, self.b, self.q, self.Q, self.chi, N, uq, u0,
                    g=self.g, QL=self.QL) for u0 in u_list]
            rep = transfer_commutation(chains, points)
            rep.check_name = f"transfer_commutation_N{N}"
            reps.append(rep)
        return reps, []


def _unless(applies, reason):
    """A suite's reason-not-applicable: ``reason`` unless ``applies(rig)``."""
    return lambda rig: None if applies(rig) else reason


_ALWAYS = _unless(lambda rig: True, None)  # applies to every scenario
_NONTRIVIAL_G = _unless(lambda rig: not rig.g.is_identity,
                        "trivial for the identity automorphism")

# suite -> (reason it does not apply to a rig, or None; run(rig) ->
# (reports, notices)), in the order ``all`` runs them
SUITE_TABLE = {
    "zero-weight": (_ALWAYS, Rig._zero_weight),
    "ybce": (_unless(lambda rig: rig.g.is_identity,
                     "superseded by gybce for a non-trivial automorphism"),
             lambda rig: ([rig.cubic(c, f"ybce_{c}") for c in CUBIC], [])),
    "gybce": (_NONTRIVIAL_G, lambda rig: ([rig.cubic(c, f"gybce_{c}") for c in CUBIC], [])),
    "dybe": (_ALWAYS, lambda rig: ([rig.cubic("d", "dybe")], [])),
    "sdre": (_ALWAYS, Rig._sdre),
    "intertwiner": (_ALWAYS, Rig._intertwiner),
    "detwist": (_ALWAYS, Rig._detwist),
    "theta-period": (_ALWAYS, lambda rig: (
        [residual_theta_period(rig.kappa, rig.points, 1e-10)], [])),
    "monodromy-factor": (
        _unless(lambda rig: rig.g.is_identity and rig.monodromy_applicable(),
                "needs the invertible identity-automorphism chain"),
        Rig._monodromy_factor),
    "transfer-commute": (_unless(Rig.monodromy_applicable,
                                 "needs the invertible single-R0 chain"),
                         Rig._transfer_commute),
    "zwc": (_NONTRIVIAL_G, lambda rig: ([residual_zwc(rig.S, rig.points, rig.tol)], [])),
}
SUITES = tuple(SUITE_TABLE)


def applicable_suites(rig: Rig):
    """(applicable, skipped) suite names for this scenario's ingredients."""
    out, skipped = [], []
    for suite, (why_not, _) in SUITE_TABLE.items():
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
        wanted = args.suite or ["all"]
        suites = []
        notices = []
        for s in wanted:
            if s == "all":
                applicable, skipped = applicable_suites(rig)
                suites.extend(applicable)
                notices.extend(f"[{name}] skipped: {why}" for name, why in skipped)
            elif s in SUITES:
                suites.append(s)
            else:
                print(f"error: unknown suite {s!r} (see --list-suites)", file=sys.stderr)
                return 2
        reports = []
        for suite in suites:
            reps, notes = rig.run_suite(suite)
            reports.extend(reps)
            notices.extend(f"[{suite}] {n}" for n in notes)
    except (ScenarioError, OSError, ValueError, RetryCapError, EvalOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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

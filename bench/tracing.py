"""Span tracing of sdreflect from outside the package.

Every public function of every sdreflect module (plus the layer entry
points that are methods, and ``dyncore._place_matrix``) is replaced by a
wrapper that records a span ``(name, start, end, parent, invocation)``.
A wrapper is installed on *every* module binding of the function, so a
call through ``from .consistency import residual_ybce`` in ``cli`` or
``monodromy`` is traced like a call through the defining module, and
``DynMat.eval`` (which looks ``eval_dynmat`` up in ``dyncore`` at call
time) is traced too.

Spans stay in memory while the workload runs; ``Tracer.dump`` writes
them once at the end and ``layer_metrics`` derives the per-layer
numbers from them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("cli", "scenarios", "sampling", "exprparse", "dyncore", "consistency",
           "parametrize", "solutions", "shiftops", "monodromy")

SUITES = ("zero-weight", "ybce", "gybce", "dybe", "sdre", "intertwiner", "detwist",
          "theta-period", "monodromy-factor", "transfer-commute", "zwc")

MONODROMY_BUILDERS = ("build_monodromy_direct", "build_monodromy_factored",
                      "build_ON", "transfer_trace")
SHIFTOPS_RESIDUALS = ("shiftop_difference_residual", "shiftop_commutator")

# (unit, better) of every per-layer metric, in report order
LAYER_METRICS = {
    **{f"cli.suite_s.{s}": ("s", "lower") for s in SUITES},
    "scenarios.compile_s": ("s", "lower"),
    "scenarios.sample_s": ("s", "lower"),
    "sampling.draws": ("count", "lower"),
    "sampling.accept_ratio": ("ratio", "higher"),
    "exprparse.leaf_evals": ("count", "lower"),
    "exprparse.leaf_distinct": ("count", "lower"),
    "exprparse.leaf_reuse": ("ratio", "higher"),
    "exprparse.leaf_self_s": ("s", "lower"),
    "dyncore.evals": ("count", "lower"),
    "dyncore.eval_self_s": ("s", "lower"),
    "dyncore.placements": ("count", "lower"),
    "dyncore.place_s": ("s", "lower"),
    "dyncore.place_mb": ("MB", "lower"),
    "consistency.residual_s": ("s", "lower"),
    "consistency.points": ("count", "lower"),
    "parametrize.detwist_s": ("s", "lower"),
    "solutions.intertwiner_s": ("s", "lower"),
    "shiftops.compose_calls": ("count", "lower"),
    "shiftops.terms": ("count", "lower"),
    "shiftops.coeff_evals": ("count", "lower"),
    "shiftops.residual_s": ("s", "lower"),
    "monodromy.build_s": ("s", "lower"),
    "monodromy.certify_s": ("s", "lower"),
    "monodromy.gate_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    """In-memory span recorder plus the counters taken at the same calls."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, invocation)
        self._stack = []
        self.invocation = 0
        self.leaf_keys = set()
        self._leaf_nodes = {}
        self.place_bytes = 0
        self.terms = 0
        self.draws = 0
        self.accepts = 0
        self.residual_points = Counter()  # span index -> len(points)

    def _span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.invocation)

    def wrap(self, name, fn, before=None):
        """Return a traced version of ``fn``; ``before(span_index, *args)``
        runs first and records counts for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(len(self.spans), *args, **kwargs)
            return self._span(name, fn, args, kwargs)

        return traced

    # -- counters taken where the work happens ------------------------------

    def _leaf(self, idx, node, lam, u=None, gamma=1.0):
        # holding the node keeps its id from being reused by a later AST
        self._leaf_nodes.setdefault(id(node), node)
        lam_key = np.asarray(lam, dtype=complex).tobytes()
        u_key = tuple(sorted((u or {}).items()))
        self.leaf_keys.add((id(node), lam_key, u_key, complex(gamma)))

    def _place(self, idx, m, positions, total, n):
        self.place_bytes += 16 * n ** (2 * total)

    def _compose(self, idx, this, other):
        self.terms += len(this.terms) * len(other.terms)

    def _points_hook(self, fn):
        sig = inspect.signature(fn)

        def count(idx, *args, **kwargs):
            self.residual_points[idx] = len(sig.bind(*args, **kwargs).arguments["points"])

        return count

    def _counted_guard_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            guard = factory(*args, **kwargs)

            def counted(lam, u):
                rejected = guard(lam, u)
                self.draws += 1
                self.accepts += not rejected
                return rejected

            return counted

        return make

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap the layer functions on every binding callers look up."""
        mods = {m: sys.modules[f"sdreflect.{m}"] for m in MODULES}
        pkg = [mod for name, mod in sys.modules.items()
               if name == "sdreflect" or name.startswith("sdreflect.")]
        before = {
            ("exprparse", "eval_ast"): self._leaf,
            ("dyncore", "_place_matrix"): self._place,
        }
        for short, mod in mods.items():
            targets = {name: obj for name, obj in vars(mod).items()
                       if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                       and not name.startswith("_")}
            if short == "dyncore":
                targets["_place_matrix"] = mod._place_matrix
            for name, fn in targets.items():
                if short == "sampling" and name == "invertibility_guard":
                    new = self._counted_guard_factory(fn)
                else:
                    hook = before.get((short, name))
                    if short == "consistency" and name.startswith("residual_"):
                        hook = self._points_hook(fn)
                    new = self.wrap(f"{short}.{name}", fn, hook)
                for other in pkg:
                    for attr, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, attr, new)

        cli, sc, so = mods["cli"], mods["scenarios"], mods["shiftops"]
        run_suite = cli.Rig.run_suite

        @functools.wraps(run_suite)
        def traced_suite(rig, suite):
            return self._span(f"cli.suite:{suite}", run_suite, (rig, suite), {})

        cli.Rig.run_suite = traced_suite
        sc.Scenario.sample = self.wrap("scenarios.Scenario.sample", sc.Scenario.sample)
        so.ShiftOpSum.compose = self.wrap("shiftops.ShiftOpSum.compose",
                                          so.ShiftOpSum.compose, self._compose)

    # -- output ---------------------------------------------------------------

    def dump(self, path):
        """Write every span as one CSV row (gzip), once, at the end."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start,end,parent,invocation\n")
            for i, (name, t0, t1, parent, inv) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{inv}\n")


def layer_metrics(tr: Tracer, traced_verify_s, untraced_verify_s):
    """Per-layer values (without units) derived from the recorded spans."""
    spans = tr.spans
    dur = [t1 - t0 for _, t0, t1, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]

    def outermost(group):
        """Indices of spans in ``group`` with no ancestor in ``group``
        (parents are recorded before their children)."""
        covered = [False] * len(spans)
        out = []
        for i, p in enumerate(parents):
            inside = p >= 0 and (covered[p] or names[p] in group)
            covered[i] = inside
            if names[i] in group and not inside:
                out.append(i)
        return out

    def inclusive(group):
        return sum(dur[i] for i in outermost(group))

    def where(name):
        return [i for i, n in enumerate(names) if n == name]

    residuals = {n for n in set(names) if n.startswith("consistency.residual_")}
    top_residuals = outermost(residuals)
    shift_res = {f"shiftops.{n}" for n in SHIFTOPS_RESIDUALS}
    evals = where("dyncore.eval_dynmat")
    leaves = where("exprparse.eval_ast")
    places = where("dyncore._place_matrix")
    leaf_evals = len(leaves)

    m = {f"cli.suite_s.{s}": inclusive({f"cli.suite:{s}"}) for s in SUITES}
    m.update({
        "scenarios.compile_s": inclusive({"scenarios.compile_matrix_spec",
                                          "scenarios.compile_automorphism_spec"}),
        "scenarios.sample_s": inclusive({"scenarios.Scenario.sample"}),
        "sampling.draws": tr.draws,
        "sampling.accept_ratio": tr.accepts / tr.draws if tr.draws else 0.0,
        "exprparse.leaf_evals": leaf_evals,
        "exprparse.leaf_distinct": len(tr.leaf_keys),
        "exprparse.leaf_reuse": len(tr.leaf_keys) / leaf_evals if leaf_evals else 0.0,
        "exprparse.leaf_self_s": sum(dur[i] - child[i] for i in leaves),
        "dyncore.evals": len(evals),
        "dyncore.eval_self_s": sum(dur[i] - child[i] for i in evals),
        "dyncore.placements": len(places),
        "dyncore.place_s": inclusive({"dyncore._place_matrix"}),
        "dyncore.place_mb": tr.place_bytes / 1e6,
        "consistency.residual_s": sum(dur[i] for i in top_residuals),
        "consistency.points": sum(tr.residual_points[i] for i in top_residuals),
        "parametrize.detwist_s": inclusive({"parametrize.detwist"}),
        "solutions.intertwiner_s": inclusive({"solutions.residual_intertwiner"}),
        "shiftops.compose_calls": len(where("shiftops.ShiftOpSum.compose")),
        "shiftops.terms": tr.terms,
        "shiftops.coeff_evals": sum(1 for i in evals
                                    if parents[i] >= 0 and names[parents[i]] in shift_res),
        "shiftops.residual_s": inclusive(shift_res),
        "monodromy.build_s": inclusive({f"monodromy.{n}" for n in MONODROMY_BUILDERS}),
        "monodromy.certify_s": inclusive({"monodromy.certify_commuting_family"}),
        "monodromy.gate_s": sum(
            dur[i] for i in top_residuals
            if parents[i] >= 0 and names[parents[i]] == "monodromy.certify_commuting_family"
        ),
        "trace.overhead": traced_verify_s / untraced_verify_s,
    })
    return m

"""Built-in instance catalog, scenario files, and scenario sampling.

A scenario bundles one fully specified instance: the weight data, the
matrix functions (as entry expressions in the grammar of
:mod:`~sdreflect.exprparse`), the constant cores, the automorphisms,
the chain size and spectral values, the sampler settings and the
tolerance.  Scenario files are JSON documents mirroring the field
names below; unknown fields are errors.
"""

from __future__ import annotations

import cmath
import copy
import itertools
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import exprparse as ep
from .consistency import idempotent_projectors
from .dyncore import (
    Automorphism,
    DynMat,
    PoleError,
    WeightScheme,
    constant_dynmat,
    identity_dynmat,
    memoized,
    yangian_r,
)
from .monodromy import locality_preset
from .parametrize import auto_dress
from .sampling import invertibility_guard, sample_points


class ScenarioError(ValueError):
    """Malformed scenario data; the message carries the field path."""


# -- (de)serialization helpers ------------------------------------------------


def _pack_complex(z):
    z = complex(z)
    return [z.real, z.imag]


def _is_number(v):
    """True for a JSON number; a JSON boolean is not one."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _unpack_complex(v, path):
    """A finite complex number from a JSON number or an [re, im] pair."""
    if _is_number(v) or isinstance(v, complex):
        parts = (v,)
    elif isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)):
        parts = v
    else:
        raise ScenarioError(f"{path}: complex numbers are [re, im] pairs")
    try:
        z = complex(*parts)
    except OverflowError:  # an integer beyond the float range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise ScenarioError(f"{path}: complex numbers must be finite")
    return z


def _pack_matrix(m):
    return [[_pack_complex(z) for z in row] for row in np.asarray(m, dtype=complex)]


def _unpack_matrix(v, path):
    """A complex matrix; a malformed or non-finite entry exits with its path."""
    try:
        return np.array([[_unpack_complex(z, f"{path}[{i}][{j}]") for j, z in enumerate(row)]
                         for i, row in enumerate(v)], dtype=complex)
    except ScenarioError:
        raise
    except (TypeError, ValueError):
        raise ScenarioError(f"{path}: matrices are nested [re, im] pair arrays")


def _check_square(m, n, path):
    """Refuse a matrix that is not n x n, naming its field."""
    if m.shape != (n, n):
        got = " x ".join(map(str, m.shape)) if m.ndim == 2 else f"an array of shape {m.shape}"
        raise ScenarioError(f"{path}: expected a {n} x {n} matrix, got {got}")
    return m


# -- matrix-function and automorphism specs -----------------------------------

MATRIX_KINDS = ("identity", "diagonal", "matrix", "yangian", "yangian_offdiag",
                "constant")
AUTO_KINDS = ("identity", "constant", "spectral_shift", "factorizable")


def _spec_kind(spec, kinds, fields, path, label):
    """Validate a ``{"kind": ...}`` spec object and return its kind."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError(f"{path}: expected an object with a 'kind' field")
    if spec["kind"] not in kinds:
        raise ScenarioError(f"{path}.kind: unknown {label} {spec['kind']!r}")
    extra = set(spec) - fields
    if extra:
        raise ScenarioError(f"{path}: unknown fields {sorted(extra)}")
    return spec["kind"]


def _parse_entry(src, path):
    """The AST of one expression-string entry; a malformed one exits with its path."""
    if not isinstance(src, str):
        raise ScenarioError(f"{path}: expected an expression string")
    try:
        return ep.parse_expr(src)
    except ep.ParseError as exc:
        raise ScenarioError(f"{path}: {exc}")


def _expression_array(entries, n, path):
    """The ASTs of ``entries``, an n x n list of expression strings."""
    if not isinstance(entries, list) or len(entries) != n or any(
            not isinstance(r, list) or len(r) != n for r in entries):
        raise ScenarioError(f"{path}.entries: need an {n}x{n} expression array")
    return [[_parse_entry(src, f"{path}.entries[{i}][{j}]") for j, src in enumerate(row)]
            for i, row in enumerate(entries)]


def compile_matrix_spec(spec, scheme: WeightScheme, legs, path="matrix"):
    """Compile a matrix spec into a DynMat on the given legs.

    kinds: identity; diagonal (entry expressions); matrix (row-major
    entry expressions); constant (numeric entries); yangian (two legs);
    yangian_offdiag (two legs, off-diagonal weight slots scaled by mu).
    Expression entries may reference u1..uk for the spectral slots of
    the k legs, in leg order.

    An expression kind evaluates a point as a stack of one row, and keeps
    its values at two levels, for as long as the returned DynMat lives:
    each row (a point and its spectral value) in a row memo, and each
    whole stack or point through :func:`~sdreflect.dyncore.memoized`.
    Kept values are read-only; a pole is never kept.
    """
    kind = _spec_kind(spec, MATRIX_KINDS, {"kind", "entries", "mu"}, path, "kind")
    n = scheme.rank
    legs = tuple(sorted(legs))

    if kind == "identity":
        return identity_dynmat(scheme, legs)

    if kind == "constant":
        m = _unpack_matrix(spec.get("entries"), f"{path}.entries")
        return constant_dynmat(scheme, legs, _check_square(m, n ** len(legs), f"{path}.entries"))

    if kind in ("yangian", "yangian_offdiag"):
        if len(legs) != 2:
            raise ScenarioError(f"{path}: R-matrix kinds need exactly 2 legs")
        R = yangian_r(scheme, legs, min_gap=1e-9)
        mu = _unpack_complex(spec.get("mu", 1.0), f"{path}.mu")
        if mu == 0:
            raise ScenarioError(f"{path}.mu: must be nonzero")
        if kind == "yangian":
            return R
        # scale only the e_ii (x) e_jj weight slots (an abelian diagonal
        # twist), leaving the exchange slots alone; this preserves the
        # cubic exchange identity
        i, j = np.divmod(np.arange(n * n), n)
        slot = np.where(i < j, mu - 1.0, np.where(i > j, 1.0 / mu - 1.0, 0.0))
        return R + constant_dynmat(scheme, legs, np.diag(slot))

    entries = spec.get("entries")
    if entries is None:
        raise ScenarioError(f"{path}.entries: required for kind {kind!r}")
    if len(legs) != 1:
        raise ScenarioError(f"{path}: {kind} specs are single-leg")
    if kind == "diagonal":
        if not isinstance(entries, list) or len(entries) != n:
            raise ScenarioError(f"{path}.entries: need {n} diagonal entries")
        asts = [[_parse_entry(entries[i], f"{path}.entries[{i}][{i}]") if i == j else None
                 for j in range(n)] for i in range(n)]
    else:
        asts = _expression_array(entries, n, path)
    uidx = set().union(*(ep.collect_u_indices(a) for row in asts for a in row if a is not None))
    if uidx - {1}:
        raise ScenarioError(
            f"{path}: single-leg entries may reference u1 only (found u{sorted(uidx)})"
        )
    spectral = frozenset(legs) if uidx else frozenset()
    leg = legs[0]
    gamma = scheme.gamma
    cells = [(i, j, a) for i, row in enumerate(asts) for j, a in enumerate(row) if a is not None]

    # values by the exact bytes of each row (lam, u1); pole rows are not kept
    memo = {}

    def evaluate(lam, uvals):
        """Values at the rows of lam (m, n) and uvals (m,).  Rows met before
        come from the row memo, the others are evaluated in one stacked
        call per entry and remembered.  A failure raises the error of the
        first failing row, and of its first failing entry, as point by
        point; a pole as a PoleError there."""
        keys = list(zip(lam.view(np.dtype((np.void, lam.shape[-1] * 16))).ravel().tolist(),
                        uvals.view(np.dtype((np.void, 16))).tolist()))
        m = np.zeros((len(lam), n, n), dtype=complex)
        rows = []
        for r, key in enumerate(keys):
            known = memo.get(key)
            if known is None:
                rows.append(r)
            else:
                m[r] = known
        errs = []
        if rows:
            # one value per row, in a tuple so that the binding stays hashable
            uu = tuple(uvals[rows].tolist())
            for i, j, a in cells:
                try:
                    m[rows, i, j] = ep.eval_ast(a, lam[rows], {1: uu} if spectral else {}, gamma)
                except (ArithmeticError, ValueError) as exc:
                    exc.row = rows[exc.row]
                    errs.append(exc)
        if errs:
            exc = min(errs, key=lambda e: e.row)  # the first listed among equal rows
            if isinstance(exc, ep.EvalPoleError):
                raise PoleError(str(exc), index=exc.row) from exc
            raise exc
        m.setflags(write=False)
        for r in rows:
            memo.setdefault(keys[r], m[r])
        return m

    def fn(lam, u):
        uval = np.asarray(u[leg] if spectral else 0.0, dtype=complex)
        lam, uval = np.broadcast_arrays(np.asarray(lam, dtype=complex), uval[..., None])
        flat = np.ascontiguousarray(lam.reshape(-1, n))
        return evaluate(flat, uval[..., 0].ravel()).reshape(lam.shape[:-1] + (n, n))

    # each whole stack or point is kept by its exact bytes
    return memoized(DynMat(scheme, legs, fn, spectral))


def compile_automorphism_spec(spec, rank, path="automorphism") -> Automorphism:
    """Compile an automorphism spec on C^rank; the ``entries`` of a
    factorizable one are a rank x rank array of expressions that read
    u1 only (an entry that reads lambda, sigma, gamma or another u is
    refused with its path)."""
    if spec is None:
        return Automorphism.identity()
    kind = _spec_kind(spec, AUTO_KINDS, {"kind", "matrix", "step", "entries"}, path,
                      "automorphism kind")
    if kind == "identity":
        return Automorphism.identity()
    if kind == "constant":
        m = _unpack_matrix(spec.get("matrix"), f"{path}.matrix")
        return Automorphism.constant(_check_square(m, rank, f"{path}.matrix"))
    if kind == "spectral_shift":
        return Automorphism.spectral_shift(_unpack_complex(spec.get("step", 1.0),
                                                           f"{path}.step"))
    entries = spec.get("entries")
    if entries is None:
        raise ScenarioError(f"{path}.entries: required for a factorizable automorphism")
    asts = _expression_array(entries, rank, path)
    for i, row in enumerate(asts):
        for j, a in enumerate(row):
            extra = ep.variables(a) - {"u1"}
            if extra:
                raise ScenarioError(f"{path}.entries[{i}][{j}]: factorizable entries may "
                                    f"reference u1 only (found {', '.join(sorted(extra))})")

    def mfn(uval):
        return np.array(
            [[ep.eval_ast(a, [0.0], {1: uval}, 1.0) for a in row] for row in asts],
            dtype=complex,
        )

    return Automorphism.factorizable(mfn)


# -- the scenario type ---------------------------------------------------------

_FIELDS = {
    "name", "rank", "gamma", "spectral", "b", "q", "Q", "Q_L",
    "g", "a", "f", "R0", "Rbar", "projectors", "chi0", "sites",
    "quantum_spectral", "sampler", "tolerance",
}


def is_tolerance(value) -> bool:
    """True for a usable residual tolerance: a finite positive number."""
    return _is_number(value) and 0 < value < math.inf


@dataclass
class Scenario:
    """A fully specified verification instance (see module docstring)."""

    name: str
    rank: int
    gamma: complex
    spectral: bool
    b: dict
    q: dict
    Q: np.ndarray
    Q_L: np.ndarray
    R0: dict
    g: dict = None
    a: dict = None
    f: dict = None
    Rbar: dict = None
    projectors: list = None
    chi0: dict = None
    sites: int = 1
    quantum_spectral: object = "default"
    sampler: dict = field(default_factory=lambda: {
        "seed": 1, "count": 50, "box": 2.0, "min_separation": 0.1,
    })
    tolerance: float = 1e-9

    def __post_init__(self):
        if isinstance(self.rank, bool) or not isinstance(self.rank, int) or self.rank < 2:
            raise ScenarioError("rank: expected an integer of at least 2")
        self.gamma = complex(self.gamma)
        if self.gamma == 0:
            raise ScenarioError("gamma: must be nonzero")
        if not is_tolerance(self.tolerance):
            raise ScenarioError("tolerance: must be a finite positive number")
        self.Q = _check_square(np.asarray(self.Q, dtype=complex), self.rank, "Q")
        self.Q_L = _check_square(np.asarray(self.Q_L, dtype=complex), self.rank, "Q_L")
        self._scheme = WeightScheme(self.rank, self.gamma)

    # -- compiled accessors -------------------------------------------------

    @property
    def scheme(self) -> WeightScheme:
        return self._scheme

    def b_mat(self):
        return compile_matrix_spec(self.b, self.scheme, (1,), "b")

    def q_mat(self):
        return compile_matrix_spec(self.q, self.scheme, (1,), "q")

    def R0_mat(self):
        return compile_matrix_spec(self.R0, self.scheme, (1, 2), "R0")

    def Rbar_mat(self):
        if self.Rbar is None:
            return None
        return compile_matrix_spec(self.Rbar, self.scheme, (1, 2), "Rbar")

    def chi0_mat(self):
        if self.chi0 is None:
            return None
        return compile_matrix_spec(self.chi0, self.scheme, (1,), "chi0")

    def g_auto(self):
        g = compile_automorphism_spec(self.g, self.rank, "g")
        if g.variant == Automorphism.FACTORIZABLE:
            raise ScenarioError("g: must be a constant or a spectral shift; the structure "
                                "matrices need exp(sigma log g), which a factorizable g lacks")
        return g

    def a_auto(self):
        return compile_automorphism_spec(self.a, self.rank, "a")

    def f_auto(self):
        return compile_automorphism_spec(self.f, self.rank, "f")

    def projector_list(self):
        if self.projectors is None:
            return None
        n = self.rank
        if not isinstance(self.projectors, list) or len(self.projectors) != n:
            raise ScenarioError(f"projectors: expected a list of {n} {n}x{n} matrices")
        return idempotent_projectors(
            [_check_square(_unpack_matrix(p, f"projectors[{i}]"), n, f"projectors[{i}]")
             for i, p in enumerate(self.projectors)], ScenarioError)

    def quantum_values(self, N=None, u_ref=0.0):
        """Quantum-leg spectral values as a dict leg -> value."""
        N = self.sites if N is None else N
        qs = self.quantum_spectral
        if isinstance(qs, str):
            if qs == "locality":
                return locality_preset(u_ref, N)
            if qs == "default":
                base = [-0.9 + 0.11j, 0.73 - 0.4j, 1.61 + 0.3j, -1.97 - 0.22j,
                        2.41 + 0.17j, -2.63 + 0.35j]
                if 2 * N > len(base):
                    raise ScenarioError("quantum_spectral: default preset supports up to 3 sites")
                return {i + 1: base[i] for i in range(2 * N)}
            raise ScenarioError(f"quantum_spectral: unknown preset {qs!r}")
        vals = [_unpack_complex(v, f"quantum_spectral[{i}]") for i, v in enumerate(qs)]
        if len(vals) < 2 * N:
            raise ScenarioError("quantum_spectral: need two values per site")
        return {i + 1: vals[i] for i in range(2 * N)}

    def sample(self, count=None, seed=None, leaves=None):
        """Pole-aware samples for this scenario's checks.

        The guard keeps b, q and beta = g b g^-1 (for a spectral shift,
        b read at u + s) invertible at the point and at every point
        shifted by a sum of one to three weight steps gamma e_i, each
        distinct shift probed once.  ``leaves`` is the compiled (b, q)
        the guard reads, by default compiled afresh; passing a rig's own
        leaves lets verification reuse the rows the guard evaluated.
        The guard reads them past their stack memo, so its candidate
        stacks, which no check meets again, are not kept.
        """
        cfg = dict(self.sampler)
        count = cfg.get("count", 50) if count is None else count
        seed = cfg.get("seed", 1) if seed is None else seed
        units = [self.gamma * self.scheme.unit(i) for i in range(self.rank)]
        shifts = [sum(c) for r in (1, 2, 3)
                  for c in itertools.combinations_with_replacement(units, r)]
        b, q = (replace(X, fn=getattr(X.fn, "__wrapped__", X.fn))
                for X in leaves or (self.b_mat(), self.q_mat()))
        beta = auto_dress(b, self.g_auto())  # b itself for the identity
        guards = [invertibility_guard(
            [b, q] + ([] if beta is b else [beta]),
            floor=0.05, probe_shifts=shifts,
        )]
        return sample_points(
            self.scheme,
            spectral_legs=(1, 2, 3) if self.spectral else (),
            count=count,
            seed=seed,
            box=cfg.get("box", 2.0),
            min_sep=cfg.get("min_separation", 0.1),
            guards=guards,
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self):
        out = {
            "name": self.name,
            "rank": self.rank,
            "gamma": _pack_complex(self.gamma),
            "spectral": bool(self.spectral),
            "b": self.b, "q": self.q,
            "Q": _pack_matrix(self.Q),
            "Q_L": _pack_matrix(self.Q_L),
            "R0": self.R0,
            "sites": self.sites,
            "quantum_spectral": self.quantum_spectral
            if isinstance(self.quantum_spectral, str)
            else [_pack_complex(v) for v in self.quantum_spectral],
            "sampler": dict(self.sampler),
            "tolerance": float(self.tolerance),
        }
        for name in ("g", "a", "f", "Rbar", "chi0"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        if self.projectors is not None:
            out["projectors"] = self.projectors
        return out

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


# each field's description and test (of a number); NaN fails every comparison
_SAMPLER_FIELDS = {
    "seed": ("an integer >= 0", lambda v: isinstance(v, int) and v >= 0),
    "count": ("an integer >= 1", lambda v: isinstance(v, int) and v >= 1),
    # draws span [-box, box], so the width 2 * box must be finite
    "box": ("a number > 0 with 2 * box finite", lambda v: 0 < v <= sys.float_info.max / 2),
    "min_separation": ("a number, finite and >= 0", lambda v: 0 <= v < math.inf),
}


def _check_sampler(cfg):
    """Reject a sampler object with unknown fields or out-of-range values."""
    if not isinstance(cfg, dict):
        raise ScenarioError("sampler: expected an object")
    extra = sorted(set(cfg) - set(_SAMPLER_FIELDS))
    if extra:
        raise ScenarioError(f"sampler: unknown fields {extra}")
    for key, val in cfg.items():
        what, ok = _SAMPLER_FIELDS[key]
        if not (_is_number(val) and ok(val)):
            raise ScenarioError(f"sampler.{key}: expected {what}")


def scenario_from_dict(data) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be an object")
    if "k" in data:
        raise ScenarioError("k: derived from b, g and q; remove this field")
    extra = set(data) - _FIELDS
    if extra:
        raise ScenarioError(f"unknown fields {sorted(extra)}")
    missing = {"name", "rank", "gamma", "b", "q", "Q", "Q_L", "R0"} - set(data)
    if missing:
        raise ScenarioError(f"missing fields {sorted(missing)}")
    if not isinstance(data["name"], str):
        raise ScenarioError("name: expected a string")
    data = copy.deepcopy(data)
    data["gamma"] = _unpack_complex(data["gamma"], "gamma")
    data["Q"] = _unpack_matrix(data["Q"], "Q")
    data["Q_L"] = _unpack_matrix(data["Q_L"], "Q_L")
    data.setdefault("spectral", True)
    if not isinstance(data["spectral"], bool):
        raise ScenarioError("spectral: expected true or false")
    sites = data.get("sites", 1)
    if isinstance(sites, bool) or not isinstance(sites, int) or sites < 1:
        raise ScenarioError("sites: expected an integer of at least 1")
    qs = data.get("quantum_spectral", "default")
    if isinstance(qs, list):
        if len(qs) < 2:
            raise ScenarioError("quantum_spectral: need two values per site")
        data["quantum_spectral"] = [_unpack_complex(v, f"quantum_spectral[{i}]")
                                    for i, v in enumerate(qs)]
    elif not isinstance(qs, str):
        raise ScenarioError("quantum_spectral: expected a preset name or a list of values")
    elif qs not in ("default", "locality"):
        raise ScenarioError(f"quantum_spectral: unknown preset {qs!r}")
    if "sampler" in data:
        _check_sampler(data["sampler"])
    try:
        scen = Scenario(**data)
    except TypeError as exc:
        raise ScenarioError(str(exc))
    # compile everything once so malformed expressions surface with paths
    scen.b_mat(); scen.q_mat(); scen.R0_mat()
    scen.Rbar_mat(); scen.chi0_mat()
    scen.g_auto(); scen.a_auto(); scen.f_auto(); scen.projector_list()
    return scen


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not a valid scenario document: {exc}")
    return scenario_from_dict(data)


# -- built-in catalog -----------------------------------------------------------


def _diag_affine(consts, slopes):
    """Diagonal entries  c_i + sum_j s_ij * lambda_j  as expression strings."""
    entries = []
    for c, row in zip(consts, slopes):
        parts = [f"{c}"]
        for j, s in enumerate(row):
            if s == 0:
                continue
            op = "+" if s > 0 else "-"
            parts.append(f"{op}{abs(s)}*lambda{j+1}")
        entries.append("".join(parts))
    return {"kind": "diagonal", "entries": entries}


def _identity_spec():
    return {"kind": "identity"}


def _builtin_trivial_yangian(rank=2):
    return {
        "name": "trivial_yangian",
        "rank": rank,
        "gamma": [1.0, 0.0],
        "spectral": True,
        "b": _identity_spec(), "q": _identity_spec(),
        "Q": _pack_matrix(np.eye(rank)),
        "Q_L": _pack_matrix(np.eye(rank)),
        "R0": {"kind": "yangian"},
        "sites": 1,
        "quantum_spectral": "default",
        "sampler": {"seed": 1, "count": 50, "box": 2.0, "min_separation": 0.1},
        "tolerance": 1e-9,
    }


_B_CONSTS = [2.6, 2.4, 2.7]
_B_SLOPES = [[0.13, -0.07, 0.05], [0.04, 0.11, -0.06], [-0.08, 0.05, 0.12]]
_Q_CONSTS = [2.3, 2.8, 2.5]
_Q_SLOPES = [[0.09, 0.12, -0.04], [-0.11, 0.08, 0.07], [0.06, -0.09, 0.1]]


def _builtin_diagonal_dressed(rank=2):
    bspec = _diag_affine(_B_CONSTS[:rank], [r[:rank] for r in _B_SLOPES[:rank]])
    qspec = _diag_affine(_Q_CONSTS[:rank], [r[:rank] for r in _Q_SLOPES[:rank]])
    Q = np.eye(rank, dtype=complex)
    Q[0, 1], Q[1, 0], Q[1, 1] = 0.45, 0.21, 1.3
    QL = np.eye(rank, dtype=complex)
    QL[0, 0], QL[0, 1], QL[1, 0] = 1.1, 0.3, -0.2
    return {
        "name": "diagonal_dressed",
        "rank": rank,
        "gamma": [1.0, 0.0],
        "spectral": True,
        "b": bspec, "q": qspec,
        "Q": _pack_matrix(Q),
        "Q_L": _pack_matrix(QL),
        "R0": {"kind": "yangian"},
        "sites": 2,
        "quantum_spectral": "default",
        "sampler": {"seed": 2, "count": 50, "box": 1.6, "min_separation": 0.1},
        "tolerance": 1e-9,
    }


def _builtin_projector_b(rank=2):
    base = _builtin_diagonal_dressed(rank)
    projs = []
    for i in range(rank):
        p = np.zeros((rank, rank))
        p[i, i] = 1.0
        projs.append(_pack_matrix(p))
    base.update({
        "name": "projector_b",
        "Q": _pack_matrix(np.diag([1.0] + [0.0] * (rank - 1))),
        "projectors": projs,
        "sites": 1,
        "sampler": {"seed": 3, "count": 50, "box": 1.6, "min_separation": 0.1},
    })
    return base


def _builtin_constant_g(rank=2):
    if rank != 2:
        raise ScenarioError("the constant-automorphism instance is rank 2")
    qspec = _diag_affine([2.5, 2.2], [[0.12, 0.0], [0.0, 0.1]])
    bspec = {"kind": "matrix", "entries": [["1", "0.2+0.1*lambda1"], ["0", "1"]]}
    return {
        "name": "constant_g",
        "rank": 2,
        "gamma": [1.0, 0.0],
        "spectral": True,
        "b": bspec, "q": qspec,
        "Q": _pack_matrix([[1.0, 0.45], [0.21, 1.3]]),
        "Q_L": _pack_matrix([[1.1, 0.3], [-0.2, 0.9]]),
        "R0": {"kind": "yangian"},
        "g": {"kind": "constant", "matrix": _pack_matrix(np.diag([2.0, 1.0]))},
        "a": {"kind": "constant", "matrix": _pack_matrix(np.diag([3.0, 1.0]))},
        "sites": 1,
        "quantum_spectral": "default",
        "sampler": {"seed": 4, "count": 50, "box": 1.6, "min_separation": 0.1},
        "tolerance": 1e-9,
    }


def _builtin_spectral_shift_g(rank=2):
    if rank != 2:
        raise ScenarioError("the shift-automorphism instance is rank 2")
    # b carries genuine spectral dependence; q is lambda-only so the
    # twisted coefficient keeps its difference form in u.
    bspec = {"kind": "diagonal", "entries": [
        "exp(0.2*u1+0.3*lambda1)", "exp(0-0.1*u1+0.1*lambda2)",
    ]}
    qspec = {"kind": "diagonal", "entries": ["exp(0.4*lambda1)", "exp(0-0.3*lambda2)"]}
    return {
        "name": "spectral_shift_g",
        "rank": 2,
        "gamma": [1.0, 0.0],
        "spectral": True,
        "b": bspec, "q": qspec,
        "Q": _pack_matrix([[1.0, 0.45], [0.21, 1.3]]),
        "Q_L": _pack_matrix([[1.1, 0.3], [-0.2, 0.9]]),
        "R0": {"kind": "yangian"},
        "g": {"kind": "spectral_shift", "step": [1.0, 0.0]},
        "sites": 1,
        "quantum_spectral": "default",
        "sampler": {"seed": 5, "count": 50, "box": 1.6, "min_separation": 0.1},
        "tolerance": 1e-9,
    }


def _builtin_nonsimilar_detwist(rank=2):
    base = _builtin_diagonal_dressed(rank)
    Q = np.zeros((rank, rank))
    Q[0, 0] = 1.0
    base.update({
        "name": "nonsimilar_detwist",
        "Rbar": {"kind": "yangian_offdiag", "mu": [2.0, 0.0]},
        "Q": _pack_matrix(Q),
        "chi0": _identity_spec(),
        "sites": 1,
        "sampler": {"seed": 6, "count": 50, "box": 1.6, "min_separation": 0.1},
    })
    return base


_CATALOG = {
    "trivial_yangian": _builtin_trivial_yangian,
    "diagonal_dressed": _builtin_diagonal_dressed,
    "projector_b": _builtin_projector_b,
    "constant_g": _builtin_constant_g,
    "spectral_shift_g": _builtin_spectral_shift_g,
    "nonsimilar_detwist": _builtin_nonsimilar_detwist,
}


def builtin_names():
    return sorted(_CATALOG)


def builtin_scenario(name, overrides=None) -> Scenario:
    """A catalog scenario, optionally with field overrides (e.g. rank)."""
    if name not in _CATALOG:
        raise ScenarioError(
            f"unknown builtin {name!r}; available: {', '.join(builtin_names())}"
        )
    overrides = dict(overrides or {})
    rank = int(overrides.pop("rank", 2))
    data = _CATALOG[name](rank=rank)
    for key, val in overrides.items():
        if key not in _FIELDS | {"k"}:  # a leftover k gets its reason from the loader
            raise ScenarioError(f"unknown override field {key!r}")
        data[key] = val
    return scenario_from_dict(data)

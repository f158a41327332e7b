"""Numerical workbench for semi-dynamical reflection algebra structures.

Builds parametrized structure matrices, reflection solutions, and
shift-operator monodromy/transfer families at small rank, and certifies
every consistency relation by residual checks at sampled points.
"""

from .dyncore import (
    Automorphism,
    DynMat,
    WeightScheme,
    adjoint_auto,
    constant_dynmat,
    dyn_shift,
    embed,
    eval_dynmat,
    function_dynmat,
    identity_dynmat,
    permutation_operator,
    pi_transpose,
    sigma_conjugate,
    sigma_of,
    yangian_r,
)

__all__ = [
    "Automorphism",
    "DynMat",
    "WeightScheme",
    "adjoint_auto",
    "constant_dynmat",
    "dyn_shift",
    "embed",
    "eval_dynmat",
    "function_dynmat",
    "identity_dynmat",
    "permutation_operator",
    "pi_transpose",
    "sigma_conjugate",
    "sigma_of",
    "yangian_r",
]

__version__ = "0.1.0"

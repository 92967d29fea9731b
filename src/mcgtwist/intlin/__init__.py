"""Exact integer linear algebra: Hermite/Smith forms, kernels, quotients."""

from ._kernels import (
    echelon_insert,
    echelon_reduce,
    snf_factors,
    vec_axpy,
    xgcd,
)
from .lattice import (
    AbelianInvariants,
    ColumnSolver,
    Echelon,
    SmithResult,
    hnf,
    kernel_lattice,
    quotient_invariants,
    snf,
    solve,
)
from .matrix import IntMatrix

# One pure-Python kernel implementation; benchmark records carry this name.
BACKEND_NAME = "python"

__all__ = [
    "AbelianInvariants",
    "BACKEND_NAME",
    "ColumnSolver",
    "Echelon",
    "IntMatrix",
    "SmithResult",
    "echelon_insert",
    "echelon_reduce",
    "hnf",
    "kernel_lattice",
    "quotient_invariants",
    "snf",
    "snf_factors",
    "solve",
    "vec_axpy",
    "xgcd",
]

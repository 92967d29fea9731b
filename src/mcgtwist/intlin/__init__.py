"""Exact integer linear algebra: Smith forms, kernels, quotients."""

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
    "echelon_insert",
    "echelon_reduce",
    "snf_factors",
    "vec_axpy",
    "xgcd",
]

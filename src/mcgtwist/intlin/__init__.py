"""Exact integer linear algebra: Smith forms, kernels, quotients.

Every vector is a sparse dict (coordinate -> nonzero int); there are no
dense matrices.
"""

from ._kernels import (
    echelon_insert,
    echelon_reduce,
    gf2_insert,
    gf2_reduce,
    parity_mask,
    peel_unit_singletons,
    snf_factors,
    vec_axpy,
    xgcd,
)
from .lattice import (
    AbelianInvariants,
    ColumnSolver,
    Echelon,
)

# One pure-Python kernel implementation; benchmark records carry this name.
BACKEND_NAME = "python"

__all__ = [
    "AbelianInvariants",
    "BACKEND_NAME",
    "ColumnSolver",
    "Echelon",
    "echelon_insert",
    "echelon_reduce",
    "gf2_insert",
    "gf2_reduce",
    "parity_mask",
    "peel_unit_singletons",
    "snf_factors",
    "vec_axpy",
    "xgcd",
]

"""Numerical construction and certification of local k-Hessian solutions."""

from .cone import ConeVerdict, Region, classify_boundary, in_gamma_k
from .config import ProblemConfig
from .grids import ScalarGrid
from .iterate import (
    IterationReport,
    assemble_solution,
    certify_convexity,
    newton_loop,
    tune_epsilon,
)
from .pde import LinearSystem, assemble_linearized, eval_G, sk_gradient, sk_of_matrix
from .rhs import RhsSpec, RhsTerm, TabulatedRhs
from .seeds import (
    SeedQuadratic,
    certify_seed,
    p2_example,
    seed_for_negative,
    seed_for_positive,
    seed_for_zero,
)
from .symfun import elem_sym, elem_sym_deleted, maclaurin_mean, shift_expand, sigma_km1_row

__version__ = "0.1.0"

__all__ = [
    "ConeVerdict",
    "IterationReport",
    "LinearSystem",
    "ProblemConfig",
    "Region",
    "RhsSpec",
    "RhsTerm",
    "ScalarGrid",
    "SeedQuadratic",
    "TabulatedRhs",
    "assemble_linearized",
    "assemble_solution",
    "certify_convexity",
    "certify_seed",
    "classify_boundary",
    "elem_sym",
    "elem_sym_deleted",
    "eval_G",
    "in_gamma_k",
    "maclaurin_mean",
    "newton_loop",
    "p2_example",
    "seed_for_negative",
    "seed_for_positive",
    "seed_for_zero",
    "shift_expand",
    "sigma_km1_row",
    "sk_gradient",
    "sk_of_matrix",
    "tune_epsilon",
]

"""Built-in problem presets and named right-hand sides.

The JSON files under ``presets/`` in the repository mirror these dictionaries;
the in-code table is authoritative so the CLI works without repository files.
"""

from __future__ import annotations

from .config import ProblemConfig
from .errors import DomainError
from .rhs import RhsSpec, RhsTerm


def named_rhs(name: str, n: int) -> RhsSpec:
    if name == "zero":
        return RhsSpec.constant(n, 0.0)
    if name == "const-neg-one":
        return RhsSpec.constant(n, -1.0)
    if name == "const-three":
        return RhsSpec.constant(n, 3.0)
    if name == "linear-y1-plus-y2":
        terms = [
            RhsTerm(1.0, (1,) + (0,) * (n - 1)),
            RhsTerm(1.0, (0, 1) + (0,) * (n - 2)),
        ]
        return RhsSpec(n=n, terms=terms)
    raise DomainError(f"unknown rhs preset {name!r}")


PRESETS: dict[str, dict] = {
    # f vanishes at the origin but changes sign: boundary seed, the solution
    # is 1-convex but not 3-convex.
    "fzero-linear": {
        "n": 3,
        "k": 2,
        "alpha": 0.5,
        "rhs": "linear-y1-plus-y2",
        "grid": {"m": 17},
        "solver": {"tol_lin": 1e-10, "tol_newton": 1e-9, "max_iter": 12},
        "l": None,
        "output": {"directory": "out/fzero-linear"},
    },
    # f constant negative: level-1 seed, not 2-convex, converges immediately.
    "fconst-neg": {
        "n": 3,
        "k": 2,
        "alpha": 0.5,
        "rhs": "const-neg-one",
        "grid": {"m": 17},
        "solver": {"tol_lin": 1e-10, "tol_newton": 1e-9, "max_iter": 12},
        "l": None,
        "output": {"directory": "out/fconst-neg"},
    },
    # f identically equal to the seed's minor sum (zero here): the initial
    # residual vanishes and the loop converges at iteration 0.
    "fconst-match": {
        "n": 3,
        "k": 2,
        "alpha": 0.5,
        "rhs": "zero",
        "grid": {"m": 17},
        "solver": {"tol_lin": 1e-10, "tol_newton": 1e-9, "max_iter": 12},
        "l": None,
        "output": {"directory": "out/fconst-match"},
    },
    # f constant positive with the fully convex equal-entry seed.
    "fconst-pos": {
        "n": 3,
        "k": 2,
        "alpha": 0.5,
        "rhs": "const-three",
        "grid": {"m": 17},
        "solver": {"tol_lin": 1e-10, "tol_newton": 1e-9, "max_iter": 12},
        "l": "full",
        "output": {"directory": "out/fconst-pos"},
    },
}


def preset_config(name: str) -> ProblemConfig:
    if name not in PRESETS:
        raise DomainError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    return ProblemConfig.from_dict(PRESETS[name])

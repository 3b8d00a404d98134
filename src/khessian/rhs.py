"""Polynomial right-hand sides f(y, u, p) with exact derivatives.

Total degree in y is capped at 4 and joint degree in (u, p) at 2, which keeps
every first partial in (u, p) available in closed form; ``named_rhs`` builds
the ones a configuration names.  A grid-tabulated variant serves
manufactured-solution work, where f is a pure function of position known
only at the grid points, with the manufactured target field and its f.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grids import grid_coords, upper_pairs
from .pde import sk_of_matrix, total_hessian


@dataclass(frozen=True)
class RhsTerm:
    """coeff * prod y_i^y_pow[i] * u^u_pow * prod p_i^p_pow[i]."""

    coeff: float
    y_pow: tuple[int, ...]
    u_pow: int = 0
    p_pow: tuple[int, ...] = ()


def _monomial(base: np.ndarray, powers: tuple[int, ...]) -> np.ndarray:
    out = np.ones(base.shape[:-1])
    for i, e in enumerate(powers):
        if e:
            out = out * base[..., i] ** e
    return out


@dataclass
class RhsSpec:
    """Polynomial f(y, u, p) on the box |u| <= box, |p| <= box."""

    n: int
    terms: list[RhsTerm] = field(default_factory=list)
    box: float = 1.0

    def __post_init__(self):
        norm_terms = []
        for i, t in enumerate(self.terms):
            y_pow = tuple(t.y_pow) + (0,) * (self.n - len(t.y_pow))
            p_pow = tuple(t.p_pow) + (0,) * (self.n - len(t.p_pow))
            if len(y_pow) != self.n or len(p_pow) != self.n:
                raise DomainError(f"term {i}: exponent tuples longer than n")
            if sum(y_pow) > 4:
                raise DomainError(f"term {i}: total degree in y exceeds 4")
            if t.u_pow + sum(p_pow) > 2:
                raise DomainError(f"term {i}: joint degree in (u, p) exceeds 2")
            norm_terms.append(RhsTerm(float(t.coeff), y_pow, t.u_pow, p_pow))
        self.terms = norm_terms

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, n: int, value: float) -> "RhsSpec":
        terms = [] if value == 0.0 else [RhsTerm(value, (0,) * n)]
        return cls(n=n, terms=terms)

    @property
    def reads_u(self) -> bool:
        """Whether a term has a power of u; without one, f_u is zero."""
        return any(t.u_pow for t in self.terms)

    @property
    def reads_p(self) -> bool:
        """Whether a term has a power of p; without one, f_p is zero."""
        return any(any(t.p_pow) for t in self.terms)

    # -- evaluation ------------------------------------------------------------

    def value(self, y: np.ndarray, u: np.ndarray, p: np.ndarray, at=None) -> np.ndarray:
        """f(y, u, p); ``at``, the points' index into the grid, is not read:
        f is a function of its arguments alone."""
        return self._eval_terms(self.terms, y, u, p)

    def _du_terms(self) -> list[RhsTerm]:
        return [
            RhsTerm(t.coeff * t.u_pow, t.y_pow, t.u_pow - 1, t.p_pow)
            for t in self.terms
            if t.u_pow > 0
        ]

    def _dpi_terms(self, i: int) -> list[RhsTerm]:
        out = []
        for t in self.terms:
            e = t.p_pow[i]
            if e > 0:
                p_pow = list(t.p_pow)
                p_pow[i] = e - 1
                out.append(RhsTerm(t.coeff * e, t.y_pow, t.u_pow, tuple(p_pow)))
        return out

    @staticmethod
    def _eval_terms(terms, y, u, p) -> np.ndarray:
        out = np.zeros(np.asarray(u).shape)
        for t in terms:
            out = out + (
                t.coeff
                * _monomial(y, t.y_pow)
                * np.asarray(u) ** t.u_pow
                * _monomial(p, t.p_pow)
            )
        return out

    def du(self, y, u, p) -> np.ndarray:
        return self._eval_terms(self._du_terms(), y, u, p)

    def dp(self, y, u, p) -> np.ndarray:
        cols = [self._eval_terms(self._dpi_terms(i), y, u, p) for i in range(self.n)]
        return np.stack(cols, axis=-1)

    def value_at_origin(self) -> float:
        zero = np.zeros(self.n)
        return float(self.value(zero, np.asarray(0.0), zero))


def named_rhs(name: str, n: int) -> RhsSpec:
    constants = {"zero": 0.0, "const-neg-one": -1.0, "const-three": 3.0}
    if name in constants:
        return RhsSpec.constant(n, constants[name])
    if name == "linear-y1-plus-y2":
        return RhsSpec(n=n, terms=[RhsTerm(1.0, (1,) + (0,) * (n - 1)),
                                   RhsTerm(1.0, (0, 1) + (0,) * (n - 2))])
    raise DomainError(f"unknown rhs preset {name!r}")


@dataclass
class TabulatedRhs:
    """Position-only right-hand side known at the grid points.

    Used to manufacture problems whose exact solution is prescribed; the
    table holds f at every grid point of the grid it was built for.  It
    ignores the (y, u, p) arguments and returns the table read at ``at``,
    the points' index into the grid: the slab ``eval_G`` evaluates f on,
    or by default every interior point.  It has no term in u or p
    (``reads_u``, ``reads_p``), so its derivatives in them are never
    evaluated.  It declares no box, so ``eval_G`` makes no box check for
    it.
    """

    values: np.ndarray
    reads_u = reads_p = False  # a function of position alone

    def value(self, y, u, p, at=None) -> np.ndarray:
        return self.values[(slice(1, -1),) * self.values.ndim if at is None else at]

    def value_at_origin(self) -> float:
        center = tuple(s // 2 for s in self.values.shape)
        return float(self.values[center])


def manufactured_field(n: int, m: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Target iterate beta * prod cos(pi x_i / 2), which vanishes on the cube
    boundary, and its analytic Hessian stacked as ``second_differences``
    stacks the discrete one: (c,) + grid shape, in np.triu_indices order."""
    x = grid_coords(n, m)
    c = np.cos(np.pi * x / 2)
    s = np.sin(np.pi * x / 2)
    w = beta * np.prod(c, axis=-1)
    second = np.empty((n * (n + 1) // 2,) + w.shape)
    for comp, (i, j) in enumerate(upper_pairs(n)):
        if i == j:
            second[comp] = -((np.pi / 2) ** 2) * w
        else:
            rest = np.prod(np.delete(c, [i, j], axis=-1), axis=-1)
            second[comp] = beta * (np.pi / 2) ** 2 * s[..., i] * s[..., j] * rest
    return w, second


def tabulated_rhs_from_hessian(seed, second: np.ndarray) -> TabulatedRhs:
    """Right-hand side that makes the iterate with Hessian stack ``second`` an
    exact solution of the continuum problem, so the discrete residual
    reflects truncation only."""
    return TabulatedRhs(values=sk_of_matrix(total_hessian(second, seed), seed.k))

"""Discretization of the rescaled problem on the unit cube.

``eval_G`` evaluates the rescaled nonlinear operator

    G(w) = (1/eps') [ S_k(diag(tau) + eps' D^2 w) - f(y, u, Du) ]

with the physical arguments y = eps^2 x, u = eps^4 psi(x) + eps' eps^4 w,
(Du)_i = eps^2 tau_i x_i + eps' eps^2 (Dw)_i.  ``assemble_linearized`` builds
the linearized operator

    sum_ij dS_k/dr_ij d_i d_j  -  eps^2 sum_i (df/dp_i) d_i  -  eps^4 (df/du)

as one coefficient field per stencil offset, with the same stencils used by
``eval_G``'s differences, and records the per-row diagonal-dominance margins
of the coefficient matrix.  The operator is applied on the grid, never
assembled.  ``solve_dirichlet_info`` solves the homogeneous Dirichlet problem
with scipy's BiCGSTAB, preconditioned by the exact inverse of the seed's
constant-coefficient operator sum_i sigma_{k-1,i}(tau) d_i^2, which a sine
transform along each axis diagonalizes.

Minor sums S_j and the derivative dS_k/dr come from one route, Reilly's
Newton-tensor recursion (``minor_sums``), for any matrix order: S_k is the
last level and dS_k/dr the transposed tensor T_{k-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Not `import scipy.sparse.linalg`: that form loads scipy.sparse, and with it
# numpy.f2py's regex tables, one import level deeper, which measured about 8%
# slower for a fresh `import khessian.cli` under CPython 3.11.
from scipy.sparse import linalg as spla

from .errors import DomainError, EllipticityError, SolverError
from .grids import ScalarGrid, grid_coords, hessian_of
from .seeds import SeedQuadratic
from .symfun import sigma_km1_row

# BiCGSTAB step limit: converged solves took at most 23 steps (fzero-linear
# 0-3), so a solve that reaches it has diverged and its eps is rejected.
MAX_KRYLOV_STEPS = 200


@dataclass
class LinearSystem:
    """Linearized operator over the interior points, its preconditioner and
    monitors.

    ``matrix`` applies the operator to the interior values in lexicographic
    order, and ``seed_inverse`` applies the exact inverse of the seed's
    operator sum_i sigma_{k-1,i}(tau) d_i^2; both are scipy LinearOperators.
    ``margins[q, i]`` is the diagonal-dominance margin of coefficient row i of
    the n-by-n second-order coefficient matrix at interior point q; positivity
    of every entry certifies uniform ellipticity of the discrete operator.
    """

    matrix: spla.LinearOperator
    seed_inverse: spla.LinearOperator
    rhs: np.ndarray
    n: int
    m: int
    interior_flat: np.ndarray
    margins: np.ndarray

    @property
    def size(self) -> int:
        return self.rhs.shape[0]

    @property
    def min_margin(self) -> float:
        return float(self.margins.min())


def minor_sums(r: np.ndarray, k: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Minor sums [S_1(r), ..., S_k(r)] and the Newton tensor T_{k-1}(r).

    Reilly's recursion, batched over leading axes: T_0 = I,
    S_j = tr(r T_{j-1}) / j and T_j = S_j I - r T_{j-1}.  T_{k-1} is the
    transposed derivative of S_k in the entries of r.  Each update forms one
    product and shifts its diagonal in place, so at most three (..., n, n)
    arrays are alive at once.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise DomainError("expected a (..., n, n) array")
    n = r.shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    idx = np.arange(n)
    sums = [np.trace(r, axis1=-2, axis2=-1)]
    if k == 1:
        return sums, np.broadcast_to(np.eye(n), r.shape).copy()
    t = -r  # T_1 without the product r T_0
    for j in range(2, k + 1):
        if j > 2:
            t = r @ t
            np.negative(t, out=t)
        t[..., idx, idx] += sums[-1][..., None]
        sums.append(np.einsum("...ij,...ji->...", r, t) / j)
    return sums, t


def sk_of_matrix(r: np.ndarray, k: int) -> np.ndarray:
    """Sum of the k-by-k principal minors of r (batched over leading axes)."""
    return minor_sums(r, k)[0][-1]


def sk_gradient(r: np.ndarray, k: int) -> np.ndarray:
    """Entrywise derivative of sk_of_matrix, treating r_ij as independent:
    the transposed Newton tensor T_{k-1}(r)."""
    return np.swapaxes(minor_sums(r, k)[1], -1, -2)


def _physical_args(w: ScalarGrid, seed: SeedQuadratic, grad: np.ndarray):
    x = grid_coords(w.n, w.m)
    tau = seed.tau
    eps, epsp = seed.eps, seed.eps_prime
    psi = 0.5 * np.sum(tau * x**2, axis=-1)
    y = eps**2 * x
    u = eps**4 * psi + epsp * eps**4 * w.values
    p = eps**2 * (tau * x) + epsp * eps**2 * grad
    return y, u, p


def _check_box(f, u: np.ndarray, p: np.ndarray, interior: np.ndarray) -> None:
    box = getattr(f, "box", None)
    if box is None:
        return
    umax = float(np.max(np.abs(u[interior])))
    pmax = float(np.max(np.sqrt(np.sum(p**2, axis=-1))[interior]))
    if umax > box or pmax > box:
        raise DomainError(
            f"(u, p) arguments leave the declared box: |u|={umax:.3g}, "
            f"|p|={pmax:.3g}, box={box:.3g}"
        )


def rescaled_hessian(w: ScalarGrid, seed: SeedQuadratic) -> tuple[np.ndarray, np.ndarray]:
    """r(w) = diag(tau) + eps' * D^2 w per grid point, plus the gradient of w."""
    hess, grad = hessian_of(w)
    return seed.perturbed_hessian(hess), grad


def eval_G(w: ScalarGrid, seed: SeedQuadratic, f) -> ScalarGrid:
    """Rescaled residual operator on interior points (boundary entries zero)."""
    r, grad = rescaled_hessian(w, seed)
    sk = sk_of_matrix(r, seed.k)
    y, u, p = _physical_args(w, seed, grad)
    interior = w.interior_mask
    _check_box(f, u, p, interior)
    g = (sk - f.value(y, u, p)) / seed.eps_prime
    g = np.where(interior, g, 0.0)
    return ScalarGrid(w.n, w.m, g)


def assemble_linearized(w: ScalarGrid, seed: SeedQuadratic, f,
                        g_values: np.ndarray | None = None) -> LinearSystem:
    """Linearization at w with right-hand side -G(w).

    The unknowns are the interior points in lexicographic order.  The operator
    keeps one coefficient field per stencil offset and applies it as the sum,
    over offsets, of the field times the zero-padded input shifted by the
    offset, so neighbours on the Dirichlet boundary drop out.

    Raises EllipticityError when a dominance margin of the second-order
    coefficient matrix is nonpositive at some interior point (the usual cause
    is an eps too large for the current iterate).
    """
    n, m = w.n, w.m
    h = w.h
    r, grad = rescaled_hessian(w, seed)
    y, u, p = _physical_args(w, seed, grad)
    slab = (slice(1, -1),) * n
    coeff = sk_gradient(r, seed.k)[slab]
    a_first = -seed.eps**2 * f.dp(y, u, p)[slab]
    a_zero = -seed.eps**4 * f.du(y, u, p)[slab]
    idx = np.arange(n)

    diag = coeff[..., idx, idx]
    margins = (diag - (np.sum(np.abs(coeff), axis=-1) - np.abs(diag))).reshape(-1, n)
    if margins.size and margins.min() <= 0.0:
        flat_bad = int(np.argmin(margins.min(axis=-1)))
        point = tuple(int(v) + 1 for v in np.unravel_index(flat_bad, (m - 2,) * n))
        axis = int(np.argmin(margins[flat_bad]))
        raise EllipticityError(
            f"dominance margin {margins[flat_bad, axis]:.3e} <= 0 at grid point "
            f"{point}, row {axis}",
            point=point,
            index=axis,
            margin=float(margins[flat_bad, axis]),
        )

    unit = np.eye(n, dtype=int)
    stencil = [(np.zeros(n, dtype=int), -2.0 / h**2 * np.sum(diag, axis=-1) + a_zero)]
    for a in range(n):
        second = coeff[..., a, a] / h**2
        first = a_first[..., a] / (2.0 * h)
        stencil += [(unit[a], second + first), (-unit[a], second - first)]
    for a in range(n):
        for b in range(a + 1, n):
            mixed = coeff[..., a, b] / (2.0 * h**2)
            anti = -mixed
            stencil += [(unit[a] + unit[b], mixed), (-unit[a] - unit[b], mixed),
                        (unit[a] - unit[b], anti), (unit[b] - unit[a], anti)]
    padded = np.zeros((m,) * n)  # its boundary layer is the zero Dirichlet data
    inner = padded[slab]
    shifted = [(padded[tuple(slice(1 + o, m - 1 + o) for o in offset)], field)
               for offset, field in stencil]

    def _apply(v: np.ndarray) -> np.ndarray:
        inner[...] = v.reshape(inner.shape)
        return sum(field * view for view, field in shifted).reshape(-1)

    matrix = spla.LinearOperator((inner.size,) * 2, matvec=_apply, dtype=float)
    matrix.nnz = len(stencil) * inner.size  # stencil coefficients; perfbench/spans.py reads it

    if g_values is None:
        g_values = -eval_G(w, seed, f).values
    rhs = np.asarray(g_values)[slab].reshape(-1)

    return LinearSystem(
        matrix=matrix, seed_inverse=_seed_inverse(seed, m), rhs=rhs, n=n, m=m,
        interior_flat=np.flatnonzero(w.interior_mask), margins=margins,
    )


def _seed_inverse(seed: SeedQuadratic, m: int) -> spla.LinearOperator:
    """Exact inverse of the seed's operator sum_a sigma_{k-1,a}(tau) d_a^2,
    discretized by three-point differences with zero Dirichlet data.

    A DST-I along each axis diagonalizes it: mode j of an axis has the
    eigenvalue (2 cos(pi j / (m-1)) - 2) / h^2.
    """
    from scipy.fft import dstn, idstn  # imported here to keep `import khessian` light

    n, h = seed.n, 2.0 / (m - 1)
    mu = (2.0 * np.cos(np.pi * np.arange(1, m - 1) / (m - 1)) - 2.0) / h**2
    row = sigma_km1_row(seed.tau, seed.k)
    eig = sum(row[a] * mu.reshape((-1,) + (1,) * (n - 1 - a)) for a in range(n))

    def _apply(v: np.ndarray) -> np.ndarray:
        return idstn(dstn(v.reshape(eig.shape), type=1) / eig, type=1).reshape(-1)

    return spla.LinearOperator((eig.size,) * 2, matvec=_apply, dtype=float)


def solve_dirichlet_info(sys: LinearSystem, tol_lin: float = 1e-10,
                         max_iter: int = MAX_KRYLOV_STEPS) -> tuple[ScalarGrid, float]:
    """Solve the interior system by BiCGSTAB, preconditioned by the seed
    operator's inverse; returns the grid solution (zero on the boundary) and
    the achieved relative residual.

    The right-hand side is scaled to unit norm first: scipy's breakdown tests
    are absolute (eps^2), and late Newton corrections have norms near 1e-11.
    ``max_iter`` caps the BiCGSTAB steps.  A residual above tol_lin raises
    SolverError, whose message says whether BiCGSTAB broke down or reached
    its step limit.
    """
    if sys.margins.size and sys.margins.min() <= 0.0:
        raise EllipticityError("system carries nonpositive dominance margins")
    b = sys.rhs
    rho = ScalarGrid.zeros(sys.n, sys.m)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return rho, 0.0
    steps = 0

    def _count(_):
        nonlocal steps
        steps += 1

    x, info = spla.bicgstab(sys.matrix, b / bnorm, rtol=0.1 * tol_lin, atol=0.0,
                            maxiter=max_iter, M=sys.seed_inverse, callback=_count)
    x *= bnorm
    res = float(np.linalg.norm(sys.matrix @ x - b)) / bnorm
    if res > tol_lin:
        why = (f"breakdown, info {info}" if info < 0 else "step limit reached"
               if info > 0 else "only the recurred residual met the tolerance")
        raise SolverError(
            f"Krylov iteration stalled ({why}) at relative residual {res:.3e} "
            f"after {steps} steps",
            steps=steps,
        )
    rho.values.flat[sys.interior_flat] = x
    return rho, res

"""Discretization of the rescaled problem on the unit cube.

``eval_G`` evaluates the rescaled nonlinear operator

    G(w) = (1/eps') [ S_k(diag(tau) + eps' D^2 w) - f(y, u, Du) ]

with the physical arguments y = eps^2 x, u = eps^4 psi(x) + eps' eps^4 w,
(Du)_i = eps^2 tau_i x_i + eps' eps^2 (Dw)_i.  ``assemble_linearized`` builds
the sparse operator

    sum_ij dS_k/dr_ij d_i d_j  -  eps^2 sum_i (df/dp_i) d_i  -  eps^4 (df/du)

with the same stencils used by ``eval_G``'s differences, records the per-row
diagonal-dominance margins of the coefficient matrix, and eliminates the
homogeneous Dirichlet boundary.  ``solve_dirichlet`` is a diagonally
preconditioned BiCGSTAB with a dense fallback for small systems.

Minor sums S_j and the derivative dS_k/dr come from one route, Reilly's
Newton-tensor recursion (``minor_sums``), for any matrix order: S_k is the
last level and dS_k/dr the transposed tensor T_{k-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, EllipticityError, SolverError
from .grids import ScalarGrid, grid_coords, hessian_of
from .seeds import SeedQuadratic

DENSE_FALLBACK_LIMIT = 20000


@dataclass
class LinearSystem:
    """Sparse linearized operator over the interior points, plus monitors.

    ``margins[q, i]`` is the diagonal-dominance margin of coefficient row i of
    the n-by-n second-order coefficient matrix at interior point q; positivity
    of every entry certifies uniform ellipticity of the discrete operator.
    """

    matrix: sp.csr_matrix
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
    """Sparse linearization at w with right-hand side -G(w).

    Raises EllipticityError when a dominance margin of the second-order
    coefficient matrix is nonpositive at some interior point (the usual cause
    is an eps too large for the current iterate).
    """
    n, m = w.n, w.m
    h = w.h
    r, grad = rescaled_hessian(w, seed)
    coeff = sk_gradient(r, seed.k)
    y, u, p = _physical_args(w, seed, grad)
    interior = w.interior_mask

    a_first = -seed.eps**2 * f.dp(y, u, p)
    a_zero = -seed.eps**4 * f.du(y, u, p)

    abs_coeff = np.abs(coeff)
    diag = coeff[..., np.arange(n), np.arange(n)]
    margins_full = diag - (np.sum(abs_coeff, axis=-1) - np.abs(diag))
    margins = margins_full[interior]
    if margins.size and margins.min() <= 0.0:
        flat_bad = int(np.argmin(margins.min(axis=-1)))
        point = np.argwhere(interior)[flat_bad]
        axis = int(np.argmin(margins[flat_bad]))
        raise EllipticityError(
            f"dominance margin {margins[flat_bad, axis]:.3e} <= 0 at grid point "
            f"{tuple(int(v) for v in point)}, row {axis}",
            point=tuple(int(v) for v in point),
            index=axis,
            margin=float(margins[flat_bad, axis]),
        )

    idx_interior = np.argwhere(interior)
    n_unknown = idx_interior.shape[0]
    unk_of_flat = -np.ones(m**n, dtype=np.int64)
    flat_interior = np.ravel_multi_index(idx_interior.T, (m,) * n)
    unk_of_flat[flat_interior] = np.arange(n_unknown)

    coeff_int = coeff[interior]
    a_first_int = a_first[interior]
    a_zero_int = a_zero[interior]
    rows_idx = np.arange(n_unknown)

    entries_rows: list[np.ndarray] = []
    entries_cols: list[np.ndarray] = []
    entries_data: list[np.ndarray] = []

    def _add(offset: tuple[int, ...], data: np.ndarray) -> None:
        nb = idx_interior + np.asarray(offset)
        nb_flat = np.ravel_multi_index(nb.T, (m,) * n)
        cols = unk_of_flat[nb_flat]
        keep = cols >= 0
        entries_rows.append(rows_idx[keep])
        entries_cols.append(cols[keep])
        entries_data.append(data[keep])

    center = -2.0 / h**2 * np.sum(
        coeff_int[:, np.arange(n), np.arange(n)], axis=-1
    ) + a_zero_int
    _add((0,) * n, center)

    for axis in range(n):
        second = coeff_int[:, axis, axis] / h**2
        first = a_first_int[:, axis] / (2.0 * h)
        for sign in (+1, -1):
            off = [0] * n
            off[axis] = sign
            _add(tuple(off), second + sign * first)

    for a in range(n):
        for b in range(a + 1, n):
            mixed = coeff_int[:, a, b] / (2.0 * h**2)
            for sa in (+1, -1):
                for sb in (+1, -1):
                    off = [0] * n
                    off[a] = sa
                    off[b] = sb
                    _add(tuple(off), sa * sb * mixed)

    matrix = sp.coo_matrix(
        (
            np.concatenate(entries_data),
            (np.concatenate(entries_rows), np.concatenate(entries_cols)),
        ),
        shape=(n_unknown, n_unknown),
    ).tocsr()

    if g_values is None:
        g_values = -eval_G(w, seed, f).values
    rhs = np.asarray(g_values)[interior]

    return LinearSystem(
        matrix=matrix, rhs=rhs, n=n, m=m,
        interior_flat=flat_interior, margins=margins,
    )


def _bicgstab(A: sp.csr_matrix, b: np.ndarray, tol: float,
              maxiter: int) -> tuple[np.ndarray, list[float]]:
    """Textbook BiCGSTAB; returns the iterate and the residual history."""
    x = np.zeros_like(b)
    r = b.copy()
    r_shadow = r.copy()
    bnorm = float(np.linalg.norm(b))
    history: list[float] = []
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    pvec = np.zeros_like(b)
    for _ in range(maxiter):
        rho_next = float(r_shadow @ r)
        if abs(rho_next) < 1e-300:
            break
        if history:
            beta = (rho_next / rho) * (alpha / omega)
            pvec = r + beta * (pvec - omega * v)
        else:
            pvec = r.copy()
        rho = rho_next
        v = A @ pvec
        denom = float(r_shadow @ v)
        if abs(denom) < 1e-300:
            break
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= tol * bnorm:
            x = x + alpha * pvec
            history.append(float(np.linalg.norm(b - A @ x)) / bnorm)
            return x, history
        t = A @ s
        tt = float(t @ t)
        if tt == 0.0:
            break
        omega = float(t @ s) / tt
        if omega == 0.0:
            break
        x = x + alpha * pvec + omega * s
        r = s - omega * t
        res = float(np.linalg.norm(r)) / bnorm
        history.append(res)
        if res <= tol:
            true_res = float(np.linalg.norm(b - A @ x)) / bnorm
            history[-1] = true_res
            if true_res <= tol:
                return x, history
    return x, history


def solve_dirichlet_info(sys: LinearSystem, tol_lin: float = 1e-10,
                         max_iter: int | None = None) -> tuple[ScalarGrid, float]:
    """Solve the interior system; returns the grid solution and the achieved
    relative residual."""
    if sys.margins.size and sys.margins.min() <= 0.0:
        raise EllipticityError("system carries nonpositive dominance margins")
    b = sys.rhs
    rho = ScalarGrid.zeros(sys.n, sys.m)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return rho, 0.0
    if max_iter is None:
        max_iter = 10 * sys.size

    # Jacobi row scaling keeps the Krylov iteration well conditioned.
    diag = sys.matrix.diagonal()
    scale = np.where(np.abs(diag) > 0.0, 1.0 / diag, 1.0)
    A_scaled = sp.diags(scale) @ sys.matrix
    b_scaled = scale * b

    x, history = _bicgstab(A_scaled, b_scaled, 0.1 * tol_lin, max_iter)
    res = float(np.linalg.norm(sys.matrix @ x - b)) / bnorm
    if res > tol_lin:
        if sys.size <= DENSE_FALLBACK_LIMIT:
            x = np.linalg.solve(sys.matrix.toarray(), b)
            res = float(np.linalg.norm(sys.matrix @ x - b)) / bnorm
            if res > tol_lin:
                raise SolverError(
                    f"dense fallback stalled at relative residual {res:.3e}",
                    history=history,
                )
        else:
            raise SolverError(
                f"Krylov iteration stalled at relative residual {res:.3e} "
                f"after {len(history)} steps",
                history=history,
            )
    flat = rho.values.reshape(-1)
    flat[sys.interior_flat] = x
    return ScalarGrid(sys.n, sys.m, flat.reshape((sys.m,) * sys.n)), res


def solve_dirichlet(sys: LinearSystem, tol_lin: float = 1e-10,
                    max_iter: int | None = None) -> ScalarGrid:
    """Solution of the homogeneous-Dirichlet interior system."""
    grid, _ = solve_dirichlet_info(sys, tol_lin, max_iter)
    return grid

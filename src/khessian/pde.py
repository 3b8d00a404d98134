"""Discretization of the rescaled problem on the unit cube.

``eval_G`` evaluates the rescaled nonlinear operator

    G(w) = (1/eps') [ S_k(diag(tau) + eps' D^2 w) - f(y, u, Du) ]

with the physical arguments y = eps^2 x, u = eps^4 psi(x) + eps' eps^4 w,
(Du)_i = eps^2 tau_i x_i + eps' eps^2 (Dw)_i.  ``assemble_linearized`` builds
the linearized operator

    sum_ij dS_k/dr_ij d_i d_j  -  eps^2 sum_i (df/dp_i) d_i  -  eps^4 (df/du)

as one coefficient field per stencil offset, with the same stencils used by
``eval_G``'s differences; ``eval_G`` measures the per-row diagonal-dominance
margins of the coefficient matrix, and the Newton step alone decides,
before it assembles, whether they are large enough.  The operator is
applied on the grid, never assembled.  ``solve_dirichlet_info`` solves the
homogeneous Dirichlet problem by Richardson iteration, preconditioned by
the exact inverse of the seed's constant-coefficient operator
sum_i sigma_{k-1,i}(tau) d_i^2, which a sine transform along each axis
diagonalizes.  Near the seed the linearization is a small perturbation of
that operator, so each iteration contracts the residual; a solve whose
residual stops shrinking is refused.

Minor sums S_j and the derivative dS_k/dr come from one route, Reilly's
Newton-tensor recursion (``minor_sums``), for any matrix order: S_k is the
last level and dS_k/dr the transposed tensor T_{k-1}.

Each iterate is evaluated once, on the interior points only, where the
equation is imposed, one interior slab along the first axis at a time.
``eval_G`` differences each slab of w from the slab and one halo row on
each side (``grids.interior_differences``), forms r = diag(tau) + eps' D^2 w
(``total_hessian``, r's one construction) and recurses it once: S_k for G,
and T_{k-1}, of which it keeps only the n(n+1)/2 entries of coeff = T^T
that the stencil reads and the dominance margins, reduced to what the
Newton step reads (``Margins``).  It forms (y, u, p), evaluates f and
folds the box's running maxima per slab too, so neither w's differences,
r, its transposed copy, the tensor, the points' coordinates nor (y, u, p)
ever cover the whole interior.  ``eval_G`` returns G as a ``Residual``
with the margins, which the Newton step reads, and the entries and a
reference to w, all ``assemble_linearized`` reads; the assembly forms w's
gradient and (y, u, p) again, one slab at a time, for f's derivatives,
and turns the entries into its fields in place, with no other difference
and no recursion.  At w = 0 every difference is +0.0, so r = diag(tau)
at every point, and one matrix is recursed and its entries broadcast over
the interior; scalar +0.0 stands in for w and Dw in u and p, the floats
zero arrays would give, without forming them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError
from .grids import (
    ScalarGrid,
    interior_differences,
    interior_slabs,
    slab_coords,
    sup_norm,
    symmetric_matrix,
)
from .seeds import SeedQuadratic
from .symfun import sigma_km1_row

# Richardson iteration limit: accepted solves took at most 17 iterations, at
# contractions up to 0.34, so a solve that reaches it contracts too slowly
# and its eps is refused.
MAX_LIN_STEPS = 200
# Matrices per block of minor_sums' products: 4096 (4, 4) blocks take 512 kB.
_PRODUCT_BLOCK = 4096


@dataclass
class Margins:
    """The diagonal-dominance margins of the second-order coefficient matrix
    coeff = T_{k-1}^T at the interior points, reduced to what the Newton
    step reads.  The margin of row i at a point is
    coeff_ii - (sum_j |coeff_ij| - |coeff_ii|), and its gap is the margin
    less half the seed row, 0.5 sigma_{k-1,i}(tau).  ``below`` says whether
    some gap is below 0 (a NaN gap is not); ``gap``, ``margin``, ``point``
    (indices on the full grid) and ``row`` are the first least gap in C
    order over (point, row), where a NaN wins, as in ``np.argmin``, and the
    margin there; ``least`` is the least margin, NaN when any is NaN."""

    below: bool
    gap: float
    margin: float
    point: tuple[int, ...]
    row: int
    least: float


@dataclass
class LinearSystem:
    """Linearized operator over the interior points, its preconditioner and
    right-hand side.

    ``matrix`` applies the operator to the interior values in lexicographic
    order, and ``seed_inverse`` applies the exact inverse of the seed's
    operator sum_i sigma_{k-1,i}(tau) d_i^2; both are functions of the flat
    interior vector, as is ``rhs``.
    """

    matrix: Callable[[np.ndarray], np.ndarray]
    seed_inverse: Callable[[np.ndarray], np.ndarray]
    rhs: np.ndarray
    n: int
    m: int

    @property
    def size(self) -> int:
        return self.rhs.shape[0]


def minor_sums(r: np.ndarray, k: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Minor sums [S_1(r), ..., S_k(r)] and the Newton tensor T_{k-1}(r).

    Reilly's recursion, batched over leading axes: T_0 = I,
    S_j = tr(r T_{j-1}) / j and T_j = S_j I - r T_{j-1}.  T_{k-1} is the
    transposed derivative of S_k in the entries of r.  Each update forms the
    product block by block, overwriting T_{j-1}, and shifts its diagonal in
    place, so r and T are the only (..., n, n) arrays alive.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise DomainError("expected a (..., n, n) array")
    n = r.shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    sums = [np.trace(r, axis1=-2, axis2=-1)]
    if k == 1:
        return sums, np.broadcast_to(np.eye(n), r.shape).copy()
    t = -r  # T_1 without the product r T_0
    flat_r, flat_t = r.reshape(-1, n, n), t.reshape(-1, n, n)  # flat_t is a view of t
    block = np.empty((min(_PRODUCT_BLOCK, len(flat_t)), n, n))
    diag = np.einsum("...ii->...i", t)  # writeable view of t's diagonal
    for j in range(2, k + 1):
        if j > 2:  # T <- -r T, a block of matrices at a time
            for lo in range(0, len(flat_t), _PRODUCT_BLOCK):
                part = flat_t[lo:lo + _PRODUCT_BLOCK]
                np.matmul(flat_r[lo:lo + _PRODUCT_BLOCK], part, out=block[:len(part)])
                np.negative(block[:len(part)], out=part)
        diag += sums[-1][..., None]
        sums.append(np.einsum("...ij,...ji->...", r, t) / j)
    return sums, t


def sk_of_matrix(r: np.ndarray, k: int) -> np.ndarray:
    """Sum of the k-by-k principal minors of r (batched over leading axes)."""
    return minor_sums(r, k)[0][-1]


def sk_gradient(r: np.ndarray, k: int) -> np.ndarray:
    """Entrywise derivative of sk_of_matrix, treating r_ij as independent:
    the transposed Newton tensor T_{k-1}(r)."""
    return np.swapaxes(minor_sums(r, k)[1], -1, -2)


def total_hessian(second: np.ndarray | None, seed: SeedQuadratic) -> np.ndarray:
    """r = diag(tau) + eps' D^2 w at the points of a stack of w's second
    differences, (c,) + points in ``np.triu_indices(n)`` order: shape
    points + (n, n).  None stands for w = 0, whose r is the one matrix
    diag(tau), shape (1,)*n + (n, n)."""
    n = seed.n
    if second is None:
        second = np.zeros((n * (n + 1) // 2,) + (1,) * n)
    return symmetric_matrix(second, n, seed.eps_prime, seed.tau)


def _physical_args(seed: SeedQuadratic, x: np.ndarray, values: np.ndarray,
                   grad: np.ndarray):
    """(y, u, p) at the points with coordinates x (``(..., n)``), where w and
    its gradient take the values ``values`` and ``grad``."""
    eps, epsp = seed.eps, seed.eps_prime
    y = eps**2 * x
    u = eps**4 * seed.psi(x) + epsp * eps**4 * values
    p = eps**2 * (seed.tau * x) + epsp * eps**2 * grad
    return y, u, p


def _slab_arguments(seed: SeedQuadratic, m: int, values: np.ndarray | None,
                    width: int, second: bool):
    """(rows, at, D^2 w, y, u, p) per interior slab (``interior_slabs`` of
    an array of ``width`` doubles per point): its rows of the interior, its
    index into the grid, w's second differences there when ``second``
    (else None) and (y, u, p), from w's grid ``values``, which the slab and
    one halo row on each side give (``interior_differences``).  ``values``
    None stands for w = 0, which is not differenced: its scalar +0.0 for w
    and Dw gives the floats of zero arrays without forming them.  Each
    slab's arrays are new; its coordinates (``slab_coords``) are one
    buffer, freed with the generator."""
    n = seed.n
    parts = interior_slabs(n, m, width)
    for (rows, at), x in zip(parts, slab_coords(n, m, [at for _, at in parts])):
        if values is None:
            d2, w_at = None, (0.0, 0.0)
        else:
            d2, grad = interior_differences(values, 2.0 / (m - 1), rows, second)
            w_at = (values[at], grad)
        yield (rows, at, d2) + _physical_args(seed, x, *w_at)


def _box_extremes(u: np.ndarray, p: np.ndarray, prior=(-np.inf, -np.inf)) -> tuple:
    """(max |u|, max |p|^2) over the points of (u, p) and ``prior``, the pair
    for the points before them: folded slab by slab, it gives the floats of
    the whole interior, since a maximum is exact, and ``np.maximum`` lets a
    NaN propagate from any slab as it does from the whole array.  |p|^2 is
    summed one component at a time, in the order of ``np.sum`` over p's
    last axis."""
    square = p[..., 0] ** 2
    for i in range(1, p.shape[-1]):
        square += p[..., i] ** 2
    return np.maximum(prior[0], sup_norm(u)), np.maximum(prior[1], square.max())


def _check_box(f, extremes: tuple) -> None:
    """Raise DomainError when max |u| or max |p| exceeds f's declared box,
    from the ``_box_extremes`` of every point: one square root is taken, of
    the largest |p|^2, the float of the largest root, since the root is
    correctly rounded and monotone."""
    box = getattr(f, "box", None)
    if box is None:
        return
    umax, pmax = float(extremes[0]), float(np.sqrt(extremes[1]))
    if umax > box or pmax > box:
        raise DomainError(
            f"(u, p) arguments leave the declared box: |u|={umax:.3g}, "
            f"|p|={pmax:.3g}, box={box:.3g}"
        )


def _stencil_entries(t: np.ndarray, out: np.ndarray) -> None:
    """The entries of coeff = T^T that the stencil reads, coeff[a, a] and
    coeff[a, b] for a < b, from the Newton tensors ``t`` (points + (n, n))
    into ``out``, component-major (c,) + points in ``np.triu_indices(n)``
    order."""
    for c, (a, b) in enumerate(zip(*np.triu_indices(t.shape[-1]))):
        out[c] = t[..., b, a]


def _fold_margins(t: np.ndarray, half_row: np.ndarray, rows: slice,
                  prior: Margins | None) -> Margins:
    """``prior``, the ``Margins`` of the interior points before a slab (None
    for the first), and the slab's interior rows ``rows``, whose Newton
    tensors are ``t``: the ``Margins`` of both.  Row i's sum is taken from
    the left one component at a time, as ``np.sum`` over a row does.
    Slabs follow one another in C order, so the first least gap is the
    prior's unless the slab's is less or is NaN (and the prior's is not);
    a NaN least margin propagates."""
    n = t.shape[-1]
    margins = np.empty(t.shape[:-1])
    for i in range(n):
        row_sum = np.abs(t[..., 0, i])
        for j in range(1, n):
            row_sum += np.abs(t[..., j, i])
        diag = t[..., i, i]
        margins[..., i] = diag - (row_sum - np.abs(diag))
    gap = margins - half_row
    q = int(np.argmin(gap))
    first, *rest, row = (int(v) for v in np.unravel_index(q, gap.shape))
    found = Margins(below=bool(np.any(gap < 0.0)), gap=float(gap.flat[q]),
                    margin=float(margins.flat[q]), row=row,
                    point=(rows.start + first + 1, *(v + 1 for v in rest)),
                    least=float(margins.min()))
    if prior is None:
        return found
    if not np.isnan(prior.gap) and (np.isnan(found.gap) or found.gap < prior.gap):
        prior.gap, prior.margin, prior.point, prior.row = (
            found.gap, found.margin, found.point, found.row)
    prior.below |= found.below
    prior.least = float(np.minimum(prior.least, found.least))
    return prior


@dataclass
class Residual(ScalarGrid):
    """G(w) on the grid (``values``, zero on the boundary) and what the
    Newton step at w reads of w's evaluation: ``iterate``, w's values
    (the caller's array, no copy) or None for w = 0; ``entries``, the
    entries of coeff = T_{k-1}(r(w))^T (the transposed dS_k/dr) that the
    stencil reads, coeff[a, a] and coeff[a, b] for a < b, component-major
    with shape (c,) + interior in ``np.triu_indices(n)`` order, both for
    the assembly; and ``margins``, coeff's dominance margins reduced
    (``Margins``), which the step tests before it assembles.  Neither
    w's differences nor the tensor are kept.  At w = 0 ``entries`` is a
    read-only view of one point's broadcast over the interior.
    ``assemble_linearized`` takes the entries over (and sets them to
    None)."""

    iterate: np.ndarray | None
    entries: np.ndarray | None
    margins: Margins


def eval_G(w: ScalarGrid, seed: SeedQuadratic, f) -> Residual:
    """Rescaled residual operator on interior points (boundary entries zero).

    Everything runs on the interior, one slab along the first axis at a
    time.  Per slab, w is differenced from the slab and one halo row on
    each side (``interior_differences``, the floats of whole-grid
    differences), and one Newton-tensor recursion of r gives both S_k(r),
    for G, and T_{k-1}(r), of which the result keeps the entries the
    stencil reads (``_stencil_entries``) and the reduced dominance margins
    (``_fold_margins``); (y, u, p) are formed from that slab's coordinates
    (``_slab_arguments``), f is evaluated there (``f.value(y, u, p, at)``,
    ``at`` the slab's index into the grid) and |u| and |p|^2 are folded
    into running maxima (``_box_extremes``).  Each fills its part of a
    preallocated interior array, so neither w's differences, r, its copies,
    the tensor nor (y, u, p) ever cover the whole interior.  After the last
    slab the box is checked on the whole interior's extremes
    (``_check_box``).  Each point's arithmetic is that of a whole-interior
    pass.  At w = 0, r = diag(tau) at every point: one matrix is recursed,
    S_k broadcasts as its scalar and its entries as a read-only view, its
    margins are the first point's, and scalar +0.0 stands in for w and Dw
    in (y, u, p): the floats of zero arrays, no product of zeros formed.
    """
    n, m, shape = seed.n, w.m, w.values.shape
    inner = (m - 2,) * n
    half_row = 0.5 * sigma_km1_row(seed.tau, seed.k)
    iterate = w.values if w.values.any() else None
    if iterate is None:
        sums, tensor = minor_sums(total_hessian(None, seed), seed.k)
        sk, one = sums[-1], np.empty((n * (n + 1) // 2,) + (1,) * n)
        _stencil_entries(tensor, one)
        entries = np.broadcast_to(one, one.shape[:1] + inner)
        margins = _fold_margins(tensor, half_row, slice(0, 1), None)
    else:
        sk, entries, margins = np.empty(inner), np.empty((n * (n + 1) // 2,) + inner), None
    fval, extremes = np.empty(inner), (-np.inf, -np.inf)
    for rows, at, second, y, u, p in _slab_arguments(seed, m, iterate,
                                                     n if iterate is None else n * n, True):
        if iterate is not None:
            sums, tensor = minor_sums(total_hessian(second, seed), seed.k)
            sk[rows] = sums[-1]
            _stencil_entries(tensor, entries[:, rows])
            margins = _fold_margins(tensor, half_row, rows, margins)
        fval[rows] = f.value(y, u, p, at)
        extremes = _box_extremes(u, p, extremes)
    del y, u, p  # the last slab's, freed before G is formed
    _check_box(f, extremes)
    g = np.zeros(shape)
    np.divide(np.subtract(sk, fval, out=fval), seed.eps_prime, out=g[(slice(1, -1),) * n])
    return Residual(w.n, w.m, g, iterate, entries, margins)


def assemble_linearized(g: Residual, seed: SeedQuadratic, f) -> LinearSystem:
    """Linearization at w with right-hand side -G(w), read from the residual
    ``g = eval_G(w, seed, f)`` alone.

    The unknowns are the interior points in lexicographic order.  The
    operator keeps one coefficient field per stencil offset and applies it as
    the sum, over offsets, of the field times the zero-padded input shifted
    by the offset, so neighbours on the Dirichlet boundary drop out.

    The fields come from the residual's stencil entries, with no
    difference beyond w's gradient and no recursion: per slab, w's gradient
    and (y, u, p) are formed (``_slab_arguments``) for f_p and f_u, and the
    centre and axis fields are filled.  The assembly takes the entries over
    and turns them into fields in place, each diagonal entry into the field
    of its -e_a offset and each mixed one into its four offsets' field, so
    entries and fields never both cover the interior.

    The dominance margins stay on ``g``, where ``eval_G`` measured them:
    whether they certify uniform ellipticity is ``iterate._newton_step``'s
    decision, made before it assembles.
    """
    n, m, h = g.n, g.m, g.h
    entries, g.entries = g.entries, None
    if not entries.flags.writeable:  # w = 0: one point's entries, broadcast
        entries = entries.copy()
    pairs = list(zip(*np.triu_indices(n)))
    diag = [entries[pairs.index((a, a))] for a in range(n)]
    inner = (m - 2,) * n
    centre, plus = np.empty(inner), np.empty((n,) + inner)
    # a slab holds y, u, p and f_p: 3n + 1 doubles per point
    for rows, _, _, y, u, p in _slab_arguments(seed, m, g.iterate, 3 * n + 1, False):
        a_first = -seed.eps**2 * f.dp(y, u, p)
        # the trace summed from the left, as np.sum over the diagonal does
        trace = diag[0][rows].copy()
        for a in range(1, n):
            trace += diag[a][rows]
        centre[rows] = -2.0 / h**2 * trace + -seed.eps**4 * f.du(y, u, p)
        for a in range(n):
            second = diag[a][rows]
            second /= h**2
            first = a_first[..., a] / (2.0 * h)
            np.add(second, first, out=plus[a][rows])
            second -= first
    del y, u, p, a_first  # the last slab's

    # (offset, field, ufunc): the product of the field and the input shifted
    # by the offset is added, or, for the anti-diagonal mixed offsets,
    # subtracted, which gives the floats of adding the negated field
    unit = np.eye(n, dtype=int)
    add, sub = np.add, np.subtract
    stencil = [(np.zeros(n, dtype=int), centre, add)]
    for a in range(n):
        stencil += [(unit[a], plus[a], add), (-unit[a], diag[a], add)]
    for c, (a, b) in enumerate(pairs):
        if a != b:
            mixed = entries[c]
            mixed /= 2.0 * h**2
            stencil += [(unit[a] + unit[b], mixed, add), (-unit[a] - unit[b], mixed, add),
                        (unit[a] - unit[b], mixed, sub), (unit[b] - unit[a], mixed, sub)]
    slab = (slice(1, -1),) * n
    padded = np.zeros((m,) * n)  # its boundary layer is the zero Dirichlet data
    inner = padded[slab]
    shifted = [(padded[tuple(slice(1 + o, m - 1 + o) for o in offset)], field, op)
               for offset, field, op in stencil]

    product = np.empty(inner.shape)

    def _apply(v: np.ndarray) -> np.ndarray:
        # summed onto zeros in stencil order: the floats of a left-to-right sum
        inner[...] = v.reshape(inner.shape)
        out = np.zeros(inner.shape)
        for view, field, op in shifted:
            np.multiply(field, view, out=product)
            op(out, product, out=out)
        return out.reshape(-1)

    _apply.nnz = len(stencil) * inner.size  # stencil coefficients; perfbench/spans.py reads it
    rhs = -g.values[slab].reshape(-1)

    return LinearSystem(matrix=_apply, seed_inverse=_seed_inverse(seed, m), rhs=rhs, n=n, m=m)


def _seed_inverse(seed: SeedQuadratic, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of the seed's operator sum_a sigma_{k-1,a}(tau) d_a^2,
    discretized by three-point differences with zero Dirichlet data.

    The DST-I matrix S[j, l] = sin(pi j l / (m-1)), j, l = 1..m-2,
    diagonalizes it along each axis: mode j of an axis has the eigenvalue
    (2 cos(pi j / (m-1)) - 2) / h^2.  S is symmetric and S S = (m-1)/2 I, so
    with S^n applying S along every axis the inverse is
    (2/(m-1))^n S^n (S^n v / eig); the factor is folded into eig.
    """
    n, h = seed.n, 2.0 / (m - 1)
    modes = np.arange(1, m - 1)
    sine = np.sin(np.pi / (m - 1) * np.outer(modes, modes))
    mu = ((m - 1) / 2.0) ** n * (2.0 * np.cos(np.pi * modes / (m - 1)) - 2.0) / h**2
    row = sigma_km1_row(seed.tau, seed.k)
    eig = sum(row[a] * mu.reshape((-1,) + (1,) * (n - 1 - a)) for a in range(n)).reshape(-1)

    def _transform(v: np.ndarray) -> np.ndarray:
        # each product transforms the leading axis and moves it to the back
        for _ in range(n):
            v = v.reshape(m - 2, -1).T @ sine
        return v.reshape(-1)

    def _apply(v: np.ndarray) -> np.ndarray:
        return _transform(_transform(v) / eig)

    return _apply


def solve_dirichlet_info(sys: LinearSystem, tol_lin: float = 1e-10
                         ) -> tuple[ScalarGrid, float, int, float | None]:
    """Solve the interior system by Richardson iteration preconditioned by the
    seed operator's inverse, x <- x + P^-1 (b - A x) from x = 0, on the
    unit-normalized right-hand side, to a true relative residual of
    0.1 tol_lin.  Returns the grid solution (zero on the boundary), the
    relative residual, the number of iterations (one application of A
    each) and the contraction, the largest ratio of successive residual
    norms (None for a zero right-hand side, which needs no iteration).
    ``sys`` is only read.  A residual that does not shrink, or
    ``MAX_LIN_STEPS`` iterations (read at each call) short of the target,
    raise SolverError, whose message says which and which carries the
    iterations as ``steps`` and the contraction so far as ``contraction``.
    """
    rho = ScalarGrid.zeros(sys.n, sys.m)
    bnorm = float(np.linalg.norm(sys.rhs))
    if bnorm == 0.0:
        return rho, 0.0, 0, None
    b = sys.rhs / bnorm
    x = np.zeros_like(b)
    r, res, steps, contraction = b, 1.0, 0, 0.0
    while res > 0.1 * tol_lin:
        if steps == MAX_LIN_STEPS:
            why = "step limit reached"
            break
        x += sys.seed_inverse(r)
        r = b - sys.matrix(x)
        steps += 1
        last, res = res, float(np.linalg.norm(r))
        contraction = max(contraction, res / last)
        if not res < last:  # a NaN residual stops here as well
            why = "residual stopped shrinking"
            break
    else:
        rho.values[(slice(1, -1),) * sys.n] = (bnorm * x).reshape((sys.m - 2,) * sys.n)
        return rho, res, steps, contraction
    raise SolverError(
        f"Richardson iteration stalled ({why}) at relative residual {res:.3e} "
        f"after {steps} operator applications",
        steps=steps, contraction=contraction,
    )

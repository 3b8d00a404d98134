"""Independent brute-force oracles used to pin expected values, and the
test-only helpers that check library output.

The oracles deliberately avoid the library's evaluation routes: subset
enumeration for minor sums, explicit zeroing for deleted variables,
point-by-point pair enumeration along axis and full-diagonal directions for
Hoelder quotients (and, on grids too large for it, a sweep of every
difference offset with no pass skipped), entry-by-entry stencil placement
for the linearized operator and per-cell formatting for grid CSVs.  Enumeration is kept to
n <= 12.  The row-major sigma recurrence and its ``np.delete`` routes are the
bit-exact reference for the library's coefficient-major kernel, which does the
same arithmetic in the same order.  The point-by-point evaluation of G and of
the convexity certificate, which differences and recurses every grid point
even at w = 0, is the bit-exact reference for the library's closed form of the
zero iterate and for its slab-by-slab differences, stencil entries and
dominance margins, reduced as one ``np.argmin`` over every interior
point's gaps reduces them; its (y, u, p), formed for the whole interior
at once, are the reference for the library's slab-by-slab arguments, box
decision and derivatives of f.  Scaling full (n, n) Hessian matrices and
shifting their diagonal is the bit-exact reference for the library's one
construction of diag(tau) + eps' D^2 w from stacked upper-triangle
components.  The C^{2,alpha} surrogate read from the whole
``second_differences`` stack is the reference for the library's
surrogate, which forms one component at a time.  Plain halving of eps on
the solve's grid alone is the reference for tuning, which halves on the
coarsest grid first.
The cone tests that
reduce over the strided sigma axis, sample the hyperbolicity check on every
row and test every drawn row for the cone are
the bit-exact references for the library's row-wise, positive-rows-only and
blocked, stop-when-full forms, and the cone sweeps that draw and check each
configuration's whole batch at once are the references for the library's
sweeps of one block at a time.  Drawing every identities sample before
checking any is the reference for the library's identities sweep, which
draws and checks one block of samples at a time.  Classifying one vector at a time with
scalar comparisons and Python's ``min`` is the reference for the batched
boundary classifier and the P2 sweep's blocks.  The helpers (the cone inequality check,
the descending-order facts, the boundary mask and the grid CSV reader) are
built on the library and used only by tests.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from khessian import verify
from khessian.cone import DEFAULT_TOL, Region, classify_boundary, garding_slack, in_gamma_k
from khessian.errors import DomainError, TuningError
from khessian.grids import (
    grid_coords,
    holder_quotient,
    second_differences,
    sup_norm,
    symmetric_matrix,
)
from khessian.iterate import EPS_MIN, _iteration_zero
from khessian.pde import Margins, _box_extremes, _check_box, _physical_args, minor_sums
from khessian.seeds import sample_p2_points
from khessian.symfun import as_spectrum, shift_coefficient, sigma_km1_row


def sigma_all_row_major(lam: np.ndarray, k_max: int) -> np.ndarray:
    """All sigma_0..sigma_{k_max}, no validation.  lam may have length 0."""
    n = lam.shape[-1]
    out = np.zeros(lam.shape[:-1] + (k_max + 1,))
    out[..., 0] = 1.0
    for i in range(n):
        top = min(i + 1, k_max)
        for j in range(top, 0, -1):
            out[..., j] += lam[..., i] * out[..., j - 1]
    return out


def elem_sym_deleted_by_copy(lam: np.ndarray, k: int, deleted) -> np.ndarray:
    """sigma_k of lam with the listed entries removed by ``np.delete``."""
    reduced = np.delete(lam, tuple(deleted), axis=-1)
    return sigma_all_row_major(reduced, k)[..., k]


def sigma_km1_row_by_copy(lam: np.ndarray, k: int) -> np.ndarray:
    """Deleted-variable row sigma_{k-1}(lam | i), one ``np.delete`` per i."""
    n = lam.shape[-1]
    cols = [
        sigma_all_row_major(np.delete(lam, i, axis=-1), k - 1)[..., k - 1]
        for i in range(n)
    ]
    return np.stack(cols, axis=-1)


def in_gamma_tilde_by_copy(lam: np.ndarray, k: int) -> np.ndarray:
    """Deleted-variable cone membership, each subset removed by ``np.delete``."""
    n = lam.shape[-1]
    ok = np.ones(lam.shape[:-1], dtype=bool)
    for l in range(k):  # l == k gives sigma_0 == 1, trivially positive
        for idx in combinations(range(n), l):
            reduced = np.delete(lam, idx, axis=-1) if idx else lam
            vals = sigma_all_row_major(reduced, k - l)[..., k - l]
            ok &= vals > 0.0
    return ok


def in_gamma_k_over_the_sigma_axis(lam, k: int, tol: float = 0.0):
    """sigma_j(lam) > tol for all j = 1..k, one ``np.all`` over the last axis
    of the row-major sigma array."""
    sig = sigma_all_row_major(as_spectrum(lam), k)
    ok = np.all(sig[..., 1:] > tol, axis=-1)
    return bool(ok) if ok.ndim == 0 else ok


def in_garding_cone_sampled_every_row(lam, k: int):
    """Coefficient verdict of hyperbolicity-cone membership, with the sampled
    consistency check (s = 0 and 16 geometric shifts) built and tested on
    every row: raises AssertionError where a positive verdict has a
    nonpositive sample."""
    arr = as_spectrum(lam)
    n = arr.shape[-1]
    sig = sigma_all_row_major(arr, k)
    coeff_ok = np.all(sig[..., :k] >= 0.0, axis=-1) & (sig[..., k] > 0.0)
    s_max = 1.0 + n * max(1.0, float(np.max(np.abs(arr))))
    s = np.concatenate([[0.0], np.geomspace(1e-6 * s_max, s_max, 16)])
    poly = np.zeros(arr.shape[:-1] + (s.size,))
    for j in range(k + 1):
        poly += np.multiply.outer(sig[..., k - j], s**j) * shift_coefficient(j, k, n)
    if np.any(coeff_ok & ~np.all(poly > 0.0, axis=-1)):
        raise AssertionError("coefficient test and sampled hyperbolicity check disagree")
    return bool(coeff_ok) if coeff_ok.ndim == 0 else coeff_ok


def sample_in_cone_every_row(n: int, k: int, count: int,
                             rng: np.random.Generator) -> np.ndarray:
    """The first ``count`` uniform(-3, 3) draws in the level-k cone: chunks of
    ``4 * count`` rows, every row of every chunk drawn and tested."""
    out = np.empty((0, n))
    while out.shape[0] < count:
        draw = rng.uniform(-3.0, 3.0, size=(4 * count, n))
        out = np.concatenate([out, draw[in_gamma_k_over_the_sigma_axis(draw, k)]])
    return out[:count]


def cone_equivalence_sweep_whole_batch(samples: int, seed: int) -> verify.SweepResult:
    """``verify.cone_equivalence_sweep`` on each configuration's whole batch
    of ``samples`` rows at once, through the names ``verify`` looks up."""
    rng = np.random.default_rng(seed)
    result = verify.SweepResult(name="cone-equivalence", checked=0, failures=0)
    for n, k in verify.EQUIV_CONFIGS:
        lam = rng.uniform(-3.0, 3.0, size=(samples, n))
        sig = verify.sigma_all(lam, k)
        near = np.abs(sig[:, 1]) <= verify.EQUIV_TOL
        for j in range(2, k + 1):
            near |= np.abs(sig[:, j]) <= verify.EQUIV_TOL
        for l in range(1, k):
            for idx in combinations(range(n), l):
                near |= np.abs(verify.elem_sym_deleted(lam, k - l, idx)) <= verify.EQUIV_TOL
        result.excluded += int(near.sum())
        lam_kept = lam[~near]
        if lam_kept.shape[0] == 0:
            continue
        a = verify.in_gamma_k(lam_kept, k)
        b = verify.in_garding_cone_sampled(lam_kept, k)
        c = verify.in_gamma_tilde(lam_kept, k)
        result.checked += lam_kept.shape[0]
        verify._record_failures(result, (a == b) & (b == c), lam_kept)
    return result


def garding_inequality_sweep_whole_batch(samples: int, seed: int) -> verify.SweepResult:
    """``verify.garding_inequality_sweep`` on whole batches, sampled by
    ``sample_in_cone_every_row``."""
    rng = np.random.default_rng(seed)
    result = verify.SweepResult(name="garding-inequality", checked=0, failures=0)
    for n, k in verify.GARDING_CONFIGS:
        lam = sample_in_cone_every_row(n, k, samples, rng)
        mu = sample_in_cone_every_row(n, k, samples, rng)
        ok = verify.garding_slack(lam, mu, k) >= -verify.GARDING_TOL
        result.checked += samples
        verify._record_failures(result, ok, lam)
        eq = np.abs(verify.garding_slack(lam, lam, k)) <= verify.GARDING_TOL
        result.checked += samples
        verify._record_failures(result, eq, lam)
    return result


def maclaurin_sweep_whole_batch(samples: int, seed: int) -> verify.SweepResult:
    """``verify.maclaurin_sweep`` on whole batches, sampled by
    ``sample_in_cone_every_row``."""
    rng = np.random.default_rng(seed)
    result = verify.SweepResult(name="maclaurin", checked=0, failures=0)
    for n, k in verify.EQUIV_CONFIGS:
        lam = sample_in_cone_every_row(n, k, samples, rng)
        sig = verify.sigma_all(lam, k)
        means = np.stack([(sig[:, l] / verify.binom(n, l)) ** (1.0 / l)
                          for l in range(1, k + 1)], axis=1)
        scale = np.maximum(1.0, np.abs(means[:, :-1]))
        ok = np.all(np.diff(means, axis=1) <= verify.REL_TOL * scale, axis=1)
        result.checked += samples
        verify._record_failures(result, ok, lam)
    return result


def identities_sweep_whole_batch(samples: int, seed: int) -> verify.SweepResult:
    """``verify.identities_sweep`` with every sample drawn first, as its own
    array, and each n's samples checked in one batch, through the names
    ``verify`` looks up."""
    rng = np.random.default_rng(seed)
    draws = [rng.uniform(-3.0, 3.0, size=rng.integers(2, verify.N_MAX + 1))
             for _ in range(samples)]
    result = verify.SweepResult(name="identities", checked=samples, failures=0)
    for n in sorted({lam.size for lam in draws}):
        lam = np.array([v for v in draws if v.size == n])
        mag = np.abs(lam)
        ok = np.ones(lam.shape[0], dtype=bool)
        for k in range(1, n + 1):
            sk = verify.elem_sym(lam, k)
            sk_mag = verify.elem_sym(mag, k)
            for i in range(n):
                lhs = lam[:, i] * verify.elem_sym_deleted(lam, k - 1, (i,)) + (
                    verify.elem_sym_deleted(lam, k, (i,)) if k <= n - 1 else 0.0
                )
                ok &= verify._close(sk, lhs, scale=sk_mag)
            row = verify.sigma_km1_row(lam, k)
            ok &= verify._close(row.sum(axis=-1), (n - k + 1) * verify.elem_sym(lam, k - 1),
                                scale=(n - k + 1) * verify.elem_sym(mag, k - 1))
            ok &= verify._close(np.sum(row * lam, axis=-1), k * sk, scale=k * sk_mag)
            for eps in (-1.0, -0.1, 0.1, 1.0):
                ok &= verify._close(verify.shift_expand(lam, k, eps),
                                    verify.elem_sym(lam + eps, k),
                                    scale=verify.elem_sym(mag + abs(eps), k))
        verify._record_failures(result, ok, lam)
    return result


def classify_boundary_per_point(lam, k: int, tol: float = DEFAULT_TOL) -> dict:
    """``cone.classify_boundary``'s verdict of one vector, as ``to_dict``
    gives it, decided by scalar comparisons on its own sigma row and the
    ambiguity distance taken by Python's ``min`` over a list: the reference
    for the batched classifier."""
    arr = as_spectrum(lam)
    n = arr.shape[-1]
    sig = sigma_all_row_major(arr, n)
    low_ok = bool(np.all(sig[1:k] > tol))
    if low_ok and sig[k] > tol:
        kind = Region.INTERIOR
    elif low_ok and abs(sig[k]) <= tol and sig[k + 1] < -tol:
        kind = Region.BOUNDARY_P2
    elif np.all(sig[1:k] >= -tol) and np.all(np.abs(sig[k:]) <= tol):
        kind = Region.BOUNDARY_P1
    else:
        kind = Region.OUTSIDE
    dists = []
    for j in range(1, k):
        dists += [abs(sig[j] - tol), abs(sig[j] + tol)]
    dists.append(abs(abs(sig[k]) - tol))
    if k + 1 <= n:
        dists += [abs(sig[k + 1] + tol), abs(abs(sig[k + 1]) - tol)]
    for j in range(k + 2, n + 1):
        dists.append(abs(abs(sig[j]) - tol))
    out = {"kind": kind.value, "sigmas": [float(v) for v in sig[: k + 2]],
           "margin": float(np.min(sig[1 : k + 1])), "ambiguous": bool(min(dists) < 0.5 * tol)}
    if kind is Region.BOUNDARY_P2:
        out["ellipticity_row"] = [float(v) for v in sigma_km1_row(arr, k)]
    return out


def p2_ellipticity_sweep_per_point(samples: int, rng: np.random.Generator
                                   ) -> verify.SweepResult:
    """``verify.p2_ellipticity_sweep`` drawing each configuration's points at
    once from ``rng`` and classifying them one by one with
    ``cone.classify_boundary``."""
    result = verify.SweepResult(name="p2-ellipticity", checked=0, failures=0)
    per = max(1, samples // len(verify.P2_CONFIGS))
    for k, n in verify.P2_CONFIGS:
        pts = sample_p2_points(k, n, per, rng)
        ok = np.min(sigma_km1_row(pts, k), axis=1) > 0.0
        for i in range(per):
            ok[i] &= classify_boundary(pts[i], k).kind is Region.BOUNDARY_P2
        result.checked += per
        verify._record_failures(result, ok, pts)
    return result


def arguments_at_every_point(w, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, u, p) of the iterate w formed on the full grid in one pass and
    returned on the interior, the points where f is read."""
    grad = second_differences(w)[1]
    slab = (slice(1, -1),) * w.n
    return tuple(a[slab] for a in _physical_args(seed, grid_coords(w.n, w.m), w.values, grad))


def eval_G_at_every_point(w, seed, f) -> dict:
    """G(w) and what its residual keeps, every grid point differenced and
    recursed and f evaluated on the whole interior at once: keys
    ``values``, ``entries`` and ``margins`` as on ``pde.Residual``, and the
    interior ``tensor`` T_{k-1} they come from.  The tensor is formed on
    the full grid and returned on the interior, its stencil entries are
    coeff = T^T's coeff[a, a] and coeff[a, b] (a < b) stacked
    component-major, and the margins are ``margins_at_every_point``'s; the
    box is checked on the whole interior's (u, p)
    (``arguments_at_every_point``)."""
    second, grad = second_differences(w)
    sums, tensor = minor_sums(symmetric_matrix(second, seed.n, seed.eps_prime, seed.tau),
                              seed.k)
    y, u, p = arguments_at_every_point(w, seed)
    _check_box(f, _box_extremes(u, p))
    slab = (slice(1, -1),) * w.n
    g = np.zeros(w.values.shape)
    g[slab] = (sums[-1][slab] - f.value(y, u, p)) / seed.eps_prime
    coeff = np.swapaxes(tensor[slab], -1, -2)
    entries = np.stack([coeff[..., a, b] for a, b in zip(*np.triu_indices(w.n))])
    return {"values": g, "entries": entries, "tensor": tensor[slab],
            "margins": margins_at_every_point(coeff, seed)}


def margins_at_every_point(coeff, seed) -> Margins:
    """The dominance margins of the coefficient matrices ``coeff``
    (interior + (n, n)), each row's sum of |coeff_ij| by ``np.sum``, and
    their reduction as one whole-interior pass: ``np.any`` of the gaps to
    half the seed row below 0, their ``np.argmin`` in C order over
    (point, row) and the least margin by ``np.min``."""
    n = coeff.shape[-1]
    diag = np.diagonal(coeff, axis1=-2, axis2=-1)
    margins = (diag - (np.sum(np.abs(coeff), axis=-1) - np.abs(diag))).reshape(-1, n)
    gap = margins - 0.5 * sigma_km1_row(seed.tau, seed.k)
    q, row = np.unravel_index(int(np.argmin(gap)), gap.shape)
    point = tuple(int(v) + 1 for v in np.unravel_index(q, coeff.shape[:-2]))
    return Margins(below=bool(np.any(gap < 0.0)), gap=float(gap[q, row]),
                   margin=float(margins[q, row]), point=point, row=int(row),
                   least=float(margins.min()))


def c2alpha_from_the_stack(grid, alpha: float) -> float:
    """The C^{2,alpha} surrogate read from the whole ``second_differences``
    stack: the sup of |w|, |Dw| and |D^2 w| and ``holder_quotient`` of the
    stack."""
    second, grad = second_differences(grid)
    sup = max(sup_norm(grid.values), sup_norm(grad), sup_norm(second))
    return sup + holder_quotient(second, grid.h, alpha)


def rhs_derivatives_at_every_point(w, seed, f) -> tuple[np.ndarray, np.ndarray]:
    """-eps^2 f_p and -eps^4 f_u on the whole interior at once, from
    ``arguments_at_every_point``: the coefficients the library's assembly
    forms one slab at a time."""
    y, u, p = arguments_at_every_point(w, seed)
    return -seed.eps**2 * f.dp(y, u, p), -seed.eps**4 * f.du(y, u, p)


def halving_tune(seed, f, m: int, tol_newton: float = 1e-9, tol_lin: float = 1e-10):
    """Tuning by plain halving of eps from the seed's eps on grid m alone,
    each candidate by the loop's iteration 0: the reference for
    ``iterate.tune_epsilon``, which halves on the coarsest grid first.
    Returns what ``tune_epsilon`` returns, every refusal record with
    ``"m": m``, and raises TuningError when no eps down to EPS_MIN passes."""
    refused = []
    eps = seed.eps
    while eps >= EPS_MIN:
        candidate = seed.with_eps(eps)
        try:
            record, rho, reason = _iteration_zero(candidate, f, m, tol_newton, tol_lin)
        except DomainError as err:
            refused.append({"eps": eps, "m": m, "reason": str(err), "iterations": []})
        else:
            if reason is None and (rho is None or record.rho_c2alpha <= 0.25):
                return candidate, refused, [record, rho]
            refused.append({"eps": eps, "m": m,
                            "reason": reason or f"c2alpha(rho) {record.rho_c2alpha:.3g} > 0.25",
                            "iterations": [record.to_dict()]})
        eps *= 0.5
    raise TuningError(f"no admissible eps above {EPS_MIN}", diagnostics=refused)


def total_hessian_by_matrices(hess, seed) -> np.ndarray:
    """diag(tau) + eps' hess per point, from (..., n, n) Hessian matrices:
    eps' times every matrix, then tau added on a writeable view of the
    diagonal.  The bit-exact reference for ``pde.total_hessian``, which
    scales and shifts the upper-triangle components instead."""
    r = seed.eps_prime * np.asarray(hess, dtype=float)
    diag = np.einsum("...ii->...i", r)
    diag += seed.tau
    return r


def manufactured_hessian_matrices(n: int, m: int, beta: float) -> np.ndarray:
    """The analytic Hessian of ``rhs.manufactured_field``'s target as a full
    symmetric (n, n) matrix at every grid point, each entry written
    separately."""
    x = grid_coords(n, m)
    c = np.cos(np.pi * x / 2)
    s = np.sin(np.pi * x / 2)
    w = beta * np.prod(c, axis=-1)
    hess = np.zeros(w.shape + (n, n))
    for i in range(n):
        hess[..., i, i] = -((np.pi / 2) ** 2) * w
        for j in range(i + 1, n):
            rest = np.prod(np.delete(c, [i, j], axis=-1), axis=-1)
            hess[..., i, j] = hess[..., j, i] = (
                beta * (np.pi / 2) ** 2 * s[..., i] * s[..., j] * rest)
    return hess


def convexity_minima_at_every_point(hessian, k: int, interior_mask) -> dict:
    """Smallest j-th minor sum over the interior points, j = 1..k+1, each
    point's matrix recursed."""
    sums, _ = minor_sums(np.array(hessian)[interior_mask], k + 1)
    return {j: float(np.min(vals)) for j, vals in enumerate(sums, start=1)}


def brute_sigma(lam, k: int) -> float:
    """sigma_k by explicit enumeration of all k-subsets."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[0]
    assert n <= 12, "enumeration oracle capped at n = 12"
    if k == 0:
        return 1.0
    total = 0.0
    for idx in combinations(range(n), k):
        prod = 1.0
        for i in idx:
            prod *= lam[i]
        total += prod
    return total


def brute_sigma_zeroed(lam, k: int, deleted) -> float:
    """sigma_k with the listed entries set to zero, then enumerated."""
    lam = np.asarray(lam, dtype=float).copy()
    lam[list(deleted)] = 0.0
    return brute_sigma(lam, k)


def brute_sk_matrix(r, k: int) -> float:
    """Sum of k-by-k principal minors via numpy determinants."""
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    total = 0.0
    for idx in combinations(range(n), k):
        sub = r[np.ix_(idx, idx)]
        total += float(np.linalg.det(sub))
    return total


def fd_sk_gradient(r, k: int, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the minor sum, entry by entry."""
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            rp = r.copy()
            rm = r.copy()
            rp[i, j] += step
            rm[i, j] -= step
            out[i, j] = (brute_sk_matrix(rp, k) - brute_sk_matrix(rm, k)) / (2 * step)
    return out


def brute_holder_quotient(values, h: float, alpha: float, radius: int = 8,
                          mask=None) -> float:
    """max |f(x)-f(z)| / |x-z|^alpha over every ordered pair of grid points
    whose index difference lies along an axis or a full diagonal (all nonzero
    |d_i| equal, with 1 or n of them nonzero) and has 0 < |x-z| <= radius*h,
    optionally only pairs with both ends in mask.

    Enumerates pairs point by point and tests each difference, instead of
    sweeping an offset list; distances are formed in Python floats the way
    the library forms them.
    """
    values = np.asarray(values, dtype=float)
    assert values.size <= 1000, "pair-enumeration oracle capped at 1000 points"
    idx = np.array(list(np.ndindex(*values.shape)))
    n = values.ndim
    flat = values.ravel()
    keep_pt = np.ones(flat.size, bool) if mask is None else np.asarray(mask).ravel()
    denom = np.array([(h * math.sqrt(d2)) ** alpha for d2 in range(radius * radius + 1)])
    best = 0.0
    for a in np.nonzero(keep_pt)[0]:
        d = np.abs(idx - idx[a])
        nonzero = (d > 0).sum(axis=1)
        along = (nonzero == 1) | ((nonzero == n) & (d.min(axis=1) == d.max(axis=1)))
        sq = (d**2).sum(axis=1)
        pair = keep_pt & along & (sq > 0) & (sq <= radius * radius)
        if pair.any():
            q = np.abs(flat[pair] - flat[a]) / denom[sq[pair]]
            best = max(best, float(q.max()))
    return best


def every_offset_holder_quotient(values, h: float, alpha: float,
                                 radius: int = 8) -> float:
    """The quotient ``brute_holder_quotient`` enumerates, swept one index
    offset s u at a time, u = +-e_a or a sign vector (+-1, ..., +-1) and
    0 < |s u| <= radius, both signs and none skipped: the exact reference on
    grids beyond that oracle's 1000 points.  Distances are formed as it forms
    them.
    """
    values = np.asarray(values, dtype=float)
    n = values.ndim
    units = [sign * np.eye(n, dtype=int)[a] for a in range(n) for sign in (1, -1)]
    units += [np.array(signs) for signs in product((1, -1), repeat=n)]
    best = 0.0
    for u in units:
        for s in range(1, radius + 1):
            d = s * u
            sq = int((d**2).sum())
            if sq > radius * radius or np.any(np.abs(d) >= values.shape):
                break
            hi = values[tuple(slice(max(0, o), k + min(0, o))
                              for o, k in zip(d, values.shape))]
            lo = values[tuple(slice(max(0, -o), k - max(0, o))
                              for o, k in zip(d, values.shape))]
            q = float(np.max(np.abs(hi - lo))) / (h * math.sqrt(sq)) ** alpha
            best = max(best, q)
    return best


def dense_operator(apply, size: int) -> np.ndarray:
    """The matrix of a linear function of a flat vector, one column per unit
    vector."""
    return np.column_stack([apply(unit) for unit in np.eye(size)])


def stencil_matrix(coeff, a_first, a_zero, h: float) -> np.ndarray:
    """Dense linearized operator, placed one stencil entry at a time.

    ``coeff`` (grid + (n, n)), ``a_first`` (grid + (n,)) and ``a_zero`` (grid)
    are coefficient fields on the full grid.  Unknowns are the interior points
    in index order; neighbours on the boundary are dropped (zero Dirichlet
    data).  Entries are formed with the library's arithmetic, so the match is
    exact.
    """
    shape = np.shape(a_zero)
    n, m = len(shape), shape[0]
    inner = [pt for pt in np.ndindex(*shape) if all(0 < v < m - 1 for v in pt)]
    unknown = {pt: q for q, pt in enumerate(inner)}
    out = np.zeros((len(inner), len(inner)))
    for q, pt in enumerate(inner):
        c = coeff[pt]
        entries = {}
        trace = 0.0
        for a in range(n):
            trace += c[a, a]
        entries[(0,) * n] = -2.0 / h**2 * trace + a_zero[pt]
        for a in range(n):
            for sign in (1, -1):
                off = [0] * n
                off[a] = sign
                entries[tuple(off)] = c[a, a] / h**2 + sign * (a_first[pt][a] / (2.0 * h))
        for a in range(n):
            for b in range(a + 1, n):
                for sa in (1, -1):
                    for sb in (1, -1):
                        off = [0] * n
                        off[a], off[b] = sa, sb
                        entries[tuple(off)] = sa * sb * (c[a, b] / (2.0 * h**2))
        for off, value in entries.items():
            col = unknown.get(tuple(v + o for v, o in zip(pt, off)))
            if col is not None:
                out[q, col] = value
    return out


def write_grid_csv_per_cell(path, values, axes) -> None:
    """Grid CSV written one cell at a time: header x1..xn,value, rows in
    lexicographic index order, every float as repr(float(.))."""
    n = values.ndim
    lines = [",".join(f"x{i + 1}" for i in range(n)) + ",value"]
    for idx in np.ndindex(*values.shape):
        cells = [repr(float(axes[d][idx[d]])) for d in range(n)]
        cells.append(repr(float(values[idx])))
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def garding_inequality_check(lam, mu, k: int, tol: float = 1e-10):
    """Check (grad sigma_k(lam), mu) >= k * sigma_k(lam)^((k-1)/k) * sigma_k(mu)^(1/k).

    Both arguments must lie in the open level-k cone.  Equality holds (up to
    roundoff) when mu == lam, by homogeneity.
    """
    lam = as_spectrum(lam)
    mu = as_spectrum(mu)
    if lam.shape != mu.shape:
        raise DomainError("lam and mu must have matching shapes")
    if not np.all(in_gamma_k(lam, k)) or not np.all(in_gamma_k(mu, k)):
        raise DomainError("both arguments must lie in the open cone")
    ok = np.asarray(garding_slack(lam, mu, k)) >= -tol
    return bool(ok) if ok.ndim == 0 else ok


@dataclass
class OrderFacts:
    """Facts about a descending-ordered vector in (the closure of) the cone."""

    p: int
    row_sorted: bool
    row: list[float] = field(default_factory=list)


def descending_order_facts(lam, k: int) -> OrderFacts:
    """Positivity count and row monotonicity for a descending-ordered vector.

    For vectors in the open cone the count of strictly positive entries is at
    least k and the deleted-variable row is nondecreasing; both facts are
    returned for the caller to assert.
    """
    arr = as_spectrum(lam)
    if arr.ndim != 1:
        raise DomainError("descending_order_facts takes a single vector")
    if np.any(np.diff(arr) > 0.0):
        raise DomainError("input must be sorted in descending order")
    row = sigma_km1_row(arr, k)
    scale = max(1.0, float(np.max(np.abs(row))))
    row_sorted = bool(np.all(np.diff(row) >= -1e-12 * scale))
    p = int(np.sum(arr > 0.0))
    return OrderFacts(p=p, row_sorted=row_sorted, row=[float(v) for v in row])


@lru_cache(maxsize=16)
def boundary_mask(n: int, m: int) -> np.ndarray:
    """True on the boundary faces of the (m,)*n grid; read-only."""
    mask = np.zeros((m,) * n, dtype=bool)
    for axis in range(n):
        sl = [slice(None)] * n
        sl[axis] = 0
        mask[tuple(sl)] = True
        sl[axis] = m - 1
        mask[tuple(sl)] = True
    mask.setflags(write=False)
    return mask


def read_grid_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back a grid CSV; returns (coords rows, values)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        n = len(header) - 1
        rows = [line.strip().split(",") for line in fh if line.strip()]
    coords = np.array([[float(v) for v in r[:n]] for r in rows])
    values = np.array([float(r[n]) for r in rows])
    return coords, values

"""Elementary symmetric polynomials and their deleted-variable partials.

All functions accept a single eigenvalue vector of shape ``(n,)`` or a batch
of shape ``(..., n)`` and broadcast over the leading axes.  Values are
computed with the stable coefficient recurrence for ``prod_i (1 + lam_i t)``,
which costs O(n*k) per vector and avoids the cancellation of Newton-identity
schemes on mixed-sign input.

The recurrence runs coefficient-major: each sigma_j of the whole batch is one
contiguous row, so every update and every ``sig[..., j]`` a caller takes walks
memory with unit stride.  The ``(..., k+1)`` arrays returned are views of
those rows.  Deleted entries are skipped by the recurrence rather than copied
out of the batch.  The products and sums are those of the row-major
recurrence, in the same order, so the floats are the same.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_BLOCK = 16384  # batch entries per sweep of the recurrence (128 KB of products)


def as_spectrum(lam) -> np.ndarray:
    """Validate and return an eigenvalue array of shape (..., n), n >= 2."""
    arr = np.asarray(lam, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] < 2:
        raise DomainError("spectrum needs at least 2 entries, got %r" % (arr.shape,))
    if not np.all(np.isfinite(arr)):
        raise DomainError("spectrum entries must be finite")
    return arr


def binom(n: int, k: int) -> float:
    """Binomial coefficient as a float; exact integer arithmetic internally."""
    if k < 0 or k > n:
        return 0.0
    return float(math.comb(n, k))


def _sigma_all_raw(lam: np.ndarray, k_max: int, deleted=()) -> np.ndarray:
    """All sigma_0..sigma_{k_max} of lam without the ``deleted`` entries (all
    of them may be); no validation.

    ``out[j]`` is the contiguous row of sigma_j over the batch, and the result
    is its ``(..., k_max + 1)`` view.  The batch is swept in blocks of
    ``_BLOCK`` entries, so one block's rows and the one reused product buffer
    stay in cache and no batch-sized temporary is made.  Each product is
    formed in that buffer before it is added, and the kept entries enter in
    index order, so every float equals that of
    ``out[..., j] += lam[..., i] * out[..., j - 1]`` on a row-major array with
    the deleted entries removed.
    """
    out = np.zeros((k_max + 1,) + lam.shape[:-1])
    out[0] = 1.0
    rows = out.reshape(k_max + 1, -1)  # a view, as out is contiguous
    cols = lam.reshape(-1, lam.shape[-1]).T
    kept = [i for i in range(lam.shape[-1]) if i not in deleted]
    term = np.empty(min(rows.shape[1], _BLOCK))
    for lo in range(0, rows.shape[1], _BLOCK):
        block = list(rows[:, lo:lo + _BLOCK])  # views, updated in place
        prod = term[:len(block[0])]
        for count, i in enumerate(kept):
            col = cols[i, lo:lo + _BLOCK]
            for j in range(min(count + 1, k_max), 0, -1):
                np.multiply(col, block[j - 1], out=prod)
                block[j] += prod
    return out.transpose((*range(1, out.ndim), 0))


def sigma_all(lam, k_max: int) -> np.ndarray:
    """Return [sigma_0(lam), ..., sigma_{k_max}(lam)] along a new last axis."""
    arr = as_spectrum(lam)
    n = arr.shape[-1]
    if not 0 <= k_max <= n:
        raise DomainError(f"need 0 <= k_max <= n, got k_max={k_max}, n={n}")
    return _sigma_all_raw(arr, k_max)


def _maybe_scalar(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def elem_sym(lam, k: int):
    """k-th elementary symmetric polynomial of the entries of lam."""
    arr = as_spectrum(lam)
    n = arr.shape[-1]
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    return _maybe_scalar(_sigma_all_raw(arr, k)[..., k])


def elem_sym_deleted(lam, k: int, deleted):
    """sigma_k of lam with the listed (0-based) entries removed.

    Equals sigma_k of lam with those entries set to zero.
    """
    arr = as_spectrum(lam)
    n = arr.shape[-1]
    idx = tuple(deleted)
    if len(set(idx)) != len(idx):
        raise DomainError(f"deleted indices must be distinct, got {idx}")
    if any(i < 0 or i >= n for i in idx):
        raise DomainError(f"deleted indices must lie in 0..{n - 1}, got {idx}")
    if not 0 <= k <= n - len(idx):
        raise DomainError(f"need 0 <= k <= n - |deleted|, got k={k}")
    return _maybe_scalar(_sigma_all_raw(arr, k, deleted=idx)[..., k])


def shift_coefficient(j: int, k: int, n: int) -> float:
    """Coefficient of eps^j in sigma_k(lam + eps*e): C(n,k)*C(k,j)/C(n,k-j)."""
    return binom(n, k) * binom(k, j) / binom(n, k - j)


def shift_expand(lam, k: int, eps: float):
    """sigma_k of lam with eps added to every entry, via the shift expansion."""
    arr = as_spectrum(lam)
    n = arr.shape[-1]
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    sig = _sigma_all_raw(arr, k)
    out = np.zeros(arr.shape[:-1])
    for j in range(k + 1):
        out += shift_coefficient(j, k, n) * eps**j * sig[..., k - j]
    return _maybe_scalar(np.asarray(out))


def maclaurin_mean(lam, l: int):
    """Normalized mean [sigma_l(lam)/C(n,l)]**(1/l).

    Requires sigma_l(lam) >= 0; callers check cone membership first when the
    value feeds a monotonicity comparison.
    """
    arr = as_spectrum(lam)
    n = arr.shape[-1]
    if not 1 <= l <= n:
        raise DomainError(f"need 1 <= l <= n, got l={l}, n={n}")
    sig = _sigma_all_raw(arr, l)[..., l]
    if np.any(sig < 0.0):
        raise DomainError(f"sigma_{l} is negative; input outside the required cone")
    return _maybe_scalar((np.asarray(sig) / binom(n, l)) ** (1.0 / l))


def sigma_km1_row(lam, k: int) -> np.ndarray:
    """Vector of sigma_{k-1} with entry i deleted, for i = 0..n-1.

    These are the diagonal coefficients of the operator obtained by
    linearizing the k-Hessian at a quadratic with Hessian diag(lam); the row
    sums to (n-k+1)*sigma_{k-1}(lam).
    """
    arr = as_spectrum(lam)
    n = arr.shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    cols = [_sigma_all_raw(arr, k - 1, deleted=(i,))[..., k - 1] for i in range(n)]
    return np.stack(cols, axis=-1)

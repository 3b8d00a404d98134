"""Membership tests for the ellipticity cones of sigma_k and boundary splitting.

The open cone for level k is {lam : sigma_j(lam) > 0, j = 1..k}.  Its boundary
splits into two regimes: points where sigma_k = 0 but sigma_{k+1} < 0 (the
linearized operator stays uniformly elliptic there) and points where every
sigma_j with j >= k vanishes (the degenerate regime).  Three equivalent
membership definitions are implemented so they can be swept against each
other.

The batched tests compare the contiguous sigma_j rows that the recurrence
stores, one level at a time.  So does the boundary classifier
(``classify_boundaries``), from one sigma pass over a batch of vectors;
``classify_boundary`` is its one-row case.  The sampled hyperbolicity check of
``in_garding_cone_sampled`` is built only on the rows whose coefficient
verdict is positive, the only rows it can contradict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import CapacityError, DomainError
from .symfun import (
    _sigma_all_raw,
    as_spectrum,
    elem_sym,
    shift_coefficient,
    sigma_km1_row,
)

DEFAULT_TOL = 1e-9

_TILDE_GUARD = 1_000_000

_S_SAMPLES = 17  # shifts s sampled by the hyperbolicity consistency check


class Region(str, Enum):
    INTERIOR = "Interior"
    BOUNDARY_P1 = "BoundaryP1"
    BOUNDARY_P2 = "BoundaryP2"
    OUTSIDE = "Outside"


REGIONS = tuple(Region)  # the kind codes of ``ConeVerdicts``


@dataclass
class ConeVerdict:
    """Classification of an eigenvalue vector relative to the level-k cone.

    ``sigmas`` holds sigma_0..sigma_{k+1}; ``margin`` is the signed minimum of
    the k defining inequalities sigma_j > 0; ``ellipticity_row`` carries the
    deleted-variable row when the point sits on the uniformly elliptic
    boundary piece.
    """

    kind: Region
    sigmas: list[float]
    margin: float
    ambiguous: bool = False
    ellipticity_row: list[float] | None = None

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind.value,
            "sigmas": self.sigmas,
            "margin": self.margin,
            "ambiguous": self.ambiguous,
        }
        if self.ellipticity_row is not None:
            out["ellipticity_row"] = self.ellipticity_row
        return out


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and nonnegative, got {tol!r}")


def in_gamma_k(lam, k: int, tol: float = 0.0):
    """True iff sigma_j(lam) > tol for all j = 1..k.  Broadcasts over batches."""
    arr = as_spectrum(lam)
    n = arr.shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    _check_tol(tol)
    sig = _sigma_all_raw(arr, k)
    ok = sig[..., 1] > tol
    for j in range(2, k + 1):
        ok &= sig[..., j] > tol
    return bool(ok) if ok.ndim == 0 else ok


def in_garding_cone_sampled(lam, k: int):
    """Hyperbolicity-cone membership: sigma_k(s*e + lam) > 0 for all s >= 0.

    The exact decision uses the coefficient expansion in s: every coefficient
    C(j,k,n)*sigma_{k-j}(lam) must be nonnegative with sigma_k(lam) > 0.  A
    geometric s-sample is evaluated as a consistency check of the positive
    verdicts, on those rows only; the sample's range is set by the batch
    given (in the verify sweeps, one block of rows), and the verdict does
    not depend on it.
    """
    arr = as_spectrum(lam)
    n = arr.shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    sig = _sigma_all_raw(arr, k)
    coeff_ok = sig[..., k] > 0.0
    for j in range(1, k):  # sigma_0 is 1
        coeff_ok &= sig[..., j] >= 0.0

    # Consistency: a positive coefficient verdict forces positivity at every
    # sampled s (the converse direction cannot be sampled).
    s_max = 1.0 + n * max(1.0, float(max(arr.max(), -arr.min())))
    samples = np.concatenate(
        [[0.0], np.geomspace(1e-6 * s_max, s_max, _S_SAMPLES - 1)]
    )
    pos = np.ravel(coeff_ok)
    poly = np.zeros((np.count_nonzero(pos), samples.size))
    term = np.empty_like(poly)  # one product buffer, reused by every term
    for j in range(k + 1):
        np.multiply.outer(np.compress(pos, sig[..., k - j]), samples**j, out=term)
        term *= shift_coefficient(j, k, n)
        poly += term
    del term  # freed before the comparison allocates its (P, 17) mask
    if not np.all(poly > 0.0):
        raise AssertionError(
            "coefficient test and sampled hyperbolicity check disagree; "
            "this indicates a bug"
        )
    return bool(coeff_ok) if coeff_ok.ndim == 0 else coeff_ok


def in_gamma_tilde(lam, k: int):
    """Deleted-variable membership: sigma_{k-l} positive after deleting any l
    entries, for l = 0..k."""
    arr = as_spectrum(lam)
    n = arr.shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    cost = sum(math.comb(n, l) for l in range(k + 1))
    if cost > _TILDE_GUARD:
        raise CapacityError(f"deleted-variable sweep needs {cost} subsets")
    ok = np.ones(arr.shape[:-1], dtype=bool)
    for l in range(k):  # l == k gives sigma_0 == 1, trivially positive
        for idx in combinations(range(n), l):
            vals = _sigma_all_raw(arr, k - l, deleted=idx)[..., k - l]
            ok &= vals > 0.0
    return bool(ok) if ok.ndim == 0 else ok


@dataclass
class ConeVerdicts:
    """``classify_boundary`` of every row of a (rows, n) batch: ``kinds``
    (each row's index into ``REGIONS``), ``sigmas`` (sigma_0..sigma_{k+1}
    per row), ``margins``, ``ambiguous`` and ``rows``, the deleted-variable
    row of each BoundaryP2 row (NaN in the others)."""

    kinds: np.ndarray
    sigmas: np.ndarray
    margins: np.ndarray
    ambiguous: np.ndarray
    rows: np.ndarray

    def of_kind(self, region: Region) -> np.ndarray:
        """Which rows are classified as ``region``."""
        return self.kinds == REGIONS.index(region)

    def verdict(self, i: int) -> ConeVerdict:
        """Row i's ``ConeVerdict``."""
        kind = REGIONS[self.kinds[i]]
        return ConeVerdict(
            kind=kind,
            sigmas=[float(v) for v in self.sigmas[i]],
            margin=float(self.margins[i]),
            ambiguous=bool(self.ambiguous[i]),
            ellipticity_row=([float(v) for v in self.rows[i]]
                             if kind is Region.BOUNDARY_P2 else None),
        )


def _threshold_distances(sig: np.ndarray, k: int, n: int, tol: float) -> np.ndarray:
    """Distance of the decision quantities to their classification
    thresholds, per row of ``sig`` (rows, n + 1): the least of them taken
    as Python's ``min`` takes it over the list in this order, a later one
    replacing the running one only when it is smaller, so a NaN kept or
    passed over is the one ``min`` keeps or passes over."""
    dists = []
    for j in range(1, k):
        dists += [np.abs(sig[:, j] - tol), np.abs(sig[:, j] + tol)]
    dists.append(np.abs(np.abs(sig[:, k]) - tol))
    if k + 1 <= n:
        dists += [np.abs(sig[:, k + 1] + tol), np.abs(np.abs(sig[:, k + 1]) - tol)]
    for j in range(k + 2, n + 1):
        dists.append(np.abs(np.abs(sig[:, j]) - tol))
    least = dists[0]
    for d in dists[1:]:
        least = np.where(d < least, d, least)
    return least


def classify_boundaries(lam, k: int, tol: float = DEFAULT_TOL) -> ConeVerdicts:
    """Classify every row of lam, shape (rows, n), as Interior / BoundaryP2 /
    BoundaryP1 / Outside at level k, from one ``_sigma_all_raw`` pass.

    A verdict is flagged ``ambiguous`` when some decision quantity lies
    within half a tolerance of a classification threshold, i.e. when a
    tol-sized perturbation could change the answer.  A BoundaryP2 row whose
    deleted-variable row is not positive raises AssertionError.
    """
    arr = as_spectrum(lam)
    if arr.ndim != 2:
        raise DomainError("classify_boundaries takes a (rows, n) batch")
    n = arr.shape[-1]
    if not 1 <= k <= n - 1:
        raise DomainError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    _check_tol(tol)

    sig = _sigma_all_raw(arr, n)
    low_ok = np.all(sig[:, 1:k] > tol, axis=1)
    interior = low_ok & (sig[:, k] > tol)
    p2 = ~interior & low_ok & (np.abs(sig[:, k]) <= tol) & (sig[:, k + 1] < -tol)
    p1 = (~interior & ~p2 & np.all(sig[:, 1:k] >= -tol, axis=1)
          & np.all(np.abs(sig[:, k:]) <= tol, axis=1))
    kinds = np.full(arr.shape[0], REGIONS.index(Region.OUTSIDE))
    for region, where in ((Region.INTERIOR, interior), (Region.BOUNDARY_P2, p2),
                          (Region.BOUNDARY_P1, p1)):
        kinds[where] = REGIONS.index(region)

    rows = np.full(arr.shape, np.nan)
    rows[p2] = sigma_km1_row(arr[p2], k)
    if not np.all(rows[p2] > 0.0):
        raise AssertionError(
            "uniformly elliptic boundary point with a nonpositive "
            "deleted-variable row; this indicates a bug"
        )
    return ConeVerdicts(
        kinds=kinds,
        sigmas=sig[:, : k + 2],
        margins=np.min(sig[:, 1 : k + 1], axis=1),
        ambiguous=_threshold_distances(sig, k, n, tol) < 0.5 * tol,
        rows=rows,
    )


def classify_boundary(lam, k: int, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Classify one vector lam as Interior / BoundaryP2 / BoundaryP1 / Outside
    at level k: the one-row case of ``classify_boundaries``."""
    arr = as_spectrum(lam)
    if arr.ndim != 1:
        raise DomainError("classify_boundary takes a single vector")
    return classify_boundaries(arr[None], k, tol).verdict(0)


def garding_slack(lam, mu, k: int):
    """Signed slack of the cone inequality (positive means it holds)."""
    lam = as_spectrum(lam)
    mu = as_spectrum(mu)
    lhs = np.sum(sigma_km1_row(lam, k) * mu, axis=-1)
    sk_lam = np.asarray(elem_sym(lam, k))
    sk_mu = np.asarray(elem_sym(mu, k))
    rhs = k * sk_lam ** ((k - 1) / k) * sk_mu ** (1.0 / k)
    out = np.asarray(lhs - rhs)
    return float(out) if out.ndim == 0 else out

"""Randomized property sweeps over the algebra and cone modules.

Each sweep draws reproducible samples from a seeded generator, checks one
family of identities or memberships on batches, and returns a summary with
the first few counterexamples (if any).  The CLI ``verify`` command and the
acceptance test suite both run these.

Every sweep draws and checks at most ``_BLOCK`` rows (or samples) at a
time; the P2 sweep classifies each block in one batched call.  Consecutive
draws continue one stream, so the samples, the counts and the order of the
counterexamples are those of drawing and checking each batch whole.  The
sweeps that need points inside the cone draw them by rejection through
``_cone_blocks``, which yields them a block at a time and stops drawing once
it has its samples: it then moves the generator past the rest of the chunk,
so its state is that of drawing every row.  Memory does not grow with the
sample count, except in the Garding sweep, which holds each configuration's
first sample (lam) whole: the second (mu) is drawn from where lam's
rejection sampling ends, so streaming lam too would need a second sampling
pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .cone import (
    Region,
    classify_boundaries,
    garding_slack,
    in_gamma_k,
    in_gamma_tilde,
    in_garding_cone_sampled,
)
from .seeds import sample_p2_points
from .symfun import binom, elem_sym, elem_sym_deleted, shift_expand, sigma_all, sigma_km1_row

EQUIV_CONFIGS = ((3, 2), (4, 2), (4, 3), (5, 3))
GARDING_CONFIGS = ((4, 2), (5, 3))
P2_CONFIGS = ((2, 3), (2, 4), (3, 4), (3, 5))

REL_TOL = 1e-12
ABS_FLOOR = 1e-14
EQUIV_TOL = 1e-9  # samples this close to a defining hypersurface are excluded
GARDING_TOL = 1e-10  # slack allowed in the Garding inequality and its equality case
N_MAX = 8  # largest dimension the identities sweep draws
COUNTEREXAMPLES = 5  # counterexamples a sweep keeps
_BLOCK = 16384  # rows (identities: samples) a sweep draws and checks at a time


@dataclass
class SweepResult:
    name: str
    checked: int
    failures: int
    excluded: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "failures": self.failures,
            "excluded": self.excluded,
            "passed": self.passed,
            "counterexamples": self.counterexamples,
        }


def _close(a, b, scale=0.0) -> np.ndarray:
    """Relative closeness against the intrinsic evaluation magnitude.

    ``scale`` is the size of the summed terms (sigma of the absolute
    entries), which keeps the 1e-12 relative bound meaningful for identities
    whose two sides cancel catastrophically.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    bound = np.maximum(np.maximum(np.abs(a), np.abs(b)), scale)
    return np.abs(a - b) <= np.maximum(REL_TOL * bound, ABS_FLOOR)


def _record_failures(result: SweepResult, ok: np.ndarray, samples: np.ndarray) -> None:
    bad = np.flatnonzero(~ok)
    result.failures += bad.size
    for i in bad[:COUNTEREXAMPLES - len(result.counterexamples)]:
        result.counterexamples.append([float(v) for v in np.atleast_2d(samples)[i]])


def _blocks(rows: int) -> list[slice]:
    """Consecutive slices of at most ``_BLOCK`` rows covering ``rows``."""
    return [slice(lo, min(lo + _BLOCK, rows)) for lo in range(0, rows, _BLOCK)]


def cone_equivalence_sweep(samples: int = 10000, seed: int = 7) -> SweepResult:
    """The three membership definitions agree away from their hypersurfaces."""
    rng = np.random.default_rng(seed)
    result = SweepResult(name="cone-equivalence", checked=0, failures=0)
    for n, k in EQUIV_CONFIGS:
        for rows in _blocks(samples):
            lam = rng.uniform(-3.0, 3.0, size=(rows.stop - rows.start, n))
            sig = sigma_all(lam, k)
            near = np.abs(sig[:, 1]) <= EQUIV_TOL
            for j in range(2, k + 1):
                near |= np.abs(sig[:, j]) <= EQUIV_TOL
            # Deleted-variable quantities sit on their own hypersurfaces.
            for l in range(1, k):
                for idx in combinations(range(n), l):
                    vals = elem_sym_deleted(lam, k - l, idx)
                    near |= np.abs(vals) <= EQUIV_TOL
            keep = ~near
            result.excluded += int(near.sum())
            lam_kept = lam[keep]
            if lam_kept.shape[0] == 0:
                continue
            a = in_gamma_k(lam_kept, k)
            b = in_garding_cone_sampled(lam_kept, k)
            c = in_gamma_tilde(lam_kept, k)
            ok = (a == b) & (b == c)
            result.checked += lam_kept.shape[0]
            _record_failures(result, ok, lam_kept)
    return result


def _cone_blocks(n: int, k: int, count: int, rng: np.random.Generator,
                 out: np.ndarray | None = None):
    """Yield the first ``count`` rows of uniform(-3, 3) draws that lie in the
    level-k cone, drawn in chunks of ``4 * count`` rows, as consecutive
    blocks of ``_BLOCK`` rows (the last may hold fewer).

    A block is a view of one buffer that the next block reuses, or of the
    ``(count, n)`` array ``out`` when one is given, which then holds every
    row at the end.  Each chunk is drawn ``_BLOCK`` rows at a time, and
    drawing stops once ``count`` rows are kept.  The generator is then
    advanced past the rest of the chunk: the sweeps' generator is PCG64,
    whose ``uniform`` takes one step per double, so the rows and the final
    state are those of drawing the whole chunk.  The advance comes before
    the last block is yielded, so a consumer that stops pulling after it
    still leaves the generator there.  A row whose sigma_1, the sum of its
    entries from the left as the recurrence forms it, is not positive is
    outside the cone and is dropped before ``in_gamma_k`` is run.
    """
    block = np.empty((min(_BLOCK, count), n)) if out is None else out[:_BLOCK]
    kept = fill = left = lo = 0  # lo: rows yielded; fill: rows in the block
    while kept < count:
        if not left:
            left = 4 * count
        draw = rng.uniform(-3.0, 3.0, size=(min(_BLOCK, left), n))
        left -= draw.shape[0]
        sigma_1 = draw[:, 0] + draw[:, 1]
        for i in range(2, n):
            sigma_1 += draw[:, i]
        draw = np.compress(sigma_1 > 0.0, draw, axis=0)
        draw = np.compress(in_gamma_k(draw, k), draw, axis=0)[:count - kept]
        kept += draw.shape[0]
        if kept == count:
            rng.bit_generator.advance(left * n)
        while draw.shape[0]:
            take = min(block.shape[0] - fill, draw.shape[0])
            block[fill:fill + take] = draw[:take]
            draw, fill = draw[take:], fill + take
            if fill == block.shape[0] or (kept == count and not draw.shape[0]):
                yield block[:fill]
                lo, fill = lo + fill, 0
                if out is not None:
                    block = out[lo:lo + _BLOCK]


def garding_inequality_sweep(samples: int = 10000, seed: int = 11) -> SweepResult:
    """Cone inequality on random interior pairs, plus the equality case.

    Per configuration, lam is sampled whole and mu is checked against it as
    its blocks are drawn; mu's draws start where lam's end, so lam cannot be
    streamed without a second sampling pass.  Every pair failure is recorded
    before any equality failure."""
    rng = np.random.default_rng(seed)
    result = SweepResult(name="garding-inequality", checked=0, failures=0)
    for n, k in GARDING_CONFIGS:
        lam = np.empty((samples, n))
        deque(_cone_blocks(n, k, samples, rng, out=lam), maxlen=0)  # fills lam
        for mu, rows in zip(_cone_blocks(n, k, samples, rng), _blocks(samples)):
            ok = garding_slack(lam[rows], mu, k) >= -GARDING_TOL
            _record_failures(result, ok, lam[rows])
        for rows in _blocks(samples):
            eq = np.abs(garding_slack(lam[rows], lam[rows], k)) <= GARDING_TOL
            _record_failures(result, eq, lam[rows])
        result.checked += 2 * samples
        del lam  # freed before the next configuration is sampled
    return result


def maclaurin_sweep(samples: int = 10000, seed: int = 13) -> SweepResult:
    """Normalized means are nonincreasing in the order, inside the cone."""
    rng = np.random.default_rng(seed)
    result = SweepResult(name="maclaurin", checked=0, failures=0)
    for n, k in EQUIV_CONFIGS:
        for sample in _cone_blocks(n, k, samples, rng):
            sig = sigma_all(sample, k)
            means = np.stack(
                [(sig[:, l] / binom(n, l)) ** (1.0 / l) for l in range(1, k + 1)],
                axis=1,
            )
            scale = np.maximum(1.0, np.abs(means[:, :-1]))
            ok = np.all(np.diff(means, axis=1) <= REL_TOL * scale, axis=1)
            _record_failures(result, ok, sample)
        result.checked += samples
    return result


def _identities_hold(lam: np.ndarray) -> np.ndarray:
    """Per row of ``lam`` (one n), whether every identity holds at 1e-12."""
    n = lam.shape[1]
    mag = np.abs(lam)
    ok = np.ones(lam.shape[0], dtype=bool)
    for k in range(1, n + 1):
        sk = elem_sym(lam, k)
        sk_mag = elem_sym(mag, k)
        # recursion through every deleted index
        for i in range(n):
            lhs = lam[:, i] * elem_sym_deleted(lam, k - 1, (i,)) + (
                elem_sym_deleted(lam, k, (i,)) if k <= n - 1 else 0.0
            )
            ok &= _close(sk, lhs, scale=sk_mag)
        row = sigma_km1_row(lam, k)
        ok &= _close(row.sum(axis=-1), (n - k + 1) * elem_sym(lam, k - 1),
                     scale=(n - k + 1) * elem_sym(mag, k - 1))
        ok &= _close(np.sum(row * lam, axis=-1), k * sk, scale=k * sk_mag)
        for eps in (-1.0, -0.1, 0.1, 1.0):
            ok &= _close(shift_expand(lam, k, eps), elem_sym(lam + eps, k),
                         scale=elem_sym(mag + abs(eps), k))
    return ok


def identities_sweep(samples: int = 1000, seed: int = 17) -> SweepResult:
    """Recursion, row-sum, shift, and homogeneity identities at 1e-12.

    Each sample draws its dimension n in 2..N_MAX and then its entries.  The
    samples are drawn ``_BLOCK`` at a time, and each block is checked in one
    batch per n.  Per n the sweep keeps a failure count and the first
    counterexamples, merged in ascending n at the end: the report is that of
    checking each n's samples in one batch.
    """
    rng = np.random.default_rng(seed)
    per_n = {}  # n -> the failures among the samples of that n
    for rows in _blocks(samples):
        sizes = np.empty(rows.stop - rows.start, dtype=int)
        draws = np.empty((sizes.size, N_MAX))
        for i in range(sizes.size):
            sizes[i] = rng.integers(2, N_MAX + 1)
            draws[i, :sizes[i]] = rng.uniform(-3.0, 3.0, size=sizes[i])
        for n in np.unique(sizes).tolist():
            lam = draws[sizes == n, :n]
            part = per_n.setdefault(n, SweepResult(name="identities", checked=0, failures=0))
            _record_failures(part, _identities_hold(lam), lam)
    result = SweepResult(name="identities", checked=samples, failures=0)
    for n in sorted(per_n):
        result.failures += per_n[n].failures
        result.counterexamples += per_n[n].counterexamples
    del result.counterexamples[COUNTEREXAMPLES:]
    return result


def p2_ellipticity_sweep(samples: int = 1000, seed: int = 23) -> SweepResult:
    """Constructed sign-changing boundary points keep a positive row.

    Each configuration's points are drawn, classified (``classify_boundaries``,
    which raises on a BoundaryP2 point with a nonpositive row) and checked
    ``_BLOCK`` at a time."""
    rng = np.random.default_rng(seed)
    result = SweepResult(name="p2-ellipticity", checked=0, failures=0)
    per = max(1, samples // len(P2_CONFIGS))
    for k, n in P2_CONFIGS:
        for rows in _blocks(per):
            pts = sample_p2_points(k, n, rows.stop - rows.start, rng)
            ok = np.min(sigma_km1_row(pts, k), axis=1) > 0.0
            ok &= classify_boundaries(pts, k).of_kind(Region.BOUNDARY_P2)
            _record_failures(result, ok, pts)
        result.checked += per
    return result


SUITES = {
    "cone-equivalence": cone_equivalence_sweep,
    "garding-inequality": garding_inequality_sweep,
    "maclaurin": maclaurin_sweep,
    "identities": identities_sweep,
    "p2-ellipticity": p2_ellipticity_sweep,
}

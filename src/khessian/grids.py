"""Regular grids on the cube [-1,1]^n: differences, norm surrogates, file output.

Differences are slice stencils, O(m^n) per axis.  First derivatives are
``np.gradient`` with ``edge_order=2``: centered in the interior, one-sided
second order on the boundary faces.  Pure second derivatives use the matching
centered and one-sided second-difference stencils; mixed derivatives are
first differences of first differences, so the discrete Hessian is symmetric
exactly.  ``second_differences`` stacks the n(n+1)/2 distinct components
component-major, (c,) + grid shape: the C^{2,alpha} surrogate reads that
stack, and ``symmetric_matrix`` scatters it into points + (n, n) matrices,
which a solve forms one interior slab along the first axis at a time; no
(n, n) stack or coordinate array of the whole grid is kept.
Hoelder quotients compare points along the axis and
full-diagonal directions only, at most ``_HOLDER_RADIUS`` steps apart, for
every n, one field at a time.  The sweep skips each pass whose telescoping
bound, s times the largest step-1 difference along its direction (or the
field's spread) and padded by 1e-12 s for rounding, cannot raise the running
maximum; the maximum is still exact, the same float as a sweep of every
pass.  The caps on n and on points per axis (``_M_CAP``) are memory caps.
The CSV format (header ``x1,...,xn,value``, rows lexicographic in grid
indices, shortest-roundtrip floats) is frozen for golden tests.  The writer
goes one slab along the first axis at a time and formats each distinct
float64 bit pattern of the slab once: ``repr`` is a function of the bit
pattern alone, so every byte is the same as formatting value by value, and
symmetric grids repeat values heavily (the seed quadratic, a zero boundary).
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

M_MIN = 9  # points per axis of the coarsest grid
_M_CAP = {2: 257, 3: 65, 4: 33, 5: 17}
_HOLDER_RADIUS = 8  # Hoelder quotients compare points at most this many steps apart
_SLAB_BYTES = 1 << 19  # per array of a slab-by-slab pass, at least one row


def _validate_shape(n: int, m: int) -> None:
    if not 2 <= n <= 5:
        raise DomainError(f"need 2 <= n <= 5, got n={n}")
    if m < M_MIN or m % 2 == 0:
        raise DomainError(f"points per axis must be odd and >= {M_MIN}, got m={m}")
    if m > _M_CAP[n]:
        raise DomainError(f"m={m} exceeds the cap {_M_CAP[n]} for n={n}")


@dataclass
class ScalarGrid:
    """Scalar values on the uniform grid over [-1,1]^n with spacing 2/(m-1)."""

    n: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        _validate_shape(self.n, self.m)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.m,) * self.n:
            raise DomainError(
                f"values shape {self.values.shape} != {(self.m,) * self.n}"
            )

    @property
    def h(self) -> float:
        return 2.0 / (self.m - 1)

    @classmethod
    def zeros(cls, n: int, m: int) -> "ScalarGrid":
        return cls(n=n, m=m, values=np.zeros((m,) * n))


def slabs(rows: int, row_bytes: int) -> list[slice]:
    """Consecutive slices covering ``rows`` indices along the first axis, each
    of whole rows and about ``_SLAB_BYTES`` of the pass's widest array, which
    holds ``row_bytes`` per row (one row when a row holds more)."""
    step = max(1, _SLAB_BYTES // row_bytes)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def interior_slabs(n: int, m: int, width: int) -> list[tuple[slice, tuple[slice, ...]]]:
    """The interior points, shape (m-2,)*n, in the ``slabs`` of an array of
    ``width`` doubles per point: per slab, its slice of the interior's first
    axis and its index into the grid."""
    inner = (slice(1, -1),) * (n - 1)
    return [(rows, (slice(rows.start + 1, rows.stop + 1),) + inner)
            for rows in slabs(m - 2, (m - 2) ** (n - 1) * width * 8)]


def axis_coords(m: int) -> np.ndarray:
    return np.linspace(-1.0, 1.0, m)


def grid_coords(n: int, m: int, index: tuple[slice, ...] = ()) -> np.ndarray:
    """Coordinates of the grid points ``values[index]``, ``index`` one slice
    per leading axis (the axes after it whole): shape (points per axis) +
    (n,), every grid point by default.  Nothing is cached: callers that go
    through the grid one slab at a time hold one slab's coordinates, never
    the whole grid's."""
    axis = axis_coords(m)
    index = index + (slice(None),) * (n - len(index))
    return np.stack(np.meshgrid(*(axis[s] for s in index), indexing="ij", copy=False),
                    axis=-1)


def slab_coords(n: int, m: int, index: list[tuple[slice, ...]]) -> Iterator[np.ndarray]:
    """``grid_coords(n, m, at)`` for each ``at`` of ``index``, slabs that
    differ in their first slice only: one buffer as large as the largest
    slab, its last n - 1 columns filled once and its first column per slab.
    Each array yielded is that buffer, overwritten by the next slab."""
    axis = axis_coords(m)
    rest = [axis[s] for s in index[0][1:] + (slice(None),) * (n - len(index[0]))]
    firsts = [axis[at[0]] for at in index]
    x = np.empty((max(map(len, firsts)),) + tuple(map(len, rest)) + (n,))
    for j, part in enumerate(rest, start=1):
        x[..., j] = part.reshape((-1,) + (1,) * (n - 1 - j))
    for first in firsts:
        slab = x[:len(first)]
        slab[..., 0] = first.reshape((-1,) + (1,) * (n - 1))
        yield slab


def _second_difference(values: np.ndarray, h: float, axis: int, out: np.ndarray) -> None:
    """Second difference along one axis into ``out``: centered in the interior,
    one-sided second order (2, -5, 4, -1) / h^2 on the two faces."""
    f = np.moveaxis(values, axis, 0)
    d = np.moveaxis(out, axis, 0)
    d[1:-1] = f[:-2] - 2.0 * f[1:-1] + f[2:]
    d[0] = 2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]
    d[-1] = 2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]
    d /= h * h


def second_differences(grid: ScalarGrid) -> tuple[np.ndarray, np.ndarray]:
    """The n(n+1)/2 distinct second differences, stacked component-major with
    shape (c,) + grid shape in ``np.triu_indices(n)`` order, and the gradient
    (grid + (n,))."""
    n, h, w = grid.n, grid.h, grid.values
    firsts = np.gradient(w, h, edge_order=2)
    second = np.empty((n * (n + 1) // 2,) + w.shape)
    for c, (a, b) in enumerate(zip(*np.triu_indices(n))):
        if a == b:
            _second_difference(w, h, a, second[c])
        else:
            second[c] = np.gradient(firsts[a], h, axis=b, edge_order=2)
    return second, np.stack(firsts, axis=-1)


def symmetric_matrix(second: np.ndarray, n: int, scale: float = 1.0,
                     diagonal: np.ndarray | None = None) -> np.ndarray:
    """Per point, ``scale`` times the symmetric (n, n) matrix whose upper
    triangle a ``second_differences`` stack holds, plus ``diag(diagonal)``
    when given: shape grid + (n, n).

    The matrices are filled component-major, where every write is
    contiguous, and transposed to grid + (n, n) in one copy, so two (n, n)
    stacks of the input's size are alive at once: a solve passes one slab of
    points at a time (``pde.total_hessian``).
    """
    full = np.empty((n, n) + second.shape[1:])
    for c, (a, b) in enumerate(zip(*np.triu_indices(n))):
        np.multiply(second[c], scale, out=full[a, b])
        if a != b:
            full[b, a] = full[a, b]
        elif diagonal is not None:
            full[a, a] += diagonal[a]
    return np.ascontiguousarray(np.moveaxis(full, (0, 1), (-2, -1)))


def sup_norm(values: np.ndarray) -> float:
    """max |values| from its extremes, without an |values| copy; a NaN
    propagates, and + 0.0 reads -0.0 as the 0.0 of ``np.abs``."""
    return max(float(values.max()), -float(values.min())) + 0.0


def hessian_of(grid: ScalarGrid) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Hessian (shape grid + (n,n)) and gradient (grid + (n,)): the
    ``second_differences`` stack scattered by ``symmetric_matrix``."""
    second, grad = second_differences(grid)
    return symmetric_matrix(second, grid.n), grad


@lru_cache(maxsize=8)
def _holder_offsets(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The Hoelder directions, the axes e_a and the full diagonals
    (1, +-1, ..., +-1), each with the most steps along it that stay within
    Euclidean norm _HOLDER_RADIUS.

    Only one of each pair of opposite directions is listed: a pair of points
    gives the same quotient either way round.
    """
    axes = [tuple(int(a == b) for b in range(n)) for a in range(n)]
    diagonals = [(1,) + s for s in itertools.product((1, -1), repeat=n - 1)]
    return tuple((u, math.isqrt(_HOLDER_RADIUS**2 // sum(v * v for v in u)))
                 for u in axes + diagonals)


def holder_quotient(stack: np.ndarray, h: float, alpha: float) -> float:
    """max |f(x)-f(z)| / |x-z|^alpha over grid pairs x - z = s u, u a direction
    of ``_holder_offsets`` and s = 1, 2, ... with |x-z| <= _HOLDER_RADIUS*h.

    ``stack`` has shape (c,) + grid shape: c fields on the same grid, and the
    result is the largest quotient among them.  A pass over one field and
    one offset s u writes the differences into one reused field-sized buffer.

    Passes that cannot raise the running maximum ``best`` are skipped.  The
    fields are taken in order of decreasing spread max f - min f.  Per field
    and direction u the step-1 pass runs first and gives
    d1 = max |f(x+u) - f(x)|; the longer steps follow, longest first.  By
    telescoping, every step-s difference is at most s d1, and it is at most
    the spread.  Each computed difference carries at most one rounding and
    rounding is monotone, so a computed step-s difference never exceeds
    min(s d1, spread) (1 + 1e-12 s), nor the computed spread.  A step-s pass
    is skipped when that bound over the pass's own denominator is at most
    ``best``, and a whole direction when the spread over its step-1
    denominator (the smallest along u) is.  The result is therefore the same
    float as a sweep of every pass.
    """
    n = stack.ndim - 1
    shape = stack.shape[1:]
    directions = []
    for u, most in _holder_offsets(n):
        passes = []
        for step in range(1, most + 1):
            off = tuple(step * v for v in u)
            if any(abs(o) >= s for o, s in zip(off, shape)):
                break
            src = tuple(slice(max(0, -o), s - max(0, o)) for o, s in zip(off, shape))
            dst = tuple(slice(max(0, o), s + min(0, o)) for o, s in zip(off, shape))
            dist = h * float(np.sqrt(sum(o * o for o in off)))
            passes.append((step, dst, src, dist**alpha))
        if passes:
            directions.append((passes[0], passes[:0:-1]))
    buf = np.empty(math.prod(shape))

    def largest(field, dst, src) -> float:
        hi, lo = field[dst], field[src]
        diff = buf[:hi.size].reshape(hi.shape)
        np.subtract(hi, lo, out=diff)
        return sup_norm(diff)

    spreads = [float(field.max()) - float(field.min()) for field in stack]
    best = 0.0
    for c in sorted(range(len(stack)), key=spreads.__getitem__, reverse=True):
        field, spread = stack[c], spreads[c]
        for (_, dst, src, scale), longer in directions:
            if spread / scale <= best:
                continue
            d1 = largest(field, dst, src)
            best = max(best, d1 / scale)
            for step, dst, src, scale in longer:
                if min(step * d1, spread) * (1.0 + 1e-12 * step) / scale > best:
                    best = max(best, largest(field, dst, src) / scale)
    return best


def calpha_surrogate(values: np.ndarray, h: float, alpha: float) -> float:
    """Sup norm plus Hoelder quotient over the interior points (pairs with both
    ends off the boundary), the discrete stand-in for a C^alpha norm."""
    inner = values[(slice(1, -1),) * values.ndim]
    return sup_norm(inner) + holder_quotient(inner[None], h, alpha)


def c2alpha_surrogate(grid: ScalarGrid, alpha: float,
                      derivs: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Discrete stand-in for a C^{2,alpha} norm.

    Max of |w|, |Dw|, |D^2 w| over the grid plus the largest Hoelder quotient
    among the second-derivative components (``holder_quotient``: pairs along
    axis and full-diagonal directions within 8h).  ``derivs`` is the grid's
    ``second_differences`` when the caller already has them.
    """
    second, grad = second_differences(grid) if derivs is None else derivs
    sup = max(sup_norm(grid.values), sup_norm(grad), sup_norm(second))
    return sup + holder_quotient(second, grid.h, alpha)


def write_grid_csv(path, values: np.ndarray, axes: list[np.ndarray]) -> None:
    """Write grid values with per-axis coordinate arrays; format is frozen.

    The rows go out one slab along the first axis at a time, and each
    distinct float64 bit pattern of a slab is formatted once, as ``repr`` of
    its float.  Keying by bit pattern, not by float equality, keeps -0.0
    apart from 0.0, and ``repr`` depends on nothing but the bits, so the file
    is byte for byte the one that formatting every value gives.  Only one
    slab's strings exist at a time, so the writer holds less than a list of
    every value would.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.ndim
    header = ",".join(f"x{i + 1}" for i in range(n)) + ",value\n"
    columns = [[repr(float(v)) + "," for v in ax] for ax in axes]
    tails = list(map("".join, itertools.product(*columns[1:])))
    row = [""] * (3 * len(tails))  # per row: first coordinate, the others, value
    row[1::3] = tails
    slabs = values.view(np.int64).reshape(len(columns[0]), -1)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header)
        for head, slab in zip(columns[0], slabs):
            patterns, inverse = np.unique(slab, return_inverse=True)
            texts = np.array([repr(v) + "\n" for v in patterns.view(np.float64).tolist()],
                             dtype=object)
            row[0::3] = [head] * len(tails)
            row[2::3] = texts[inverse].tolist()
            fh.write("".join(row))


def write_json(path, doc: dict) -> None:
    """Write doc as ASCII JSON with sorted keys, two-space indent and a
    final newline; the format of every JSON file a solve writes."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")

"""Regular grids on the cube [-1,1]^n: differences, norm surrogates, file output.

Differences are slice stencils, O(m^n) per axis.  First derivatives are
``np.gradient`` with ``edge_order=2``: centered in the interior, one-sided
second order on the boundary faces.  Pure second derivatives use the matching
centered and one-sided second-difference stencils; mixed derivatives are
first differences of first differences, so the discrete Hessian is symmetric
exactly.  ``second_differences`` stacks the n(n+1)/2 distinct components
component-major, (c,) + grid shape, and ``symmetric_matrix`` scatters such
a stack into points + (n, n) matrices.  A solve keeps no such stack:
``interior_differences`` differences one interior slab along the first axis
from the slab and one halo row on each side, with the interior formulas
alone, the floats of the whole-grid stack there, and the C^{2,alpha}
surrogate forms one component at a time on the whole grid.
Hoelder quotients compare points along the axis and
full-diagonal directions only, at most ``_HOLDER_RADIUS`` steps apart, for
every n, one field at a time, from a table of passes built once per grid
shape, spacing and alpha.  The sweep skips each pass whose telescoping
bound, s times the largest step-1 difference along its direction (or the
field's spread) and padded by 1e-12 s for rounding, cannot raise the running
maximum; the maximum is still exact, the same float as a sweep of every
pass.  The caps on n and on points per axis (``_M_CAP``) are memory caps.
The CSV format (header ``x1,...,xn,value``, rows lexicographic in grid
indices, shortest-roundtrip floats, each ``repr`` of its float) is frozen
for golden tests.  The writer goes through blocks of whole rows along the
first axis and formats each distinct float64 bit pattern of a block once:
``repr`` is a function of the bit pattern alone, so every byte is the same
as formatting value by value, and symmetric grids repeat values heavily (the
seed quadratic, a zero boundary).  A file with no more distinct patterns
than one block holds values is one block, formatted in one go; a sample
of the patterns rules most other files out before the whole is sorted.
A row equal to the row before reuses its texts, and in a one-block file
a row equal to its mirror across x1 = 0 reuses the mirror's.  The
patterns are formatted in bulk by the numpy kernel of ``floattext``,
each text ``repr``'s, so the file is the one formatting every value gives.
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
from .floattext import _FORMAT_BYTES, _distinct, _repr_part

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


def grid_coords(n: int, m: int) -> np.ndarray:
    """Coordinates of every grid point, shape (m,)*n + (n,).  Nothing is
    cached; callers that go through the grid one slab at a time use
    ``slab_coords``."""
    axis = axis_coords(m)
    return np.stack(np.meshgrid(*(axis,) * n, indexing="ij", copy=False), axis=-1)


def slab_coords(n: int, m: int, index: list[tuple[slice, ...]]) -> Iterator[np.ndarray]:
    """Coordinates of the grid points ``values[at]`` for each ``at`` of
    ``index``, one slice per leading axis (the axes after it whole), slabs
    that differ in their first slice only: shape (points per axis) + (n,).
    One buffer as large as the largest slab, its last n - 1 columns filled
    once and its first column per slab; each array yielded is that buffer,
    overwritten by the next slab, so no caller holds the whole grid's."""
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
    (f[:-2] - 2 f[1:-1]) + f[2:], and one-sided second order (2, -5, 4, -1)
    on the two faces, each divided by h^2; no temporary of the field's
    size."""
    f = np.moveaxis(values, axis, 0)
    d = np.moveaxis(out, axis, 0)
    mid = d[1:-1]
    np.multiply(2.0, f[1:-1], out=mid)
    np.subtract(f[:-2], mid, out=mid)
    mid += f[2:]
    d[0] = 2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]
    d[-1] = 2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]
    d /= h * h


def _first_difference(values: np.ndarray, h: float, axis: int, out: np.ndarray) -> None:
    """``np.gradient(values, h, axis=axis, edge_order=2)`` into ``out``, by
    its formulas: (f[2:] - f[:-2]) / (2. * h) in the interior and
    a f[0] + b f[1] + c f[2] with (a, b, c) = (-1.5, 2., -0.5) / h on the
    first face, (0.5, -2., 1.5) / h on f[-3], f[-2], f[-1] on the last."""
    f = np.moveaxis(values, axis, 0)
    d = np.moveaxis(out, axis, 0)
    mid = d[1:-1]
    np.subtract(f[2:], f[:-2], out=mid)
    mid /= 2. * h
    d[0] = -1.5 / h * f[0] + 2. / h * f[1] + -0.5 / h * f[2]
    d[-1] = 0.5 / h * f[-3] + -2. / h * f[-2] + 1.5 / h * f[-1]


@lru_cache(maxsize=None)
def upper_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The index pairs (a, b), a <= b, of an (n, n) matrix's upper triangle
    in ``np.triu_indices(n)`` order: the component order of every stack of
    second differences and of the stencil's entries."""
    return tuple(zip(*(index.tolist() for index in np.triu_indices(n))))


def second_differences(grid: ScalarGrid) -> tuple[np.ndarray, np.ndarray]:
    """The n(n+1)/2 distinct second differences, stacked component-major with
    shape (c,) + grid shape in ``np.triu_indices(n)`` order, and the gradient
    (grid + (n,))."""
    n, h, w = grid.n, grid.h, grid.values
    firsts = np.gradient(w, h, edge_order=2)
    second = np.empty((n * (n + 1) // 2,) + w.shape)
    for c, (a, b) in enumerate(upper_pairs(n)):
        if a == b:
            _second_difference(w, h, a, second[c])
        else:
            second[c] = np.gradient(firsts[a], h, axis=b, edge_order=2)
    return second, np.stack(firsts, axis=-1)


def _centred(f: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f[:-2], f[1:-1] and f[2:] along ``axis``."""
    return tuple(f[(slice(None),) * axis + (part,)]
                 for part in (slice(None, -2), slice(1, -1), slice(2, None)))


def interior_differences(values: np.ndarray, h: float, rows: slice
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The second differences, component-major (c,) + slab in
    ``np.triu_indices(n)`` order, and the gradient, slab + (n,), of the
    grid values ``values`` at the interior points of the interior ``rows``
    (an ``interior_slabs`` slice), read from grid rows rows.start ..
    rows.stop + 1: the slab and one halo row on each side.

    Interior points take the interior formulas alone, so each float is
    ``second_differences``' there: a first difference is ``np.gradient``'s
    (f[2:] - f[:-2]) / (2. * h), a mixed one the same formula along b
    applied to the first difference along a (interior along a, whole
    along b), and a pure one ``_second_difference``'s centred stencil.
    """
    n = values.ndim
    block = values[rows.start:rows.stop + 2]
    inner = slice(1, -1)
    # firsts[a]: the slab's rows along the first axis, interior along a,
    # every point along the other axes
    firsts = []
    for a in range(n):
        lo, _, hi = _centred(block if a == 0 else block[inner], a)
        d = np.subtract(hi, lo)
        d /= 2. * h
        firsts.append(d)
    shape = (rows.stop - rows.start,) + (len(values) - 2,) * (n - 1)
    grad = np.empty(shape + (n,))
    for a, d in enumerate(firsts):
        grad[..., a] = d[(slice(None),) + tuple(slice(None) if i == a else inner
                                                 for i in range(1, n))]
    out = np.empty((n * (n + 1) // 2,) + shape)
    for c, (a, b) in enumerate(upper_pairs(n)):
        d = out[c]
        if a == b:
            f = block if a == 0 else block[inner]
            f = f[tuple(slice(None) if i in (0, a) else inner for i in range(n))]
            lo, mid, hi = _centred(f, a)
            np.multiply(2.0, mid, out=d)
            np.subtract(lo, d, out=d)
            d += hi
            d /= h * h
        else:
            f = firsts[a][tuple(slice(None) if i in (0, a, b) else inner for i in range(n))]
            lo, _, hi = _centred(f, b)
            np.subtract(hi, lo, out=d)
            d /= 2. * h
    return out, grad


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
    for c, (a, b) in enumerate(upper_pairs(n)):
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


@lru_cache(maxsize=8)
def _holder_passes(shape: tuple[int, ...], h: float, alpha: float) -> tuple:
    """``holder_quotient``'s passes on a grid of ``shape``, spacing h: per
    direction of ``_holder_offsets`` that fits, its step-1 pass and its
    longer passes, longest first, each pass (step, dst, src, dist^alpha),
    dst and src the slices whose difference is the step's.  Built once per
    (shape, h, alpha): a solve's surrogates ask for a few of them again and
    again."""
    directions = []
    for u, most in _holder_offsets(len(shape)):
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
    return tuple(directions)


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
    float as a sweep of every pass, in any order of the fields.
    """
    spreads = [float(field.max()) - float(field.min()) for field in stack]
    return _sweep(stack.__getitem__, spreads, stack.shape[1:], h, alpha)


def _sweep(field_of, spreads: list[float], shape: tuple[int, ...], h: float,
           alpha: float) -> float:
    """``holder_quotient``'s pruned sweep of the fields ``field_of(c)``,
    of spreads ``spreads``, in order of decreasing spread.  A field is not
    asked for when its spread over the smallest step-1 denominator is at
    most the running maximum, since each of its directions would be
    skipped."""
    directions = _holder_passes(shape, h, alpha)
    smallest = min(scale for (_, _, _, scale), _ in directions)
    buf = np.empty(math.prod(shape))

    def largest(field, dst, src) -> float:
        hi, lo = field[dst], field[src]
        diff = buf[:hi.size].reshape(hi.shape)
        np.subtract(hi, lo, out=diff)
        return sup_norm(diff)

    best = 0.0
    for c in sorted(range(len(spreads)), key=spreads.__getitem__, reverse=True):
        spread = spreads[c]
        if spread / smallest <= best:
            continue
        field = field_of(c)
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


def c2alpha_surrogate(grid: ScalarGrid, alpha: float) -> float:
    """Discrete stand-in for a C^{2,alpha} norm.

    Max of |w|, |Dw|, |D^2 w| over the grid plus the largest Hoelder quotient
    among the second-derivative components (``holder_quotient``: pairs along
    axis and full-diagonal directions within 8h), the floats
    ``second_differences`` gives.  No stack of the components is formed:
    the n first differences are kept, and each component is formed on the
    whole grid into one buffer, once for its extremes (its sup and its
    spread) and again, in order of decreasing spread, for the sweep, which
    does not ask for a component that cannot raise its running maximum
    (``_sweep``).
    """
    n, h, w = grid.n, grid.h, grid.values
    firsts = np.gradient(w, h, edge_order=2)
    pairs = upper_pairs(n)
    buf = np.empty(w.shape)

    def component(c: int) -> np.ndarray:
        a, b = pairs[c]
        if a == b:
            _second_difference(w, h, a, buf)
        else:
            _first_difference(firsts[a], h, b, buf)
        return buf

    # each part's extremes: its sup_norm is theirs, a NaN propagating
    ends = [[float(e) for f in firsts for e in (f.max(), f.min())], []]
    spreads = []
    for c in range(len(pairs)):
        field = component(c)
        ends[1] += [float(field.max()), float(field.min())]
        spreads.append(ends[1][-2] - ends[1][-1])
    sup = max(sup_norm(w), *(sup_norm(np.array(part)) for part in ends))
    return sup + _sweep(component, spreads, w.shape, h, alpha)


def _repr_texts(bits: np.ndarray) -> np.ndarray:
    """``repr`` of the float64 of each int64 bit pattern of ``bits``, as an
    object array of str: ``floattext._repr_part`` in ``slabs`` of at most
    ``_SLAB_BYTES`` of formatting temporaries."""
    texts = np.empty(len(bits), dtype=object)
    for part in slabs(len(bits), _FORMAT_BYTES):
        _repr_part(bits[part], texts[part])
    return texts


def write_grid_csv(path, values: np.ndarray, axes: list[np.ndarray]) -> None:
    """Write grid values with per-axis coordinate arrays; format is frozen.

    The rows go out in blocks of whole rows along the first axis, and each
    distinct float64 bit pattern of a block is formatted once by
    ``_repr_texts``, each text ``repr`` of its float (``floattext``).
    Keying by bit pattern, not by float equality, keeps -0.0 apart from
    0.0, and ``repr`` depends on nothing but the bits, so the file is byte
    for byte the one that formatting every value gives.

    The blocks are the ``slabs`` blocks of about ``_SLAB_BYTES`` of
    formatting temporaries (one row of 4,913 values at n = 4, m = 17).
    When the file has at most as many distinct patterns as a block holds
    values (``_distinct``, which rules most files out from a sample before
    it sorts the whole), the whole file is one block: a zero ``w`` or the
    seed quadratic ``u`` of a solve that stops at iteration 0 is formatted
    in one ``_repr_texts`` call, not one per row, and each row takes its
    texts by ``np.searchsorted`` in the file's patterns.  Otherwise a row takes its
    texts by the inverse of its block's ``np.unique``, which costs less
    than searching a row's worth of patterns.  A row whose patterns equal
    the previous row's reuses that row's texts, and in a one-block file a
    row of the second half equal to its mirror, row m - 1 - i (x1 -> -x1,
    as in the seed quadratic), reuses the mirror's indices into the texts,
    which a one-block file keeps in the smallest unsigned integer type that
    holds them.  A block is formatted only when one of its rows needs it,
    after the previous row's texts are let go, so no more texts than one
    block holds are alive at once.  Each line starts with its newline, so
    the header goes out without one and the file ends with one.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.ndim
    rows = values.view(np.int64).reshape(len(axes[0]), -1)
    blocks = slabs(len(rows), rows.shape[1] * _FORMAT_BYTES)
    whole = _distinct(rows, (blocks[0].stop - blocks[0].start) * rows.shape[1])
    if whole is not None:
        blocks = [slice(0, len(rows))]
    columns = [[repr(float(v)) + "," for v in ax] for ax in axes]
    heads = ["\n" + head for head in columns[0]]
    cells_per_row = rows.shape[1]
    row = [""] * (3 * cells_per_row)  # per line: first coordinate, the others, value
    row[1::3] = map("".join, itertools.product(*columns[1:]))
    last = None  # the bit patterns of the row whose texts the line holds
    kept = {}  # one block: the first half's rows' indices into the texts, for their mirrors
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(n)) + ",value")
        for block in blocks:
            texts = None
            for i, (head, cells) in enumerate(zip(heads[block], rows[block]), block.start):
                if last is None or not np.array_equal(cells, last):
                    if texts is None:
                        row[2::3] = [""] * cells_per_row  # the last block's texts go first
                        patterns, inverse = whole, None
                        if whole is None:
                            patterns, inverse = np.unique(rows[block], return_inverse=True)
                            inverse = inverse.reshape(block.stop - block.start, -1)
                        texts = _repr_texts(patterns)
                        small = np.min_scalar_type(len(patterns))
                    mirror = len(rows) - 1 - i
                    at = kept.pop(mirror, None)
                    if at is None or not np.array_equal(cells, rows[mirror]):
                        at = (np.searchsorted(patterns, cells).astype(small) if inverse is None
                              else inverse[i - block.start])
                    row[2::3] = texts[at].tolist()
                    last = cells
                if inverse is None and i < len(rows) // 2:
                    kept[i] = at
                row[0::3] = [head] * cells_per_row
                fh.write("".join(row))
        fh.write("\n")


def write_json(path, doc: dict) -> None:
    """Write doc as ASCII JSON with sorted keys, two-space indent and a
    final newline; the format of every JSON file a solve writes."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")

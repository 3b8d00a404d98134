"""Shortest round-trip texts of float64 bit patterns, in bulk.

``_repr_part`` gives ``repr``'s text of every pattern it is handed, for
``grids.write_grid_csv``.  The patterns are formatted by a numpy kernel in
the manner of Grisu3 (Loitsch, PLDI 2010): ``_shortest_digits`` finds the
shortest digits that read back as each float, the nearest among equally
short ones, exactly or not at all, and ``_lay_out`` writes them by
``repr``'s rules.  What the fast path declines (an interval end or a tie
within 1e-6 of a digit unit, a misjudged decade) goes through ``repr``, as
do +-0.0, NaN, +-inf, subnormals, |x| outside 2^(+-880) and parts of fewer
than ``_FAST_MIN`` patterns; so each text is ``repr``'s.  ``_distinct``
gives a file's sorted distinct patterns, for the writer's block rule.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_FAST_BINADES = 880  # the fast path takes 2^-880 <= |x| < 2^881
_EXPONENT, _MANTISSA = 0x7FF << 52, (1 << 52) - 1  # the bit fields of a float64
_E10 = 270  # its powers of ten: the decades of those |x|, with a margin
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter of a double into two halves
_PLACES = "ABCDEFGHIJKLMNOPQ"  # stand-ins for the 17 digits in a layout
_CHARS = " .e+-0123456789"  # the characters of a repr besides the digits
_TEXT_WIDTH = 25  # the longest fast-path text, "-1.2345678901234567e-265", and a space
_FORMAT_BYTES = 128  # per value: the formatting kernel's live temporaries
_FAST_MIN = 256  # fewer patterns go through repr alone, faster than the fast path's fixed cost


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split a = hi + lo, each half of at most 26 significant bits,
    so that the product of two halves is exact."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


@lru_cache(maxsize=1)
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10^(16 - e) for e = -_E10.._E10 as hi + lo, hi the correctly rounded
    double and lo the correctly rounded rest, with hi split by ``_split``:
    the arrays (hi's upper half, hi's lower half, lo).  Python's int / int
    division is correctly rounded, and hi's rest is an exact fraction."""
    his, los = [], []
    for e in range(-_E10, _E10 + 1):
        top, bottom = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = top / bottom
        num, den = hi.as_integer_ratio()
        his.append(hi)
        los.append((top * den - num * bottom) / (bottom * den))
    return _split(np.array(his)) + (np.array(los),)


@lru_cache(maxsize=1)
def _four_digits() -> np.ndarray:
    """The ASCII text of 0000 .. 9999, four bytes each, as uint32: pairs of
    the texts of 00 .. 99 (no string per entry is made)."""
    two = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"),
                        dtype=np.uint16)
    four = np.empty((100, 100, 2), dtype=np.uint16)
    four[..., 0], four[..., 1] = two[:, None], two[None, :]
    return four.view(np.uint32).ravel()


def _shortest_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest round-trip digits of the floats of ``bits`` that the fast
    path decides: their positions, the digits as a 17-digit integer
    (trailing zeros after the shortest digits) and the key 32 decpt + digit
    count, the float being 0.<digits> x 10^decpt.

    The path follows Grisu3: exact for every value it keeps, it declines
    each value it cannot decide.  For 2^-880 <= |x| < 2^881 it forms
    y = |x| 10^s, s = 16 - the decade of |x| from ``log10``, so that y has
    17 digits before the point: |x| times the (hi, lo) power of ten, the
    product with hi exact by Dekker's split, so y's error is near 1e-15.  y
    splits into an integer I and a fraction F.  The rounding interval of x,
    x -+ ulp / 2 (the gap below a power of two half as wide), scales to
    y - dl .. y + dh with dh > 0.55, and its ends split the same way into
    Lf, B and fractions: the integers inside are Lf + 1 .. B, at least one
    and at most 23.  ``repr`` gives the shortest digits that read back as
    x, the nearest x among equally short ones (David Gay's shortest mode):
    the multiple of the largest 10^j inside the interval that is nearest y.
    A multiple of 100 inside is the only one and the answer; otherwise j is
    1 or 0, and the answer is the nearer of the two multiples of 10^j around
    y that lie inside.

    Declined: a decade guess that missed (I outside [10^16, 10^17), or the
    answer 10^17, which a ``log10`` rounded below a power of ten could
    give), an end whose fraction is within 1e-6 of an integer (only then
    could an end's membership, which the tie rules of rounding decide,
    matter) and y within 1e-6 of halfway between two candidates inside.
    Every decision kept thus has a margin of 1e-6 against errors near
    1e-15.
    """
    x = np.abs(bits.view(np.float64))
    fast = np.flatnonzero((x >= 2.0**-_FAST_BINADES) & (x < 2.0 ** (_FAST_BINADES + 1)))
    x = x[fast]
    halve = (x.view(np.int64) & _MANTISSA) == 0  # a power of two: the gap below is half
    half_ulp = (x.view(np.int64) & _EXPONENT).view(np.float64) * 2.0**-53  # ulp / 2
    e10 = np.floor(np.log10(x)).astype(np.int64)
    ah, al, plo = (t[e10 + _E10] for t in _powers_of_ten())
    half_ulp *= ah + al  # (ulp / 2) 10^s
    hi = x * (ah + al)
    xh, xl = _split(x)
    lo = xh * ah - hi  # the rounding error of hi, exact, then x plo
    lo += xh * al
    lo += xl * ah
    lo += xl * al
    del xh, ah, al  # each array goes once used: a slab's temporaries stay in budget
    lo += x * plo
    del x, xl, plo
    floor_lo = np.floor(lo)
    whole = hi.astype(np.int64) + floor_lo.astype(np.int64)  # I
    frac = np.subtract(lo, floor_lo, out=lo)  # F
    del hi, floor_lo
    top = frac + half_ulp
    half_ulp[halve] *= 0.5
    bottom = frac - half_ulp
    del half_ulp, halve
    ok = ((whole >= 10**16) & (whole < 10**17) & (np.abs(bottom - np.round(bottom)) > 1e-6)
          & (np.abs(top - np.round(top)) > 1e-6))
    low = whole + np.floor(bottom).astype(np.int64)  # Lf
    high = whole + np.floor(top).astype(np.int64)  # B
    del bottom, top
    inside = high - low
    rest = high % 100
    hundred = rest < inside
    step = np.where(high % 10 < inside, 10, 1)  # 10^j when no multiple of 100 is inside
    below = whole - whole % step
    over = (whole - below) + frac - 0.5 * step  # y - (below + step / 2)
    low_in, high_in = below > low, below + step <= high
    ok &= hundred | ~(low_in & high_in) | (np.abs(over) > 1e-6)
    digits = np.where(hundred, high - rest,
                      below + np.where(low_in & (~high_in | (over < 0)), 0, step))
    del whole, frac, low, inside, rest, below, over, low_in, high_in
    keep = np.flatnonzero(ok & (digits < 10**17))
    digits, e10, step, hundred = digits[keep], e10[keep], step[keep], hundred[keep]
    zeros = np.where(step == 10, 1, 0)  # trailing zeros of the digits
    many = np.flatnonzero(hundred)
    zeros[many] = 2
    rest = digits[many] // 100
    while len(many):  # one zero more where the rest divides by 10
        tens = rest // 10
        more = rest == tens * 10
        many, rest = many[more], tens[more]
        zeros[many] += 1
    return fast[keep], digits, (e10 + 1) * 32 + 17 - zeros


@lru_cache(maxsize=None)
def _layout_columns(nd: int, decpt: int) -> np.ndarray:
    """For each character of the text of a float with nd digits and decimal
    exponent decpt, laid out by ``_layout``, its column in ``_lay_out``'s
    source rows: the sign column, a digit, a ``_CHARS`` character or, after
    the text, a space.  At most 17 (2 _E10 + 2) keys exist."""
    text = _layout(_PLACES[:nd], decpt).ljust(_TEXT_WIDTH - 1)
    source = {c: 3 + i for i, c in enumerate(_PLACES)} | {
        c: 20 + i for i, c in enumerate(_CHARS)}
    return np.array([35] + [source[c] for c in text])


def _layout(digits: str, decpt: int) -> str:
    """``repr``'s text of the positive float 0.<digits> x 10^decpt, digits
    the shortest round-trip digits: fixed notation for -4 < decpt <= 16,
    else one digit, the rest after a point, and a signed exponent of at
    least two digits."""
    if -4 < decpt <= 16:
        if decpt <= 0:
            return "0." + "0" * -decpt + digits
        if decpt >= len(digits):
            return digits + "0" * (decpt - len(digits)) + ".0"
        return digits[:decpt] + "." + digits[decpt:]
    return digits[0] + ("." + digits[1:] if len(digits) > 1 else "") + f"e{decpt - 1:+03d}"


def _lay_out(negative: np.ndarray, digits: np.ndarray,
             key: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The texts of ``_shortest_digits``'s floats, signed by ``negative``,
    in the order of their key: that order, and the texts.

    Each float's source row holds three zeros, its 17 digits, ``_CHARS``
    and its sign, '-' or a space.  Per key, one index array
    (``_layout_columns``) picks each character of the text from the rows.  The
    texts, padded with spaces, are decoded as one string and split at the
    spaces.
    """
    four = _four_digits()
    source = np.empty((len(key), 36), dtype=np.uint8)
    quads = source.view(np.uint32)  # four digits each: zeros and digits in columns 0..19
    for c in range(4, 0, -1):
        rest = digits // 10000
        quads[:, c] = four[digits - rest * 10000]
        digits = rest
    quads[:, 0] = four[digits]
    source[:, 20:35] = np.frombuffer(_CHARS.encode("ascii"), dtype=np.uint8)
    source[:, 35] = np.where(negative, ord("-"), ord(" "))
    order = np.argsort(key)
    key, source = key[order], source[order]
    out = np.empty((len(key), _TEXT_WIDTH), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(key, prepend=key[:1] - 1)).tolist()
    for start, stop in zip(starts, starts[1:] + [len(key)]):
        decpt, nd = divmod(int(key[start]), 32)
        np.take(source[start:stop], _layout_columns(nd, decpt), axis=1,
                out=out[start:stop])
    del source
    text = str(out.data, "ascii")
    del out
    return order, text.split()


def _repr_part(bits: np.ndarray, texts: np.ndarray) -> None:
    """``repr`` of the float64 of each int64 bit pattern of ``bits``, into
    the object array ``texts``: ``_fast_texts`` where the fast path decides,
    ``repr`` itself for the rest and for fewer than ``_FAST_MIN`` patterns."""
    if len(bits) < _FAST_MIN:
        texts[:] = [repr(v) for v in bits.view(np.float64).tolist()]
        return
    fast, strs = _fast_texts(bits)
    texts[fast] = np.fromiter(strs, dtype=object, count=len(strs))
    slow = np.ones(len(bits), dtype=bool)
    slow[fast] = False
    slow = np.flatnonzero(slow)
    texts[slow] = [repr(v) for v in bits[slow].view(np.float64).tolist()]


def _fast_texts(bits: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The positions of the patterns of ``bits`` that the fast path decides,
    and their texts, in the same order."""
    fast, digits, key = _shortest_digits(bits)
    order, strs = _lay_out(bits[fast] < 0, digits, key)
    return fast[order], strs


def _sorted_distinct(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of the sorted 1-d array ``ordered``, in order."""
    fresh = np.empty(ordered.shape, dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return ordered[fresh]


def _distinct(bits: np.ndarray, most: int) -> np.ndarray | None:
    """The distinct patterns of ``bits`` (any shape), sorted, or None when
    there are more than ``most``.  A sample of every s-th pattern, about
    4 ``most`` of them, is sorted first: when it holds more than ``most``
    distinct patterns, so does the whole, which is then not sorted.  The
    sample is spread over the file, so rows of one repeated value (w's
    zero boundary) do not fill it."""
    flat = bits.reshape(-1)
    step = len(flat) // (4 * most)
    if step > 1 and len(_sorted_distinct(np.sort(flat[::step]))) > most:
        return None
    patterns = _sorted_distinct(np.sort(flat))
    return patterns if len(patterns) <= most else None

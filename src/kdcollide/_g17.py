"""The bytes of ``"%.17g" % v`` for every cell of a float64 block, as NumPy array operations.

`block` turns a (rows, columns) float array into CSV text: each cell as
``"%.17g" % v``, cells joined by ``,``, each row ended by a newline.  It
formats all its cells in row order at once, each with its own separator, so
a call costs a fixed number of NumPy calls however the cells fall into rows
and columns.  `blocks` gives the text of a whole table one `block` of whole
rows at a time, at most `_CELLS` cells, which keeps the temporaries in cache.

Digits.  A finite nonzero |x| in [2^(e-1), 2^e) has the decimal exponent
k = floor(log10 |x|), which is floor(log10 2^(e-1)) or one more: one
comparison with the smallest double at or above 10^(k+1) decides.  Then
|x| 10^(16-k) is formed in double-double arithmetic, as Dekker's exact
product of |x| 2^s with hi, plus |x| 2^s lo, where 10^(16-k) = 2^s (hi + lo)
comes from a table.  Its integer part and fraction round it to the 17
significant digits.  A fraction within 1e-9 of 1/2 may be an exact tie, which
dtoa rounds half to even: such a cell, and only such a cell, is
``"%.17g" % v``.  The method relies on IEEE double arithmetic that rounds to
nearest.  Each ufunc call rounds once, so no fused multiply-add can merge
the steps of the two products.

Text.  Each cell has 32 source bytes: its 17 digits (the 16 after the first
four at a time from a table of 10^4 words), its exponent's sign and digits,
its separator and the constant bytes of the format.  One layout table, keyed
by (format case, significant digits, sign), lists the source bytes of a
cell's text and separator, padded with zero bytes.  The format cases are fixed
notation for k = -4..16, an exponent of two or three digits, 0, inf and nan
(a NaN of any sign or payload is ``nan``; -0.0 is ``-0``).  One flat `take`
places the bytes of every cell; dropping the zero bytes gives the text.

The tables are built on the first call, from exact integer arithmetic
(Python's int-to-float conversion and int/int division round correctly).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from functools import cache

import numpy as np

_K = -324  # the least decimal exponent of a double; the greatest is 308
_E = -1073  # the least binary exponent of a double as `np.frexp` gives it; the greatest is 1024
# A cell's 32 source bytes: digits 1-16 as four words of four; the exponent's sign and three digits, the first
# digit, the separator and two zero bytes; then these constant bytes.
_CONSTANTS = b"-.0einfa"
_DIGITS = (20, *range(16))  # the source byte of each of the 17 digits
_SEP, _PAD = 21, 22
_AT = {chr(c): 24 + i for i, c in enumerate(_CONSTANTS)}
_WIDTH = 25  # the longest text and separator: "-1.2345678901234567e-308,"
# Cells per `block` of `blocks`, so that a block's temporaries, mostly the `_WIDTH` byte indices of each cell
# (200 bytes), stay in cache.  On a 2-core Xeon with 2 MiB of L2 a core, fig1's cells took 1.5 times as long
# in blocks of 4 608 cells or more; smaller blocks pay a call's fixed cost more often.
_CELLS = 3072
# Format cases: fixed notation for k = -4..16 is case k + 4, then these.
_EXP2, _EXP3, _ZERO, _INF, _NAN = range(21, 26)


def _power(p: int) -> tuple[float, float, int]:
    """10^p as (hi, lo, binary exponent e): hi in [1/2, 1) is 10^p 2^-e rounded, lo the rounded rest."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    # Scaled by 2^s into [2^63, 2^65), so that hi is an integer and int(hi) exact.
    s = 64 - num.bit_length() + den.bit_length()
    num, den = (num << s, den) if s >= 0 else (num, den << -s)
    hi = num / den
    lo = (num - int(hi) * den) / den
    m, e = math.frexp(hi)
    return m, math.ldexp(lo, -e), e - s


def _ceiling(k: int) -> float:
    """The smallest double at or above 10^k."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    near = num / den
    a, b = near.as_integer_ratio()
    return near if a * den >= b * num else math.nextafter(near, math.inf)


def _layout(case: int, n: int, negative: bool) -> list[int]:
    """The source bytes of a cell's text and separator, padded to `_WIDTH`."""
    sign = [_AT["-"]] if negative else []
    digits = list(_DIGITS[:n])
    if case == _NAN:
        text = [_AT[c] for c in "nan"]
    elif case == _INF:
        text = sign + [_AT[c] for c in "inf"]
    elif case == _ZERO:
        text = sign + [_AT["0"]]
    elif case < 4:  # k < 0: the point, then -k - 1 zeros
        text = sign + [_AT["0"], _AT["."]] + [_AT["0"]] * (3 - case) + digits
    elif case < _EXP2:  # the k + 1 digits before the point, zeros past the n-th
        whole = case - 3
        text = sign + list(_DIGITS[:whole]) + ([_AT["."], *digits[whole:]] if n > whole else [])
    else:
        exponent = [_AT["e"], 16] + ([17] if case == _EXP3 else []) + [18, 19]
        text = sign + digits[:1] + ([_AT["."], *digits[1:]] if n > 1 else []) + exponent
    return text + [_SEP] + [_PAD] * (_WIDTH - 1 - len(text))


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """The rows of each decimal exponent k, at k - _K: 10^(16-k) = scale (hi + lo) with hi's Dekker halves,
    as (scale, hi, hi_high, hi_low, lo); the exponent's text as a word and the format case; the smallest
    double at or above 10^k.  Then floor(log10 2^(e-1)) at e - _E, the layouts, and the text of each
    n < 10^4 as four digits in a word."""
    k = np.arange(_K, 309)
    hi, lo, e = np.array([_power(16 - j) for j in k.tolist()]).T
    # |x| 2^e would leave the doubles for the least k; there hi and lo take the power of two past 2^1000.
    shift = np.maximum(e - 1000, 0).astype(int)
    hi, lo = np.ldexp(hi, shift), np.ldexp(lo, shift)
    split = hi * 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves
    high = split - (split - hi)
    powers = np.array([np.ldexp(1.0, e.astype(int) - shift), hi, high, hi - high, lo])
    words = np.frombuffer("".join(f"{'-+'[j >= 0]}{abs(j):03}" for j in k.tolist()).encode(), dtype="<u4")
    cases = np.where((-4 <= k) & (k <= 16), k + 4, np.where(np.abs(k) < 100, _EXP2, _EXP3))
    ceilings = np.array([_ceiling(j) for j in k.tolist()] + [math.inf])
    # floor((e - 1) log10 2) exactly: for the binary exponents of doubles it lies 4.5e-4 or more from an integer.
    decades = np.floor(np.arange(_E - 1, 1024) * math.log10(2.0)).astype(np.intp)
    layouts = np.empty((26 * 17 * 2, _WIDTH), dtype=np.intp)
    for row, (c, n, negative) in enumerate(itertools.product(range(26), range(1, 18), (False, True))):
        layouts[row] = _layout(c, n, negative)
    pairs = np.array([ord(str(n // 10)) | ord(str(n % 10)) << 8 for n in range(100)], dtype="<u4")
    quads = (pairs[:, None] | pairs << 16).ravel()
    return powers, np.array([words, cases], dtype=np.int64), ceilings, decades, layouts, quads


def blocks(x: np.ndarray) -> Iterator[bytes]:
    """The CSV text of a (rows, columns) float64 array, each cell ``"%.17g" % v``: a `block` at a time of
    the whole rows that fit in `_CELLS` cells, or of one row if it is wider."""
    step = max(1, _CELLS // (x.shape[-1] or 1))
    for start in range(0, len(x), step):
        yield block(x[start : start + step])


def block(x: np.ndarray) -> bytes:
    """The CSV text of a (rows, columns) float64 array, each cell ``"%.17g" % v``: its cells in row order,
    with ``,`` after each and a newline after the last of a row, in one `_cells` call."""
    separator = np.full(x.shape, ord(","), dtype=np.int64)
    separator[:, -1:] = ord("\n")
    text = _cells(x.ravel(), separator.ravel())
    return text[text != 0].tobytes()


def _cells(x: np.ndarray, separator: np.ndarray) -> np.ndarray:
    """Each cell's text and separator byte, padded with zero bytes to `_WIDTH`: one row per cell of ``x``."""
    finite = np.isfinite(x)
    nonzero = finite & (x != 0.0)
    powers, by_k, ceilings, decades, layouts, quads = _tables()
    k, digits, tie = _digits(np.where(nonzero, np.abs(x), 1.0), powers, ceilings, decades)
    exponent, case = by_k.take(k - _K, axis=1)
    source = np.empty((len(x), 4), dtype="<u8")
    # The first digit, and the 16 after it as two 8-digit halves, each split into two 32-bit lanes of four digits.
    halves = np.empty((len(x), 2), dtype=np.int64)
    upper, halves[:, 1] = np.divmod(digits, 10**8)
    first, halves[:, 0] = np.divmod(upper, 10**8)
    high = halves // 10**4
    tail = quads.take((high | (halves - high * 10**4) << 32).view("<u4")).view("<u8")
    source[:, :2] = tail
    source[:, 2] = exponent + (first + 48 + (separator << 8) << 32)
    source[:, 3] = np.frombuffer(_CONSTANTS, dtype="<u8")
    # Per word of eight digits, the place of its last digit other than 0 (0 if none), from a bit per digit.
    last = (((tail + 0x4F4F4F4F4F4F4F4F) & 0x8080808080808080 | 1).astype(float).view(np.int64) >> 52) - 1022 >> 3
    significant = np.where(last[:, 1] > 0, last[:, 1] + 9, last[:, 0] + 1)
    case = np.where(nonzero, case, np.where(np.isnan(x), _NAN, np.where(finite, _ZERO, _INF)))
    index = layouts.take((case * 17 + significant - 1) * 2 + np.signbit(x), axis=0)
    index += np.arange(0, 32 * len(x), 32)[:, None]
    text = source.view(np.uint8).take(index)
    for cell in np.flatnonzero(tie).tolist():
        cell_text = _exact(x[cell], separator[cell])
        text[cell] = 0
        text[cell, : len(cell_text)] = np.frombuffer(cell_text, dtype=np.uint8)
    return text


def _digits(a: np.ndarray, powers, ceilings, decades) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of each a > 0: the decimal exponent k, the 17 significant digits as one integer, and whether
    they may come from a tie."""
    k = decades.take(np.frexp(a)[1] - _E)  # floor(log10 a) or one less
    k += a >= ceilings.take(k + (1 - _K))
    scale, hi, hi_high, hi_low, lo = powers.take(k - _K, axis=1)
    # a 10^(16-k) = b (hi + lo) with b = a scale exact, as total + error: b hi by Dekker's product.
    b = a * scale
    split = b * 134217729.0
    b_high = split - (split - b)
    b_low = b - b_high
    product = b * hi
    error = (b_high * hi_high - product) + b_high * hi_low + b_low * hi_high + b_low * hi_low + b * lo
    total = product + error
    error -= total - product
    rounded = np.rint(error)
    digits = total.astype(np.int64) + rounded.astype(np.int64)
    top = digits == 10**17  # rounded up to the next power of ten
    digits[top] = 10**16
    k += top
    return k, digits, np.abs(error - rounded) > 0.5 - 1e-9


def _exact(value: float, separator: int) -> bytes:
    """A cell's text and separator by ``"%.17g"``: the text of a possible tie."""
    return ("%.17g" % value).encode() + bytes([separator])

"""Byte-exact float printing for the CSV and SVG bodies, a block of values per call.

`repr_rows` prints a (rows, cols) float64 block as CSV rows with every
cell as repr(float(v)) writes it; `points_text` prints plot coordinates
as '{:.2f},{:.2f}' pairs. Both give each value one zero-padded row of
'<u4' words holding ASCII bytes, filled by whole-block numpy operations
and digit tables, and drop the NUL padding at the end. The text is the
same, byte for byte, as formatting each value on its own in Python.
A value the arithmetic cannot certify is formatted by Python itself.

repr. Its digits are the fewest whose nearest decimal lies strictly
inside x's rounding interval, x +- ulp(x)/2. The kernel scales |x| by an
exact power of ten, 10**k with k from log10, in long double: y = |x| 10**k
lies in [1e16, 1e17), one rounding away from the exact product, so
within half a long-double ulp of y (2**-8 at most). The interval becomes
y +- h, with h = ulp(x) 10**k / 2 > 0.55, so 17 digits always qualify,
and 16 or 15 digits qualify when the nearest multiple of 10 or 100 lies
within h of y. A multiple of 100 within h < 12 of y is the only one
there, so any shorter answer is that multiple with its trailing zeros
stripped. Every decision must clear its tie or interval edge by one
long-double ulp of y, twice y's rounding error. repr runs on what is
not certified: zero, NaN, inf, powers of two (whose interval is
lopsided), |x| outside [1e-10, 1e16), the few cells next to a power of
ten where log10 rounds across it and y misses [1e16, 1e17), and
decisions inside the margin, about 1-2% of the cells of a smooth sweep.
Where long double has fewer than 64 significand bits, repr formats
every cell.

'{:.2f}'. A coordinate with |v| < 999999 takes its hundredths from
rint(100 |v|). That is the correctly rounded answer unless 100 |v| lies
within 1e-6 of a half-integer, far wider than the at most 2**-26 by
which 100 |v| misses the exact product; such ties, and non-finite or
larger values, go to str.format.
"""

from __future__ import annotations

import numpy as np

__all__ = ["repr_rows", "points_text"]

# 64 significand bits hold 10**27 exactly and round y < 2**57 to within 2**-8
_EXACT_SCALE = np.finfo(np.longdouble).nmant >= 63
_POW10_LD = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_POW10 = _POW10_LD[:19].astype(np.int64)
_HALF_POW10 = (0.5 * _POW10_LD).astype(np.float64)
_MANTISSA = np.uint64(2**52 - 1)
_SIGN = np.uint32(ord("-") << 24)
# points per points_text chunk: bounds its transient arrays to about 1 MB
_CHUNK_POINTS = 8192


def _digit_words():
    """'<u4' words of the four ASCII digits of 0..9999 in string order, in
    four tables of 10000: plain; leading zeros as NUL, 0 keeping its last
    digit; trailing zeros as NUL, 0 all NUL; and the same but 0 keeping
    its first digit."""
    d = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    lead = np.logical_or.accumulate(d != 0, axis=1)
    lead[:, 3] = True
    trail = np.logical_or.accumulate(d[:, ::-1] != 0, axis=1)[:, ::-1]
    first = trail.copy()
    first[0, 0] = True
    keep = np.stack([np.ones_like(lead), lead, trail, first])
    return ((d + np.uint8(48)) * keep).view("<u4").ravel()


# a table's words are _DIGITS[value + offset], the plain table at offset 0
_DIGITS = _digit_words()
_LEAD, _TRAIL, _FIRST = 10000, 20000, 30000
# the last three digits before the point, and the point: plain, then
# with leading zeros as NUL
_UNITS = (_DIGITS[np.r_[0:1000, _LEAD:_LEAD + 1000]] >> 8) | np.uint32(ord(".") << 24)


def _nearest(yi, f, h, m, p):
    """The multiple of p nearest y = yi + f, in units of p; whether it
    lies within h of y; whether both answers clear their edges by m."""
    r = yi % p
    below = r + f
    above = (p - r) - f
    near = np.minimum(below, above)
    inside = near < h - m
    sure = (inside & (np.abs(below - above) > 2 * m)) | (near > h + m)
    return (yi - r) // p + (above < below), inside, sure


def _shortest(a):
    """repr's digits of each a in [1e-10, 1e16): (digits, count, point, sure).

    digits is an int64 of count significant digits with a = 0.digits
    times 10**point, as repr lays it out; sure is False where a decision
    falls inside the margin and repr must print the cell.
    """
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    y = a.astype(np.longdouble) * _POW10_LD[k]
    yi = y.astype(np.int64)
    f = (y - yi).astype(np.float64)  # exact: at most 10 fraction bits
    h = np.spacing(a) * _HALF_POW10[k]
    m = np.spacing(yi.astype(np.float64)) * 2.0**-11  # an ulp of y at 64 bits
    # y leaves [1e16, 1e17) only next to a power of ten, where log10 rounds
    sure = (y >= 1e16) & (y < 1e17) & (np.abs(f - 0.5) > m)
    d16, in16, sure16 = _nearest(yi, f, h, m, 10)
    d15, in15, sure15 = _nearest(yi, f, h, m, 100)
    sure &= sure16 & (sure15 | ~in16)
    digits = np.where(in16, d16, yi + (f > 0.5))
    count = 17 - in16
    short = np.flatnonzero(in15)
    c, n = d15[short], np.full(short.size, 15)
    for _ in range(14):
        zero = c % 10 == 0
        c = np.where(zero, c // 10, c)
        n -= zero
    digits[short], count[short] = c, n
    point = 17 - k
    carry = digits == _POW10[count]  # rounded up to 10**17: "1"
    digits[carry] = 1
    point[carry] += 1
    return digits, count, point, sure


def _cells(count, width, texts):
    """Zeroed rows of '<u4' words for count values: width words, or
    enough for a separator byte and the longest of texts."""
    longest = max(map(len, texts), default=0)
    return np.zeros((count, max(width, longest // 4 + 1)), "<u4")


def _squeeze(cells, at, texts) -> bytes:
    """Write texts after the separator byte of rows at, then drop every NUL."""
    raw = cells.view(np.uint8)
    if texts:
        longest = max(map(len, texts))
        raw[at, 1:] = 0
        raw[at, 1:1 + longest] = (
            np.array(texts, dtype=f"S{longest}").view(np.uint8).reshape(len(texts), longest)
        )
    return raw[raw != 0].tobytes()


def repr_rows(block) -> bytes:
    """CSV rows of a (rows, cols) float64 block: repr of each cell, ','
    between cells and '\\n' after each row."""
    rows, cols = block.shape
    if not block.size:
        return b""
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    a = np.abs(x)
    ok = (a >= 1e-10) & (a < 1e16) & (x.view(np.uint64) & _MANTISSA != 0) & _EXACT_SCALE
    a[~ok] = 1.5  # a stand-in the arithmetic takes; repr prints these cells
    digits, count, point, sure = _shortest(a)
    ok &= sure

    expo = point < -3  # repr's exponent form, 1e-05 and below
    single = expo & (count == 1)  # "1e-05": no point
    ip = np.where(expo, 1, np.maximum(point, 0))  # digits before the point
    z = np.where(expo, 0, np.maximum(-point, 0))  # zeros after it, up to 3
    whole, frac = np.divmod(digits * _POW10[17 - count], _POW10[17 - ip])
    frac *= _POW10[ip]  # the digits after the point, 17 wide
    # "0" * z + frac, 20 digits: the first four, then sixteen
    head, tail = np.divmod(frac, _POW10[13 + z])
    tail *= _POW10[3 - z]
    q, g4 = np.divmod(tail, 10000)
    q, g3 = np.divmod(q, 10000)
    g1, g2 = np.divmod(q, 10000)
    rest4 = g4 == 0  # restN: every digit from group N on is zero
    rest3 = rest4 & (g3 == 0)
    rest2 = rest3 & (g2 == 0)
    rest1 = rest2 & (g1 == 0)

    # words: separator and sign, the integer part ending in the point,
    # the 20 fraction digits, and the exponent if any cell has one
    ng = 1 + (max(len(str(int(whole.max(initial=0)))) - 3, 0) + 3) // 4
    any_exp = bool(expo.any())
    texts = [repr(v) for v in x[~ok].tolist()]
    cells = _cells(x.size, 1 + ng + 5 + any_exp, texts)
    sep = np.full(cols, ord(","), np.uint32)
    sep[0] = ord("\n")
    cells.reshape(rows, cols, -1)[:, :, 0] = sep
    cells[:1, 0] = 0  # the block's first cell follows no separator
    cells[:, 0] |= np.signbit(x) * _SIGN
    units = _UNITS[whole % 1000 + 1000 * (whole < 1000)]
    units[single] &= np.uint32(0x00FFFFFF)
    cells[:, ng] = units
    for j in range(1, ng):
        q = whole // _POW10[4 * j - 1]
        cells[:, ng - j] = _DIGITS[q % 10000 + _LEAD * (q < 10000)] * (q > 0)
    cells[:, ng + 1] = _DIGITS[head + _FIRST * rest1] * ~single
    cells[:, ng + 2] = _DIGITS[g1 + _TRAIL * rest2]
    cells[:, ng + 3] = _DIGITS[g2 + _TRAIL * rest3]
    cells[:, ng + 4] = _DIGITS[g3 + _TRAIL * rest4]
    cells[:, ng + 5] = _DIGITS[g4 + _TRAIL]
    if any_exp:
        e = (1 - point).astype(np.uint32)  # 5..10
        word = (48 + e // 10) << 16 | (48 + e % 10) << 24 | ord("e") | ord("-") << 8
        cells[:, ng + 6] = word * expo
    return _squeeze(cells, np.flatnonzero(~ok), texts) + b"\n"


def _hundredths(v) -> bytes:
    """' x,y x,y ...' for v = [x0, y0, x1, y1, ...]."""
    a = np.abs(v)
    small = a < 999999.0
    t = np.where(small, a, 0.0) * 100.0
    ok = small & (np.abs(t - np.floor(t) - 0.5) > 1e-6)
    q, r = np.divmod(np.rint(t).astype(np.int64), 100)
    texts = ["{:.2f}".format(c) for c in v[~ok].tolist()]
    cells = _cells(v.size, 4, texts)
    cells.reshape(-1, 2, cells.shape[1])[:, :, 0] = [ord(" "), ord(",")]
    cells[:, 0] |= np.signbit(v) * _SIGN
    cells[:, 1] = _DIGITS[q // 1000 + _LEAD] * (q >= 1000)
    cells[:, 2] = _UNITS[q % 1000 + 1000 * (q < 1000)]
    cells[:, 3] = _DIGITS[r] >> 16
    return _squeeze(cells, np.flatnonzero(~ok), texts)


def points_text(xs, ys) -> str:
    """'x,y x,y ...' with each coordinate as '{:.2f}' formats it."""
    v = np.stack([np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)], 1).ravel()
    step = 2 * _CHUNK_POINTS
    text = b"".join(_hundredths(v[s:s + step]) for s in range(0, v.size, step))
    return text[1:].decode("ascii")

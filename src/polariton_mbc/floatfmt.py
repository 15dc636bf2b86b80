"""Byte-exact float printing for the CSV and SVG bodies, a block of values per call.

`repr_rows` prints a (rows, cols) float64 block as CSV rows with every
cell as repr(float(v)) writes it; `_hundredths` prints a chunk of plot
coordinates as ' x,y x,y' with '{:.2f}', for svgplot's streamed write.
Both give each value one zero-padded row of '<u4' words holding ASCII
bytes in a bytearray, filled by whole-block numpy operations and digit
tables, and return that bytearray with the NUL padding dropped, ready to
write; the block's last newline is one byte reserved after its cells.
repr_rows runs in stages whose temporaries die as each returns: the
digits (`_shortest`), the integer and fraction parts written as words
into the cells (`_parts`), then separators, signs and exponents, so a
block peaks at about 120 bytes a cell. The text is the same,
byte for byte, as formatting each value on its own in Python. A value
the arithmetic cannot certify is formatted by Python itself; a CSV text
cell's UTF-8 bytes fill such a slot, over a stand-in number.

repr. Its digits are the fewest whose nearest decimal lies strictly
inside x's rounding interval, x +- ulp(x)/2. The kernel scales |x| by an
exact power of ten, 10**k with k from log10, in long double: y = |x| 10**k
lies in [1e16, 1e17), one rounding away from the exact product, so
within half a long-double ulp of y (2**-8 at most). The interval becomes
y +- h, with h = ulp(x) 10**k / 2 > 0.55, so 17 digits always qualify,
and 16 or 15 digits qualify when the nearest multiple of 10 or 100 lies
within h of y, both ulps taken from exponent bits. A multiple of 100
within h < 12 of y is the only one there, so any shorter answer is that
multiple, whose trailing zeros the digit tables print as NUL. Every
decision, a tie of y's fraction with 1/2 only for a 17-digit answer,
must clear its tie or interval edge by one long-double ulp of y, twice
y's rounding error. repr runs on what is not certified: zero, NaN, inf,
powers of two (whose interval is lopsided), |x| outside [1e-10, 1e16),
the few cells next to a power of ten where log10 rounds across it and
y's integer part misses [1e16, 1e17), and decisions inside the margin,
0.3-2% of the cells of a smooth sweep. Where long double has fewer than
64 significand bits, repr formats every cell.

'{:.2f}'. A coordinate with |v| < 999999 takes its hundredths from
rint(100 |v|). That is the correctly rounded answer unless 100 |v| lies
within 1e-6 of a half-integer, far wider than the at most 2**-26 by
which 100 |v| misses the exact product; such ties, and non-finite or
larger values, go to str.format.
"""

from __future__ import annotations

import numpy as np

__all__ = ["repr_rows"]

# 64 significand bits hold 10**27 exactly and round y < 2**57 to within 2**-8
_EXACT_SCALE = np.finfo(np.longdouble).nmant >= 63
_POW10_LD = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_POW10 = _POW10_LD[:19].astype(np.int64)
_HALF_POW10 = (0.5 * _POW10_LD).astype(np.float64)
# by point + 9, point in [-9, 17]: 10**(17 - ip) and 10**ip split the digits
# ip from the left (1 in repr's exponent form, point < -3); 10**(13 + z) and
# 10**(3 - z) cut z zeros and the rest into four digits and sixteen
_IP, _Z = np.where(np.r_[-9:18] < -3, [[1], [0]], np.maximum(np.r_[-9:18] * [[1], [-1]], 0))
_SPLIT = _POW10[np.stack([17 - _IP, _IP, 13 + _Z, 3 - _Z])]
_MANTISSA = np.uint64(2**52 - 1)
_SIGN = np.uint32(ord("-") << 24)


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
_LEAD, _TRAIL, _FIRST, _POINT = 10000, 20000, 30000, 40000
# the last three digits before the point, and the point: plain, then with
# leading zeros as NUL; also in _DIGITS from _POINT, then without the point
_UNITS = (_DIGITS[np.r_[0:1000, _LEAD:_LEAD + 1000]] >> 8) | np.uint32(ord(".") << 24)
_DIGITS = np.r_[_DIGITS, _UNITS, _UNITS & np.uint32(0x00FFFFFF)]


def _nearest(yi, r, f, lo, hi, m, p):
    """The multiple of p nearest y = yi + f, given r = yi mod p (r + f is exact);
    whether it lies within h of y; whether both answers clear their edges by m,
    given lo, hi = h - m, h + m."""
    below = r + f
    above = p - below
    near = np.minimum(below, above)
    inside = near < lo
    sure = (inside & (np.abs(below - 0.5 * p) > m)) | (near > hi)
    return yi - r + p * (above < below), inside, sure


def _divmod(x, c):
    """np.divmod(x, c) of int64 by a floor-divide, in half np.divmod's time."""
    q = x // c
    return q, x - q * c


def _ulp(v, scale=0):
    """ulp(v) 2**-scale of positive normal doubles v, from their exponent bits."""
    return ((v.view(np.uint64) >> 52 << 52) - (52 + scale << 52)).view(np.float64)


def _shortest(x):
    """repr's digits of each certified |x|: (digits, point, ok).

    digits is an int64 of 17 digits, the fewest repr needs padded with
    zeros, with |x| = 0.digits times 10**point, as repr lays it out; ok
    is False where repr must print the cell: zero, NaN, inf, powers of
    two, |x| outside [1e-10, 1e16), decisions inside the margin.
    """
    a = np.abs(x)
    ok = (a >= 1e-10) & (a < 1e16) & (x.view(np.uint64) & _MANTISSA != 0) & _EXACT_SCALE
    a[~ok] = 1.5  # a stand-in the arithmetic takes; repr prints these cells
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    y = a.astype(np.longdouble) * _POW10_LD[k]
    yi = y.astype(np.int64)
    f = (y - yi).astype(np.float64)  # exact: at most 10 fraction bits
    h = _ulp(a) * _HALF_POW10[k]
    del y, a
    m = _ulp(yi.astype(np.float64), 11)  # an ulp of y at 64 bits
    hi, r100 = h + m, _divmod(yi, 100)[1]
    h -= m
    d16, in16, sure16 = _nearest(yi, _divmod(r100, 10)[1], f, h, hi, m, 10)
    d15, in15, sure15 = _nearest(yi, r100, f, h, hi, m, 100)
    del h, hi, r100
    # y leaves [1e16, 1e17) only next to a power of ten, where log10 rounds
    ok &= (yi >= _POW10[16]) & (yi < _POW10[17]) & sure16 & (sure15 | ~in16)
    ok &= in16 | (np.abs(f - 0.5) > m)  # the tie of 17 digits
    digits = np.where(in15, d15, np.where(in16, d16, yi + (f > 0.5)))
    point = 17 - k
    carry = digits == _POW10[17]  # rounded up to 10**17: "1"
    digits[carry] = _POW10[16]
    point[carry] += 1
    return digits, point, ok


def _parts(digits, point, words):
    """Write each cell's words into words, a (cells, ng + 5) view of '<u4':
    the integer part in ng groups of four, the last three digits with the
    point; then the 20 digits after the point, four at a time."""
    ng = words.shape[1] - 5
    at = point + 9
    whole, frac = _divmod(digits, _SPLIT[0][at])
    single = (point < -3) & (frac == 0)  # "1e-05": no point
    frac *= _SPLIT[1][at]  # the digits after the point, 17 wide
    head, frac = _divmod(frac, _SPLIT[2][at])  # four digits, and sixteen
    words[:, ng] = _DIGITS[head + _FIRST * (frac == 0)] * ~single
    frac *= _SPLIT[3][at]
    del at, head
    for j in range(1, ng):
        q = whole // _POW10[4 * j - 1]
        words[:, ng - 1 - j] = _DIGITS[_divmod(q, 10000)[1] + _LEAD * (q < 10000)] * (q > 0)
    if ng > 1:  # else whole < 1000, but where repr prints the cell
        whole = _divmod(whole, 1000)[1] + 1000 * (whole < 1000) - 1000
    words[:, ng - 1] = _DIGITS[whole + (_POINT + 1000) + 2000 * single]
    del whole, single
    # a group's trailing zeros are NUL once every later group is zero
    frac, low = _divmod(frac, 10**8)  # the first eight of sixteen, and the last
    g3, g4 = _divmod(low, 10000)
    words[:, ng + 4] = _DIGITS[g4 + _TRAIL]
    words[:, ng + 3] = _DIGITS[g3 + _TRAIL * (g4 == 0)]
    g1, g2 = _divmod(frac, 10000)
    words[:, ng + 2] = _DIGITS[g2 + _TRAIL * (low == 0)]
    words[:, ng + 1] = _DIGITS[g1 + _TRAIL * ((low == 0) & (g2 == 0))]


def _cells(count, width, texts, end=b""):
    """A zeroed bytearray ending in end, and its rows of '<u4' words for count
    values: width words, or enough for a separator byte and the longest of texts."""
    width = max(width, max(map(len, texts), default=0) // 4 + 1)
    buf = bytearray(4 * count * width + len(end))
    buf[4 * count * width:] = end
    return buf, np.frombuffer(buf, "<u4", count * width).reshape(count, width)


def _squeeze(buf, cells, at, texts) -> bytearray:
    """Write texts after the separator byte of rows at, then drop every NUL
    from buf, a bytearray that needs no copy to be written."""
    if texts:  # each NUL-padded to the row's end
        width = 4 * cells.shape[1] - 1
        cells.view(np.uint8)[at, 1:] = np.array(texts, f"S{width}").view("u1").reshape(-1, width)
    return buf.translate(None, b"\0")


def repr_rows(block, text=None) -> bytearray:
    """CSV rows of a (rows, cols) float64 block: repr of each cell, ','
    between cells and '\\n' after each row, but where text maps a column
    to its cells' UTF-8 bytes, those in place of its stand-in numbers."""
    rows, cols = block.shape
    if not block.size:
        return bytearray()
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    digits, point, ok = _shortest(x)
    if text:  # its cells take override slots too, merged in by flat position
        put, grid, j = np.empty((rows, cols), object), ok.reshape(rows, cols), list(text)
        put[:, j], grid[:, j] = np.array([text[k] for k in j], object).T, True
        put.ravel()[~ok] = [repr(v) for v in x[~ok].tolist()]  # no repr of a stand-in
        grid[:, j] = False
    texts = put.ravel()[~ok].tolist() if text else [repr(v) for v in x[~ok].tolist()]
    # words: separator and sign, the integer part ending in the point (ng for
    # max(point) digits), the 20 fraction digits, the exponent if any cell has one
    ng = 1 + (max(int(point.max()) - 3, 0) + 3) // 4
    expo = point < -3
    buf, cells = _cells(x.size, ng + 6 + int(expo.any()), texts, b"\n")
    _parts(digits, point, cells[:, 1:ng + 6])
    del digits
    cells.reshape(rows, cols, -1)[:, :, 0] = [ord("\n")] + [ord(",")] * (cols - 1)
    cells[:1, 0] = 0  # the block's first cell follows no separator
    cells[:, 0] |= np.signbit(x) * _SIGN
    if expo.any():
        e = (1 - point).astype(np.uint32)  # 5..10
        word = (48 + e // 10) << 16 | (48 + _divmod(e, 10)[1]) << 24
        cells[:, ng + 6] = (word | ord("e") | ord("-") << 8) * expo
    return _squeeze(buf, cells, np.flatnonzero(~ok), texts)


def _hundredths(v) -> bytearray:
    """' x,y x,y ...' for v = [x0, y0, x1, y1, ...], with a word for the
    thousands only where some coordinate reaches 1000."""
    a = np.abs(v)
    small = a < 999999.0
    t = np.where(small, a, 0.0) * 100.0
    ok = small & (np.abs(t - np.floor(t) - 0.5) > 1e-6)
    q, r = _divmod(np.rint(t).astype(np.int64), 100)
    texts = ["{:.2f}".format(c) for c in v[~ok].tolist()]
    wide = int(q.max(initial=0) >= 1000)
    buf, cells = _cells(v.size, 3 + wide, texts)
    cells.reshape(-1, 2, cells.shape[1])[:, :, 0] = [ord(" "), ord(",")]
    cells[:, 0] |= np.signbit(v) * _SIGN
    if wide:
        cells[:, 1] = _DIGITS[q // 1000 + _LEAD] * (q >= 1000)
    cells[:, 1 + wide] = _UNITS[_divmod(q, 1000)[1] + 1000 * (q < 1000)]
    cells[:, 2 + wide] = _DIGITS[r] >> 16
    return _squeeze(buf, cells, np.flatnonzero(~ok), texts)

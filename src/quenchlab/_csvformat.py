"""Exact ``%.17g`` text of float64 arrays, vectorized.

``write_rows(write, values, cols)`` writes the bytes of
``(",".join(["%.17g"] * cols) + "\\n") * rows % tuple(values)`` without a
Python call per value.  The seventeen digits come from fixed-precision
correctly rounded printing (Adams, "Ryu revisited: printf floating point
conversion", OOPSLA 2019): a value x with E = floor(log10|x|) is scaled by
10**(16 - E), held as a double-double, through an exact Veltkamp/Dekker
product (Dekker, Numer. Math. 18, 1971).  The sum y = p + e is good to
about 2**-104 relative and is rounded to the integer D.

A value is printed from D only under a certificate: |x| lies in
[1e-280, 1e280], the unrounded y lies in [1e16, 1e17 - 0.5) (so log10
gave the right E and D has 17 digits), and y is not within 1e-6 of a
half-integer (so the rounding is no tie).  Every other value -- zeros,
inf, nan, subnormals, the extreme range, exact ties such as 1 + 2**-17 --
is formatted by ``%`` itself and spliced in.  The digits are laid out in
a fixed-width uint8 grid with NULs where a field has no character, and
the NULs are dropped at the end.  ``cli._write_csv`` imports this module
on first use.
"""

from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0            # 2**27 + 1: Veltkamp's split of a double
_TIE = 0.5 - 1e-6               # |y - D| at or above this goes to `%`
_WIDTH = 28                     # sign, <= 24 characters, NULs, separator
_FIXED = 21                     # classes 0 ... 20: exponents -4 ... 16
_SCI, _FALLBACK = _FIXED, _FIXED + 1


def _split(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _powers():
    """hi, lo and the Veltkamp halves of hi, with hi + lo = 10**p to about
    2**-106 relative, for p = -300 ... 300 at index p + 300, from integer
    arithmetic."""
    def hi_lo(p):
        q = 10 ** abs(p)
        if p >= 0:
            return float(q), float(q - int(float(q)))
        hi = 1 / q
        m, d = hi.as_integer_ratio()
        return hi, (d - m * q) / (q * d)

    hi, lo = np.fromiter((v for p in range(-300, 301) for v in hi_lo(p)),
                         np.float64, 1202).reshape(601, 2).T
    return (hi.copy(), lo.copy()) + _split(hi)


def _pairs(trim):
    """'00' ... '99' as uint16, with trailing zeros as NULs if `trim`."""
    text = (b"%02d" % i for i in range(100))
    if trim:
        text = (t.rstrip(b"0").ljust(2, b"\0") for t in text)
    return np.frombuffer(b"".join(text), np.uint16)


_POW = _powers()
# Four ASCII digits of 0 ... 9999 per uint32, first digit in the first
# byte; entry 10000 + c is the twin of c with its trailing zeros as NULs.
_QUAD = np.empty((2, 100, 100, 2), np.uint16)
_QUAD[:, :, :, 0] = _pairs(False)[:, None]
_QUAD[0, :, :, 1] = _pairs(False)
_QUAD[1, :, :, 1] = _pairs(True)
_QUAD[1, :, 0, 0] = _pairs(True)
_QUAD = _QUAD.view(np.uint32).ravel()
# By row i of _POW, for the exponent E = 316 - i: the layout class, and
# E as %+03d, NUL-padded to four bytes.
_E = 316 - np.arange(601)
_CLASS = np.where((_E >= -4) & (_E <= 16), _E + 4, _SCI).astype(np.uint8)
_EXP = np.frombuffer(b"".join((b"%+03d" % E).ljust(4, b"\0") for E in _E),
                     np.uint32)


def _digits(x):
    """Each value's row i of the tables, its layout class and its 17-digit
    significand D = round(|x| * 10**(i - 300)) in [1e16, 1e17), as the
    integer-valued floats H = D // 10**8 and L = D % 10**8."""
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)
    a = np.where(ok, a, 1.0)
    E = np.log10(a)
    np.floor(E, out=E)
    i = (316 - E).astype(np.intp)
    del E
    hi, lo, hh, hl = (np.take(t, i, mode="clip") for t in _POW)
    # y = p + e: Dekker's exact product of a and hi, plus a * lo.
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    p = a * hi
    e = ah * hh
    e -= p
    ah *= hl
    e += ah
    hh *= al
    e += hh
    al *= hl
    e += al
    lo *= a
    e += lo
    del a, hi, lo, hh, hl, ah, al
    r = np.rint(e)
    ok &= np.abs(e - r) < _TIE
    # y in [1e16, 1e17 - 0.5): log10 gave the right exponent and D < 1e17.
    # p is an integer and p - 1e16, p - 1e17 are exact where it matters.
    ok &= (p - 1e16) + e >= 0
    ok &= (p - 1e17) + e < -0.5
    # p - H * 1e8 is exact: H * 1e8 has at most 49 significant bits.
    H = np.floor(p * 1e-8)
    p -= H * 1e8
    p += r
    k = np.floor(p * 1e-8)
    H += k
    p -= k * 1e8
    return i, np.where(ok, _CLASS.take(i), _FALLBACK), H, p


def _grid(H, L):
    """(n, _WIDTH) uint8 rows holding the ASCII digits of D = H * 1e8 + L
    in columns 3 ... 19: the leading digit, then four chunks of four from
    _QUAD.  A chunk takes its twin, with trailing zeros as NULs, when every
    later chunk is zero.  Overwrites H and L."""
    grid = np.zeros((len(H), _WIDTH), np.uint8)
    words = grid.view(np.uint32)
    top = np.floor(H * 1e-4)
    H -= top * 1e4
    low = np.floor(L * 1e-4)
    L -= low * 1e4
    lead = np.floor(top * 1e-4)
    top -= lead * 1e4
    grid[:, 3] = lead + 48
    del lead
    tail = 1e4
    for k, c in ((4, L), (3, low), (2, H), (1, top)):
        c += tail
        np.take(_QUAD, c.astype(np.intp), out=words[:, k], mode="clip")
        tail = np.where(c == 1e4, 1e4, 0.0)
    return grid


def _layout(grid, x, ends, i):
    """Lay out the rows of `grid`, sorted by class, in place: move the
    digits of a whole class with one flat copy of its rows, then write
    '0.000', the point, the exponent and the sign around them."""
    # A flat copy carries NULs across row ends, into the sign column or
    # the separator column of a neighbouring row; both are written later.
    flat = grid.reshape(-1)
    start = 0
    for c, stop in enumerate(ends):
        if stop == start:
            continue
        g = grid[start:stop]
        lo, hi = start * _WIDTH, stop * _WIDTH
        if c < 4:                                   # 0.000ddd ... 0.ddd
            shift = 3 - c
            if shift:
                flat[lo + shift:hi] = flat[lo:hi - shift]
            for j, char in enumerate(b"0.000"[:5 - c], 1):
                g[:, j] = char
        elif c <= _SCI:                             # ddd.ddd and d.ddde+XX
            lead = c - 3 if c < _SCI else 1
            flat[lo:hi - 1] = flat[lo + 1:hi]       # digits in 2 ... 18
            # A trimmed zero of the integer part comes back as '0'; '.' is
            # below '0', so the point shows only before a fraction digit.
            if lead == 1:
                g[:, 1] = g[:, 2]
            else:
                np.maximum(g[:, 2:2 + lead], ord("0"), out=g[:, 1:1 + lead])
            np.minimum(g[:, 2 + lead], ord("."), out=g[:, 1 + lead])
            if c == _SCI:
                g[:, 19] = ord("e")
                g[:, 20:24] = _EXP[i[start:stop], None].view(np.uint8)
        else:                                       # `%`, spaces as NULs
            text = (b"%-24.17g" * (stop - start)) % tuple(
                x[start:stop].tolist())
            g[:, 1:25] = np.frombuffer(text, np.uint8).reshape(-1, 24)
            g[g == ord(" ")] = 0
        start = stop
    fast = slice(0, ends[_SCI])
    grid[fast, 0] = np.where(x[fast] < 0, ord("-"), 0)


def write_rows(write, values, cols):
    """Hand `write` the bytes of the float64 values as `%.17g`, `cols` to a
    line; return how many values were formatted by `%`."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = len(x)
    i, cls, H, L = _digits(x)
    order = np.argsort(cls, kind="stable")
    ends = np.cumsum(np.bincount(cls.astype(np.intp), minlength=_FALLBACK + 1))
    del cls
    H, L = H[order], L[order]
    grid = _grid(H, L)
    del H, L
    _layout(grid, x[order], ends, i[order])
    del i
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    del order
    out = np.take(grid, inverse, axis=0)
    del grid, inverse
    out[:, -1] = ord(",")
    out[cols - 1::cols, -1] = ord("\n")
    write(out[out != 0])
    return n - int(ends[_SCI])

"""The text of simulate's CSV rows, rendered by numpy a block of rows at a time.

Every cell is the text that ``'%d' % v`` or ``'%.17g' % x`` gives, byte for
byte.  Cells are rendered a column of values at a time, as one (values,
width) uint8 array: a cell's text is its bytes with the NULs taken out, so a
row's text is its cells side by side, and a block of rows is one
``bytes.translate`` that deletes every NUL.

``'%.17g' % x`` for a finite 1e-4 <= x < 1e17 is fixed-point: the 17
significant digits D of x rounded half-even, with the point after digit E
(or "0." and -E - 1 zeros first, when E < 0), and the fraction's trailing
zeros dropped.  E starts as floor(log10 x) and moves by one when the exact
x * 10**(16 - E) has no 17 digits before its point.  That product is exactly
hi + lo, by Dekker's two-product (Numer. Math. 18, 1971), since 10**k is a
double for k <= 22.  hi is then an even integer, at least 10**16 > 2**53, so
D = hi + rint(lo) rounds half-even.  Every other value (0, below 1e-4, from
1e17 up, negative or not finite) is formatted by ``'%.17g' % x`` itself,
one by one.

D's trailing zeros are counted a 4-digit group at a time, from the last:
only the values whose groups so far are all zeros go on to the next group,
so a typical block looks up one group.  A cell is masked by a row of
``_FIXED_MASKS``, one per E and count of trailing zeros, which keeps its
digits and point.  A block lays its cells out in the columns that its
largest and smallest E need, and the mask columns of each such layout are
selected once and cached.  A block whose values all lie in [1e-4, 1e17)
skips the fallback to ``'%.17g'`` altogether.

``mfcir.cli`` imports the module when a CSV ``simulate`` run starts writing,
so that the other commands neither compile it nor build its tables.
"""

from __future__ import annotations

import functools

import numpy as np

_POW10 = np.array([float(10**k) for k in range(21)])  # exact doubles


def _halves(a):
    """a as high + low, each with at most 26 significant bits (Dekker's split)."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)
_q = np.arange(10000)
# "0000" to "9999" as four ASCII bytes in one uint32, and the trailing zeros of each
_DIGITS4 = np.empty((10000, 4), np.uint8)
for _k in range(4):
    _DIGITS4[:, 3 - _k] = _q // 10**_k % 10 + 48
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_TRAILING4 = sum(_q % 10**k == 0 for k in range(1, 5))
# A fixed-point cell is laid out as "0" and D's 17 digits (the integer part),
# the point, then "000" and D's digits (the fraction).  Its mask, for exponent
# E and tz trailing zeros of D, is row (E + 4) * 17 + tz.
_e, _tz = np.divmod(np.arange(21 * 17)[:, None], 17)
_e -= 4
_FIXED_MASKS = np.concatenate(
    [(_q[:18] >= (_e >= 0)) & (_q[:18] < np.clip(_e, -1, None) + 2), 20 - _tz > 4 + _e,
     (_q[:20] >= 4 + _e) & (_q[:20] < 20 - _tz)],
    axis=1,
)
del _q, _k, _e, _tz


def _scaled(x, e):
    # x * 10**(16 - e) as hi + lo, exactly
    k = 16 - e
    x_high, x_low = _halves(x)
    hi = x * _POW10.take(k)
    p_high, p_low = _POW10_HIGH.take(k), _POW10_LOW.take(k)
    return hi, ((x_high * p_high - hi) + x_high * p_low + x_low * p_high) + x_low * p_low


def _decimal(x):
    """E and D of each 1e-4 <= x < 1e17: x to 17 significant digits, rounded half-even, is D * 10**(E - 16)."""
    e = np.floor(np.log10(x)).astype(np.int64)
    np.clip(e, -4, 16, out=e)
    hi, lo = _scaled(x, e)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    moved = np.flatnonzero(below | above)
    if moved.size:
        e[moved] += above[moved].astype(np.int64) - below[moved]
        hi[moved], lo[moved] = _scaled(x[moved], e[moved])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10**17  # rounded up to 18 digits
    d[carry] = 10**16
    return e + carry, d


def _digits(d):
    """"000" and the 17 digits of each d, as (len(d), 20) ASCII bytes, and the trailing zeros of each d."""
    groups = np.empty((5, len(d)), np.int64)  # four digits each, the most significant first
    for k in (4, 3, 2, 1):
        q = d // 10000
        np.subtract(d, q * 10000, out=groups[k])
        d = q
    groups[0] = d
    tz = _TRAILING4.take(groups[4])
    at = np.flatnonzero(tz == 4)  # the d whose groups so far are all zeros
    for k in (3, 2, 1):
        if not at.size:
            break
        more = _TRAILING4.take(groups[k].take(at))
        tz[at] += more
        at = at[more == 4]
    return _DIGITS4.take(groups.T).view(np.uint8), tz


@functools.lru_cache(maxsize=64)
def _masks(int_width, frac_from):
    """The columns of ``_FIXED_MASKS`` that cells laid out by ``float_cells`` use, read-only."""
    masks = _FIXED_MASKS[:, np.r_[0:int_width, 18, 19 + frac_from : 39]]
    masks.flags.writeable = False
    return masks


def float_cells(x):
    """The cells of '%.17g' % x for a float64 array x, NUL-padded."""
    fixed = (x >= 1e-4) & (x < 1e17)
    all_fixed = bool(fixed.all())
    e, d = _decimal(x if all_fixed else np.where(fixed, x, 1.0))
    digits, tz = _digits(d)
    int_width, frac_from = max(int(e.max()), -1) + 2, int(e.min()) + 4  # the columns a fixed-point cell uses
    point = np.full((len(x), 1), 46, np.uint8)
    chars = np.concatenate([digits[:, 2 : 2 + int_width], point, digits[:, frac_from:]], axis=1)
    chars *= _masks(int_width, frac_from).take((e + 4) * 17 + tz, axis=0)
    if all_fixed:
        return chars
    others = np.flatnonzero(~fixed)
    texts = [b"%.17g" % value for value in x[others].tolist()]
    width = max(chars.shape[1], *map(len, texts))
    if width > chars.shape[1]:
        chars = np.pad(chars, ((0, 0), (0, width - chars.shape[1])))
    chars[others] = np.array(texts, f"S{width}").view(np.uint8).reshape(len(texts), width)
    return chars


def _int_cells(values):
    """The cells of '%d' % v for each int v of ``values``, NUL-padded."""
    chars = np.array([b"%d" % v for v in values])
    return chars.view(np.uint8).reshape(len(chars), -1)


def csv_rows(first, rows, times, z, r) -> str:
    """The CSV text of a run's rows ``first, first + 1, ...``, with z and r their states and rates.

    Each path has ``rows`` rows, and ``times`` are the ``float_cells`` of
    the grid's times.  The rows may span many paths or part of one.
    """
    n = len(z)
    pid, step = np.divmod(np.arange(first, first + n), rows)
    pids = _int_cells(range(pid[0], pid[-1] + 1))
    values = float_cells(np.stack([z, r], axis=1).ravel()).reshape(n, 2, -1)  # each row's z and r side by side
    comma, newline = np.full((n, 1), 44, np.uint8), np.full((n, 1), 10, np.uint8)
    chars = np.concatenate(
        [pids.take(pid - pid[0], axis=0), comma, times.take(step, axis=0), comma, values[:, 0], comma, values[:, 1],
         newline],
        axis=1,
    )
    return chars.tobytes().translate(None, b"\0").decode("ascii")

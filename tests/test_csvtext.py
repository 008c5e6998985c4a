"""Differential tests of simulate's CSV renderer against Python's own '%.17g' and '%d'."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mfcir._csvtext import _int_cells, csv_rows, float_cells


def _render(cells):
    """The text of each NUL-padded cell, one per line."""
    newline = np.full((len(cells), 1), ord("\n"), np.uint8)
    return np.concatenate([cells, newline], axis=1).tobytes().translate(None, b"\0").decode("ascii")


def _assert_renders(values):
    x = np.asarray(values, dtype=np.float64)
    got = _render(float_cells(x)).splitlines()
    want = ["%.17g" % v for v in x.tolist()]
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        pytest.fail(f"{float(x[i])!r}: rendered {got[i]!r}, '%.17g' gives {want[i]!r}")


RNG_SEED = 20261019


@pytest.mark.parametrize("exponent", range(-4, 17))
def test_every_decimal_exponent(exponent):
    # 25 000 values whose digits start at 10**exponent, alone in their array, so
    # that each array is laid out for its one exponent (21 x 25 000 values)
    rng = np.random.default_rng(RNG_SEED + exponent)
    _assert_renders(10.0 ** (exponent + rng.random(25_000)))


def test_random_bit_patterns_over_the_positive_range():
    # 500 000 doubles drawn uniformly over the bit patterns, subnormals to the largest finite
    rng = np.random.default_rng(RNG_SEED)
    _assert_renders(rng.integers(1, 0x7FF0000000000000, 500_000, dtype=np.int64).view(np.float64))


def test_neighbours_of_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-8, 18)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    _assert_renders(np.concatenate([below, powers, above]))
    for p, b, a in zip(powers, below, above):  # alone too: a block of one exponent
        _assert_renders([b, p, a])


MANTISSA = "12345678923456789"  # no zero digit: each of its prefixes ends in a nonzero one


def _digits_and_exponent(value):
    text = "%.16e" % value
    return text[0] + text[2:18], int(text[19:])


def test_trailing_zeros_across_digit_groups():
    # The 17 - tz leading digits of MANTISSA at decimal exponent E, kept where
    # the double's 17 significant digits are those digits and tz zeros: the
    # count stops inside each 4-digit group and at every group boundary
    values = {}
    for tz in range(17):
        digits = MANTISSA[: 17 - tz]
        for exponent in range(-4, 17):
            value = float(f"{digits}e{exponent - 16 + tz}")
            if _digits_and_exponent(value) == (digits + "0" * tz, exponent):
                values.setdefault(tz, []).append(value)
    assert sorted(values) == list(range(17))
    assert min(map(len, values.values())) >= 9  # 9 to 21 of the 21 exponents for each tz
    for tz_values in values.values():
        for value in tz_values:
            _assert_renders([value])
    _assert_renders(np.random.default_rng(RNG_SEED).permutation(np.concatenate(list(values.values()))))


def test_exact_ties_round_half_even():
    # (2m + 1) / 2**(j + 1) in [10**(16 - j), 10**(17 - j)) has 18 significant
    # digits, the last a 5: '%.17g' rounds it half-even on the exact value
    rng = np.random.default_rng(RNG_SEED)
    values = []
    for j in range(1, 21):
        low = -(-(2 ** (j + 1) * 10**16) // 10**j)  # the bounds on 2m + 1, in integers
        high = min(2 ** (j + 1) * 10**17 // 10**j, 2**53)
        odd = rng.integers(low // 2, high // 2, 5000, dtype=np.int64) * 2 + 1
        values.append(odd / 2.0 ** (j + 1))
    m, j = rng.integers(0, 2**52, 20_000, dtype=np.int64), rng.integers(1, 80, 20_000)
    values.append((m + 0.5) / 2.0**j)
    _assert_renders(np.concatenate(values))


@pytest.mark.parametrize(
    "value",
    [0.0, 5e-324, 1.7976931348623157e308, 9.9999999999999995e-05, 0.09999999999999999, 1e-4, 1e17,
     99999999999999984.0, -0.0, -1.5, np.inf, np.nan],
)
def test_edge_values(value):
    _assert_renders([value])
    _assert_renders([value, 2.0, 0.001])


@given(st.lists(st.floats(min_value=0, allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_nonnegative_float(values):
    _assert_renders(values)


def test_int_cells():
    values = [0, 7, 10, 99, 12345, 2**64 - 1, 10**30]
    assert _render(_int_cells(values)).splitlines() == ["%d" % v for v in values]


@given(
    first=st.integers(0, 1200),
    rows=st.integers(1, 12),
    times=st.lists(st.floats(), min_size=12, max_size=12),
    states=st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=80),
)
@example(first=5, rows=1, times=[0.0] * 12, states=[(0.0, 5e-324), (1e17, np.inf), (-0.0, np.nan)] * 4)  # pid 9 -> 10
@example(first=297, rows=3, times=[0.0, 0.5, 1e-5] + [0.0] * 9, states=[(1.5, 1e300)] * 6)  # pid 99 -> 100
def test_csv_rows_equal_a_per_row_reference(first, rows, times, states):
    # a block that may start mid-path and span pid widths, z and r any doubles
    z, r = np.array(states).T.copy()
    text = csv_rows(first, rows, float_cells(np.array(times[:rows])), z, r)
    want = "".join(
        "%d,%s,%.17g,%.17g\n" % (k // rows, "%.17g" % times[k % rows], zk, rk)
        for k, (zk, rk) in enumerate(states, first)
    )
    assert text == want
    assert "\0" not in text

"""The CSV number text of sweeps: ``_g17``, the vectorized "%.17g", against
Python's ``b"%.17g" % x`` value by value."""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from noisecascade.sweeps import _FORMAT_CHUNK, _g17, _number_text

# the window's edges, where log10 can misplace the exponent and the layout
# switches between fixed and exponent notation, each with its neighbours, and
# the doubles nearest below each power of ten in the window, none of which
# rounds up to that power at 17 digits
EDGES = [
    v
    for x in (1e-6, 1e-5, 1e-4, 1e16, 1e17)
    for v in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))
] + [v for m in range(-6, 17) for v in (math.nextafter(float(f"1e{m}"), 0.0), float(f"1e{m}"))]
# 9.999999999999999e-05 and 1e-06, whose products with 10^(16-k) round to the
# window's edge from inside or outside, take the exact test; 99999999999999999.0
# is the double 1e17; 1 + j / 2^17 has 18 digits and ends in 5 for odd j, a tie
# at 17 digits
SPECIAL = [9.999999999999999e-05, 99999999999999999.0, 0.0]
TIES = [1.0 + j / 2**17 for j in range(1, 2**17, 2)]


def assert_matches_python(values):
    values = np.asarray(values, dtype=np.float64)
    got = _number_text(_g17, values)
    want = [b"%.17g" % v for v in values.tolist()]
    mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not mismatches, mismatches[:5]


def test_edges_ties_and_signed_zeros():
    values = EDGES + SPECIAL + TIES
    assert_matches_python(values + [-v for v in values])
    text = _number_text(_g17, np.array([0.0, -0.0, 1e-5, -0.00025, 100.0]))
    assert text.tolist() == [b"0", b"-0", b"1.0000000000000001e-05", b"-0.00025000000000000001", b"100"]


bit_patterns = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64)))


@given(st.lists(bit_patterns | st.floats(), max_size=40))
@example([math.nan, -math.inf, math.inf, 5e-324, -2.2250738585072014e-308, 1.5e-7, 2.5e17])
@example([float(np.array(0x7FF8000000000001, np.uint64).view(np.float64)), -0.0, 0.0])
def test_matches_python_on_any_bits(values):
    assert_matches_python(values)


def random_bit_patterns(seed, n=10**6):
    """Random signs and mantissas; three in four take a binary exponent in or
    near the window (2^-24 .. 2^59), the rest any exponent, NaN and inf included."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    exponent = rng.integers(1023 - 24, 1023 + 60, n).astype(np.uint64)
    windowed = (bits & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
    bits = np.where(np.arange(n) % 4 == 0, bits, windowed)
    assert n > 100 * _FORMAT_CHUNK  # many chunks
    return bits.view(np.float64)


def test_a_million_random_bit_patterns():
    assert_matches_python(random_bit_patterns(20261018))

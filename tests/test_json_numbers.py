"""The JSON number text of sweeps: ``_repr17``, the vectorized shortest
round-trip digits, against ``json.dumps`` and ``float.__repr__`` value by
value, and the JSON table of ``emit`` against json.dumps of dict records."""

import json
import math
from decimal import Decimal

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from test_csv_numbers import bit_patterns, random_bit_patterns
from test_sweeps_cli import NAN_PAYLOAD, STATUSES, emit_case, reference_emit

from noisecascade.sweeps import _number_text, _repr17, emit

# the window is 1e-6 <= |x| < 1e16: each power of ten from 1e-7 to 1e17, where
# the layout switches at 1e-4 (0.0001 and 9.999999999999999e-05) and 1e16
# (1e+16), with its neighbours
DECADES = [
    v
    for m in range(-7, 18)
    for v in (math.nextafter(float(f"1e{m}"), 0.0), float(f"1e{m}"),
              math.nextafter(float(f"1e{m}"), math.inf))
]
# a power of two has half the gap below that it has above; these are all of
# them in the window and one beyond each end
POWERS_OF_TWO = [
    v
    for e in range(-21, 55)
    for v in (math.nextafter(2.0**e, 0.0), 2.0**e, math.nextafter(2.0**e, math.inf))
]
# S ends in 5 between two shortest candidates: n + j/4 for odd j on
# [2^49, 1e15) (17th digit 1e-2, half-gap 6.25 of them) and n + j/8 on
# [2^46, 1e14) (half-gap 7.8); the even last digit wins
TIES = [float(n) + j / 4 for n in range(2**49, 2**49 + 400, 7) for j in (1, 3)]
TIES += [float(n) + j / 8 for n in range(2**46, 2**46 + 400, 7) for j in (1, 3, 5, 7)]


NON_FINITE = (b"NaN", b"Infinity", b"-Infinity")


def assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got = _number_text(_repr17, values)
    want = [json.dumps(v).encode() for v in values.tolist()]
    mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not mismatches, mismatches[:5]
    # the encoder writes float.__repr__ for every finite value
    finite = [repr(v).encode() for v in values[np.isfinite(values)].tolist()]
    assert [g for g, w in zip(got, want) if w not in NON_FINITE] == finite


def test_layout_switches_and_their_neighbours():
    assert_matches_repr(DECADES + [-v for v in DECADES])
    text = _number_text(_repr17, np.array([1e-6, 1e-5, 1e-4, math.nextafter(1e-4, 0.0), 1e16, 0.1]))
    assert text.tolist() == [b"1e-06", b"1e-05", b"0.0001", b"9.999999999999999e-05", b"1e+16", b"0.1"]


def test_integers_and_signed_zeros():
    values = [0.0, -0.0, 5.0, -5.0, 1500.0, 1e15, 9007199254740992.0, 1234567890123456.0]
    assert_matches_repr(values)
    text = _number_text(_repr17, np.array(values[:5]))
    assert text.tolist() == [b"0.0", b"-0.0", b"5.0", b"-5.0", b"1500.0"]


def test_every_power_of_two_in_the_window():
    assert_matches_repr(POWERS_OF_TWO + [-v for v in POWERS_OF_TWO])
    text = _number_text(_repr17, np.array([2.0**-20, 0.5, 2.0**40]))
    assert text.tolist() == [b"9.5367431640625e-07", b"0.5", b"1099511627776.0"]


def test_ties_go_to_the_even_digit():
    assert_matches_repr(TIES + [-v for v in TIES])
    assert all(int(repr(v)[-1]) % 2 == 0 for v in TIES)
    assert _number_text(_repr17, np.array([800548285439235.75])).tolist() == [b"800548285439235.8"]


def test_decade_rollover():
    # no value in the window rounds up to the next power of ten: each one there
    # is a double or lies below its nearest double; 1e-06, whose double lies
    # below 10^-6, takes the fallback
    for m in range(-5, 16):
        assert Decimal(float(f"1e{m}")) >= Decimal(f"1e{m}"), m
    assert Decimal(1e-6) < Decimal("1e-6")
    assert_matches_repr([1e-6, math.nextafter(1e-5, 0.0), 1e-5, 0.09999999999999999, 0.1])


def test_nan_and_infinities():
    negative_nan = float(np.array(0xFFF8000000000000, np.uint64).view(np.float64))
    values = [math.nan, NAN_PAYLOAD, negative_nan, math.inf, -math.inf]
    text = _number_text(_repr17, np.array(values))
    assert text.tolist() == [b"NaN", b"NaN", b"NaN", b"Infinity", b"-Infinity"]
    assert_matches_repr(values)


@given(st.lists(bit_patterns | st.floats(), max_size=40))
@example([5e-324, -2.2250738585072014e-308, 1.5e-7, 2.5e17, 1e300, 800548285439235.75])
def test_matches_repr_on_any_bits(values):
    assert_matches_repr(values)


def test_a_million_random_bit_patterns():
    assert_matches_repr(random_bit_patterns(20261019))


def test_json_table_matches_dict_records():
    # every value above in the Delta, n1 and eta3 columns of a JSON table
    values = np.array(DECADES + POWERS_OF_TWO + TIES[:40] + [0.0, -0.0, math.nan, math.inf, 5.0])
    values = np.concatenate([values, -values])
    rows = values.size // 3
    table = values[: 3 * rows].reshape(rows, 3)
    table[np.arange(table.size).reshape(rows, 3) % 7 == 0] = math.nan  # blank cells
    status = [STATUSES[i % 3] for i in range(rows)]
    cfg, result = emit_case("json", table, status)
    assert emit(result, cfg) == reference_emit(result, cfg)

"""Exact phase arithmetic: reduction, conversion, serialization."""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvqec.errors import NonRationalPhase
from cvqec.phases import (
    as_fraction,
    fraction_view,
    mod2,
    mod_power,
    numerators,
    phase_to_complex,
    rational_to_json,
)

fractions = st.fractions(min_value=-100, max_value=100, max_denominator=64)


def test_as_fraction_accepts_exact_inputs():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(7, 2)) == Fraction(7, 2)


def test_as_fraction_rejects_floats():
    with pytest.raises(NonRationalPhase):
        as_fraction(0.5)


@pytest.mark.parametrize(
    "raw, reduced",
    [
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(7, 2), Fraction(3, 2)),
        (Fraction(-1, 2), Fraction(3, 2)),
        (Fraction(-4), Fraction(0)),
        (Fraction(13, 4), Fraction(5, 4)),
    ],
)
def test_mod2_frozen_cases(raw, reduced):
    assert mod2(raw) == reduced


@given(fractions)
def test_mod2_lands_in_window_and_is_idempotent(x):
    r = mod2(x)
    assert 0 <= r < 2
    assert mod2(r) == r
    assert (x - r) % 2 == 0


@pytest.mark.parametrize(
    "phase, value",
    [
        (Fraction(0), 1 + 0j),
        (Fraction(1), -1 + 0j),
        (Fraction(1, 2), 1j),
        (Fraction(3, 2), -1j),
        (Fraction(1, 4), cmath.exp(1j * cmath.pi / 4)),
    ],
)
def test_phase_to_complex_oracles(phase, value):
    assert abs(phase_to_complex(phase) - value) < 1e-15


@given(fractions, fractions)
def test_phase_to_complex_is_multiplicative(a, b):
    lhs = phase_to_complex(mod2(a)) * phase_to_complex(mod2(b))
    rhs = phase_to_complex(mod2(a + b))
    assert abs(lhs - rhs) < 1e-12


def test_rational_json_carries_unit_tag():
    obj = rational_to_json(Fraction(3, 4), unit="pi")
    assert obj == {"num": 3, "den": 4, "unit": "pi"}


@pytest.mark.parametrize("start", [2**20 - 64, 2**40 - 64])
@pytest.mark.parametrize("N", [63, 64])
def test_s_and_t_phase_numerators_stay_exact_in_int64(N, start):
    # the T modulus 8 N^4 is about 1.3e8 here, while m**4 overflows int64 far below m = 2**20.
    # At N = 64 both moduli are powers of two, which a wrapped int64 product still respects,
    # so only the odd N = 63 shows an overflow.
    m = np.arange(start, start + 128)
    for power, den in ((2, 2 * N**2), (4, 4 * N**4)):
        got = fraction_view(mod_power(m, power, 2 * den), den)
        assert got == tuple(Fraction(int(x) ** power, den) % 2 for x in m)


def test_mod_power_refuses_moduli_whose_square_overflows():
    with pytest.raises(OverflowError):
        mod_power(np.arange(4), 2, 2**32)


def test_numerators_share_the_least_denominator():
    num, den = numerators([Fraction(1, 2), 3, Fraction(-5, 6)])
    assert den == 6 and num.dtype == np.int64 and num.tolist() == [3, 18, -5]
    num, den = numerators(np.arange(3, dtype=np.int32))
    assert den == 1 and num.dtype == np.int64 and num.tolist() == [0, 1, 2]
    with pytest.raises(NonRationalPhase):
        numerators([Fraction(1, 2), 0.5])

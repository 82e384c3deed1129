"""Exact angle and eigenvalue bookkeeping.

A single exact value (a comb tooth's phase, a gate amount) is a
`fractions.Fraction`; an exact diagonal is an int64 numerator array over one
integer denominator.  Phases are in units of pi, reduced into [0, 2).  Floats
appear only when a state or operator is materialized as a numpy array.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import NonRationalPhase

RationalLike = int | Fraction


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to Fraction; reject floats so nothing is silently rounded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise NonRationalPhase(f"expected an exact rational, got {value!r}")


def mod2(phase: RationalLike) -> Fraction:
    """Reduce a phase (units of pi) into [0, 2)."""
    return as_fraction(phase) % 2


def phase_to_complex(phase: RationalLike) -> complex:
    angle = math.pi * float(Fraction(phase))
    return complex(math.cos(angle), math.sin(angle))


def numerators(values: Iterable[RationalLike] | np.ndarray) -> tuple[np.ndarray, int]:
    """Rationals as int64 numerators over their least common denominator (1 for an int array)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.int64), 1
    fracs = [as_fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return np.array([f.numerator * (den // f.denominator) for f in fracs], dtype=np.int64), den


def mod_power(m: np.ndarray, power: int, modulus: int) -> np.ndarray:
    """m**power mod modulus, in int64.

    m is reduced first, since f(m + k) = f(m) mod k for an integer polynomial
    f, and so is every product, so none exceeds modulus**2.
    """
    if modulus**2 >= 2**63:
        raise OverflowError(f"modulus {modulus} is too large for int64 products")
    base = np.asarray(m, dtype=np.int64) % modulus
    out = np.ones_like(base) % modulus
    for _ in range(power):
        out = out * base % modulus
    return out


def fraction_view(num: np.ndarray, den: int) -> tuple[Fraction, ...]:
    """The Fraction view of numerators over one denominator."""
    return tuple(Fraction(n, den) for n in num.tolist())


def rational_to_json(value: Fraction, unit: str | None = None) -> dict:
    out = {"num": value.numerator, "den": value.denominator}
    if unit is not None:
        out["unit"] = unit
    return out

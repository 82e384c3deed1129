"""Exact angle and eigenvalue bookkeeping.

A single exact value (a comb tooth's phase, a gate amount) is a
`fractions.Fraction`; an exact diagonal is an int64 numerator array over one
integer denominator.  Phases are in units of pi, reduced into [0, 2).  Floats
appear only when a state or operator is materialized as a numpy array.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def as_ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) in least terms, building no Fraction; floats raise as in as_fraction."""
    if isinstance(value, (int, Fraction)):
        return value.as_integer_ratio()
    raise NonRationalPhase(f"expected an exact rational, got {value!r}")


def mod2(phase: RationalLike) -> Fraction:
    """Reduce a phase (units of pi) into [0, 2)."""
    return as_fraction(phase) % 2


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


def rational_to_json(num: int, den: int, unit: str | None = None) -> dict:
    """num / den (den > 0) in least terms, as JSON."""
    g = math.gcd(num, den)
    out = {"num": num // g, "den": den // g}
    if unit is not None:
        out["unit"] = unit
    return out

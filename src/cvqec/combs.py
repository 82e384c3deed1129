"""Momentum combs with exact rational arithmetic.

States here are formal combs of momentum eigenstates.  Support indices are
the raw momentum values (exact rationals); in the integer-spacing regime the
order-N code has codeword teeth at (2k+j)N.  Magnitudes are nonnegative
rationals and phases are rationals in units of pi, reduced into [0, 2), so
every gate action below is exact: there is no tolerance anywhere in this
module.

Gate amounts are given in logical units: a q-translation by r acquires phase
-r*(v/N)*pi at raw index v, and a p-translation by r shifts raw indices by
r*N.  Quadratic and quartic phase gates act through the logical index
l = v/N as l^2/2 and l^4/4 (units of pi).

A finite comb, of one mode or two, is a FiniteComb: integer numerators over
least common denominators, one form for every builder, gate, equality test
and JSON writer.  A periodic comb is a CombState holding a PeriodicSupport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Iterable, Sequence

from .errors import UnitMismatch
from .phases import RationalLike, as_fraction, as_ratio, mod2, rational_to_json


@dataclass(frozen=True)
class CombUnit:
    """Spacing descriptor: the code's base momentum step is scale*(sqrt pi)^exp.

    The integer-spacing regime of an order-N code is CombUnit(0, N): raw
    indices are dimensionless momentum values and one logical step spans N
    of them.
    """

    sqrt_pi_exp: int
    scale: Fraction

    def __post_init__(self):
        if self.sqrt_pi_exp not in (-1, 0, 1):
            raise ValueError("sqrt_pi_exp must be -1, 0, or 1")
        object.__setattr__(self, "scale", as_fraction(self.scale))
        if self.scale <= 0:
            raise ValueError("unit scale must be positive")


def bridge_unit(n_fold: int) -> CombUnit:
    return CombUnit(0, Fraction(n_fold))


@dataclass(frozen=True)
class PeriodicSupport:
    """Teeth at offset + t*period (t over all integers), uniform magnitude.

    Tooth t carries phase pattern[t mod len(pattern)].  Constructors keep
    the offset in [0, period) and the pattern its minimal cycle, which a
    global phase keeps too; comb_equal_up_to_phase relies on this form.
    """

    offset: Fraction
    period: int
    pattern: tuple[Fraction, ...]
    magnitude: Fraction = Fraction(1)


@dataclass(frozen=True)
class CombState:
    """A periodic comb; build it with periodic_comb or gkp_codeword, whose canonical form equality needs."""

    unit: CombUnit
    periodic: PeriodicSupport


@dataclass(frozen=True)
class FiniteComb:
    """A finite comb of one or two modes in one exact form.

    Build it with finite_comb, twomode_comb, gkp_codeword or product_comb.
    Tooth k's place is places[k] = (index per mode, magnitude) as integer
    numerators over place_dens, each coordinate's least common denominator,
    so equal places are equal integers; the places are in index order.  Its
    phase is phase_num[k] / den (units of pi), which the constructor reduces
    into [0, 2 den) over the least den, so equal combs are equal dataclasses.
    """

    units: tuple[CombUnit, ...]
    places: tuple[tuple[int, ...], ...]
    place_dens: tuple[int, ...]
    phase_num: tuple[int, ...]
    den: int

    def __post_init__(self):
        nums, den = _least([n % (2 * self.den) for n in self.phase_num], self.den)
        object.__setattr__(self, "phase_num", tuple(nums))
        object.__setattr__(self, "den", den)

    @property
    def unit(self) -> CombUnit:
        """A single-mode comb's unit."""
        if len(self.units) != 1:
            raise ValueError(f"a single-mode comb is needed, got a {len(self.units)}-mode comb")
        return self.units[0]


def _units(state: CombState | FiniteComb) -> tuple[CombUnit, ...]:
    return state.units if isinstance(state, FiniteComb) else (state.unit,)


def _least(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den over their least common denominator (1 for no values)."""
    g = math.gcd(den, *nums)
    return [n // g for n in nums], den // g


def _over_one_den(ratios: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Numerators over the least common denominator of (numerator, denominator) pairs in least terms."""
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _finite(units: tuple[CombUnit, ...], teeth: Iterable[Sequence[RationalLike]]) -> FiniteComb:
    """A finite comb from (index per mode, magnitude, phase) teeth in any order.

    Zero-magnitude teeth are dropped; indices must be distinct.
    """
    k = len(units)
    kept = []
    for tooth in teeth:
        ratios = [as_ratio(v) for v in tooth]
        if len(ratios) != k + 2:
            raise ValueError(f"a {k}-mode tooth has {k + 2} values, got {len(ratios)}")
        if ratios[k][0] < 0:
            raise ValueError("magnitudes must be nonnegative")
        if ratios[k][0]:
            kept.append(ratios)
    columns = [_over_one_den(column) for column in zip(*kept)] or [((), 1)] * (k + 2)
    *dens, den = (d for _, d in columns)
    rows = sorted(zip(*(nums for nums, _ in columns)))
    for a, b in zip(rows, rows[1:]):
        if a[:k] == b[:k]:
            index = ", ".join(str(Fraction(x, d)) for x, d in zip(a[:k], dens))
            raise ValueError(f"duplicate tooth index {'pair ' if k == 2 else ''}({index})")
    places, phase_num = tuple(row[:-1] for row in rows), [row[-1] for row in rows]
    return FiniteComb(tuple(units), places, tuple(dens), phase_num, den)


def finite_comb(unit: CombUnit, teeth: Iterable[tuple[RationalLike, RationalLike, RationalLike]]) -> FiniteComb:
    """Build a single-mode finite comb from (index, magnitude, phase) teeth in any order.

    Zero-magnitude teeth are dropped; indices must be distinct.
    """
    return _finite((unit,), teeth)


def twomode_comb(
    units: tuple[CombUnit, CombUnit],
    teeth: Iterable[tuple[RationalLike, RationalLike, RationalLike, RationalLike]],
) -> FiniteComb:
    """Build a finite two-mode comb from (index1, index2, magnitude, phase) teeth in any order.

    Zero-magnitude teeth are dropped; index pairs must be distinct.
    """
    return _finite(units, teeth)


def _minimal_cycle(pattern: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(pattern)
    for d in range(1, n):
        if n % d == 0 and all(pattern[i] == pattern[(i + d) % n] for i in range(n)):
            return tuple(pattern[:d])
    return tuple(pattern)


def periodic_comb(
    unit: CombUnit,
    offset: RationalLike,
    period: int,
    pattern: Sequence[RationalLike],
    magnitude: RationalLike = 1,
) -> CombState:
    """Build a periodic comb in canonical form (offset in [0, period), minimal pattern)."""
    if period <= 0:
        raise ValueError("period must be a positive integer")
    if not pattern:
        raise ValueError("pattern must be nonempty")
    mag = as_fraction(magnitude)
    if mag <= 0:
        raise ValueError("periodic magnitude must be positive")
    return _canonical_comb(unit, as_fraction(offset), period, [mod2(p) for p in pattern], mag)


def _canonical_comb(
    unit: CombUnit, offset: Fraction, period: int, cycle: Sequence[Fraction], mag: Fraction
) -> CombState:
    """periodic_comb for a nonempty cycle of Fractions already in [0, 2)."""
    b = offset.denominator
    # offset = shift * period + r / b with 0 <= r < period * b
    shift, r = divmod(offset.numerator, period * b)
    if shift:
        # tooth t of the canonical comb is tooth t - shift of the given one
        s = -shift % len(cycle)
        cycle = cycle[s:] + cycle[:s]
    return CombState(unit, periodic=PeriodicSupport(Fraction(r, b), period, _minimal_cycle(cycle), mag))


def _require_regime(state_unit: CombUnit, n_fold: int) -> None:
    if not (state_unit.sqrt_pi_exp == 0 and state_unit.scale == n_fold):
        raise UnitMismatch(
            f"state unit {state_unit} is not the integer-spacing regime of order {n_fold}"
        )


def gkp_codeword(n_fold: int, j: int, window: int | None = None) -> CombState | FiniteComb:
    """Order-N comb codeword: teeth at (2k+j)N, uniform magnitude, zero phase.

    window=None gives the periodic (infinite) comb; window=W keeps
    k = -W..W only.
    """
    if n_fold <= 0:
        raise ValueError("n_fold must be positive")
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    unit = bridge_unit(n_fold)
    if window is None:
        return periodic_comb(unit, j * n_fold, 2 * n_fold, [Fraction(0)])
    if window < 0:
        raise ValueError("window must be nonnegative")
    places = tuple(((2 * k + j) * n_fold, 1) for k in range(-window, window + 1))
    return FiniteComb((unit,), places, (1, 1), (0,) * len(places), 1)


# --- exact polynomial phase machinery for periodic supports ---------------


def _is_valid_period(row: Sequence[int], modulus: int, T: int) -> bool:
    # For delta = sum_j row[j] C(t, j) / den, den (delta(t+T) - delta(t)) has binomial-basis
    # coefficients sum_{j>i} row[j] C(T, j-i); it lies in 2 den Z at every integer t iff they do.
    n = len(row)
    return all(
        sum(row[j] * math.comb(T, j - i) for j in range(i + 1, n)) % modulus == 0
        for i in range(n - 1)
    )


def _phase_cycle_period(row: Sequence[int], modulus: int) -> int:
    """Least T >= 1 with delta(t+T) - delta(t) in 2Z for every integer t.

    delta(t) = sum_j row[j] C(t, j) / den with integer `row` and den =
    modulus / 2.  Let deg = len(row) - 1 and B = 2 den lcm(1, ..., deg).  B is
    a period: by Vandermonde, C(t+B, j) - C(t, j) = sum_{i>=1} C(B, i)
    C(t, j-i), and for 1 <= i <= deg, C(B, i) = (B/i) C(B-1, i-1) is a
    multiple of 2 den because i divides lcm(1, ..., deg).  So
    den (delta(t+B) - delta(t)) lies in 2 den Z.  The periods form a
    subgroup of Z: 0 is one, and for periods T and U, delta(t+T-U) - delta(t)
    = [delta((t-U)+T) - delta(t-U)] - [delta((t-U)+U) - delta(t-U)] lies in 2Z.
    That subgroup is dZ with d the least period, and B in dZ means d divides
    B.  So the first divisor of B, in ascending order, that passes
    `_is_valid_period` is the least period.
    """
    B = modulus * math.lcm(*range(1, len(row)))
    for T in range(1, B + 1):
        if B % T == 0 and _is_valid_period(row, modulus, T):
            return T
    raise RuntimeError("B failed the period test, which the proof in this docstring rules out")


# phase gates add coef * l**power (units of pi) at logical index l = v/N
_PHASE_GATES = {
    # comb Z adds -v/N at tooth v, which is +m/N at the level m = -v the bridge sends it to
    "Z": (Fraction(-1), 1),
    "stab_q": (Fraction(-2), 1),
    "S": (Fraction(1, 2), 2),
    "T": (Fraction(1, 4), 4),
}
# shift gates move every tooth by amount * N
_SHIFT_GATES = {"X": Fraction(1), "stab_p": Fraction(2)}


def _add_phases(state: FiniteComb, added: Iterable[int], scale: int) -> FiniteComb:
    """state with added[k] / scale (units of pi) on tooth k's phase; every place is kept."""
    den = math.lcm(state.den, scale)
    s, c = den // state.den, den // scale
    nums = [n * s + a * c for n, a in zip(state.phase_num, added)]
    return FiniteComb(state.units, state.places, state.place_dens, nums, den)


def _apply_phase(state: CombState | FiniteComb, n_fold: int, coef: Fraction, power: int):
    N = n_fold
    c, e = coef.numerator, coef.denominator
    if isinstance(state, FiniteComb):
        # at index x/d the gate adds c x^power / (e (d N)^power)
        d = state.place_dens[0]
        return _add_phases(state, [c * x**power for x, _ in state.places], e * (d * N) ** power)
    p = state.periodic
    # at offset a/b tooth t adds c (a + t period b)^power / (e (b N)^power): an integer Newton row, one gcd
    a, b = p.offset.numerator, p.offset.denominator
    values = [c * (a + t * p.period * b) ** power for t in range(power + 1)]
    newton = [
        sum((-1) ** (i - k) * math.comb(i, k) * values[k] for k in range(i + 1)) for i in range(power + 1)
    ]
    scale = e * (b * N) ** power
    g = math.gcd(scale, *newton)
    scale //= g
    # phases as integer numerators over one common denominator, mod 2 den
    den = math.lcm(scale, *(ph.denominator for ph in p.pattern))
    modulus = 2 * den
    row = [n // g * (den // scale) % modulus for n in newton]
    start = [ph.numerator * (den // ph.denominator) for ph in p.pattern]
    T = _phase_cycle_period(row, modulus)
    L = math.lcm(len(start), T)
    # den (Delta^i delta)(t) for t < L, from the constant top difference down: each level is
    # the running sum of the one above it, starting at its Newton coefficient
    vals = [row[-1]] * L
    for x in reversed(row[1:-1]):
        vals = [v % modulus for v in accumulate(vals[:-1], initial=x)]
    # the last level, den delta(t), plus the old pattern's numerators: one Fraction per tooth
    new_pattern = [
        Fraction((s + v) % modulus, den)
        for s, v in zip(start * (L // len(start)), accumulate(vals[:-1], initial=row[0]))
    ]
    return _canonical_comb(state.unit, p.offset, p.period, new_pattern, p.magnitude)


def _translate_p(state: CombState | FiniteComb, n_fold: int, r: Fraction):
    shift = r * n_fold
    if isinstance(state, FiniteComb):
        # x/d + a/b over their least common denominator; one shift for every tooth keeps their order
        (d, dm), (a, b) = state.place_dens, shift.as_integer_ratio()
        den = math.lcm(d, b)
        xs, den = _least([x * (den // d) + a * (den // b) for x, _ in state.places], den)
        places = tuple((x, m) for x, (_, m) in zip(xs, state.places))
        return FiniteComb(state.units, places, (den, dm), state.phase_num, state.den)
    p = state.periodic
    return _canonical_comb(state.unit, p.offset + shift, p.period, p.pattern, p.magnitude)


def gkp_apply(
    kind: str,
    state: CombState | FiniteComb,
    n_fold: int,
    amount: RationalLike | None = None,
):
    """Apply a comb gate exactly.

    Single-mode kinds: Z, S, T, X, stab_q, stab_p, translate_q, translate_p
    (the last two take `amount` in logical units).  CZ acts on a two-mode
    FiniteComb, adding l1 l2 (units of pi) at logical indices l = v/N.
    Amounts must be exact rationals; floats raise NonRationalPhase.
    """
    if amount is not None and kind in (*_PHASE_GATES, *_SHIFT_GATES, "CZ"):
        raise ValueError(f"{kind} takes no amount")
    units = _units(state)
    if (kind == "CZ") != (len(units) == 2):
        raise TypeError(f"{kind} does not act on a {len(units)}-mode comb")
    for unit in units:
        _require_regime(unit, n_fold)
    if kind == "CZ":
        # at indices x1/d1, x2/d2 CZ adds x1 x2 / (d1 d2 N^2)
        d1, d2, _ = state.place_dens
        return _add_phases(state, [x1 * x2 for x1, x2, _ in state.places], d1 * d2 * n_fold * n_fold)
    if kind in ("translate_q", "translate_p"):
        if amount is None:
            raise ValueError(f"{kind} requires amount")
        r = as_fraction(amount)
        return _apply_phase(state, n_fold, -r, 1) if kind == "translate_q" else _translate_p(state, n_fold, r)
    if kind in _PHASE_GATES:
        return _apply_phase(state, n_fold, *_PHASE_GATES[kind])
    if kind in _SHIFT_GATES:
        return _translate_p(state, n_fold, _SHIFT_GATES[kind])
    raise ValueError(f"unknown comb gate {kind!r}")


def comb_equal_up_to_phase(
    a: CombState | FiniteComb, b: CombState | FiniteComb
) -> tuple[bool, Fraction | None]:
    """Exact equality test modulo one global phase, for finite combs of any mode count and periodic combs.

    Returns (True, phase) with b = e^{i pi phase} a when the keys (places and
    magnitudes) coincide and every tooth's phase difference agrees, (True, 0)
    for no teeth and (False, None) otherwise.  Periodic combs compare at equal
    minimal cycle length, from the canonical tooth 0 (see PeriodicSupport); a
    periodic comb not in that form raises ValueError.
    """
    if _units(a) != _units(b):
        raise UnitMismatch("combs live in different unit regimes")
    if type(a) is not type(b):
        raise ValueError("support kinds differ")
    if isinstance(a, FiniteComb):
        # both keep their teeth in index order, so none is sorted
        forms = [((c.place_dens, c.places), c.phase_num, c.den) for c in (a, b)]
    else:
        for p in (a.periodic, b.periodic):
            in_period = 0 <= p.offset.numerator < p.period * p.offset.denominator  # 0 <= offset < period
            if not (in_period and len(_minimal_cycle(p.pattern)) == len(p.pattern)):
                raise ValueError("a periodic comb needs its canonical form; build it with periodic_comb")
        key = lambda p: (p.offset, p.period, p.magnitude, len(p.pattern))
        ratios = lambda p: [ph.as_integer_ratio() for ph in p.pattern]
        forms = [(key(p), *_over_one_den(ratios(p))) for p in (a.periodic, b.periodic)]
    (key_a, nums_a, den_a), (key_b, nums_b, den_b) = forms
    if key_a != key_b:
        return (False, None)
    den = math.lcm(den_a, den_b)
    sa, sb, modulus = den // den_a, den // den_b, 2 * den
    diffs = {(y * sb - x * sa) % modulus for x, y in zip(nums_a, nums_b)}
    if len(diffs) > 1:
        return (False, None)
    return (True, Fraction(diffs.pop() if diffs else 0, den))


def product_comb(a: FiniteComb, b: FiniteComb) -> FiniteComb:
    """Tensor product of two single-mode finite combs, in (index1, index2) order from the factors' orders."""
    if not (isinstance(a, FiniteComb) and isinstance(b, FiniteComb)):
        raise ValueError("product_comb needs finite combs")
    units = (a.unit, b.unit)
    if not (a.places and b.places):
        # no teeth: every place denominator is 1, whatever the factors' teeth
        return twomode_comb(units, [])
    (d1, da), (d2, db) = a.place_dens, b.place_dens
    pairs = list(product(a.places, b.places))
    mags, dm = _least([ma * mb for (_, ma), (_, mb) in pairs], da * db)
    places = tuple((x1, x2, m) for ((x1, _), (x2, _)), m in zip(pairs, mags))
    den = math.lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    phase_num = [x * sa + y * sb for x in a.phase_num for y in b.phase_num]
    return FiniteComb(units, places, (d1, d2, dm), phase_num, den)


# --- serialization ---------------------------------------------------------


def comb_to_json_dict(state: CombState | FiniteComb) -> dict:
    finite = isinstance(state, FiniteComb)
    out = {
        "unit": {
            "sqrtPiExp": state.unit.sqrt_pi_exp,
            "rational": rational_to_json(*state.unit.scale.as_integer_ratio()),
        },
        "kind": "finite" if finite else "periodic",
    }
    if finite:
        (d, dm), den = state.place_dens, state.den
        out["entries"] = [
            {
                "index": rational_to_json(x, d),
                "magnitude": rational_to_json(m, dm),
                "phase": rational_to_json(n, den, unit="pi"),
            }
            for (x, m), n in zip(state.places, state.phase_num)
        ]
    else:
        p = state.periodic
        out["offset"] = rational_to_json(*p.offset.as_integer_ratio())
        out["period"] = p.period
        out["pattern"] = [rational_to_json(*ph.as_integer_ratio(), unit="pi") for ph in p.pattern]
        out["magnitude"] = rational_to_json(*p.magnitude.as_integer_ratio())
    return out

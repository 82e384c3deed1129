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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import UnitMismatch
from .phases import RationalLike, as_fraction, mod2, rational_to_json


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
class CombTooth:
    index: Fraction
    magnitude: Fraction
    phase: Fraction


@dataclass(frozen=True)
class PeriodicSupport:
    """Teeth at offset + t*period (t over all integers), uniform magnitude.

    Tooth t carries phase pattern[t mod len(pattern)].  The pattern is any
    finite cycle; constructors reduce it to its minimal period.
    """

    offset: Fraction
    period: int
    pattern: tuple[Fraction, ...]
    magnitude: Fraction = Fraction(1)


@dataclass(frozen=True)
class CombState:
    unit: CombUnit
    entries: tuple[CombTooth, ...] | None = None
    periodic: PeriodicSupport | None = None

    def __post_init__(self):
        if (self.entries is None) == (self.periodic is None):
            raise ValueError("exactly one of entries/periodic must be given")

    @property
    def support_kind(self) -> str:
        return "finite" if self.entries is not None else "periodic"


@dataclass(frozen=True)
class TwoModeTooth:
    index1: Fraction
    index2: Fraction
    magnitude: Fraction
    phase: Fraction


@dataclass(frozen=True)
class TwoModeComb:
    """A finite two-mode comb in one exact form; build it with twomode_comb or product_comb.

    Tooth k's place is places[k] = (index1, index2, magnitude) as integer
    numerators over place_dens, each coordinate's least common denominator,
    so equal places are equal integers; the places are in (index1, index2)
    order.  Its phase is phase_num[k] / den (units of pi), with phase_num[k]
    in [0, 2 den).
    """

    units: tuple[CombUnit, CombUnit]
    places: tuple[tuple[int, int, int], ...]
    place_dens: tuple[int, int, int]
    phase_num: tuple[int, ...]
    den: int

    @property
    def entries(self) -> tuple[TwoModeTooth, ...]:
        """The teeth as TwoModeTooth records, built on each call."""
        d1, d2, dm = self.place_dens
        return tuple(
            TwoModeTooth(Fraction(x1, d1), Fraction(x2, d2), Fraction(m, dm), Fraction(n, self.den))
            for (x1, x2, m), n in zip(self.places, self.phase_num)
        )


def finite_comb(unit: CombUnit, teeth: Iterable[tuple[RationalLike, RationalLike, RationalLike]]) -> CombState:
    """Build a finite comb; zero-magnitude teeth are dropped, indices must be distinct."""
    cleaned = []
    for index, magnitude, phase in teeth:
        mag = as_fraction(magnitude)
        if mag < 0:
            raise ValueError("magnitudes must be nonnegative")
        if mag == 0:
            continue
        cleaned.append(CombTooth(as_fraction(index), mag, mod2(phase)))
    cleaned.sort(key=lambda t: t.index)
    for a, b in zip(cleaned, cleaned[1:]):
        if a.index == b.index:
            raise ValueError(f"duplicate tooth index {a.index}")
    return CombState(unit, entries=tuple(cleaned))


def _over_one_den(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The numerators of values over their least common denominator (1 for no values)."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def twomode_comb(
    units: tuple[CombUnit, CombUnit],
    teeth: Iterable[tuple[RationalLike, RationalLike, RationalLike, RationalLike]],
) -> TwoModeComb:
    """Build a finite two-mode comb from (index1, index2, magnitude, phase) teeth in any order.

    Zero-magnitude teeth are dropped; index pairs must be distinct.
    """
    cleaned = []
    for index1, index2, magnitude, phase in teeth:
        mag = as_fraction(magnitude)
        if mag < 0:
            raise ValueError("magnitudes must be nonnegative")
        if mag == 0:
            continue
        cleaned.append((as_fraction(index1), as_fraction(index2), mag, mod2(phase)))
    cleaned.sort(key=lambda t: t[:2])
    for a, b in zip(cleaned, cleaned[1:]):
        if a[:2] == b[:2]:
            raise ValueError(f"duplicate tooth index pair ({a[0]}, {a[1]})")
    (x1, d1), (x2, d2), (mags, dm), (nums, den) = (_over_one_den([t[k] for t in cleaned]) for k in range(4))
    return TwoModeComb(tuple(units), tuple(zip(x1, x2, mags)), (d1, d2, dm), tuple(nums), den)


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
    cycle = [p if type(p) is Fraction and 0 <= p.numerator < 2 * p.denominator else mod2(p) for p in pattern]
    return _canonical_comb(unit, as_fraction(offset), period, cycle, mag)


def _canonical_comb(
    unit: CombUnit, offset: Fraction, period: int, cycle: list[Fraction], mag: Fraction
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


def gkp_codeword(n_fold: int, j: int, window: int | None = None) -> CombState:
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
    teeth = [
        (Fraction((2 * k + j) * n_fold), Fraction(1), Fraction(0))
        for k in range(-window, window + 1)
    ]
    return finite_comb(unit, teeth)


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


def _add_phase(phase: Fraction, num: int, den: int) -> Fraction:
    """(phase + num/den) mod 2 from integer numerators, for den > 0."""
    d = phase.denominator * den
    return Fraction((phase.numerator * den + num * phase.denominator) % (2 * d), d)


def _apply_phase(state: CombState, n_fold: int, coef: Fraction, power: int) -> CombState:
    _require_regime(state.unit, n_fold)
    N = n_fold
    c, e = coef.numerator, coef.denominator
    if state.entries is not None:
        # a phase gate keeps every index and magnitude, so the teeth stay sorted and nonzero
        teeth = tuple(
            CombTooth(
                t.index,
                t.magnitude,
                _add_phase(t.phase, c * t.index.numerator**power, e * (t.index.denominator * N) ** power),
            )
            for t in state.entries
        )
        return CombState(state.unit, entries=teeth)
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


def _translate_p(state: CombState, n_fold: int, r: Fraction) -> CombState:
    _require_regime(state.unit, n_fold)
    shift = r * n_fold
    if state.entries is not None:
        # one shift for every tooth keeps their order
        teeth = tuple(CombTooth(t.index + shift, t.magnitude, t.phase) for t in state.entries)
        return CombState(state.unit, entries=teeth)
    p = state.periodic
    return periodic_comb(state.unit, p.offset + shift, p.period, p.pattern, p.magnitude)


def _apply_cz(state: TwoModeComb, n_fold: int) -> TwoModeComb:
    for u in state.units:
        _require_regime(u, n_fold)
    # at indices x1/d1, x2/d2 CZ adds x1 x2 / (d1 d2 N^2): over den, a multiple of d1 d2 N^2
    d1, d2, _ = state.place_dens
    den = math.lcm(state.den, d1 * d2 * n_fold * n_fold)
    s, c, modulus = den // state.den, den // (d1 * d2 * n_fold * n_fold), 2 * den
    phase_num = tuple(
        (n * s + x1 * x2 * c) % modulus for (x1, x2, _), n in zip(state.places, state.phase_num)
    )
    # CZ keeps every place, so the output shares the input's
    return TwoModeComb(state.units, state.places, state.place_dens, phase_num, den)


def gkp_apply(
    kind: str,
    state: CombState | TwoModeComb,
    n_fold: int,
    amount: RationalLike | None = None,
):
    """Apply a comb gate exactly.

    Single-mode kinds: Z, S, T, X, stab_q, stab_p, translate_q, translate_p
    (the last two take `amount` in logical units).  CZ acts on a TwoModeComb,
    adding l1 l2 (units of pi) at logical indices l = v/N.
    Amounts must be exact rationals; floats raise NonRationalPhase.
    """
    if amount is not None and kind in (*_PHASE_GATES, *_SHIFT_GATES, "CZ"):
        raise ValueError(f"{kind} takes no amount")
    if kind == "CZ":
        if not isinstance(state, TwoModeComb):
            raise TypeError("CZ needs a TwoModeComb")
        return _apply_cz(state, n_fold)
    if not isinstance(state, CombState):
        raise TypeError(f"{kind} needs a single-mode CombState")
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


def _equal_up_to_phase(
    places_a: object,
    places_b: object,
    phases_a: tuple[Sequence[int], int],
    phases_b: tuple[Sequence[int], int],
) -> tuple[bool, Fraction | None]:
    """(True, d) when the places agree and every tooth's phase_b - phase_a = d mod 2.

    The places, compared whole, hold the teeth's positions and magnitudes;
    the phases are (numerators, den), aligned tooth by tooth.  No teeth give
    (True, 0).
    """
    if places_a != places_b:
        return (False, None)
    (nums_a, den_a), (nums_b, den_b) = phases_a, phases_b
    den = math.lcm(den_a, den_b)
    sa, sb, modulus = den // den_a, den // den_b, 2 * den
    diffs = {(y * sb - x * sa) % modulus for x, y in zip(nums_a, nums_b)}
    if len(diffs) > 1:
        return (False, None)
    return (True, Fraction(diffs.pop() if diffs else 0, den))


def comb_equal_up_to_phase(a: CombState, b: CombState) -> tuple[bool, Fraction | None]:
    """Exact equality test modulo one global phase.

    Returns (True, phase) with b = e^{i pi phase} a when supports and
    magnitudes coincide and all phase differences agree; (False, None)
    otherwise.
    """
    if a.unit != b.unit:
        raise UnitMismatch("combs live in different unit regimes")
    if a.support_kind != b.support_kind:
        raise ValueError("support kinds differ")
    if a.entries is not None:
        place = lambda s: [(t.index, t.magnitude) for t in s.entries]
        phases = lambda s: _over_one_den([t.phase for t in s.entries])
        return _equal_up_to_phase(place(a), place(b), phases(a), phases(b))
    pa, pb = a.periodic, b.periodic
    (nums_a, den_a), (nums_b, den_b) = _over_one_den(pa.pattern), _over_one_den(pb.pattern)
    # both patterns over one span, a multiple of each length
    span = math.lcm(len(nums_a), len(nums_b))
    return _equal_up_to_phase(
        (pa.offset, pa.period, pa.magnitude),
        (pb.offset, pb.period, pb.magnitude),
        (nums_a * (span // len(nums_a)), den_a),
        (nums_b * (span // len(nums_b)), den_b),
    )


def twomode_equal_up_to_phase(a: TwoModeComb, b: TwoModeComb) -> tuple[bool, Fraction | None]:
    """comb_equal_up_to_phase for two-mode combs; both keep their teeth in one order, so none is sorted."""
    if a.units != b.units:
        raise UnitMismatch("two-mode combs live in different unit regimes")
    return _equal_up_to_phase(
        (a.place_dens, a.places), (b.place_dens, b.places), (a.phase_num, a.den), (b.phase_num, b.den)
    )


def _tooth_numerators(state: CombState) -> list[tuple[list[int], int]]:
    """A finite comb's indices, magnitudes and phases, each over its least common denominator."""
    return [_over_one_den([getattr(t, k) for t in state.entries]) for k in ("index", "magnitude", "phase")]


def product_comb(a: CombState, b: CombState) -> TwoModeComb:
    """Tensor product of two finite combs; each factor's index order gives (index1, index2) order."""
    if a.entries is None or b.entries is None:
        raise ValueError("product_comb needs finite combs")
    if not (a.entries and b.entries):
        # no teeth: every place denominator is 1, whatever the factors' teeth
        return twomode_comb((a.unit, b.unit), [])
    (x1, d1), (mags_a, da), (phases_a, pa) = _tooth_numerators(a)
    (x2, d2), (mags_b, db), (phases_b, pb) = _tooth_numerators(b)
    # ma mb / (da db) in least common terms: g = gcd(da db, gcd(mags_a) gcd(mags_b)) divides every
    # product, and g / gcd(g, gcd(mags_a)) divides gcd(mags_b), so each factor takes its part of g
    g = math.gcd(da * db, math.gcd(*mags_a) * math.gcd(*mags_b))
    ga = math.gcd(g, *mags_a)
    mags_a, mags_b = [m // ga for m in mags_a], [m // (g // ga) for m in mags_b]
    den = math.lcm(pa, pb)
    modulus, sa, sb = 2 * den, den // pa, den // pb
    places = tuple((i1, i2, ma * mb) for i1, ma in zip(x1, mags_a) for i2, mb in zip(x2, mags_b))
    phase_num = tuple((x * sa + y * sb) % modulus for x in phases_a for y in phases_b)
    return TwoModeComb((a.unit, b.unit), places, (d1, d2, da * db // g), phase_num, den)


def teeth_in_range(state: CombState, lo: int, hi: int) -> list[CombTooth]:
    """All teeth with lo <= index < hi, materialized as CombTooth records."""
    if state.entries is not None:
        return [t for t in state.entries if lo <= t.index < hi]
    p = state.periodic
    # offset + t * period >= x exactly when t >= ceil((x - offset) / period)
    first, stop = (math.ceil((x - p.offset) / p.period) for x in (lo, hi))
    L = len(p.pattern)
    return [CombTooth(p.offset + t * p.period, p.magnitude, p.pattern[t % L]) for t in range(first, stop)]


# --- serialization ---------------------------------------------------------


def comb_to_json_dict(state: CombState) -> dict:
    out = {
        "unit": {
            "sqrtPiExp": state.unit.sqrt_pi_exp,
            "rational": rational_to_json(state.unit.scale),
        },
        "kind": state.support_kind,
    }
    if state.entries is not None:
        out["entries"] = [
            {
                "index": rational_to_json(t.index),
                "magnitude": rational_to_json(t.magnitude),
                "phase": rational_to_json(t.phase, unit="pi"),
            }
            for t in state.entries
        ]
    else:
        p = state.periodic
        out["offset"] = rational_to_json(p.offset)
        out["period"] = p.period
        out["pattern"] = [rational_to_json(ph, unit="pi") for ph in p.pattern]
        out["magnitude"] = rational_to_json(p.magnitude)
    return out

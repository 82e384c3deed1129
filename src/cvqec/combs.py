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
    units: tuple[CombUnit, CombUnit]
    entries: tuple[TwoModeTooth, ...]


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
    N2 = n_fold * n_fold
    teeth = []
    for t in state.entries:
        i1, i2 = t.index1, t.index2
        phase = _add_phase(t.phase, i1.numerator * i2.numerator, i1.denominator * i2.denominator * N2)
        teeth.append(TwoModeTooth(i1, i2, t.magnitude, phase))
    return TwoModeComb(state.units, tuple(teeth))


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


def _equal_up_to_phase(a: Sequence[tuple], b: Sequence[tuple]) -> tuple[bool, Fraction | None]:
    """Aligned (place, phase) records: (True, d) when every place agrees and every pb - pa = d mod 2.

    A place holds a tooth's position and magnitude; no records give (True, 0).
    """
    if len(a) != len(b) or any(x[0] != y[0] for x, y in zip(a, b)):
        return (False, None)
    if not a:
        return (True, Fraction(0))
    first = b[0][1] - a[0][1]
    n, d = first.numerator, first.denominator
    for (_, pa), (_, pb) in zip(a, b):
        # pb - pa - n/d lies in 2Z
        da, db = pa.denominator, pb.denominator
        if (pb.numerator * da * d - pa.numerator * db * d - n * da * db) % (2 * da * db * d):
            return (False, None)
    return (True, first % 2)


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
        records = lambda s: [((t.index, t.magnitude), t.phase) for t in s.entries]
        return _equal_up_to_phase(records(a), records(b))
    span = math.lcm(len(a.periodic.pattern), len(b.periodic.pattern))

    def records(s: CombState) -> list[tuple]:
        p = s.periodic
        return [((p.offset, p.period, p.magnitude), p.pattern[t % len(p.pattern)]) for t in range(span)]

    return _equal_up_to_phase(records(a), records(b))


def twomode_equal_up_to_phase(a: TwoModeComb, b: TwoModeComb) -> tuple[bool, Fraction | None]:
    if a.units != b.units:
        raise UnitMismatch("two-mode combs live in different unit regimes")
    key = lambda t: (t.index1, t.index2)
    records = lambda s: [((*key(t), t.magnitude), t.phase) for t in sorted(s.entries, key=key)]
    return _equal_up_to_phase(records(a), records(b))


def product_comb(a: CombState, b: CombState) -> TwoModeComb:
    """Tensor product of two finite combs."""
    if a.entries is None or b.entries is None:
        raise ValueError("product_comb needs finite combs")
    teeth = []
    for ta in a.entries:
        for tb in b.entries:
            phase = _add_phase(ta.phase, tb.phase.numerator, tb.phase.denominator)
            teeth.append(TwoModeTooth(ta.index, tb.index, ta.magnitude * tb.magnitude, phase))
    return TwoModeComb((a.unit, b.unit), tuple(teeth))


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

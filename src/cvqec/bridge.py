"""Semi-unitary bridge between momentum combs and truncated Fock states.

The bridge Upsilon keeps exactly the comb teeth sitting on integers v in
(-D, 0] and sends tooth v to the Fock state |-v>.  Everything else is
dropped and accounted for.  Conjugating translations through the bridge
gives the rotation-side gates, and this one convention makes every comb
gate intertwine exactly, Upsilon(g c) = g_rot Upsilon(c), on any comb in
the integer-spacing regime of order N (`combs.bridge_unit`):

- `translate_q` by r adds the phase -r v/N = r m/N at level m = -v, the
  rotation e^{i pi r m/N}; so comb Z is rotation Z, and S and T, even in v,
  are the rotation S and T.
- `translate_p` by an integer k moves tooth v to v + kN, which lowers the
  level by kN; so comb X is rotation X, the lowering shift by N.  A
  fractional p-translation has no Fock-side support at all.
- CZ adds l1 l2 at logical indices l = v/N, which is m m'/N^2 on |m, m'>:
  the two-mode rotation CROT (`fock.crot`).

A lowering shift by s brings teeth from levels [D, D + s) into the window,
and a raising one teeth from v in [1, s]; they are the only teeth for which
the two sides differ.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .combs import CombState, FiniteComb, bridge_unit, finite_comb, gkp_apply
from .errors import InvalidDimension
from .fock import FockOperator, FockVector, fock_operator, rot_logical_op
from .phases import RationalLike, as_fraction, mod2, phase_to_complex

ROTATION_SAMPLES = 8  # sampled rotation errors in the mapped error set


def _levels(state: CombState | FiniteComb, D: int) -> tuple[dict[int, tuple[Fraction, Fraction]], float]:
    """Upsilon(state) exactly, as level -> (magnitude, phase), and the squared mass it drops.

    The tooth on an integer v with -v in [0, D) goes to level -v; every other tooth is dropped.
    A finite comb is read from its integer places; a periodic comb's window teeth are listed
    from its integer offset and period, and a fractional offset puts no tooth on an integer.
    A two-mode comb is refused with ValueError.
    """
    if isinstance(state, FiniteComb):
        state.unit  # raises for a two-mode comb
        (d, dm), levels, dropped = state.place_dens, {}, 0
        for (x, m), n in zip(state.places, state.phase_num):
            # index x/d is an integer when d divides x
            if x % d == 0 and -D * d < x <= 0:
                levels[-x // d] = (Fraction(m, dm), Fraction(n, state.den))
            else:
                dropped += m * m
        return levels, dropped / (dm * dm)
    # a periodic comb always has infinitely many teeth outside the window
    p = state.periodic
    if p.offset.denominator != 1:
        return {}, math.inf
    # tooth t sits at o + t period, in (-D, 0] for ceil((1 - D - o) / period) <= t <= floor(-o / period)
    o, L = p.offset.numerator, len(p.pattern)
    ts = range(-((D - 1 + o) // p.period), -o // p.period + 1)
    return {-(o + t * p.period): (p.magnitude, p.pattern[t % L]) for t in ts}, math.inf


def upsilon_apply(state: CombState | FiniteComb, D: int) -> tuple[FockVector, float]:
    """Map a comb to the truncated Fock space.

    The tooth on integer v with -v in [0, D) becomes the amplitude of |-v>,
    magnitude and phase preserved; the squared magnitude of everything else
    is returned as dropped mass (infinite for periodic combs).  A comb with
    no surviving teeth maps to the zero vector.
    """
    if D < 1:
        raise InvalidDimension("D must be >= 1")
    levels, dropped = _levels(state, D)
    amps = np.zeros(D, dtype=complex)
    for m, (magnitude, phase) in levels.items():
        amps[m] = float(magnitude) * phase_to_complex(phase)
    return FockVector(D, amps), dropped


def omega_map_translation(kind: str, amount: RationalLike, n_fold: int, dim: int) -> FockOperator:
    """Image of a translation under the bridge.

    kind="q": amount a (as a rational multiple of pi per unit index) gives
    the diagonal phase operator e^{i pi a m}.  kind="p": an integer amount k
    gives the unit band at offset k, the number shift by |k| (lowering for
    k > 0); fractional amounts give the exact zero operator, since no
    integer tooth maps onto another.
    """
    if n_fold < 1 or dim < 1:
        raise InvalidDimension("n_fold and dim must be >= 1")
    a = as_fraction(amount)
    if kind == "q":
        return fock_operator("rotation", dim, theta=a)
    if kind == "p":
        if a.denominator != 1:
            return FockOperator(dim, np.zeros(dim), "band")
        k = a.numerator
        if abs(k) >= dim:
            raise InvalidDimension(f"shift {k} does not fit in dimension {dim}")
        return FockOperator(dim, np.ones(dim - abs(k)), "band", offset=k)
    raise ValueError(f"unknown translation kind {kind!r}")


def rotation_sample_angles(n_fold: int) -> list[Fraction]:
    """ROTATION_SAMPLES evenly spaced angles strictly inside (0, pi/N), as rationals of pi."""
    return [Fraction(s, n_fold * (ROTATION_SAMPLES + 1)) for s in range(1, ROTATION_SAMPLES + 1)]


def map_error_generators(n_fold: int, dim: int) -> tuple[dict[str, FockOperator], dict[str, FockOperator]]:
    """Mapped error set: the bridge images of the comb translations below the code order.

    "gamma_l" / "gamma_l_dag" for l = 1..N-1 are the images of the
    p-translations by l and -l, the number shifts lowering and raising by l;
    "rotation_s" is the image of the q-translation by the s-th sampled
    angle, a rotation that carries its exact angle.
    """
    if dim <= n_fold:
        raise InvalidDimension("dim must exceed n_fold")
    shifts: dict[str, FockOperator] = {}
    for l in range(1, n_fold):
        shifts[f"gamma_{l}"] = omega_map_translation("p", l, n_fold, dim)
        shifts[f"gamma_{l}_dag"] = omega_map_translation("p", -l, n_fold, dim)
    angles = enumerate(rotation_sample_angles(n_fold), start=1)
    rotations = {f"rotation_{s}": omega_map_translation("q", theta, n_fold, dim) for s, theta in angles}
    return shifts, rotations


def _rot_image(op: FockOperator, levels: dict) -> dict | None:
    """op applied exactly to `levels`, from its exact phases or unit band; None for any other op."""
    if op.phase_num is None and not (op.structure == "band" and np.all(op.data == 1)):
        return None
    out = {}
    for m, (magnitude, phase) in levels.items():
        if 0 <= m - op.offset < op.dim:
            turn = 0 if op.phase_num is None else Fraction(int(op.phase_num[m]), op.den)
            out[m - op.offset] = (magnitude, mod2(phase + turn))
    return out


def _phase_gap(got: dict, want: dict | None) -> float:
    """Largest phase distance on the circle, in units of pi; inf when the levels or magnitudes differ."""
    if want is None or {m: a for m, (a, _) in got.items()} != {m: a for m, (a, _) in want.items()}:
        return math.inf
    gaps = [mod2(got[m][1] - want[m][1]) for m in got]
    return float(max(min(g, 2 - g) for g in gaps))


def bridge_gate_table(n_fold: int, dim: int) -> dict[str, dict]:
    """Per-gate check that the comb gate and the rotation-side gate intertwine through Upsilon.

    On a fixed comb with one tooth on each of levels N and N+1 below `dim`
    (v = -m, phase m/4), Upsilon(g_comb c) is compared with
    g_rot Upsilon(c) exactly.  Values are {exact_match, max_phase_diff}:
    the largest phase difference on the circle in units of pi (0.0 on
    exact match), or inf when the levels or magnitudes differ or the
    rotation-side X is not a unit band.
    """
    if n_fold < 1:
        raise InvalidDimension("n_fold must be >= 1")
    if dim < 2 * n_fold:
        raise InvalidDimension("dim must be at least 2*n_fold")
    N = n_fold
    comb = finite_comb(bridge_unit(N), [(-m, 1, Fraction(m, 4)) for m in (N, N + 1) if m < dim])
    before = _levels(comb, dim)[0]
    table: dict[str, dict] = {}
    for gate in ("Z", "S", "T", "X"):
        got = _levels(gkp_apply(gate, comb, N), dim)[0]
        want = _rot_image(rot_logical_op(gate, N, dim), before)
        diff = 0.0 if got == want else _phase_gap(got, want)
        table[gate] = {"exact_match": diff == 0.0, "max_phase_diff": diff}
    return table

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

from .combs import CombState, bridge_unit, finite_comb, gkp_apply, teeth_in_range
from .errors import InvalidDimension
from .fock import FockOperator, FockVector, adjoint, fock_operator, rot_logical_op
from .phases import RationalLike, as_fraction, mod2, phase_to_complex

ROTATION_SAMPLES = 8  # sampled rotation errors in the mapped error set


def _integer_teeth(state: CombState, D: int):
    """Teeth on integers v with -v in [0, D), plus the squared mass elsewhere."""
    if state.entries is not None:
        kept, dropped = [], Fraction(0)
        for t in state.entries:
            if t.index.denominator == 1 and -D < t.index <= 0:
                kept.append(t)
            else:
                dropped += t.magnitude * t.magnitude
        return kept, float(dropped)
    kept = [
        t
        for t in teeth_in_range(state, 1 - D, 1)
        if t.index.denominator == 1
    ]
    # a periodic comb always has infinitely many teeth outside the window
    return kept, math.inf


def upsilon_apply(state: CombState, D: int) -> tuple[FockVector, float]:
    """Map a comb to the truncated Fock space.

    The tooth on integer v with -v in [0, D) becomes the amplitude of |-v>,
    magnitude and phase preserved; the squared magnitude of everything else
    is returned as dropped mass (infinite for periodic combs).  A comb with
    no surviving teeth maps to the zero vector.
    """
    if D < 1:
        raise InvalidDimension("D must be >= 1")
    kept, dropped = _integer_teeth(state, D)
    amps = np.zeros(D, dtype=complex)
    for t in kept:
        amps[-int(t.index)] = float(t.magnitude) * phase_to_complex(t.phase)
    return FockVector(D, amps), dropped


def upsilon_project(state: CombState, D: int) -> CombState:
    """The comb-side projector picking out the integer teeth v with -v in [0, D)."""
    if D < 1:
        raise InvalidDimension("D must be >= 1")
    kept, _ = _integer_teeth(state, D)
    return finite_comb(state.unit, [(t.index, t.magnitude, t.phase) for t in kept])


def upsilon_matrix(state: CombState, D: int) -> np.ndarray:
    """0/1 selection matrix from the comb's finite tooth list into Fock space.

    Column order follows the tooth list; row -v is hit when tooth t sits on
    an integer v with -v in [0, D).
    """
    if state.entries is None:
        raise ValueError("matrix form needs a finite comb")
    M = np.zeros((D, len(state.entries)), dtype=np.int64)
    for col, t in enumerate(state.entries):
        if t.index.denominator == 1 and -D < t.index <= 0:
            M[-int(t.index), col] = 1
    return M


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
    """Mapped error set: the number shifts below the code order, and the sampled rotations.

    The shifts are keyed "gamma_l" / "gamma_l_dag" for l = 1..N-1, the
    rotations "rotation_s" for the s-th sampled angle; rotation operators
    carry their exact angle.
    """
    if dim <= n_fold:
        raise InvalidDimension("dim must exceed n_fold")
    shifts: dict[str, FockOperator] = {}
    for l in range(1, n_fold):
        shift = fock_operator("number_shift", dim, shift=l)
        shifts[f"gamma_{l}"] = shift
        shifts[f"gamma_{l}_dag"] = adjoint(shift)
    angles = enumerate(rotation_sample_angles(n_fold), start=1)
    rotations = {f"rotation_{s}": fock_operator("rotation", dim, theta=theta) for s, theta in angles}
    return shifts, rotations


def _levels(state: CombState, D: int) -> dict[int, tuple[Fraction, Fraction]]:
    """Upsilon(state) exactly: level -> (magnitude, phase) of the kept teeth."""
    return {-int(t.index): (t.magnitude, t.phase) for t in _integer_teeth(state, D)[0]}


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
    before = _levels(comb, dim)
    table: dict[str, dict] = {}
    for gate in ("Z", "S", "T", "X"):
        got = _levels(gkp_apply(gate, comb, N), dim)
        want = _rot_image(rot_logical_op(gate, N, dim), before)
        diff = 0.0 if got == want else _phase_gap(got, want)
        table[gate] = {"exact_match": diff == 0.0, "max_phase_diff": diff}
    return table

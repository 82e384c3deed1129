"""Semi-unitary bridge between momentum combs and truncated Fock states.

The bridge Upsilon keeps exactly the teeth of a single-mode finite comb
that sit on integers v in (-D, 0] and sends tooth v to the Fock state |-v>;
every other tooth is dropped.  Conjugating translations through the bridge
gives the rotation-side gates, and this one convention makes every comb
gate intertwine exactly, Upsilon(g c) = g_rot Upsilon(c), on any comb in
the integer-spacing regime of order N (`combs.bridge_unit`):

- `translate_q` by r adds the phase -r v/N = r m/N at level m = -v, the
  rotation e^{i pi r m/N}; so comb Z is rotation Z, and S and T, even in v,
  are the rotation S and T.
- `translate_p` by an integer k moves tooth v to v + kN, which lowers the
  level by kN; so comb X is rotation X, the lowering shift by N.
- CZ adds l1 l2 at logical indices l = v/N, which is m m'/N^2 on |m, m'>:
  the two-mode rotation CROT (`fock.crot`).

A lowering shift by s brings teeth from levels [D, D + s) into the window,
and a raising one teeth from v in [1, s]; they are the only teeth for which
the two sides differ.  `fock.fock_operator` builds the image of a
translation from its raw amount: "rotation" for a q-translation, "shift" for
a p-translation by an integer.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .combs import FiniteComb, bridge_unit, finite_comb, gkp_apply
from .errors import InvalidDimension
from .fock import FockOperator, rot_logical_op
from .phases import mod2

ROTATION_SAMPLES = 8  # sampled rotation errors in the mapped error set


def _levels(state: FiniteComb, D: int) -> dict[int, tuple[Fraction, Fraction]]:
    """Upsilon(state) exactly, as level -> (magnitude, phase), for a single-mode finite comb.

    The tooth on an integer v with -v in [0, D) goes to level -v; every other tooth is dropped.
    """
    (d, dm), levels = state.place_dens, {}
    for (x, m), n in zip(state.places, state.phase_num):
        # index x/d is an integer when d divides x
        if x % d == 0 and -D * d < x <= 0:
            levels[-x // d] = (Fraction(m, dm), Fraction(n, state.den))
    return levels


def rotation_sample_angles(n_fold: int) -> list[Fraction]:
    """ROTATION_SAMPLES evenly spaced angles strictly inside (0, pi/N), as rationals of pi."""
    return [Fraction(s, n_fold * (ROTATION_SAMPLES + 1)) for s in range(1, ROTATION_SAMPLES + 1)]


def map_error_generators(n_fold: int, dim: int) -> tuple[dict[str, int], dict[str, Fraction]]:
    """Mapped error set, as the raw amounts of the comb translations below the code order.

    "gamma_l" / "gamma_l_dag" for l = 1..N-1 are the p-translations by l and
    -l, whose images are the number shifts lowering and raising by l;
    "rotation_s" is the q-translation by the s-th sampled angle, whose image
    is a rotation that carries its exact angle.  `fock_operator("shift", dim, l)`
    and `fock_operator("rotation", dim, theta)` build the images.
    """
    if not 1 <= n_fold < dim:
        raise InvalidDimension(f"need 1 <= n_fold < dim, got n_fold={n_fold}, dim={dim}")
    shifts: dict[str, int] = {}
    for l in range(1, n_fold):
        shifts[f"gamma_{l}"], shifts[f"gamma_{l}_dag"] = l, -l
    angles = {f"rotation_{s}": theta for s, theta in enumerate(rotation_sample_angles(n_fold), start=1)}
    return shifts, angles


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

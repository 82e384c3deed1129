"""Semi-unitary bridge between momentum combs and truncated Fock states.

The bridge keeps exactly the comb teeth sitting on integer indices in
[0, D) and sends index v to the Fock state |v>.  Everything else is dropped
and accounted for.  Conjugating translations through the bridge gives the
rotation-side gates: a q-translation becomes a diagonal rotation, an integer
p-translation becomes a number shift, and a fractional p-translation has no
Fock-side support at all.

Conventions: the comb regime for order N (`combs.bridge_unit`) uses a
positive lattice constant, and a p-translation by +N lowers the Fock
index by N, so that translation by one logical unit sends codeword 0 to
codeword 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .combs import CombState, finite_comb, teeth_in_range
from .errors import InvalidDimension
from .fock import (
    FockOperator,
    FockVector,
    adjoint,
    diagonal_phase_operator,
    fock_operator,
    identity,
    max_phase_gap,
    rot_logical_op,
)
from .phases import RationalLike, as_fraction, mod_power, phase_to_complex


def _integer_teeth(state: CombState, D: int):
    """Teeth on integer indices in [0, D), plus the squared mass elsewhere."""
    if state.entries is not None:
        kept, dropped = [], Fraction(0)
        for t in state.entries:
            if t.index.denominator == 1 and 0 <= t.index < D:
                kept.append(t)
            else:
                dropped += t.magnitude * t.magnitude
        return kept, float(dropped)
    kept = [
        t
        for t in teeth_in_range(state, 0, D)
        if t.index.denominator == 1
    ]
    # a periodic comb always has infinitely many teeth outside the window
    return kept, math.inf


def upsilon_apply(state: CombState, D: int, normalize: bool = False) -> tuple[FockVector, float]:
    """Map a comb to the truncated Fock space.

    Integer-index teeth in [0, D) become Fock amplitudes with magnitude and
    phase preserved; the squared magnitude of everything else is returned as
    dropped mass (infinite for periodic combs).  A comb with no surviving
    teeth maps to the zero vector.
    """
    if D < 1:
        raise InvalidDimension("D must be >= 1")
    kept, dropped = _integer_teeth(state, D)
    amps = np.zeros(D, dtype=complex)
    for t in kept:
        amps[int(t.index)] = float(t.magnitude) * phase_to_complex(t.phase)
    vec = FockVector(D, amps)
    if normalize and not vec.is_zero:
        vec = vec.normalized_copy()
    return vec, dropped


def upsilon_project(state: CombState, D: int) -> CombState:
    """The comb-side projector picking out integer support in [0, D)."""
    if D < 1:
        raise InvalidDimension("D must be >= 1")
    kept, _ = _integer_teeth(state, D)
    return finite_comb(state.unit, [(t.index, t.magnitude, t.phase) for t in kept])


def upsilon_matrix(state: CombState, D: int) -> np.ndarray:
    """0/1 selection matrix from the comb's finite tooth list into Fock space.

    Column order follows the tooth list; row v is hit when tooth t sits on
    integer index v in [0, D).
    """
    if state.entries is None:
        raise ValueError("matrix form needs a finite comb")
    M = np.zeros((D, len(state.entries)), dtype=np.int64)
    for col, t in enumerate(state.entries):
        if t.index.denominator == 1 and 0 <= t.index < D:
            M[int(t.index), col] = 1
    return M


def omega_map_translation(kind: str, amount: RationalLike, n_fold: int, dim: int) -> FockOperator:
    """Image of a translation under the bridge.

    kind="q": amount a (as a rational multiple of pi per unit index) gives
    the diagonal phase operator e^{i pi a m}.  kind="p": integer amounts give
    the number shift by |amount| (lowering for positive amounts); fractional
    amounts give the exact zero operator, since no integer tooth maps onto
    another.
    """
    if n_fold < 1 or dim < 1:
        raise InvalidDimension("n_fold and dim must be >= 1")
    a = as_fraction(amount)
    if kind == "q":
        return fock_operator("rotation", dim, theta=a)
    if kind == "p":
        if a.denominator != 1:
            return FockOperator(dim, np.zeros(dim), "diagonal")
        steps = a.numerator
        if steps == 0:
            return identity(dim)
        if abs(steps) >= dim:
            raise InvalidDimension(f"shift {steps} does not fit in dimension {dim}")
        op = fock_operator("number_shift", dim, shift=abs(steps))
        return op if steps > 0 else adjoint(op)
    raise ValueError(f"unknown translation kind {kind!r}")


def _bridged_gates(n_fold: int, dim: int) -> dict[str, FockOperator]:
    """Z, S, T from the momentum phase polynomials at m/N; X from the one-unit p-translation."""
    if n_fold < 1:
        raise InvalidDimension("n_fold must be >= 1")
    if dim < 2 * n_fold:
        raise InvalidDimension("dim must be at least 2*n_fold")
    N = n_fold
    m = np.arange(dim)

    def diag_from(coef: Fraction, power: int) -> FockOperator:
        # the phase coef * l**power at l = m / N is coef.numerator * m**power / den
        den = coef.denominator * N**power
        return diagonal_phase_operator(coef.numerator * mod_power(m, power, 2 * den), den=den)

    return {
        "Z": diag_from(Fraction(1), 1),
        "S": diag_from(Fraction(1, 2), 2),
        "T": diag_from(Fraction(1, 4), 4),
        "X": omega_map_translation("p", N, N, dim),
    }


def derive_logical_set(n_fold: int, dim: int) -> dict[str, FockOperator]:
    """Fock-side logical gates obtained by conjugating comb gates through the bridge.

    Z, S, T come from the polynomial momentum phases evaluated at logical
    index m/N; X is the mapped one-unit p-translation; H is the integral-kernel
    form with entries (2 pi)^{-1/2} e^{-i pi m m' / N^2}.
    """
    ops = _bridged_gates(n_fold, dim)
    ops["H"] = rot_logical_op("H", n_fold, dim)
    return ops


def rotation_sample_angles(n_fold: int, samples: int = 8) -> list[Fraction]:
    """Evenly spaced angles strictly inside (0, pi/N), as rationals of pi."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return [Fraction(s, n_fold * (samples + 1)) for s in range(1, samples + 1)]


def map_error_generators(n_fold: int, dim: int, rotation_samples: int = 8) -> dict[str, FockOperator]:
    """Mapped error set: number shifts below the code order plus sampled rotations.

    Keys are "gamma_l" / "gamma_l_dag" for l = 1..N-1 and "rotation_s" for
    the s-th sampled angle; rotation operators carry their exact angle.
    """
    if dim <= n_fold:
        raise InvalidDimension("dim must exceed n_fold")
    out: dict[str, FockOperator] = {}
    for l in range(1, n_fold):
        shift = fock_operator("number_shift", dim, shift=l)
        out[f"gamma_{l}"] = shift
        out[f"gamma_{l}_dag"] = adjoint(shift)
    for s, theta in enumerate(rotation_sample_angles(n_fold, rotation_samples), start=1):
        out[f"rotation_{s}"] = fock_operator("rotation", dim, theta=theta)
    return out


def bridge_gate_table(n_fold: int, dim: int) -> dict[str, dict]:
    """Per-gate comparison of bridged operators against the rotation-side ones.

    Diagonal gates compare as exact rational phases; X compares its band
    entrywise.  Values are {exact_match, max_phase_diff} with the phase diff
    measured on the circle in units of pi (0.0 on exact match).

    Both sides build Z, S, T as m^k mod 2kN^k over kN^k, and X as the number
    shift by N, so every row matches by construction for every N and D: the
    table checks that the two derivations stay in step, not the physics.
    """
    derived = _bridged_gates(n_fold, dim)
    table: dict[str, dict] = {}
    for gate in ("Z", "S", "T"):
        worst = max_phase_gap(derived[gate], rot_logical_op(gate, n_fold, dim))
        table[gate] = {"exact_match": worst == 0, "max_phase_diff": float(worst)}
    ref_x = rot_logical_op("X", n_fold, dim)
    got_x = derived["X"]
    same_band = (got_x.structure, got_x.shift) == (ref_x.structure, ref_x.shift)
    diff = float(np.max(np.abs(got_x.data - ref_x.data))) if same_band else math.inf
    table["X"] = {"exact_match": diff == 0.0, "max_phase_diff": diff}
    return table

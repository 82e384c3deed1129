"""Comb-to-Fock bridge: truncation map, gate transport, error transport."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import cz_crot_mismatches
from cvqec import bridge, combs
from cvqec.bridge import (
    ROTATION_SAMPLES,
    bridge_gate_table,
    map_error_generators,
    omega_map_translation,
    rotation_sample_angles,
    upsilon_apply,
)
from cvqec.combs import bridge_unit, finite_comb, gkp_apply, gkp_codeword
from cvqec.errors import InvalidDimension, NonRationalPhase
from cvqec.fock import adjoint, fock_operator, rot_logical_op
from cvqec.phases import mod2

F = Fraction


# --- truncation map -----------------------------------------------------------


def test_integer_teeth_become_amplitudes():
    # tooth v goes to level -v
    state = finite_comb(bridge_unit(1), [(0, 1, 0), (-2, 1, F(1, 2)), (-5, 2, 0)])
    vec, dropped = upsilon_apply(state, 8)
    assert dropped == 0.0
    want = np.zeros(8, dtype=complex)
    want[0], want[2], want[5] = 1, 1j, 2
    assert np.allclose(vec.amplitudes, want)
    with pytest.raises(InvalidDimension):
        upsilon_apply(state, 0)


def test_nonfock_teeth_report_dropped_mass():
    state = finite_comb(bridge_unit(1), [(1, 1, 0), (F(-1, 2), 1, 0), (-2, 3, 0), (-8, 1, 0)])
    vec, dropped = upsilon_apply(state, 8)
    assert dropped == 3.0
    assert np.allclose(vec.amplitudes[2], 3.0)
    empty, dropped_all = upsilon_apply(finite_comb(bridge_unit(1), [(1, 1, 0)]), 4)
    assert empty.is_zero and dropped_all == 1.0


def test_periodic_comb_keeps_window_and_drops_infinity():
    w = gkp_codeword(2, 1)
    vec, dropped = upsilon_apply(w, 12)
    assert math.isinf(dropped)
    assert sorted(np.flatnonzero(np.abs(vec.amplitudes) > 0)) == [2, 6, 10]


# --- translation transport --------------------------------------------------------


def test_q_translation_becomes_rotation_phase():
    got = omega_map_translation("q", F(2, 3), 3, 9)
    ref = fock_operator("rotation", 9, theta=F(2, 3))
    assert got.phases == ref.phases


def test_q_translation_order():
    # N copies of the 2/N phase wrap to the identity
    N, dim = 3, 7
    one = omega_map_translation("q", F(2, N), N, dim)
    total = [F(0)] * dim
    for _ in range(N):
        total = [(a + b) % 2 for a, b in zip(total, one.phases)]
    assert all(p == 0 for p in total)


@pytest.mark.parametrize("k", range(-3, 4))
def test_p_translation_becomes_number_shift(k):
    # k > 0 lowers the level by k, k < 0 raises it, k = 0 is the identity
    got = omega_map_translation("p", k, 2, 6)
    assert got.structure == "band" and got.offset == k
    assert np.array_equal(got.entries, np.eye(6, k=k))


def test_fractional_p_translation_is_zero():
    got = omega_map_translation("p", F(1, 2), 2, 6)
    assert got.is_zero


def test_translation_input_validation():
    with pytest.raises(NonRationalPhase):
        omega_map_translation("q", 0.3, 2, 6)
    with pytest.raises(ValueError):
        omega_map_translation("r", 1, 2, 6)
    with pytest.raises(InvalidDimension):
        omega_map_translation("p", 9, 2, 6)


# --- gate transport ------------------------------------------------------------


def upsilon_exact(state, D):
    """Upsilon(state) as {level: (magnitude, phase)}: tooth v on an integer in (-D, 0] goes to |-v>."""
    kept = [t for t in state.entries if t.index.denominator == 1 and -D < t.index <= 0]
    return {-int(t.index): (t.magnitude, t.phase) for t in kept}


def rot_exact(op, levels):
    """op applied exactly to {level: (magnitude, phase)}: a diagonal by its phases, a shift by its unit band."""
    if op.phase_num is not None:
        return {m: (a, mod2(p + op.phases[m])) for m, (a, p) in levels.items()}
    assert op.structure == "band" and np.all(op.data == 1)
    return {m - op.offset: v for m, v in levels.items() if 0 <= m - op.offset < op.dim}


phase_values = st.integers(0, 7).map(lambda k: F(k, 4)) | st.fractions(-3, 3, max_denominator=12)


@st.composite
def order_n_combs(draw):
    """An order-N finite comb, its D, and the largest p-translation to try.

    Integer teeth sit on levels anywhere in [0, D); those a gate moves out of
    the window are dropped on both sides.  The edge rule: integer teeth on
    levels [D, D + s) would enter the window under a lowering shift by s, and
    positive teeth v in [1, s] under a raising one, so no tooth is drawn
    there.  Non-integer teeth (never moved onto an integer) and positive
    teeth beyond any shift tried are dropped by Upsilon before and after.
    """
    N = draw(st.integers(1, 5))
    D = draw(st.integers(2 * N, 8 * N + 4))
    k_max = (D - 1) // N
    levels = draw(st.lists(st.integers(0, D - 1), unique=True, max_size=10))
    teeth = [(-m, draw(st.integers(1, 3)), draw(phase_values)) for m in levels]
    fractional = draw(st.lists(st.fractions(-D - 3, D + 3).filter(lambda x: x.denominator > 1), max_size=4))
    positive = draw(st.lists(st.integers(k_max * N + 1, 2 * D + 4), max_size=3))
    teeth += [(v, 1, draw(phase_values)) for v in dict.fromkeys([*fractional, *positive])]
    return N, D, k_max, finite_comb(bridge_unit(N), teeth)


@settings(deadline=None, max_examples=150)
@given(order_n_combs(), st.fractions(-4, 4, max_denominator=9), st.data())
def test_comb_gates_intertwine_with_rotation_gates(case, r, data):
    N, D, k_max, comb = case
    k = data.draw(st.integers(-k_max, k_max))
    pairs = [(gkp_apply(g, comb, N), rot_logical_op(g, N, D)) for g in ("Z", "S", "T", "X")]
    pairs.append((gkp_apply("translate_q", comb, N, amount=r), omega_map_translation("q", r / N, N, D)))
    pairs.append((gkp_apply("translate_p", comb, N, amount=k), omega_map_translation("p", k * N, N, D)))
    before = upsilon_exact(comb, D)
    for out, op in pairs:
        assert upsilon_exact(out, D) == rot_exact(op, before)
    # the exact levels are the Fock vector's amplitudes
    vec, _ = upsilon_apply(comb, D)
    assert np.flatnonzero(vec.amplitudes).tolist() == sorted(before)


@pytest.mark.parametrize("N, D", [(1, 3), (2, 5), (3, 7), (5, 11), (8, 17), (8, 64)])
def test_comb_cz_is_crot_through_upsilon(N, D):
    assert cz_crot_mismatches(N, D) == 0


def test_gate_table_is_exact_for_small_orders():
    for N in (1, 2, 3):
        table = bridge_gate_table(N, 16 * N)
        for gate, row in table.items():
            assert row["exact_match"], (N, gate)
            assert row["max_phase_diff"] == 0.0


def flip_comb_phase(gate):
    def apply(monkeypatch):
        coef, power = combs._PHASE_GATES[gate]
        monkeypatch.setitem(combs._PHASE_GATES, gate, (-coef, power))

    return apply


def flip_comb_x(monkeypatch):
    monkeypatch.setitem(combs._SHIFT_GATES, "X", -combs._SHIFT_GATES["X"])


def flip_rotation(gate):
    # the adjoint negates a diagonal's phases and turns the lowering X into the raising one
    def apply(monkeypatch):
        original = bridge.rot_logical_op
        flipped = lambda kind, *args: adjoint(original(kind, *args)) if kind == gate else original(kind, *args)
        monkeypatch.setattr(bridge, "rot_logical_op", flipped)

    return apply


MUTATIONS = [(f"comb {g}", g, flip_comb_phase(g)) for g in "ZST"]
MUTATIONS += [("comb X", "X", flip_comb_x)]
MUTATIONS += [(f"rotation {g}", g, flip_rotation(g)) for g in "ZSTX"]


@pytest.mark.parametrize("label, gate, mutate", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_gate_rows_can_fail(monkeypatch, label, gate, mutate):
    # At N=1 a Z sign flip cannot be seen: e^{i pi m} = e^{-i pi m}.
    mutate(monkeypatch)
    for N in (2, 3, 8):
        for D in (2 * N, 64):
            table = bridge_gate_table(N, D)
            red = [g for g, row in table.items() if not row["exact_match"]]
            assert red == [gate], (label, N, D, table)
            assert table[gate]["max_phase_diff"] > 0


def test_gate_table_needs_room():
    with pytest.raises(InvalidDimension):
        bridge_gate_table(4, 7)
    with pytest.raises(InvalidDimension):
        bridge_gate_table(0, 4)


# --- error transport -------------------------------------------------------------


def test_sample_angles_sit_strictly_inside_sector():
    angles = rotation_sample_angles(3)
    assert len(angles) == ROTATION_SAMPLES == 8
    assert all(F(0) < a < F(1, 3) for a in angles)
    assert angles[0] == F(1, 27) and angles[-1] == F(8, 27)


def test_error_set_contents():
    shifts, rotations = map_error_generators(3, 12)
    assert list(shifts) == ["gamma_1", "gamma_1_dag", "gamma_2", "gamma_2_dag"]
    assert list(rotations) == [f"rotation_{s}" for s in range(1, 9)]
    assert shifts["gamma_2"].structure == "band" and shifts["gamma_2"].offset == 2
    assert np.allclose(shifts["gamma_1_dag"].entries, np.eye(12, k=-1))
    assert rotations["rotation_1"].phases is not None


def test_order_one_code_has_no_shift_errors():
    shifts, rotations = map_error_generators(1, 8)
    assert shifts == {} and len(rotations) == ROTATION_SAMPLES


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 64))
def test_sampled_angles_avoid_stabilizer_multiples(N):
    for a in rotation_sample_angles(N):
        assert (a * N) % 2 != 0

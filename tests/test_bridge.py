"""Comb-to-Fock bridge: truncation map, gate transport, error transport."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec.bridge import (
    bridge_gate_table,
    derive_logical_set,
    map_error_generators,
    omega_map_translation,
    rotation_sample_angles,
    upsilon_apply,
    upsilon_matrix,
    upsilon_project,
)
from cvqec.combs import bridge_unit, comb_equal_up_to_phase, finite_comb, gkp_codeword
from cvqec.errors import InvalidDimension, NonRationalPhase
from cvqec.fock import fock_operator, phases_equal, rot_logical_op

F = Fraction


# --- truncation map -----------------------------------------------------------


def test_integer_teeth_become_amplitudes():
    state = finite_comb(bridge_unit(1), [(0, 1, 0), (2, 1, F(1, 2)), (5, 2, 0)])
    vec, dropped = upsilon_apply(state, 8)
    assert dropped == 0.0
    want = np.zeros(8, dtype=complex)
    want[0], want[2], want[5] = 1, 1j, 2
    assert np.allclose(vec.amplitudes, want)


def test_nonfock_teeth_report_dropped_mass():
    state = finite_comb(bridge_unit(1), [(-1, 1, 0), (F(1, 2), 1, 0), (2, 3, 0)])
    vec, dropped = upsilon_apply(state, 8)
    assert dropped == 2.0
    assert np.allclose(vec.amplitudes[2], 3.0)
    empty, dropped_all = upsilon_apply(finite_comb(bridge_unit(1), [(-1, 1, 0)]), 4)
    assert empty.is_zero and dropped_all == 1.0


def test_periodic_comb_keeps_window_and_drops_infinity():
    w = gkp_codeword(2, 1)
    vec, dropped = upsilon_apply(w, 12)
    assert math.isinf(dropped)
    assert sorted(np.flatnonzero(np.abs(vec.amplitudes) > 0)) == [2, 6, 10]


def test_normalize_flag():
    state = finite_comb(bridge_unit(1), [(0, 2, 0), (1, 2, 0)])
    vec, _ = upsilon_apply(state, 4, normalize=True)
    assert np.isclose(vec.norm, 1.0)


def test_projector_is_idempotent_and_consistent():
    state = finite_comb(bridge_unit(2), [(-2, 1, 0), (0, 1, F(1, 4)), (F(3, 2), 1, 0), (4, 1, 0)])
    once = upsilon_project(state, 6)
    same, phase = comb_equal_up_to_phase(once, upsilon_project(once, 6))
    assert same and phase == 0
    assert [t.index for t in once.entries] == [0, 4]
    vec_direct, _ = upsilon_apply(state, 6)
    vec_projected, dropped = upsilon_apply(once, 6)
    assert dropped == 0.0
    assert np.allclose(vec_direct.amplitudes, vec_projected.amplitudes)


def test_selection_matrix_marks_surviving_columns():
    state = finite_comb(bridge_unit(1), [(-1, 1, 0), (1, 1, 0), (3, 1, 0)])
    M = upsilon_matrix(state, 4)
    assert M.shape == (4, 3) and M.dtype == np.int64
    assert M.sum() == 2 and M[1, 1] == 1 and M[3, 2] == 1
    with pytest.raises(ValueError):
        upsilon_matrix(gkp_codeword(1, 0), 4)
    with pytest.raises(InvalidDimension):
        upsilon_apply(state, 0)


# --- translation transport --------------------------------------------------------


def test_q_translation_becomes_rotation_phase():
    got = omega_map_translation("q", F(2, 3), 3, 9)
    ref = fock_operator("rotation", 9, theta=F(2, 3))
    assert phases_equal(got, ref)


def test_q_translation_order():
    # N copies of the 2/N phase wrap to the identity
    N, dim = 3, 7
    one = omega_map_translation("q", F(2, N), N, dim)
    total = [F(0)] * dim
    for _ in range(N):
        total = [(a + b) % 2 for a, b in zip(total, one.phases)]
    assert all(p == 0 for p in total)


def test_p_translation_becomes_number_shift():
    got = omega_map_translation("p", 2, 2, 6)
    assert got.structure == "upper_shift" and got.shift == 2
    assert np.allclose(got.entries, np.eye(6, k=2))
    raised = omega_map_translation("p", -2, 2, 6)
    assert raised.structure == "lower_shift"
    assert np.allclose(raised.entries, np.eye(6, k=-2))


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


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_derived_diagonal_gates_match_rotation_forms(N):
    dim = 8 * N
    derived = derive_logical_set(N, dim)
    for gate in ("Z", "S", "T"):
        ref = rot_logical_op(gate, N, dim)
        assert phases_equal(derived[gate], ref), gate
    assert np.array_equal(derived["X"].entries, rot_logical_op("X", N, dim).entries)
    assert np.allclose(derived["H"].entries, rot_logical_op("H", N, dim).entries)


def test_gate_table_is_exact_for_small_orders():
    for N in (1, 2, 3):
        table = bridge_gate_table(N, 16 * N)
        for gate, row in table.items():
            assert row["exact_match"], (N, gate)
            assert row["max_phase_diff"] == 0.0


def test_derive_logical_set_needs_room():
    with pytest.raises(InvalidDimension):
        derive_logical_set(4, 7)


# --- error transport -------------------------------------------------------------


def test_sample_angles_sit_strictly_inside_sector():
    angles = rotation_sample_angles(3, samples=8)
    assert len(angles) == 8
    assert all(F(0) < a < F(1, 3) for a in angles)
    assert angles[0] == F(1, 27) and angles[-1] == F(8, 27)


def test_error_set_contents():
    errs = map_error_generators(3, 12, rotation_samples=2)
    assert set(errs) == {"gamma_1", "gamma_1_dag", "gamma_2", "gamma_2_dag", "rotation_1", "rotation_2"}
    assert errs["gamma_2"].structure == "upper_shift"
    assert np.allclose(errs["gamma_1_dag"].entries, np.eye(12, k=-1))
    assert errs["rotation_1"].phases is not None


def test_order_one_code_has_no_shift_errors():
    errs = map_error_generators(1, 8)
    assert all(k.startswith("rotation_") for k in errs)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 6), st.integers(1, 12))
def test_sampled_angles_avoid_stabilizer_multiples(N, samples):
    for a in rotation_sample_angles(N, samples):
        assert (a * N) % 2 != 0

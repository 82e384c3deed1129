"""Comb-to-Fock bridge: truncation map, gate transport, error transport."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import adjoint, cz_crot_mismatches, phases, teeth
from cvqec import bridge, combs
from cvqec.bridge import (
    ROTATION_SAMPLES,
    bridge_gate_table,
    map_error_generators,
    rotation_sample_angles,
)
from cvqec.combs import bridge_unit, finite_comb, gkp_apply
from cvqec.errors import InvalidDimension, NonRationalPhase
from cvqec.fock import fock_operator, rot_logical_op
from cvqec.phases import mod2

F = Fraction


# --- truncation map -----------------------------------------------------------


def upsilon_exact(state, D):
    """Upsilon(state) as {level: (magnitude, phase)}: tooth v on an integer in (-D, 0] goes to |-v>."""
    kept = [t for t in teeth(state) if t.index.denominator == 1 and -D < t.index <= 0]
    return {-int(t.index): (t.magnitude, t.phase) for t in kept}


phase_values = st.integers(0, 7).map(lambda k: F(k, 4)) | st.fractions(-3, 3, max_denominator=12)


def test_integer_teeth_become_amplitudes():
    # tooth v goes to level -v, with its magnitude and phase
    state = finite_comb(bridge_unit(1), [(0, 1, 0), (-2, 1, F(1, 2)), (-5, 2, 0)])
    assert bridge._levels(state, 8) == {0: (1, 0), 2: (1, F(1, 2)), 5: (2, 0)}


@st.composite
def window_combs(draw):
    """D and a finite comb with teeth at the window's edges and off the integers.

    Teeth sit on both sides of each edge, at v = -D, -D+1, 0 and 1, on further integers near the
    window, and off the integers, one of them inside the window.
    """
    D = draw(st.integers(1, 40))
    integers = draw(st.lists(st.integers(-D - 3, 3), max_size=10))
    non_integer = st.fractions(-D - 3, 3).filter(lambda x: x.denominator > 1)
    inside = draw(st.fractions(-D, 0).filter(lambda x: x.denominator > 1))
    places = dict.fromkeys([-D, -D + 1, 0, 1, *integers, inside, *draw(st.lists(non_integer, max_size=4))])
    N = draw(st.integers(1, 5))
    return D, finite_comb(bridge_unit(N), [(v, draw(st.integers(1, 3)), draw(phase_values)) for v in places])


@settings(deadline=None, max_examples=150)
@given(window_combs())
def test_levels_keep_exactly_the_window_integers(case):
    D, comb = case
    assert bridge._levels(comb, D) == upsilon_exact(comb, D)


# --- translation transport --------------------------------------------------------


def test_q_translation_becomes_rotation_phase():
    got = fock_operator("rotation", 9, F(2, 3))
    assert phases(got) == tuple(F(2 * m, 3) % 2 for m in range(9))


def test_q_translation_order():
    # N copies of the 2/N phase wrap to the identity
    N, dim = 3, 7
    one = fock_operator("rotation", dim, F(2, N))
    total = [F(0)] * dim
    for _ in range(N):
        total = [(a + b) % 2 for a, b in zip(total, phases(one))]
    assert all(p == 0 for p in total)


@pytest.mark.parametrize("k", range(-3, 4))
def test_p_translation_becomes_number_shift(k):
    # k > 0 lowers the level by k, k < 0 raises it, k = 0 is the identity
    got = fock_operator("shift", 6, k)
    assert got.structure == "band" and got.offset == k
    assert np.array_equal(got.entries, np.eye(6, k=k))


def test_fractional_p_translation_is_refused():
    # a fractional p-translation moves every integer tooth off the integers, so the bridge
    # drops them all; that happens in Upsilon, and the shift kind has no image to build
    N, D = 3, 12
    comb = finite_comb(bridge_unit(N), [(-m, 1, F(m, 5)) for m in range(D)])
    assert upsilon_exact(gkp_apply("translate_p", comb, N, amount=F(1, 2 * N)), D) == {}
    with pytest.raises(InvalidDimension):
        fock_operator("shift", 6, F(1, 2))


def test_translation_input_validation():
    with pytest.raises(NonRationalPhase):
        fock_operator("rotation", 6, 0.3)
    with pytest.raises(NonRationalPhase):
        fock_operator("shift", 6, 2.0)
    with pytest.raises(ValueError):
        fock_operator("number_shift", 6, 1)
    for k in (6, -6, 9):
        with pytest.raises(InvalidDimension):
            fock_operator("shift", 6, k)


# --- gate transport ------------------------------------------------------------


def rot_exact(op, levels):
    """op applied exactly to {level: (magnitude, phase)}: a diagonal by its phases, a shift by its unit band."""
    if op.phase_num is not None:
        turn = phases(op)
        return {m: (a, mod2(p + turn[m])) for m, (a, p) in levels.items()}
    assert op.structure == "band" and np.all(op.data == 1)
    return {m - op.offset: v for m, v in levels.items() if 0 <= m - op.offset < op.dim}


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
    pairs.append((gkp_apply("translate_q", comb, N, amount=r), fock_operator("rotation", D, r / N)))
    pairs.append((gkp_apply("translate_p", comb, N, amount=k), fock_operator("shift", D, k * N)))
    before = upsilon_exact(comb, D)
    for out, op in pairs:
        assert upsilon_exact(out, D) == rot_exact(op, before)


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
    shifts, angles = map_error_generators(3, 12)
    assert list(shifts.items()) == [("gamma_1", 1), ("gamma_1_dag", -1), ("gamma_2", 2), ("gamma_2_dag", -2)]
    assert list(angles.items()) == [(f"rotation_{s}", F(s, 27)) for s in range(1, 9)]
    gamma_2 = fock_operator("shift", 12, shifts["gamma_2"])
    assert gamma_2.structure == "band" and gamma_2.offset == 2
    assert np.allclose(fock_operator("shift", 12, shifts["gamma_1_dag"]).entries, np.eye(12, k=-1))
    assert fock_operator("rotation", 12, angles["rotation_1"]).phase_num is not None
    for n_fold, dim in ((0, 8), (-1, 8), (8, 8)):
        with pytest.raises(InvalidDimension):
            map_error_generators(n_fold, dim)


def assert_images_of_comb_translations(N, D):
    # gamma_l is a p-translation by l/N (a raw shift by l), rotation_s a q-translation by theta_s N
    images = {name: ("shift", k) for l in range(1, N) for name, k in ((f"gamma_{l}", l), (f"gamma_{l}_dag", -l))}
    images |= {f"rotation_{s}": ("rotation", theta) for s, theta in enumerate(rotation_sample_angles(N), start=1)}
    shifts, angles = map_error_generators(N, D)
    assert list(shifts.items()) == [(name, k) for name, (kind, k) in images.items() if kind == "shift"]
    assert list(angles.items()) == [(name, a) for name, (kind, a) in images.items() if kind == "rotation"]
    # one tooth on each level a shift by up to N - 1 keeps inside [0, D), so no tooth crosses an edge
    comb = finite_comb(bridge_unit(N), [(-m, 1, F(m, 5)) for m in range(N, D - N)])
    before = upsilon_exact(comb, D)
    for kind, amount in images.values():
        if kind == "shift":
            moved = gkp_apply("translate_p", comb, N, amount=F(amount, N))
        else:
            moved = gkp_apply("translate_q", comb, N, amount=amount * N)
        assert upsilon_exact(moved, D) == rot_exact(fock_operator(kind, D, amount), before)


@pytest.mark.parametrize("N, D", [(2, 8), (3, 12), (5, 40)])
def test_mapped_errors_are_images_of_comb_translations(N, D):
    assert_images_of_comb_translations(N, D)


# N in [1, 64] and D in [2N + 1, 8N + 4]
@settings(deadline=None, max_examples=25)
@given(st.integers(1, 64).flatmap(lambda N: st.tuples(st.just(N), st.integers(2 * N + 1, 8 * N + 4))))
def test_mapped_errors_are_images_at_every_order(case):
    assert_images_of_comb_translations(*case)


def test_order_one_code_has_no_shift_errors():
    shifts, angles = map_error_generators(1, 8)
    assert shifts == {} and len(angles) == ROTATION_SAMPLES


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 64))
def test_sampled_angles_avoid_stabilizer_multiples(N):
    for a in rotation_sample_angles(N):
        assert (a * N) % 2 != 0

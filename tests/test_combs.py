"""Exact comb states: constructors, gates, equality, ranges."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec import combs
from cvqec.combs import (
    CombUnit,
    TwoModeComb,
    bridge_unit,
    comb_equal_up_to_phase,
    finite_comb,
    gkp_apply,
    gkp_codeword,
    periodic_comb,
    product_comb,
    teeth_in_range,
    twomode_equal_up_to_phase,
)
from cvqec.errors import NonRationalPhase, UnitMismatch

F = Fraction


def indices(state):
    return [t.index for t in state.entries]


def phases(state):
    return [t.phase for t in state.entries]


# --- constructors ------------------------------------------------------------


def test_codeword_window_support_frozen():
    w0 = gkp_codeword(2, 0, window=1)
    assert indices(w0) == [-4, 0, 4]
    assert phases(w0) == [0, 0, 0]
    w1 = gkp_codeword(2, 1, window=1)
    assert indices(w1) == [-2, 2, 6]


def test_codeword_ideal_descriptor_frozen():
    w = gkp_codeword(1, 0)
    p = w.periodic
    assert (p.offset, p.period, p.pattern, p.magnitude) == (0, 2, (F(0),), 1)
    w1 = gkp_codeword(3, 1)
    assert (w1.periodic.offset, w1.periodic.period) == (3, 6)


def test_finite_comb_rejects_duplicates_and_floats():
    unit = bridge_unit(1)
    with pytest.raises(ValueError):
        finite_comb(unit, [(0, 1, 0), (0, 1, F(1, 2))])
    with pytest.raises(NonRationalPhase):
        finite_comb(unit, [(0.5, 1, 0)])


def test_finite_comb_drops_zero_teeth_and_sorts():
    state = finite_comb(bridge_unit(1), [(3, 1, 0), (-1, 1, F(1, 2)), (0, 0, 0)])
    assert indices(state) == [-1, 3]


def test_periodic_canonicalization_rotates_pattern():
    # offset 3 with period 2 renormalizes to offset 1; tooth phases follow
    state = periodic_comb(bridge_unit(1), 3, 2, [F(0), F(1, 2)])
    p = state.periodic
    assert p.offset == 1
    assert p.pattern == (F(1, 2), F(0))


def test_periodic_comb_reduces_caller_phases():
    # entries outside [0, 2), and ints, are reduced to Fractions in [0, 2); in-range ones are kept
    state = periodic_comb(bridge_unit(1), 0, 2, [F(5, 2), -1, F(2), F(7, 4), 1])
    assert state.periodic.pattern == (F(1, 2), F(1), F(0), F(7, 4), F(1))
    assert all(type(p) is F for p in state.periodic.pattern)


def test_periodic_minimal_cycle_reduction():
    state = periodic_comb(bridge_unit(1), 0, 2, [F(1, 2), F(1, 2), F(1, 2), F(1, 2)])
    assert state.periodic.pattern == (F(1, 2),)


def test_unit_descriptor_validation():
    with pytest.raises(ValueError):
        CombUnit(2, F(1))
    with pytest.raises(ValueError):
        CombUnit(0, F(-1))


# --- gates on ideal codewords ---------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 5])
@pytest.mark.parametrize("j", [0, 1])
def test_z_gives_codeword_parity_phase(N, j):
    w = gkp_codeword(N, j)
    same, phase = comb_equal_up_to_phase(w, gkp_apply("Z", w, N))
    assert same and phase == F(j)


@pytest.mark.parametrize("N", [1, 2, 4])
def test_s_and_t_phase_pattern(N):
    for j, s_phase, t_phase in ((0, F(0), F(0)), (1, F(1, 2), F(1, 4))):
        w = gkp_codeword(N, j)
        same, phase = comb_equal_up_to_phase(w, gkp_apply("S", w, N))
        assert same and phase == s_phase
        same, phase = comb_equal_up_to_phase(w, gkp_apply("T", w, N))
        assert same and phase == t_phase


@pytest.mark.parametrize("N", [1, 2, 3])
def test_x_swaps_codewords_exactly(N):
    w0, w1 = gkp_codeword(N, 0), gkp_codeword(N, 1)
    same, phase = comb_equal_up_to_phase(w1, gkp_apply("X", w0, N))
    assert same and phase == 0
    same, phase = comb_equal_up_to_phase(w0, gkp_apply("X", w1, N))
    assert same and phase == 0


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("stab", ["stab_q", "stab_p"])
def test_stabilizers_fix_codewords(N, j, stab):
    w = gkp_codeword(N, j)
    same, phase = comb_equal_up_to_phase(w, gkp_apply(stab, w, N))
    assert same and phase == 0


def test_windowed_codewords_see_the_same_gates():
    N = 2
    for j in (0, 1):
        w = gkp_codeword(N, j, window=3)
        same, phase = comb_equal_up_to_phase(w, gkp_apply("S", w, N))
        assert same and phase == F(j, 2)


def test_cz_phase_is_product_parity():
    N = 2
    for j in (0, 1):
        for jp in (0, 1):
            prod = product_comb(gkp_codeword(N, j, window=1), gkp_codeword(N, jp, window=1))
            out = gkp_apply("CZ", prod, N)
            same, phase = twomode_equal_up_to_phase(prod, out)
            assert same and phase == F(j * jp)


def test_translate_q_fractional_amount_exact():
    state = finite_comb(bridge_unit(2), [(0, 1, 0), (2, 1, 0), (4, 1, 0)])
    out = gkp_apply("translate_q", state, 2, amount=F(1, 3))
    # phase -r*l at logical l = index/2
    assert phases(out) == [F(0), (-F(1, 3)) % 2, (-F(2, 3)) % 2]


def test_translate_p_fractional_moves_support_off_integers():
    state = gkp_codeword(2, 0, window=1)
    out = gkp_apply("translate_p", state, 2, amount=F(1, 4))
    assert indices(out) == [F(-7, 2), F(1, 2), F(9, 2)]


def test_float_amount_raises():
    state = gkp_codeword(1, 0, window=1)
    with pytest.raises(NonRationalPhase):
        gkp_apply("translate_q", state, 1, amount=0.5)


def test_unit_regime_enforced():
    state = finite_comb(CombUnit(0, F(3)), [(0, 1, 0), (3, 1, 0)])
    with pytest.raises(UnitMismatch):
        gkp_apply("Z", state, 2)
    # the right scale in units of sqrt(pi) is still not the integer-spacing regime
    for exp in (-1, 1):
        state = finite_comb(CombUnit(exp, F(2)), [(0, 1, 0), (2, 1, 0)])
        with pytest.raises(UnitMismatch):
            gkp_apply("X", state, 2)


# --- gate algebra properties -----------------------------------------------------


small_phase = st.fractions(min_value=0, max_value=2, max_denominator=8)


@st.composite
def regime_combs(draw, N=2):
    periodic = draw(st.booleans())
    if periodic:
        offset = draw(st.fractions(min_value=0, max_value=4, max_denominator=4))
        period = draw(st.integers(1, 5))
        pattern = draw(st.lists(small_phase, min_size=1, max_size=4))
        return periodic_comb(bridge_unit(N), offset, period, pattern)
    n_teeth = draw(st.integers(1, 5))
    idx = draw(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=n_teeth,
            max_size=n_teeth,
            unique=True,
        )
    )
    ph = draw(st.lists(small_phase, min_size=n_teeth, max_size=n_teeth))
    return finite_comb(bridge_unit(N), [(i, 1, p) for i, p in zip(idx, ph)])


@settings(deadline=None, max_examples=60)
@given(regime_combs())
def test_two_z_make_one_q_stabilizer(state):
    two_z = gkp_apply("Z", gkp_apply("Z", state, 2), 2)
    stab = gkp_apply("stab_q", state, 2)
    same, phase = comb_equal_up_to_phase(stab, two_z)
    assert same and phase == 0


@settings(deadline=None, max_examples=60)
@given(regime_combs())
def test_two_x_make_one_p_stabilizer(state):
    two_x = gkp_apply("X", gkp_apply("X", state, 2), 2)
    stab = gkp_apply("stab_p", state, 2)
    same, phase = comb_equal_up_to_phase(stab, two_x)
    assert same and phase == 0


@settings(deadline=None, max_examples=60)
@given(regime_combs(), st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_translate_p_inverts(state, r):
    back = gkp_apply("translate_p", gkp_apply("translate_p", state, 2, amount=r), 2, amount=-r)
    same, phase = comb_equal_up_to_phase(state, back)
    assert same and phase == 0


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 4),
    st.dictionaries(
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        st.tuples(
            st.fractions(min_value=0, max_value=3, max_denominator=3),
            st.fractions(min_value=-3, max_value=3, max_denominator=8),
        ),
        max_size=6,
    ),
    st.sampled_from(["Z", "S", "T", "X", "stab_q", "stab_p", "translate_q", "translate_p"]),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_finite_gate_outputs_are_canonical(N, teeth, gate, r):
    # gates build their teeth directly: they must come out sorted, nonzero and reduced mod 2
    state = finite_comb(bridge_unit(N), [(i, m, p) for i, (m, p) in teeth.items()])
    out = gkp_apply(gate, state, N, amount=r if gate.startswith("translate") else None)
    assert out == finite_comb(out.unit, [(t.index, t.magnitude, t.phase) for t in out.entries])


@settings(deadline=None, max_examples=40)
@given(
    st.fractions(min_value=0, max_value=3, max_denominator=3),
    st.integers(1, 4),
    st.lists(small_phase, min_size=1, max_size=3),
    st.sampled_from(["S", "T", "Z"]),
)
def test_periodic_gate_action_matches_windowed(offset, period, pattern, gate):
    # the closed-form periodic update must agree with tooth-by-tooth application
    N = 2
    per = periodic_comb(bridge_unit(N), offset, period, pattern)
    lo, hi = -40, 40
    window_teeth = [(t.index, t.magnitude, t.phase) for t in teeth_in_range(per, lo, hi)]
    fin = finite_comb(bridge_unit(N), window_teeth)
    per_out = gkp_apply(gate, per, N)
    fin_out = gkp_apply(gate, fin, N)
    got = {(t.index, t.phase) for t in teeth_in_range(per_out, lo, hi)}
    want = {(t.index, t.phase) for t in fin_out.entries}
    assert got == want


PHASE_FNS = {
    "S": (lambda r: lambda l: l * l / 2, 2),
    "T": (lambda r: lambda l: l**4 / 4, 4),
    "translate_q": (lambda r: lambda l: -r * l, 1),
}


def linear_scan_period(fn, offset, period, N, degree):
    """Least T >= 1 with fn(l(t + T)) - fn(l(t)) in 2Z for all t, tried T = 1, 2, ...

    The difference is a polynomial in t of degree below `degree`, so it lies
    in 2Z at every integer t iff it does at t = 0..degree.
    """
    delta = lambda t: fn((offset + t * period) / N)
    T = 1
    while any((delta(t + T) - delta(t)) % 2 for t in range(degree + 1)):
        T += 1
    return T


def assert_minimal(pattern):
    L = len(pattern)
    for d in range(1, L):
        if L % d == 0:
            assert any(pattern[i] != pattern[(i + d) % L] for i in range(L)), d


@settings(deadline=None, max_examples=60)
@given(
    st.fractions(min_value=0, max_value=4, max_denominator=4),
    st.integers(1, 5),
    st.lists(small_phase, min_size=1, max_size=4),
    st.sampled_from(sorted(PHASE_FNS)),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_phase_period_matches_linear_scan(offset, period, pattern, gate, r):
    N = 2
    state = periodic_comb(bridge_unit(N), offset, period, pattern)
    found = []
    search = combs._phase_cycle_period

    def spy(*args):
        found.append(search(*args))
        return found[-1]

    with mock.patch.object(combs, "_phase_cycle_period", spy):
        out = gkp_apply(gate, state, N, amount=r if gate == "translate_q" else None)
    make_fn, degree = PHASE_FNS[gate]
    fn = make_fn(r)
    p = state.periodic
    assert found == [linear_scan_period(fn, p.offset, p.period, N, degree)]
    got = out.periodic
    assert (got.offset, got.period, got.magnitude) == (p.offset, p.period, p.magnitude)
    assert math.lcm(len(p.pattern), found[0]) % len(got.pattern) == 0
    assert_minimal(got.pattern)
    for t in range(len(got.pattern) + len(p.pattern)):
        want = (p.pattern[t % len(p.pattern)] + fn((p.offset + t * p.period) / N)) % 2
        assert got.pattern[t % len(got.pattern)] == want


def test_t_gate_with_long_phase_period():
    # l = (1/7 + 10 t)/5 = 1/35 + 2t; l^4/4 repeats mod 2 after 35^3 = 42,875 teeth
    N, offset = 5, Fraction(1, 7)
    out = gkp_apply("T", periodic_comb(bridge_unit(N), offset, 2 * N, [0]), N).periodic
    L = len(out.pattern)
    assert L == 42_875
    for t in [*range(0, L, 1_013), L - 1, L, L + 1, 3 * L + 17]:
        l = (offset + 2 * N * t) / N
        assert out.pattern[t % L] == (l**4 / 4) % 2


# --- equality up to one global phase ------------------------------------------------


def test_empty_combs_are_equal_with_zero_phase():
    unit = bridge_unit(2)
    assert comb_equal_up_to_phase(finite_comb(unit, []), finite_comb(unit, [])) == (True, 0)
    empty = TwoModeComb((unit, unit), ())
    assert twomode_equal_up_to_phase(empty, empty) == (True, 0)


def test_one_changed_magnitude_breaks_equality():
    unit = bridge_unit(2)
    teeth = [(0, 1, 0), (2, 1, F(1, 2)), (4, 1, F(1, 4))]
    changed = [(0, 1, 0), (2, 3, F(1, 2)), (4, 1, F(1, 4))]
    a, b = finite_comb(unit, teeth), finite_comb(unit, changed)
    assert comb_equal_up_to_phase(a, b) == (False, None)
    assert twomode_equal_up_to_phase(product_comb(a, a), product_comb(a, b)) == (False, None)
    pattern = [0, F(1, 2)]
    assert comb_equal_up_to_phase(
        periodic_comb(unit, 0, 4, pattern), periodic_comb(unit, 0, 4, pattern, magnitude=2)
    ) == (False, None)


@pytest.mark.parametrize("pattern", [[F(0), F(1, 2)], [F(1, 3), F(0), F(7, 4)]])
@pytest.mark.parametrize("shift", [F(0), F(3, 4), F(5, 3)])
def test_periodic_patterns_differing_by_a_constant(pattern, shift):
    unit = bridge_unit(2)
    a = periodic_comb(unit, 1, 4, pattern)
    b = periodic_comb(unit, 1, 4, [p + shift for p in pattern])
    assert comb_equal_up_to_phase(a, b) == (True, shift)
    bent = periodic_comb(unit, 1, 4, [pattern[0] + shift, *pattern[1:]])
    assert comb_equal_up_to_phase(a, bent) == ((True, 0) if shift == 0 else (False, None))


# --- ranges -------------------------------------------------------------------------


def test_teeth_in_range_boundaries():
    state = periodic_comb(bridge_unit(1), 0, 2, [F(0)])
    teeth = teeth_in_range(state, 0, 8)
    assert [t.index for t in teeth] == [0, 2, 4, 6]

"""Exact comb states: constructors, gates, equality, ranges."""

import itertools
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import teeth as teeth_of, teeth_in_range
from cvqec import combs
from cvqec.combs import (
    CombState,
    CombUnit,
    PeriodicSupport,
    bridge_unit,
    comb_equal_up_to_phase,
    comb_to_json_dict,
    finite_comb,
    gkp_apply,
    gkp_codeword,
    periodic_comb,
    product_comb,
    twomode_comb,
)
from cvqec.errors import NonRationalPhase, UnitMismatch

F = Fraction
BENCH = Path(__file__).parents[1] / "bench"


def indices(state):
    return [t.index for t in teeth_of(state)]


def phases(state):
    return [t.phase for t in teeth_of(state)]


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


@pytest.mark.parametrize("N", [1, 64])
@pytest.mark.parametrize("window", [0, 1, 3, 2048])
def test_windowed_codeword_is_the_finite_comb_of_its_teeth(N, window):
    # gkp_codeword writes its places in order; finite_comb sorts the same teeth given backwards
    for j in (0, 1):
        teeth = [((2 * k + j) * N, 1, 0) for k in range(window, -window - 1, -1)]
        assert gkp_codeword(N, j, window=window) == finite_comb(bridge_unit(N), teeth)


def test_finite_comb_rejects_duplicates_and_floats():
    unit = bridge_unit(1)
    with pytest.raises(ValueError):
        finite_comb(unit, [(0, 1, 0), (0, 1, F(1, 2))])
    # the message names the index alone, in least terms
    with pytest.raises(ValueError, match=r"^duplicate tooth index \(1/2\)$"):
        finite_comb(unit, [(F(1, 2), 1, 0), (F(2, 4), 3, F(1, 2))])
    with pytest.raises(ValueError, match="a 1-mode tooth has 3 values, got 4"):
        finite_comb(unit, [(0, 0, 1, 0)])
    with pytest.raises(NonRationalPhase):
        finite_comb(unit, [(0.5, 1, 0)])


def test_finite_comb_drops_zero_teeth_and_sorts():
    state = finite_comb(bridge_unit(1), [(3, 1, 0), (-1, 1, F(1, 2)), (0, 0, 0)])
    assert indices(state) == [-1, 3]


TWOMODE_TEETH = [(2, -1, F(1, 2), F(1, 3)), (-1, 4, 3, F(7, 4)), (2, F(1, 2), F(2, 3), 0), (-1, -1, 1, F(5, 2))]


def test_twomode_comb_sorts_teeth_given_in_any_order():
    unit = bridge_unit(2)
    want = twomode_comb((unit, unit), TWOMODE_TEETH)
    assert [tuple(vars(t).values()) for t in teeth_of(want)] == [
        (F(i1), F(i2), F(m), F(p) % 2) for i1, i2, m, p in sorted(TWOMODE_TEETH, key=lambda t: t[:2])
    ]
    # a zero-magnitude tooth is dropped wherever it comes
    for perm in itertools.permutations([*TWOMODE_TEETH, (0, 0, 0, 1)]):
        got = twomode_comb((unit, unit), perm)
        assert got == want
        assert comb_equal_up_to_phase(want, got) == (True, 0)


def test_twomode_comb_rejects_duplicates_and_floats():
    unit = bridge_unit(1)
    with pytest.raises(ValueError, match="duplicate tooth index pair"):
        twomode_comb((unit, unit), [(0, 1, 1, 0), (0, F(2, 2), 3, F(1, 2))])
    with pytest.raises(ValueError, match="nonnegative"):
        twomode_comb((unit, unit), [(0, 1, -1, 0)])
    with pytest.raises(NonRationalPhase):
        twomode_comb((unit, unit), [(0.5, 1, 1, 0)])


def test_cz_output_keeps_integer_phases_over_one_den():
    # a two-mode comb stores its places and phases as integer numerators, not Fractions per tooth
    N = 3
    a = finite_comb(bridge_unit(N), [(F(-7, 2), F(1, 2), F(1, 3)), (0, 1, 0), (5, 2, F(3, 4))])
    b = finite_comb(bridge_unit(N), [(F(1, 5), 3, F(1, 6)), (6, 1, F(1, 2))])
    out = gkp_apply("CZ", product_comb(a, b), N)
    assert type(out.den) is int and all(type(d) is int for d in out.place_dens)
    assert all(type(n) is int and 0 <= n < 2 * out.den for n in out.phase_num)
    assert all(type(x) is int for place in out.places for x in place)
    assert len(out.phase_num) == len(out.places) == 6
    # index 5, index 1/5: phase 3/4 + 1/6 + (5/3)(1/15) at logical l = v/N
    assert teeth_of(out)[-2].phase == (F(3, 4) + F(1, 6) + F(5, 3) * F(1, 15)) % 2


def assert_one_form(comb):
    """Every coordinate an int over its least denominator, places in index order, phases in [0, 2 den)."""
    assert type(comb.den) is int and all(type(d) is int for d in comb.place_dens)
    assert all(type(x) is int for place in comb.places for x in place)
    assert all(type(n) is int and 0 <= n < 2 * comb.den for n in comb.phase_num)
    assert math.gcd(comb.den, *comb.phase_num) == 1
    columns = list(zip(*comb.places)) or [()] * len(comb.place_dens)
    assert [math.gcd(d, *column) for d, column in zip(comb.place_dens, columns)] == [1] * len(comb.place_dens)
    indices = [place[: len(comb.units)] for place in comb.places]
    assert indices == sorted(set(indices))


ONE_FORM_STEPS = [
    *((gate, None) for gate in ("Z", "S", "T", "X", "stab_q", "stab_p")),
    *(("translate_q", r) for r in (F(1, 3), F(-5, 6), 2)),
    # at N = 3 the first two move every half-odd index onto an integer, the third keeps them half-odd
    *(("translate_p", r) for r in (F(1, 6), F(-7, 6), 1)),
]


@pytest.mark.parametrize("gate, r", ONE_FORM_STEPS)
def test_finite_gate_outputs_keep_integers_in_least_terms(gate, r):
    N = 3
    teeth = [(F(-7, 2), F(1, 2), F(1, 3)), (F(1, 2), 3, 0), (F(9, 2), F(3, 2), F(3, 4))]
    comb = finite_comb(bridge_unit(N), teeth)
    assert_one_form(comb)
    out = gkp_apply(gate, comb, N, amount=r)
    assert_one_form(out)
    assert_one_form(gkp_apply(gate, out, N, amount=r))
    if gate in ORACLE_GATES or gate == "translate_q":
        coef, power = (-r, 1) if gate == "translate_q" else ORACLE_GATES[gate]
        want = [(t.index, t.magnitude, (t.phase + coef * (t.index / N) ** power) % 2) for t in teeth_of(comb)]
        assert records(out) == want
    if r is not None:
        # a translation and its inverse give the comb back, denominators and all
        assert gkp_apply(gate, out, N, amount=-r) == comb
    if gate == "translate_p":
        assert indices(out) == [t.index + r * N for t in teeth_of(comb)]
        assert out.place_dens[0] == (1 if (r * N).denominator == 2 else 2)
    assert_one_form(product_comb(out, comb))
    assert_one_form(gkp_apply("CZ", product_comb(comb, out), N))
    assert_one_form(finite_comb(bridge_unit(N), []))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_cz_twice_gives_codeword_products_back(N):
    # CZ adds the integer (2k+j)(2k'+j') at codeword teeth, so twice it adds an even one: the phases
    # come back to zero over den 1
    for j in (0, 1):
        for jp in (0, 1):
            prod = product_comb(gkp_codeword(N, j, window=2), gkp_codeword(N, jp, window=2))
            out = gkp_apply("CZ", prod, N)
            assert out.den == 1 and set(out.phase_num) == {j * jp}
            assert gkp_apply("CZ", out, N) == prod


def test_product_keeps_per_tooth_magnitudes():
    # equality sees each tooth's magnitude, not the factors: (2a) x b is a x (2b)
    unit = bridge_unit(2)
    teeth = [(0, 1, F(1, 3)), (2, F(1, 2), 0), (4, 3, F(3, 2))]
    a, b = finite_comb(unit, teeth), finite_comb(unit, [(-2, F(2, 3), F(1, 4)), (6, 1, 1)])
    double = lambda s: finite_comb(unit, [(t.index, 2 * t.magnitude, t.phase) for t in teeth_of(s)])
    assert comb_equal_up_to_phase(product_comb(double(a), b), product_comb(a, double(b))) == (True, 0)
    # a magnitude 1/2 against 2 cancels to the integer 1
    half, two = finite_comb(unit, [(0, F(1, 2), 0)]), finite_comb(unit, [(0, 2, 0)])
    assert product_comb(half, two) == twomode_comb((unit, unit), [(0, 0, 1, 0)])


def test_periodic_canonicalization_rotates_pattern():
    # offset 3 with period 2 renormalizes to offset 1; tooth phases follow
    state = periodic_comb(bridge_unit(1), 3, 2, [F(0), F(1, 2)])
    p = state.periodic
    assert p.offset == 1
    assert p.pattern == (F(1, 2), F(0))
    # every offset in [-9, 9] with denominator <= 7, against the Fraction formula
    offsets = sorted({F(n, d) for d in range(1, 8) for n in range(-9 * d, 9 * d + 1)})
    for pattern in ([F(0), F(1, 2), F(1, 3), F(7, 4)], [F(5, 3), F(0), F(1)]):
        n = len(pattern)
        for period in (1, 2, 3, 5):
            for rho in offsets:
                canon = rho % period
                shift = int((rho - canon) / period)
                want = tuple(pattern[(t - shift) % n] for t in range(n))
                p = periodic_comb(bridge_unit(1), rho, period, pattern).periodic
                assert (p.offset, p.pattern) == (canon, want), (rho, period)
    # a gate on a support built by hand at an offset outside [0, period) still canonicalizes
    raw = CombState(bridge_unit(2), periodic=PeriodicSupport(F(-17, 3), 4, (F(0), F(1, 2), F(3, 2))))
    src = periodic_comb(bridge_unit(2), F(-17, 3), 4, [F(0), F(1, 2), F(3, 2)]).periodic
    out = gkp_apply("S", raw, 2).periodic
    assert out.offset == src.offset == F(7, 3)
    L = len(out.pattern)
    for t in range(2 * L):
        l = (src.offset + 4 * t) / 2
        assert out.pattern[t % L] == (src.pattern[t % 3] + l * l / 2) % 2


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
            same, phase = comb_equal_up_to_phase(prod, out)
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


@pytest.mark.parametrize("amount", [5, 0, F(1, 3)])
@pytest.mark.parametrize("kind", ["Z", "S", "T", "X", "stab_q", "stab_p", "CZ"])
def test_amount_is_refused_where_a_gate_takes_none(kind, amount):
    w = gkp_codeword(2, 1, window=2)
    state = product_comb(w, w) if kind == "CZ" else w
    with pytest.raises(ValueError, match="takes no amount"):
        gkp_apply(kind, state, 2, amount=amount)


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
    assert out == finite_comb(out.unit, [(t.index, t.magnitude, t.phase) for t in teeth_of(out)])


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.integers(1, 5),
    st.lists(small_phase, min_size=1, max_size=4),
    st.booleans(),
    st.sampled_from(["Z", "S", "T", "X", "stab_q", "stab_p", "translate_q", "translate_p"]),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
@example(2, F(-7, 2), 2, [F(0), F(1, 2), F(0), F(1, 2)], True, "X", F(0))
def test_periodic_gate_outputs_are_canonical(N, offset, period, pattern, by_hand, gate, r):
    # equality aligns periodic combs from tooth 0 over the minimal cycle: every gate output must
    # have its offset in [0, period) and a pattern that no proper rotation maps to itself
    unit = bridge_unit(N)
    if by_hand:
        state = CombState(unit, PeriodicSupport(offset, period, tuple(ph % 2 for ph in pattern)))
    else:
        state = periodic_comb(unit, offset, period, pattern)
    out = gkp_apply(gate, state, N, amount=r if gate.startswith("translate") else None)
    p = out.periodic
    assert 0 <= p.offset < p.period
    assert all(p.pattern[d:] + p.pattern[:d] != p.pattern for d in range(1, len(p.pattern)))
    assert out == periodic_comb(out.unit, p.offset, p.period, p.pattern, p.magnitude)


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
    want = {(t.index, t.phase) for t in teeth_of(fin_out)}
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


def test_benchmark_comb_jobs_pass_their_checks(tmp_path, monkeypatch):
    # every comb job of both benchmark workloads, on the input and the check the benchmark uses
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    for name, make in workloads.WORKLOADS.items():
        jobs = dict.fromkeys(job for job in make(tmp_path).jobs if isinstance(job, workloads.CombJob))
        assert jobs, name
        for job in jobs:
            state = periodic_comb(bridge_unit(job.N), job.offset, 2 * job.N, [0])
            checks.check_comb_gate(job.gate, job.N, job.offset, gkp_apply(job.gate, state, job.N))


def test_t_gate_with_long_phase_period():
    # l = (1/7 + 10 t)/5 = 1/35 + 2t; l^4/4 repeats mod 2 after 35^3 = 42,875 teeth
    N, offset = 5, Fraction(1, 7)
    out = gkp_apply("T", periodic_comb(bridge_unit(N), offset, 2 * N, [0]), N).periodic
    L = len(out.pattern)
    assert L == 42_875
    for t in [*range(0, L, 1_013), L - 1, L, L + 1, 3 * L + 17]:
        l = (offset + 2 * N * t) / N
        assert out.pattern[t % L] == (l**4 / 4) % 2


# --- integer arithmetic against direct Fraction evaluation ----------------------------

# (coef, power): the gate adds coef * (index / N)**power, in units of pi
ORACLE_GATES = {"Z": (-1, 1), "stab_q": (-2, 1), "S": (F(1, 2), 2), "T": (F(1, 4), 4)}
oracle_index = st.fractions(min_value=-9, max_value=9, max_denominator=7)
oracle_phase = st.fractions(min_value=-5, max_value=5, max_denominator=12)
oracle_magnitude = st.fractions(min_value=F(1, 8), max_value=5, max_denominator=8)
oracle_teeth = st.dictionaries(oracle_index, st.tuples(oracle_magnitude, oracle_phase), max_size=6)
# added to a phase difference: 0 and multiples of 2 keep it mod 2, the others move it
oracle_bends = st.sampled_from([0, 0, 2, -4, 1, -3, F(1, 3), F(-5, 7)])


def oracle_comb(N, teeth):
    return finite_comb(bridge_unit(N), [(i, m, p) for i, (m, p) in teeth.items()])


def records(state):
    """Every tooth as a tuple, its phase checked to be a Fraction in [0, 2)."""
    assert all(type(t.phase) is F and 0 <= t.phase < 2 for t in teeth_of(state))
    return [tuple(vars(t).values()) for t in teeth_of(state)]


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 7), oracle_teeth, st.sampled_from([*ORACLE_GATES, "translate_q"]), oracle_index)
def test_finite_phase_gates_match_fraction_oracle(N, teeth, gate, r):
    state = oracle_comb(N, teeth)
    coef, power = (-r, 1) if gate == "translate_q" else ORACLE_GATES[gate]
    out = gkp_apply(gate, state, N, amount=r if gate == "translate_q" else None)
    want = [(t.index, t.magnitude, (t.phase + coef * (t.index / N) ** power) % 2) for t in teeth_of(state)]
    assert records(out) == want


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 7), oracle_teeth, oracle_teeth)
def test_product_and_cz_match_fraction_oracle(N, teeth_a, teeth_b):
    a, b = oracle_comb(N, teeth_a), oracle_comb(N, teeth_b)
    prod = product_comb(a, b)
    want = [
        (ta.index, tb.index, ta.magnitude * tb.magnitude, (ta.phase + tb.phase) % 2)
        for ta in teeth_of(a)
        for tb in teeth_of(b)
    ]
    assert records(prod) == want
    cz = [(i1, i2, m, (p + (i1 / N) * (i2 / N)) % 2) for i1, i2, m, p in want]
    assert records(gkp_apply("CZ", prod, N)) == cz


# (gate, amount) steps: the fixed gates, and translations by small fractions
ORACLE_STEPS = st.sampled_from([(gate, None) for gate in ("Z", "S", "T", "X", "stab_q", "stab_p")])
ORACLE_STEPS |= st.tuples(
    st.sampled_from(["translate_q", "translate_p"]), st.fractions(-2, 2, max_denominator=6)
)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4), oracle_teeth, st.lists(ORACLE_STEPS, max_size=5), oracle_index)
def test_equal_combs_are_equal_dataclasses(N, teeth, steps, split):
    # a takes the steps in order; b takes them backwards, each translation split in two at `split`,
    # so the two are built through different intermediate denominators
    a = b = oracle_comb(N, teeth)
    for gate, r in steps:
        a = gkp_apply(gate, a, N, amount=r)
    for gate, r in reversed(steps):
        if r is not None:
            b = gkp_apply(gate, b, N, amount=r - split)
            r = split
        b = gkp_apply(gate, b, N, amount=r)
    same = comb_equal_up_to_phase(a, b) == (True, 0)
    assert (a == b) == same
    if all(gate in ("Z", "S", "T", "stab_q", "translate_q") for gate, _ in steps):
        # phase gates commute
        assert a == b
    other = oracle_comb(N, {F(1, 2): (F(3), F(1, 3)), F(-2): (F(1, 2), F(0))})
    pa, pb = product_comb(a, other), product_comb(b, other)
    assert (pa == pb) == same == (comb_equal_up_to_phase(pa, pb) == (True, 0))
    assert (gkp_apply("CZ", pa, N) == gkp_apply("CZ", pb, N)) == same


def oracle_equal(pairs):
    """(True, d) when every phase pair differs by d mod 2, the sum over Fractions."""
    diffs = {(pb - pa) % 2 for pa, pb in pairs}
    if not diffs:
        return (True, 0)
    return (True, diffs.pop()) if len(diffs) == 1 else (False, None)


@settings(deadline=None, max_examples=80)
@given(
    oracle_teeth,
    oracle_phase,
    st.lists(oracle_bends, min_size=6, max_size=6),
)
def test_finite_equality_matches_fraction_oracle(teeth, shift, bends):
    a = oracle_comb(3, teeth)
    b = finite_comb(a.unit, [(t.index, t.magnitude, t.phase + shift + k) for t, k in zip(teeth_of(a), bends)])
    want = oracle_equal([(ta.phase, tb.phase) for ta, tb in zip(teeth_of(a), teeth_of(b))])
    assert comb_equal_up_to_phase(a, b) == want
    other = finite_comb(a.unit, [(1, 2, F(1, 3)), (F(-3, 2), F(1, 2), F(7, 5))])
    # twomode_comb sorts the teeth it is given, so the reversed product builds the same comb
    pa, pb = product_comb(a, other), product_comb(b, other)
    pb = twomode_comb(pb.units, [tuple(vars(t).values()) for t in reversed(teeth_of(pb))])
    assert comb_equal_up_to_phase(pa, pb) == want


@settings(deadline=None, max_examples=60)
@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.integers(1, 5),
    st.lists(oracle_phase, min_size=1, max_size=4),
    oracle_phase,
    st.lists(oracle_bends, min_size=1, max_size=6),
    oracle_magnitude,
)
def test_periodic_equality_matches_fraction_oracle(offset, period, pattern, shift, bends, magnitude):
    # b repeats a's pattern over len(bends) teeth, shifted by one phase and bent tooth by tooth
    unit = bridge_unit(2)
    a = periodic_comb(unit, offset, period, pattern, magnitude)
    b_pattern = [pattern[t % len(pattern)] + shift + k for t, k in enumerate(bends)]
    b = periodic_comb(unit, offset, period, b_pattern, magnitude)
    # the teeth in one span of both patterns fix every phase difference
    hi = 12 * 5 * period
    pairs = [(ta.phase, tb.phase) for ta, tb in zip(teeth_in_range(a, -hi, hi), teeth_in_range(b, -hi, hi))]
    assert comb_equal_up_to_phase(a, b) == oracle_equal(pairs)


def test_phase_differences_equal_only_mod_2():
    # the differences are 1/2 and 1/2 - 2, the same global phase
    unit = bridge_unit(2)
    a = finite_comb(unit, [(0, 1, 0), (2, 1, F(3, 2))])
    b = finite_comb(unit, [(0, 1, F(1, 2)), (2, 1, 0)])
    assert comb_equal_up_to_phase(a, b) == (True, F(1, 2))
    one = finite_comb(unit, [(4, 1, F(5, 3))])
    assert comb_equal_up_to_phase(product_comb(a, one), product_comb(b, one)) == (True, F(1, 2))
    assert comb_equal_up_to_phase(
        periodic_comb(unit, 1, 4, [0, F(3, 2)]), periodic_comb(unit, 1, 4, [F(1, 2), 0])
    ) == (True, F(1, 2))


def test_phase_differences_apart_by_a_small_fraction():
    unit = bridge_unit(2)
    # differences 0 and 1 are apart by an odd integer, not a multiple of 2
    odd = finite_comb(unit, [(0, 1, 0), (2, 1, 1)])
    assert comb_equal_up_to_phase(finite_comb(unit, [(0, 1, 0), (2, 1, 0)]), odd) == (False, None)
    a = finite_comb(unit, [(0, 1, 0), (2, 1, 0)])
    b = finite_comb(unit, [(0, 1, F(1, 3)), (2, 1, F(1, 3) + F(1, 10**6))])
    assert comb_equal_up_to_phase(a, b) == (False, None)
    one = finite_comb(unit, [(4, 1, 0)])
    assert comb_equal_up_to_phase(product_comb(a, one), product_comb(b, one)) == (False, None)
    assert comb_equal_up_to_phase(
        periodic_comb(unit, 1, 4, [0, 0]), periodic_comb(unit, 1, 4, [F(1, 3), F(1, 3) + F(1, 10**6)])
    ) == (False, None)


# --- equality up to one global phase ------------------------------------------------


def test_periodic_equality_refuses_a_noncanonical_comb():
    # built by hand, a comb may repeat its cycle or keep its offset outside [0, period); equality
    # reads the canonical form, so it refuses such a comb rather than answer (False, None) for an equal one
    unit, half = bridge_unit(2), (F(0), F(1, 2))
    repeated = CombState(unit, PeriodicSupport(F(1), 4, half + half))
    far = CombState(unit, PeriodicSupport(F(5), 4, half))
    for hand, offset in ((repeated, 1), (far, 5)):
        canonical = periodic_comb(unit, offset, 4, half)
        for pair in ((hand, canonical), (canonical, hand)):
            with pytest.raises(ValueError, match="canonical form"):
                comb_equal_up_to_phase(*pair)
        rebuilt = periodic_comb(unit, hand.periodic.offset, 4, hand.periodic.pattern)
        assert comb_equal_up_to_phase(rebuilt, canonical) == (True, 0)


def test_empty_combs_are_equal_with_zero_phase():
    unit = bridge_unit(2)
    assert comb_equal_up_to_phase(finite_comb(unit, []), finite_comb(unit, [])) == (True, 0)
    empty = twomode_comb((unit, unit), [])
    assert comb_equal_up_to_phase(empty, empty) == (True, 0)
    none = finite_comb(unit, [])
    assert product_comb(none, none) == empty
    assert comb_equal_up_to_phase(product_comb(none, none), empty) == (True, 0)


def test_one_changed_magnitude_breaks_equality():
    unit = bridge_unit(2)
    teeth = [(0, 1, 0), (2, 1, F(1, 2)), (4, 1, F(1, 4))]
    changed = [(0, 1, 0), (2, 3, F(1, 2)), (4, 1, F(1, 4))]
    a, b = finite_comb(unit, teeth), finite_comb(unit, changed)
    assert comb_equal_up_to_phase(a, b) == (False, None)
    assert comb_equal_up_to_phase(product_comb(a, a), product_comb(a, b)) == (False, None)
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
    for k in (-2, 1):
        # b from offset 1 + 4k, where tooth t is a's tooth t + k, with its cycle given twice
        spelling = [pattern[(t + k) % len(pattern)] + shift for t in range(2 * len(pattern))]
        assert comb_equal_up_to_phase(a, periodic_comb(unit, 1 + 4 * k, 4, spelling)) == (True, shift)
        spelling[1] += F(1, 3)
        assert comb_equal_up_to_phase(a, periodic_comb(unit, 1 + 4 * k, 4, spelling)) == (False, None)


# --- ranges -------------------------------------------------------------------------


def test_teeth_in_range_boundaries():
    state = periodic_comb(bridge_unit(1), 0, 2, [F(0)])
    teeth = teeth_in_range(state, 0, 8)
    assert [t.index for t in teeth] == [0, 2, 4, 6]


# --- single-mode only ---------------------------------------------------------------


def test_single_mode_functions_refuse_a_two_mode_comb():
    a = finite_comb(bridge_unit(2), [(0, 1, 0), (2, 1, F(1, 2))])
    prod = product_comb(a, a)
    with pytest.raises(ValueError, match=r"^a single-mode comb is needed, got a 2-mode comb$"):
        product_comb(prod, a)
    with pytest.raises(ValueError, match=r"^a single-mode comb is needed, got a 2-mode comb$"):
        comb_to_json_dict(prod)


# --- JSON ---------------------------------------------------------------------------


def oracle_json(tooth):
    """A tooth's JSON entry from its Fraction oracle."""
    ratio = lambda v: {"num": v.numerator, "den": v.denominator}
    phase = {**ratio(tooth.phase), "unit": "pi"}
    return {"index": ratio(tooth.index), "magnitude": ratio(tooth.magnitude), "phase": phase}


# negative and fractional indices, magnitudes outside least terms, nonzero phases
JSON_TEETH = [
    (F(-7, 2), F(2, 6), F(1, 3)), (-2, F(4, 8), F(3, 4)), (0, 3, 0), (F(5, 3), 1, F(7, 4)), (4, F(2, 6), 1),
]


@pytest.mark.parametrize("gate, r", [(None, None), ("translate_p", F(1, 3)), ("S", None), ("T", None)])
def test_finite_json_entries_match_fraction_oracle(gate, r):
    # the integer places over one denominator per coordinate are written in least terms, tooth by tooth
    N = 3
    comb = finite_comb(bridge_unit(N), JSON_TEETH)
    if gate is not None:
        comb = gkp_apply(gate, comb, N, amount=r)
    assert comb_to_json_dict(comb)["entries"] == [oracle_json(t) for t in teeth_of(comb)]

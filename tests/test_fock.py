"""Truncated Fock-space operators, codeword construction, exact phase channels."""

import cmath
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqec.cli import _parse_primitive
from cvqec.errors import InvalidDimension, NonRationalPhase, ZeroProjection
from cvqec.fock import (
    SUPPORT_TOL,
    FockOperator,
    FockVector,
    apply_operator,
    approx_ideal_rot_codeword,
    coherent_state,
    crot,
    diagonal_phase_operator,
    fock_operator,
    inner,
    rot_codeword_from_primitive,
    rot_logical_op,
)
from cvqec.phases import mod2
from cvqec.verify import restricted_matrix

from _helpers import (
    adjoint,
    annihilation,
    basis,
    ideal_codeword,
    phase_to_complex,
    phases,
    random_state,
    rotation_sum_projection,
)


# --- operator constructors ----------------------------------------------------


def test_annihilation_action_oracle():
    # a|3> = sqrt(3)|2>
    a = annihilation(6)
    out = apply_operator(a, basis(6, 3))
    expected = np.zeros(6, dtype=complex)
    expected[2] = math.sqrt(3)
    assert np.allclose(out.amplitudes, expected)
    assert not np.any(apply_operator(a, basis(6, 0)).amplitudes)


def test_rotation_exact_phase_channel():
    r = fock_operator("rotation", 4, Fraction(1, 2))
    assert phases(r) == (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))
    assert np.allclose(np.diag(r.entries), [1, 1j, -1, -1j])


def test_rotation_float_theta_is_refused():
    # theta is a rational of pi; a float would be rounded, so it is refused
    with pytest.raises(NonRationalPhase):
        fock_operator("rotation", 4, 0.7)


def test_number_shift_matrix_and_adjoint():
    g = fock_operator("shift", 5, 2)
    assert np.array_equal(g.entries, np.eye(5, k=2))
    # lowering: |4> -> |2>
    assert np.allclose(apply_operator(g, basis(5, 4)).amplitudes, basis(5, 2).amplitudes)
    g_dag = adjoint(g)
    assert g_dag.structure == "band" and g_dag.offset == -2
    assert np.allclose(apply_operator(g_dag, basis(5, 2)).amplitudes, basis(5, 4).amplitudes)


def test_adjoint_negates_exact_phases():
    r = fock_operator("rotation", 3, Fraction(1, 3))
    r_dag = adjoint(r)
    assert phases(r_dag) == (Fraction(0), Fraction(5, 3), Fraction(4, 3))
    assert np.allclose(r.entries @ r_dag.entries, np.eye(3))


def test_exact_data_is_kept_over_the_least_denominator():
    # 16/8, 4/8, 24/8, 12/8 reduce mod 2 to 0, 1/2, 1, 3/2: numerators 0..3 over 2
    op = FockOperator(4, [1, 1j, -1, -1j], "band", phase_num=np.array([16, 4, 24, 12]), den=8)
    assert op.den == 2 and op.phase_num.tolist() == [0, 1, 2, 3]
    assert phases(op) == (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))
    ref = fock_operator("rotation", 4, Fraction(1, 2))
    assert op.den == ref.den and np.array_equal(op.phase_num, ref.phase_num)
    with pytest.raises(InvalidDimension):
        FockOperator(2, [1, -1], "band", phase_num=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        FockOperator(2, [1, -1], "band", phase_num=np.array([0, 1]), den=0)
    # exact data lives on the main diagonal only, and a band lies inside the matrix
    with pytest.raises(ValueError, match="diagonal operators"):
        FockOperator(2, [1], "band", offset=-1, phase_num=np.array([0, 1]))
    for offset in (2, -2):
        with pytest.raises(InvalidDimension, match="out of range"):
            FockOperator(2, [], "band", offset=offset)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_phase_operator_entries_match_phase_to_complex(num, den):
    got = diagonal_phase_operator(np.array([num]), den=den).data[0]
    assert abs(got - phase_to_complex(mod2(Fraction(num, den)))) < 1e-15


# --- codeword construction ------------------------------------------------------


def test_codewords_from_two_level_primitive():
    v = FockVector(8, np.array([1, 0, 1, 0, 0, 0, 0, 0], dtype=complex) / np.sqrt(2))
    w0 = rot_codeword_from_primitive(v, 2, 0)
    w1 = rot_codeword_from_primitive(v, 2, 1)
    assert np.allclose(w0.amplitudes, basis(8, 0).amplitudes)
    assert np.allclose(w1.amplitudes, basis(8, 2).amplitudes)


def test_codeword_zero_projection_raises():
    both_even = FockVector(8, np.array([1, 0, 0, 0, 1, 0, 0, 0], dtype=complex) / np.sqrt(2))
    with pytest.raises(ZeroProjection):
        rot_codeword_from_primitive(both_even, 2, 1)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_codewords_are_rotation_eigenvectors(seed, n_fold):
    rng = np.random.default_rng(seed)
    dim = 24
    primitive = random_state(rng, dim)
    z_half = fock_operator("rotation", dim, Fraction(1, n_fold))
    for j in (0, 1):
        word = rot_codeword_from_primitive(primitive, n_fold, j)
        assert abs(word.norm - 1) < 1e-12
        rotated = apply_operator(z_half, word)
        assert np.max(np.abs(rotated.amplitudes - (-1) ** j * word.amplitudes)) < 1e-10
        # support lives on the right residues
        support = np.nonzero(np.abs(word.amplitudes) > 1e-12)[0]
        assert all(m % (2 * n_fold) == j * n_fold for m in support)


def test_codewords_from_same_primitive_are_orthogonal():
    rng = np.random.default_rng(7)
    primitive = random_state(rng, 32)
    w0 = rot_codeword_from_primitive(primitive, 3, 0)
    w1 = rot_codeword_from_primitive(primitive, 3, 1)
    assert abs(inner(w0, w1)) < 1e-14


def fock_primitive(dim: int, levels: list[int]) -> FockVector:
    """The primitive `fock:` plus the sorted levels, as build-code parses it."""
    return _parse_primitive("fock:" + ",".join(map(str, sorted(levels))), dim)


@st.composite
def order_and_primitive(draw):
    """(N, primitive) with D in [2N, 4096]: a `fock:` level set, a coherent state with |alpha| <= 5,
    or the unnormalized envelope e^{-eps m} with eps in [0, 1]."""
    N = draw(st.integers(1, 64))
    D = draw(st.integers(2 * N, 4096))
    kind = draw(st.sampled_from(["fock", "coherent", "envelope"]))
    if kind == "fock":
        # multiples of N land in a sector, other levels in neither
        level = st.integers(0, D - 1) | st.integers(0, (D - 1) // N).map(lambda k: k * N)
        return N, fock_primitive(D, draw(st.lists(level, min_size=1, max_size=6, unique=True)))
    if kind == "coherent":
        return N, coherent_state(cmath.rect(draw(st.floats(0, 5)), draw(st.floats(0, 2 * math.pi))), D)
    return N, FockVector(D, np.exp(-draw(st.floats(0, 1)) * np.arange(D)))


@settings(deadline=None, max_examples=150)
@given(order_and_primitive())
# far levels on the j = 1 sector, and one in neither sector at the largest D the CLI allows
@example((3, fock_primitive(4096, [0, 2613])))
@example((5, fock_primitive(4096, [0, 3895])))
@example((64, fock_primitive(65536, [0, 65535])))
def test_codeword_selection_matches_rotation_sum(order_primitive):
    N, primitive = order_primitive
    for j in (0, 1):
        want = rotation_sum_projection(primitive, N, j)
        try:
            word = rot_codeword_from_primitive(primitive, N, j)
        except ZeroProjection:
            assert np.linalg.norm(want) < SUPPORT_TOL + 1e-12
            continue
        # the builder's selection before normalization, within the bound the builder once checked at runtime
        assert np.max(np.abs(word.amplitudes * np.linalg.norm(want) - want)) <= 1e-12


def _outcome(build, *args):
    """The codeword's amplitude bytes, or the type of the exception `build` raises."""
    try:
        return build(*args).amplitudes.tobytes()
    except Exception as exc:
        return type(exc)


def test_ideal_family_matches_direct_construction_bytewise():
    for N in (1, 2, 3, 5, 8, 52, 53, 64):
        for D in (2 * N, 2 * N + 1, 64, 255, 256, 2048, 4096):
            if D < 2 * N:
                continue  # refused by the envelope route: test_ideal_codeword_needs_room
            for eps in (0, 1e-9, 1e-4, 1e-3, 0.0108, 0.1, 5):
                for j in (0, 1):
                    args = (N, j, D, eps)
                    want = _outcome(ideal_codeword, *args)
                    assert _outcome(approx_ideal_rot_codeword, *args) == want, args
    # e^{-eps m} underflows to 0 on the j = 1 sector
    for eps in (800, 1e308):
        for build in (approx_ideal_rot_codeword, ideal_codeword):
            with pytest.raises(ZeroProjection):
                build(3, 1, 64, eps)


# --- logical operators -----------------------------------------------------------


def test_logical_z_s_t_phases_frozen():
    z = rot_logical_op("Z", 2, 8)
    assert phases(z) == tuple(mod_two(Fraction(m, 2)) for m in range(8))
    s = rot_logical_op("S", 2, 8)
    assert phases(s) == tuple(mod_two(Fraction(m * m, 8)) for m in range(8))
    t = rot_logical_op("T", 2, 8)
    assert phases(t) == tuple(mod_two(Fraction(m**4, 64)) for m in range(8))


def mod_two(x: Fraction) -> Fraction:
    return x % 2


def test_logical_x_is_number_shift():
    x = rot_logical_op("X", 3, 9)
    assert np.array_equal(x.entries, np.eye(9, k=3))


def test_logical_h_kernel_entries():
    h = rot_logical_op("H", 2, 4)
    scale = 1 / math.sqrt(2 * math.pi)
    for m in range(4):
        for mp in range(4):
            expected = scale * np.exp(-1j * math.pi * m * mp / 4)
            assert abs(h.entries[m, mp] - expected) < 1e-14


@pytest.mark.parametrize("N, dim", [(1, 8), (3, 64), (64, 300)])
def test_logical_h_entries_match_integer_reduced_phases(N, dim):
    # P = 2N^2 is below dim for the first two sizes and above it for the third
    h = rot_logical_op("H", N, dim)
    assert h.structure == "kernel" and h.data.size == 2 * N**2
    m = np.arange(dim)
    k = np.outer(m, m) % (2 * N**2)  # exact in int64
    want = np.exp(-1j * np.pi * k / N**2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(h.entries - want)) < 1e-15


def test_s_squared_matches_z_on_code_support():
    # phases of S^2 and Z agree exactly on every multiple of N
    N, dim = 3, 30
    s = rot_logical_op("S", N, dim)
    z = rot_logical_op("Z", N, dim)
    for m in range(0, dim, N):
        assert mod_two(2 * phases(s)[m]) == phases(z)[m]


def test_crot_phases_lexicographic():
    c = crot(2, 3, 4, 3)
    # phase at (m, mp) is m*mp/(N*M) in pi units
    idx = 0
    for m in range(4):
        for mp in range(3):
            assert phases(c)[idx] == mod_two(Fraction(m * mp, 6))
            idx += 1


def test_ideal_codeword_envelope_frozen():
    word = approx_ideal_rot_codeword(2, 1, 12, 0.5)
    support = np.nonzero(word.amplitudes)[0]
    assert list(support) == [2, 6, 10]
    raw = np.exp([-1.0, -3.0, -5.0])
    expected = raw / np.linalg.norm(raw)
    assert np.allclose(word.amplitudes[support], expected)


def test_ideal_codeword_needs_room():
    # dim < 2N is refused on both sectors, though level 0 of the j = 0 sector fits
    for j in (0, 1):
        with pytest.raises(InvalidDimension):
            approx_ideal_rot_codeword(4, j, 3, 0.1)


# --- serialization ----------------------------------------------------------------


def test_vector_json_round_trip():
    # one [re, im] pair per level, and the JSON text keeps every bit, negative zeros included
    v = FockVector(3, [complex(-0.0, 0.5), complex(0.1, -0.0), 5e-324])
    text = json.dumps(v.to_json_dict())
    assert text == '{"dim": 3, "structure": "vector", "entries": [[-0.0, 0.5], [0.1, -0.0], [5e-324, 0.0]]}'
    back = np.array(json.loads(text)["entries"]).view(complex).ravel()
    assert back.tobytes() == v.amplitudes.tobytes()


def test_coherent_state_recursion():
    alpha = 1.3 + 0.4j
    v = coherent_state(alpha, 20)
    assert abs(v.norm - 1) < 1e-12
    for m in range(10):
        ratio = v.amplitudes[m + 1] / v.amplitudes[m]
        assert abs(ratio - alpha / math.sqrt(m + 1)) < 1e-12
    # past m = 170, where m! overflows a float, the same ratio carries on
    v = coherent_state(alpha, 200)
    for m in range(165, 185):
        ratio = v.amplitudes[m + 1] / v.amplitudes[m]
        assert abs(ratio - alpha / math.sqrt(m + 1)) < 1e-12


# --- structured storage -------------------------------------------------------------


def test_banded_operators_store_no_dense_matrix():
    # dense storage at this size would take 2**32 complex entries, 64 GiB
    dim = 2**16
    m = 5
    tracemalloc.start()
    try:
        ops = [
            fock_operator("shift", dim, 3),
            annihilation(dim),
            fock_operator("rotation", dim, Fraction(3, 10)),
        ]
        ops += [adjoint(op) for op in ops]
        vec = basis(dim, m)
        # (index of the single nonzero amplitude of op|m>, its value)
        expected = [
            (m - 3, 1.0),
            (m - 1, math.sqrt(m)),
            (m, np.exp(0.3j * np.pi * m)),
            (m + 3, 1.0),
            (m + 1, math.sqrt(m + 1)),
            (m, np.exp(-0.3j * np.pi * m)),
        ]
        for op, (index, value) in zip(ops, expected):
            amps = apply_operator(op, vec).amplitudes
            assert np.count_nonzero(amps) == 1
            assert abs(amps[index] - value) < 1e-12
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak allocation {peak / 2**20:.1f} MiB"


def test_logical_h_stores_no_dense_matrix():
    N = 3
    assert rot_logical_op("H", N, 4096).data.nbytes <= 16 * 2 * N**2
    # dense storage at this size would take 2**32 complex entries, 64 GiB
    dim = 2**16
    levels = (5, dim - 1)
    tracemalloc.start()
    try:
        M = restricted_matrix(rot_logical_op("H", N, dim), [basis(dim, m) for m in levels])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak allocation {peak / 2**20:.1f} MiB"
    # <m|H|m'> is the kernel entry at phase m m' mod 2N^2 over N^2
    k = np.outer(levels, levels) % (2 * N**2)
    want = np.exp(-1j * np.pi * k / N**2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(M - want)) < 1e-15


def test_apply_operator_refuses_a_kernel():
    # a kernel is only ever restricted to the code space, never applied to a vector
    with pytest.raises(ValueError, match="kernel"):
        apply_operator(rot_logical_op("H", 2, 16), basis(16, 3))


@pytest.mark.parametrize("offset", [-3, 0, 3], ids=lambda offset: f"band-{offset}")
def test_band_action_matches_dense_matrix(offset):
    rng = np.random.default_rng(11)
    dim = 12
    size = dim - abs(offset)
    band = rng.normal(size=size) + 1j * rng.normal(size=size)
    op = FockOperator(dim, band, "band", offset)
    vec = random_state(rng, dim)
    dense = op.entries @ vec.amplitudes
    assert np.max(np.abs(apply_operator(op, vec).amplitudes - dense)) < 1e-14
    assert np.array_equal(adjoint(op).entries, op.entries.conj().T)

"""Truncated Fock-space operators, codeword construction, exact phase channels."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec.errors import InvalidDimension, NonOrthonormalCodewords, ZeroProjection
from cvqec.fock import (
    FockOperator,
    FockVector,
    adjoint,
    apply_operator,
    approx_ideal_rot_codeword,
    coherent_state,
    crot,
    diagonal_phase_operator,
    fock_operator,
    inner,
    rot_codeword_from_primitive,
    rot_logical_op,
    rot_primitive_validity,
    u_invariant_projector,
)
from cvqec.phases import mod2, phase_to_complex

from _helpers import random_state


def basis(dim, m):
    return FockVector.basis(dim, m)


# --- operator constructors ----------------------------------------------------


def test_number_operator_diagonal():
    n = fock_operator("number", 5)
    assert n.exact_diag == tuple(Fraction(m) for m in range(5))
    assert np.allclose(n.entries, np.diag(np.arange(5.0)))


def test_annihilation_action_oracle():
    # a|3> = sqrt(3)|2>
    a = fock_operator("annihilation", 6)
    out = apply_operator(a, basis(6, 3))
    expected = np.zeros(6, dtype=complex)
    expected[2] = math.sqrt(3)
    assert np.allclose(out.amplitudes, expected)
    assert apply_operator(a, basis(6, 0)).is_zero


def test_rotation_exact_phase_channel():
    r = fock_operator("rotation", 4, theta=Fraction(1, 2))
    assert r.phases == (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))
    assert np.allclose(np.diag(r.entries), [1, 1j, -1, -1j])


def test_rotation_float_theta_has_no_exact_channel():
    r = fock_operator("rotation", 4, theta=0.7)
    assert r.phases is None
    assert np.allclose(np.diag(r.entries), np.exp(1j * 0.7 * np.arange(4)))


def test_number_shift_matrix_and_adjoint():
    g = fock_operator("number_shift", 5, shift=2)
    assert np.array_equal(g.entries, np.eye(5, k=2))
    # lowering: |4> -> |2>
    assert np.allclose(apply_operator(g, basis(5, 4)).amplitudes, basis(5, 2).amplitudes)
    g_dag = adjoint(g)
    assert g_dag.structure == "band" and g_dag.offset == -2
    assert np.allclose(apply_operator(g_dag, basis(5, 2)).amplitudes, basis(5, 4).amplitudes)


def test_adjoint_negates_exact_phases():
    r = fock_operator("rotation", 3, theta=Fraction(1, 3))
    r_dag = adjoint(r)
    assert r_dag.phases == (Fraction(0), Fraction(5, 3), Fraction(4, 3))
    assert np.allclose(r.entries @ r_dag.entries, np.eye(3))


def test_exact_data_is_kept_over_the_least_denominator():
    # 16/8, 4/8, 24/8, 12/8 reduce mod 2 to 0, 1/2, 1, 3/2: numerators 0..3 over 2
    op = FockOperator(4, [1, 1j, -1, -1j], "band", phase_num=np.array([16, 4, 24, 12]), den=8)
    assert op.den == 2 and op.phase_num.tolist() == [0, 1, 2, 3]
    assert op.phases == (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))
    ref = fock_operator("rotation", 4, theta=Fraction(1, 2))
    assert op.den == ref.den and np.array_equal(op.phase_num, ref.phase_num)
    n = FockOperator(2, [0, 1], "band", diag_num=np.array([0, 6]), den=6)
    assert n.den == 1 and n.exact_diag == (Fraction(0), Fraction(1))
    with pytest.raises(InvalidDimension):
        FockOperator(2, [0, 1], "band", diag_num=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        FockOperator(2, [0, 1], "band", diag_num=np.array([0, 1]), den=0)
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


# --- invariant projector --------------------------------------------------------


def test_u_invariant_projector_rotation_code_sectors():
    # generator spectrum 0..7 with Z angle pi/2: sector j keeps {0,4} / {2,6}
    spectrum = [Fraction(m) for m in range(8)]
    p0 = u_invariant_projector(spectrum, Fraction(1, 2), 0)
    p1 = u_invariant_projector(spectrum, Fraction(1, 2), 1)
    assert p0.exact_diag == tuple(Fraction(int(m in (0, 4))) for m in range(8))
    assert p1.exact_diag == tuple(Fraction(int(m in (2, 6))) for m in range(8))


def test_u_invariant_projector_zero_sector_is_flagged_not_error():
    spectrum = [Fraction(m) for m in range(8)]
    p = u_invariant_projector(spectrum, Fraction(1, 10), 1)
    assert p.is_zero


# --- codeword construction ------------------------------------------------------


def test_primitive_validity_frozen_cases():
    v = FockVector(8, np.array([1, 0, 1, 0, 0, 0, 0, 0], dtype=complex) / np.sqrt(2))
    assert rot_primitive_validity(v, 2)
    both_even = FockVector(8, np.array([1, 0, 0, 0, 1, 0, 0, 0], dtype=complex) / np.sqrt(2))
    assert not rot_primitive_validity(both_even, 2)
    assert rot_primitive_validity(coherent_state(2.0, 32), 2)


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
    z_half = fock_operator("rotation", dim, theta=Fraction(1, n_fold))
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


# --- logical operators -----------------------------------------------------------


def test_logical_z_s_t_phases_frozen():
    z = rot_logical_op("Z", 2, 8)
    assert z.phases == tuple(mod_two(Fraction(m, 2)) for m in range(8))
    s = rot_logical_op("S", 2, 8)
    assert s.phases == tuple(mod_two(Fraction(m * m, 8)) for m in range(8))
    t = rot_logical_op("T", 2, 8)
    assert t.phases == tuple(mod_two(Fraction(m**4, 64)) for m in range(8))


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
        assert mod_two(2 * s.phases[m]) == z.phases[m]


def test_crot_phases_lexicographic():
    c = crot(2, 3, 4, 3)
    # phase at (m, mp) is m*mp/(N*M) in pi units
    idx = 0
    for m in range(4):
        for mp in range(3):
            assert c.phases[idx] == mod_two(Fraction(m * mp, 6))
            idx += 1


def test_ideal_codeword_envelope_frozen():
    word = approx_ideal_rot_codeword(2, 1, 12, 0.5)
    support = np.nonzero(word.amplitudes)[0]
    assert list(support) == [2, 6, 10]
    raw = np.exp([-1.0, -3.0, -5.0])
    expected = raw / np.linalg.norm(raw)
    assert np.allclose(word.amplitudes[support], expected)


def test_ideal_codeword_needs_room():
    with pytest.raises(InvalidDimension):
        approx_ideal_rot_codeword(4, 1, 3, 0.1)


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
            fock_operator("number_shift", dim, shift=3),
            fock_operator("annihilation", dim),
            fock_operator("rotation", dim, theta=0.3),
        ]
        ops += [adjoint(op) for op in ops]
        vec = basis(dim, m)
        # (index of the single nonzero amplitude of op|m>, its value)
        expected = [
            (m - 3, 1.0),
            (m - 1, math.sqrt(m)),
            (m, np.exp(0.3j * m)),
            (m + 3, 1.0),
            (m + 1, math.sqrt(m + 1)),
            (m, np.exp(-0.3j * m)),
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
    dim, m = 2**16, 5
    tracemalloc.start()
    try:
        out = apply_operator(rot_logical_op("H", N, dim), basis(dim, m)).amplitudes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak allocation {peak / 2**20:.1f} MiB"
    # column m of the kernel: phase r m mod 2N^2 over N^2 at row r
    r = np.array([0, 1, 17, dim - 1])
    want = np.exp(-1j * np.pi * (r * m % (2 * N**2)) / N**2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(out[r] - want)) < 1e-15


@pytest.mark.parametrize("structure, n", [("band", -3), ("band", 0), ("band", 3), ("kernel", 5), ("kernel", 30)])
def test_band_action_matches_dense_matrix(structure, n):
    # n is a band's offset, or a kernel's table size P, below and above dim
    rng = np.random.default_rng(11)
    dim = 12
    size = n if structure == "kernel" else dim - abs(n)
    band = rng.normal(size=size) + 1j * rng.normal(size=size)
    op = FockOperator(dim, band, structure, 0 if structure == "kernel" else n)
    vec = random_state(rng, dim)
    dense = op.entries @ vec.amplitudes
    assert np.max(np.abs(apply_operator(op, vec).amplitudes - dense)) < 1e-14
    assert np.array_equal(adjoint(op).entries, op.entries.conj().T)

"""Detectability checks, logical action, convergence scans, exact suite."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec.cli import MAX_N
from cvqec.errors import InvalidDimension, NonOrthonormalCodewords
from cvqec.fock import (
    FockOperator,
    FockVector,
    approx_ideal_rot_codeword,
    fock_operator,
    rot_logical_op,
)
from cvqec.verify import (
    convergence_scan,
    detectability_check,
    gkp_exact_suite,
    logical_action,
    markdown_table,
    restricted_matrix,
    stabilizer_check,
    suite_markdown,
)

from _helpers import adjoint, annihilation, basis, random_state

F = Fraction


def trivial_code(dim=8):
    return [basis(dim, 0), basis(dim, 2)]


def envelope_code(N, eps, dim):
    return [approx_ideal_rot_codeword(N, j, dim, eps) for j in (0, 1)]


# --- detectability -----------------------------------------------------------


def test_identity_error_always_passes():
    [row] = detectability_check(trivial_code(), [("id", FockOperator(8, np.ones(8)))], tol=1e-12)
    assert row["pass"]
    assert row["metrics"]["off_diag_max"] == 0.0 and row["metrics"]["diag_spread"] == 0.0


def test_single_loss_is_detectable_on_order_two_code():
    words = envelope_code(2, 1e-4, 256)
    a = annihilation(256)
    [row] = detectability_check(words, [("a", a)], tol=1e-6)
    assert row["pass"]


def test_double_loss_is_not_detectable_on_order_two_code():
    words = envelope_code(2, 1e-4, 256)
    # a^2|l> = sqrt(l (l - 1))|l - 2>, the band at offset 2
    a2 = FockOperator(256, np.sqrt(np.arange(1, 255) * np.arange(2, 256)), offset=2)
    [row] = detectability_check(words, [("aa", a2)], tol=1e-6)
    assert not row["pass"]
    assert row["metrics"]["off_diag_max"] > 0.1


def test_orthonormality_is_enforced():
    dim = 8
    skew = [basis(dim, 0), FockVector(dim, np.ones(dim) / np.sqrt(dim))]
    with pytest.raises(NonOrthonormalCodewords):
        detectability_check(skew, [("id", FockOperator(dim, np.ones(dim)))], tol=1e-6)
    unnormalized = [FockVector(dim, 2.0 * basis(dim, 0).amplitudes), basis(dim, 2)]
    with pytest.raises(NonOrthonormalCodewords):
        detectability_check(unnormalized, [("id", FockOperator(dim, np.ones(dim)))], tol=1e-6)


def test_nan_overlap_fails_orthonormality():
    nan_word = FockVector(8, np.where(np.arange(8) == 0, np.nan, 0.0))
    with pytest.raises(NonOrthonormalCodewords):
        detectability_check([nan_word, basis(8, 2)], [("id", FockOperator(8, np.ones(8)))], tol=1e-6)


@pytest.mark.parametrize("nan_at", [(0, 0), (1, 0)])
def test_nan_entry_fails_the_verdict(nan_at):
    # the band's NaN is the element <c_i|E|c_0> at nan_at = (i, 0): the diagonal at level 0, or the
    # raising band's entry from level 0 to level 2.  NaN times a zero amplitude is NaN, so it reaches
    # every restricted entry, and a verdict written as "not above tol" would pass the row
    offset = -2 * nan_at[0]
    data = np.ones(8 - abs(offset))
    data[0] = np.nan
    [row] = detectability_check(trivial_code(), [("nan", FockOperator(8, data, offset=offset))], tol=1e-6)
    assert not row["pass"]
    assert math.isnan(row["metrics"]["off_diag_max"]) and math.isnan(row["metrics"]["diag_spread"])


@settings(deadline=None, max_examples=30)
@given(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.integers(0, 10_000),
)
def test_scalar_plus_offspace_noise_passes(c, seed):
    # errors of the form c*I + (support-avoiding junk) restrict to c on the code
    rng = np.random.default_rng(seed)
    dim = 8
    words = trivial_code(dim)
    diagonal = np.full(dim, c, dtype=complex)
    diagonal[[1, 3, 4, 5, 6, 7]] += rng.normal(size=6)
    op = FockOperator(dim, diagonal)
    [row] = detectability_check(words, [("op", op)], tol=1e-9)
    assert row["pass"]
    assert row["metrics"]["diag_spread"] == 0.0


# --- logical action ----------------------------------------------------------


def test_identity_action_has_unit_fidelity():
    res = logical_action(FockOperator(8, np.ones(8)), trivial_code(), np.eye(2))
    assert res.aligned_fidelity >= 1 - 1e-9 and res.aligned_fidelity == pytest.approx(1.0)
    assert abs(res.global_phase) < 1e-12


def test_z_action_on_fock_code():
    # order-1 code: even/odd supports, so |0>, |1> see Z as diag(1, -1)
    words = [basis(8, 0), basis(8, 1)]
    z = rot_logical_op("Z", 1, 8)
    res = logical_action(z, words, np.diag([1, -1]))
    assert res.aligned_fidelity >= 1 - 1e-9 and res.aligned_fidelity == pytest.approx(1.0, abs=1e-12)


def test_wrong_target_fails():
    words = [basis(8, 0), basis(8, 1)]
    z = rot_logical_op("Z", 1, 8)
    res = logical_action(z, words, np.eye(2))
    assert not res.aligned_fidelity >= 1 - 1e-3
    assert res.aligned_fidelity == pytest.approx(0.0, abs=1e-12)


def test_zero_restriction_is_flagged():
    # operator living entirely off the code support
    dim = 8
    res = logical_action(FockOperator(dim, np.eye(dim)[1]), trivial_code(dim), np.eye(2))
    assert (res.aligned_fidelity, res.global_phase) == (0.0, 0.0)


def x_fidelity_closed_form(N, D, eps):
    """Envelope (1 + y)/2, y = e^{-2 eps N}, or, when the top sector-1 tooth has no partner, the edge form."""
    y = math.exp(-2 * eps * N)
    if 1 <= D % (2 * N) <= N:
        return (1 + y) / 2
    x, K = y * y, -(-D // (2 * N))
    return (1 + y * (1 - x ** (K - 1)) / (1 - x**K)) / 2


@pytest.mark.parametrize(
    "N, D, fidelity, passed",
    [(52, 128, 0.9506126487, True), (53, 128, 0.9497123240, False), (52, 1024, 0.9357382050, False)],
)
def test_ideal_x_fidelity_is_envelope_or_edge(N, D, fidelity, passed):
    # the envelope alone at (52, 128) and (53, 128), which fails the 0.95 bar; the edge too at (52, 1024)
    words = [approx_ideal_rot_codeword(N, j, D, 1e-3) for j in (0, 1)]
    res = logical_action(rot_logical_op("X", N, D), words, np.array([[0, 1], [1, 0]]))
    want = x_fidelity_closed_form(N, D, 1e-3)
    assert abs(res.aligned_fidelity - want) <= 1e-12
    assert round(want, 10) == fidelity and (res.aligned_fidelity >= 1 - 5e-2) is passed


@settings(deadline=None, max_examples=30)
@given(st.fractions(min_value=0, max_value=2, max_denominator=16))
def test_fidelity_ignores_global_phase(phi):
    z = cmath.exp(1j * cmath.pi * float(phi))
    op = FockOperator(8, np.full(8, z))
    res = logical_action(op, trivial_code(), np.eye(2))
    assert res.aligned_fidelity == pytest.approx(1.0)


# --- stabilizers ---------------------------------------------------------------


def test_code_order_rotation_is_a_stabilizer():
    for N in (1, 2, 3):
        words = envelope_code(N, 1e-3, 64 if N < 3 else 96)
        rot = fock_operator("rotation", words[0].dim, F(2, N))
        assert stabilizer_check(rot, words, tol=1e-10)


def test_half_stabilizer_rotation_is_not():
    words = envelope_code(2, 1e-3, 64)
    rot = fock_operator("rotation", 64, F(1, 2))
    assert not stabilizer_check(rot, words, tol=1e-10)


def test_annihilated_code_space_is_not_stabilized():
    dim = 8
    assert not stabilizer_check(FockOperator(dim, np.eye(dim)[1]), trivial_code(dim), tol=1e-9)


# --- convergence scans -----------------------------------------------------------


def test_scan_labels():
    ups = convergence_scan(lambda x: float(x), [1, 2, 3])
    assert ups.monotonicity == "nondecreasing"
    downs = convergence_scan(lambda x: -float(x), [1, 2, 3])
    assert downs.monotonicity == "nonincreasing"
    flat = convergence_scan(lambda x: 1.0, [1, 2, 3])
    assert flat.monotonicity == "constant"
    wiggle = convergence_scan(lambda x: float((-1) ** x), [1, 2, 3])
    assert wiggle.monotonicity == "none"
    with pytest.raises(ValueError):
        convergence_scan(lambda x: 0.0, [])


def test_scan_tolerates_float_noise_on_flat_series():
    vals = {1: 0.5, 2: 0.5 + 4e-13, 3: 0.5 - 4e-13}
    scan = convergence_scan(lambda x: vals[x], [1, 2, 3])
    assert scan.monotonicity == "constant"


def test_scan_records_points():
    scan = convergence_scan(lambda x: x * 0.5, [2, 4])
    assert scan.points == ((2, 1.0), (4, 2.0))
    assert scan.monotonicity == "nondecreasing"


# --- exact suite and reports -------------------------------------------------------


@pytest.mark.parametrize("N", range(1, MAX_N + 1))
def test_exact_suite_is_all_green(N):
    rows = gkp_exact_suite(N)
    assert len(rows) == 24
    failed = [r["name"] for r in rows if not r["pass"]]
    assert failed == []


def test_exact_suite_row_names_cover_gates():
    names = {r["name"] for r in gkp_exact_suite(2)}
    for frag in ("Z_on_0", "S_on_1", "T_on_1", "X_swaps", "CZ_on", "ZZ_is_stab_q", "XX_is_stab_p", "SS_is_Z", "TT_is_S"):
        assert any(frag in n for n in names), frag


def test_markdown_emitters():
    table = markdown_table(["a", "b"], [[1, 2], [3, 4]])
    lines = table.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "| --- | --- |"
    assert lines[2] == "| 1 | 2 |"

    md_suite = suite_markdown(gkp_exact_suite(1))
    assert md_suite.count("\n") >= 24


def test_restricted_matrix_entries():
    words = trivial_code(8)
    z = rot_logical_op("Z", 1, 8)
    M = restricted_matrix(z, words)
    assert M == pytest.approx(np.diag([1.0, 1.0]))
    x = rot_logical_op("X", 1, 8)
    M = restricted_matrix(x, words)
    # lowering by 1: <0|X|2> = 0, off-support otherwise
    assert M == pytest.approx(np.zeros((2, 2)))


@pytest.mark.parametrize("P", [30, 12, 5])
def test_kernel_restriction_matches_dense_matrix(P):
    # P above dim, equal to it, and not dividing it; dense random vectors fill every class
    rng = np.random.default_rng(11)
    dim = 12
    op = FockOperator(dim, rng.normal(size=P) + 1j * rng.normal(size=P), "kernel")
    words = [random_state(rng, dim) for _ in range(2)]
    amps = np.array([w.amplitudes for w in words])
    dense = amps.conj() @ op.entries @ amps.T
    assert np.max(np.abs(restricted_matrix(op, words) - dense)) < 1e-14
    assert np.array_equal(adjoint(op).entries, op.entries.conj().T)
    with pytest.raises(InvalidDimension):
        restricted_matrix(op, [words[0], random_state(rng, dim + 1)])


def test_kernel_restriction_of_dense_vectors_is_blocked():
    # every one of the min(D, 2N^2) = 4096 classes is live; the whole K would take 256 MiB
    rng = np.random.default_rng(5)
    N, dim = 64, 4096
    h = rot_logical_op("H", N, dim)
    words = [random_state(rng, dim) for _ in range(2)]
    tracemalloc.start()
    try:
        M = restricted_matrix(h, words)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak allocation {peak / 2**20:.1f} MiB"
    # the kernel is symmetric, so <1|H|0> is <0|H^*|1> conjugated
    assert abs(M[1, 0] - restricted_matrix(adjoint(h), words)[0, 1].conjugate()) < 1e-12


def _h_oracle(N, words):
    """<i|H|j> from every pair of nonzero levels: phase m m' mod 2N^2 in integers, math.fsum sums."""
    out = np.zeros((2, 2), dtype=complex)
    for i, bra in enumerate(words):
        for j, ket in enumerate(words):
            m, mp = np.flatnonzero(bra.amplitudes), np.flatnonzero(ket.amplitudes)
            phase = -np.pi * ((np.outer(m, mp) % (2 * N**2)) / N**2)
            terms = np.outer(bra.amplitudes[m].conj(), ket.amplitudes[mp])
            terms = terms * (np.cos(phase) + 1j * np.sin(phase))
            out[i, j] = complex(math.fsum(terms.real.ravel()), math.fsum(terms.imag.ravel()))
    return out / math.sqrt(2 * math.pi)


@pytest.mark.parametrize("N, dim", [(1, 64), (3, 2048), (5, 1000), (8, 256), (64, 4096)])
def test_logical_h_restriction_matches_integer_phase_oracle(N, dim):
    words = envelope_code(N, 1e-3, dim)
    want = _h_oracle(N, words)
    got = restricted_matrix(rot_logical_op("H", N, dim), words)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_report_rows():
    # a generator of errors gives one row per error, in order
    errors = ((name, FockOperator(8, np.ones(8))) for name in ("a", "b"))
    rows = detectability_check(trivial_code(), errors, tol=1e-9)
    metrics = {"off_diag_max": 0.0, "diag_spread": 0.0, "tol": 1e-9}
    assert rows == [{"name": f"detect_{name}", "pass": True, "metrics": metrics} for name in ("a", "b")]

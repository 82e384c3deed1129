"""Detectability checks, logical action, convergence scans, exact suite."""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec.errors import NonOrthonormalCodewords
from cvqec.fock import (
    FockOperator,
    FockVector,
    approx_ideal_rot_codeword,
    fock_operator,
    identity,
    rot_codeword_from_primitive,
    rot_logical_op,
)
from cvqec.verify import (
    _error_row,
    convergence_scan,
    detectability_check,
    gkp_exact_suite,
    logical_action,
    markdown_table,
    restricted_matrix,
    stabilizer_check,
    suite_markdown,
)

F = Fraction


def trivial_code(dim=8):
    return [FockVector.basis(dim, 0), FockVector.basis(dim, 2)]


def envelope_code(N, eps, dim):
    return [approx_ideal_rot_codeword(N, j, dim, eps) for j in (0, 1)]


# --- detectability -----------------------------------------------------------


def test_identity_error_always_passes():
    report = detectability_check(trivial_code(), {"id": identity(8)}, tol=1e-12)
    assert report.passed
    row = report.rows[0]
    assert row.c_E == pytest.approx(1.0)
    assert row.off_diag_max == 0.0 and row.diag_spread == 0.0


def test_single_loss_is_detectable_on_order_two_code():
    words = envelope_code(2, 1e-4, 256)
    a = fock_operator("annihilation", 256)
    report = detectability_check(words, {"a": a}, tol=1e-6)
    assert report.passed


def test_double_loss_is_not_detectable_on_order_two_code():
    words = envelope_code(2, 1e-4, 256)
    a = fock_operator("annihilation", 256).entries
    a2 = FockOperator(256, a @ a, "dense")
    report = detectability_check(words, {"aa": a2}, tol=1e-6)
    assert not report.passed
    assert report.rows[0].off_diag_max > 0.1


def test_orthonormality_is_enforced():
    dim = 8
    skew = [FockVector.basis(dim, 0), FockVector(dim, np.ones(dim) / np.sqrt(dim))]
    with pytest.raises(NonOrthonormalCodewords):
        detectability_check(skew, {"id": identity(dim)}, tol=1e-6)
    unnormalized = [FockVector(dim, 2.0 * FockVector.basis(dim, 0).amplitudes), FockVector.basis(dim, 2)]
    with pytest.raises(NonOrthonormalCodewords):
        detectability_check(unnormalized, {"id": identity(dim)}, tol=1e-6)


def test_nan_overlap_fails_orthonormality():
    nan_word = FockVector(8, np.where(np.arange(8) == 0, np.nan, 0.0))
    with pytest.raises(NonOrthonormalCodewords):
        detectability_check([nan_word, FockVector.basis(8, 2)], {"id": identity(8)}, tol=1e-6)


@pytest.mark.parametrize("nan_at", [(0, 0), (1, 0)])
def test_nan_entry_fails_the_verdict(nan_at):
    # one NaN beside zeros: max(0.0, nan) is 0.0, so a max-based verdict would pass
    M = np.eye(2, dtype=complex)
    M[nan_at] = np.nan
    assert not _error_row("nan", M, tol=1e-6).passed


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
    junk = np.zeros((dim, dim), dtype=complex)
    rows = [1, 3, 4, 5, 6, 7]
    junk[np.ix_(rows, rows)] = rng.normal(size=(6, 6))
    op = FockOperator(dim, c * np.eye(dim) + junk, "dense")
    report = detectability_check(words, {"op": op}, tol=1e-9)
    assert report.passed
    assert report.rows[0].c_E == pytest.approx(c)


# --- logical action ----------------------------------------------------------


def test_identity_action_has_unit_fidelity():
    res = logical_action(identity(8), trivial_code(), np.eye(2), tol=1e-9)
    assert res.passed and res.aligned_fidelity == pytest.approx(1.0)
    assert abs(res.global_phase) < 1e-12


def test_z_action_on_fock_code():
    # order-1 code: even/odd supports, so |0>, |1> see Z as diag(1, -1)
    words = [FockVector.basis(8, 0), FockVector.basis(8, 1)]
    z = rot_logical_op("Z", 1, 8)
    res = logical_action(z, words, np.diag([1, -1]), tol=1e-9)
    assert res.passed and res.aligned_fidelity == pytest.approx(1.0, abs=1e-12)


def test_wrong_target_fails():
    words = [FockVector.basis(8, 0), FockVector.basis(8, 1)]
    z = rot_logical_op("Z", 1, 8)
    res = logical_action(z, words, np.eye(2), tol=1e-3)
    assert not res.passed
    assert res.aligned_fidelity == pytest.approx(0.0, abs=1e-12)


def test_zero_restriction_is_flagged():
    # operator living entirely off the code support
    dim = 8
    op = np.zeros((dim, dim), dtype=complex)
    op[1, 1] = 1.0
    res = logical_action(FockOperator(dim, op, "dense"), trivial_code(dim), np.eye(2), tol=1e-9)
    assert res.passed is False and res.aligned_fidelity == 0.0


@settings(deadline=None, max_examples=30)
@given(st.fractions(min_value=0, max_value=2, max_denominator=16))
def test_fidelity_ignores_global_phase(phi):
    z = cmath.exp(1j * cmath.pi * float(phi))
    op = FockOperator(8, z * np.eye(8, dtype=complex), "dense")
    res = logical_action(op, trivial_code(), np.eye(2))
    assert res.aligned_fidelity == pytest.approx(1.0)


# --- stabilizers ---------------------------------------------------------------


def test_code_order_rotation_is_a_stabilizer():
    for N in (1, 2, 3):
        words = envelope_code(N, 1e-3, 64 if N < 3 else 96)
        rot = fock_operator("rotation", words[0].dim, theta=F(2, N))
        assert stabilizer_check(rot, words, tol=1e-10)


def test_half_stabilizer_rotation_is_not():
    words = envelope_code(2, 1e-3, 64)
    rot = fock_operator("rotation", 64, theta=F(1, 2))
    assert not stabilizer_check(rot, words, tol=1e-10)


def test_annihilated_code_space_is_not_stabilized():
    dim = 8
    op = np.zeros((dim, dim), dtype=complex)
    op[1, 1] = 1.0
    assert not stabilizer_check(FockOperator(dim, op, "dense"), trivial_code(dim), tol=1e-9)


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


@pytest.mark.parametrize("N", [1, 2, 3, 5])
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


def test_report_rows():
    report = detectability_check(trivial_code(), {"id": identity(8)}, tol=1e-9)
    assert report.passed is True and report.tol == 1e-9
    assert report.rows[0].name == "id"

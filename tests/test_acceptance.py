"""Acceptance gate: the eight headline guarantees, each with a pinned budget.

Every test prints one ACCEPTANCE line with the measured numbers before
asserting, so a red run still reports what was actually achieved.

Criterion 7 is known to fail, and the rotation rows fail at any truncation.
The envelope codewords have |c_n|^2 proportional to e^{-2 eps n} on
n = jN (mod 2N), so for D -> infinity their diagonal elements are
<j|e^{i theta n}|j> = e^{i j theta N} (1 - r) / (1 - r e^{2 i theta N}) with
r = e^{-4 eps N}, and the diagonal spread tends to 2 eps N / |cos(theta N / 2)|.
At N=3, eps=1e-4, theta=8pi/27 that floor is 3.455e-3:

    D       rotation deviation   gamma_3 swap fidelity
    256     8.61e-2              0.98837
    4096    4.45e-3              0.99923
    2^16    3.455e-3             0.99970
    2^20    3.455e-3             0.99970

The 1e-6 bar would need eps <~ 2.9e-8 and hence D >~ 1e9.  The gamma_3
shortfall is truncation alone: at D=256, eps*D = 0.026 and the envelope is
not resolved.  The assertions keep the pinned thresholds rather than
widening them.
"""

import time
from fractions import Fraction

import numpy as np

from _helpers import block_basis_semis, cz_crot_mismatches, hermitian_pair_with_shared, random_state
from cvqec.bridge import bridge_gate_table, map_error_generators
from cvqec.fock import (
    apply_operator,
    approx_ideal_rot_codeword,
    fock_operator,
    rot_codeword_from_primitive,
    rot_logical_op,
)
from cvqec.isometries import alg1_pipeline, alg1_report, canonical_partial_isometry, cyclic_structure
from cvqec.verify import convergence_scan, detectability_check, gkp_exact_suite, logical_action

F = Fraction


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_rotation_codewords_are_parity_eigenvectors():
    t0 = time.monotonic()
    D = 48
    worst = 0.0
    for N in (1, 2, 3, 4):
        half_turn = fock_operator("rotation", D, theta=F(1, N))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            primitive = random_state(rng, D)
            for j in (0, 1):
                word = rot_codeword_from_primitive(primitive, N, j)
                rotated = apply_operator(half_turn, word)
                dev = float(np.max(np.abs(rotated.amplitudes - (-1) ** j * word.amplitudes)))
                worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, ok, f"max entrywise deviation {worst:.3e} (<= 1e-10), {elapsed:.2f}s (< 5s)")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_2_comb_gate_actions_are_exact():
    t0 = time.monotonic()
    failed = []
    for N in (1, 2, 3, 5):
        failed += [f"N={N}:{r['name']}" for r in gkp_exact_suite(N) if not r["pass"]]
    elapsed = time.monotonic() - t0
    ok = not failed and elapsed < 1.0
    report(2, ok, f"{len(failed)} failing rows at tolerance 0, {elapsed:.2f}s (< 1s)")
    assert failed == []
    assert elapsed < 1.0


def test_criterion_3_bridged_gates_match_rotation_forms():
    t0 = time.monotonic()
    mismatches, cz_mismatches = [], []
    for N in range(1, 9):
        for gate, row in bridge_gate_table(N, 64).items():
            if not row["exact_match"]:
                mismatches.append((N, gate, row["max_phase_diff"]))
        if cz_crot_mismatches(N, 64):
            cz_mismatches.append(N)
    elapsed = time.monotonic() - t0
    ok = not mismatches and not cz_mismatches and elapsed < 2.0
    report(
        3,
        ok,
        f"{len(mismatches)} mismatched gates, CZ equals CROT at {8 - len(cz_mismatches)} of 8 orders, "
        f"for N<=8 at D=64, {elapsed:.2f}s (< 2s)",
    )
    assert mismatches == []
    assert cz_mismatches == []
    assert elapsed < 2.0


def test_criterion_4_hadamard_fidelity_converges():
    t0 = time.monotonic()
    D = 256
    target = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    finals, labels = [], []
    for N in (1, 2):
        hadamard = rot_logical_op("H", N, D)

        def fidelity(eps: float) -> float:
            words = [approx_ideal_rot_codeword(N, j, D, eps) for j in (0, 1)]
            return logical_action(hadamard, words, target).aligned_fidelity

        scan = convergence_scan(fidelity, [1e-1, 1e-2, 1e-3])
        finals.append(scan.points[-1][1])
        labels.append(scan.monotonicity)
    elapsed = time.monotonic() - t0
    # a series flat at the ceiling still counts as never decreasing
    labels_ok = all(lbl in ("nondecreasing", "constant") for lbl in labels)
    finals_ok = all(f >= 1 - 1e-3 for f in finals)
    ok = labels_ok and finals_ok and elapsed < 30.0
    report(
        4,
        ok,
        f"final fidelities {[f'{f:.6f}' for f in finals]} (>= 0.999), "
        f"series {labels}, {elapsed:.2f}s (< 30s)",
    )
    assert finals_ok
    assert labels_ok
    assert elapsed < 30.0


def scaled_to_int64(values, scale: int) -> np.ndarray:
    """Exact rationals times scale as int64, refusing any that are not integers."""
    scaled = [v * scale for v in values]
    assert all(v.denominator == 1 for v in scaled)
    return np.array([v.numerator for v in scaled], dtype=np.int64)


def test_criterion_5_discretization_identities_hold_exactly():
    # Grid values are j/G and block values tau*(m + g/G), so scaling both by G
    # gives integers and every identity is checked densely and exactly in int64.
    start = time.monotonic()
    pipeline_time = verify_time = 0.0
    details = []
    for D, G in ((2, 2), (4, 3), (8, 4)):
        t0 = time.monotonic()
        result = alg1_pipeline(D, G)
        cert = alg1_report(result)
        t1 = time.monotonic()
        assert cert["union_ok"] and cert["disjoint_ok"] and cert["witnesses"] == []
        U = result.u_matrix()
        assert U.dtype == np.int64
        assert (U.sum(axis=0) == 1).all() and (U.sum(axis=1) == 1).all()
        grid = np.diag(scaled_to_int64(result.grid_values, G))
        blocks = scaled_to_int64(result.block_op.diagonal_values(), G)
        assert np.array_equal(U @ grid @ U.T, np.diag(blocks))
        ups = result.upsilon_matrix()
        number = ups @ grid @ ups.T
        assert np.array_equal(np.diagonal(number), G * np.arange(D, dtype=np.int64))
        pipeline_time += t1 - t0
        verify_time += time.monotonic() - t1
        details.append(f"({D},{G}) exact")
    elapsed = time.monotonic() - start
    ok = elapsed < 1.0
    report(
        5,
        ok,
        f"{'; '.join(details)}, {elapsed:.3f}s (< 1s): pipeline+certificate "
        f"{pipeline_time:.3f}s, exact verification {verify_time:.3f}s",
    )
    assert elapsed < 1.0


def test_criterion_6_partial_isometry_residuals():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 11
        n_shared = seed % (dim + 1)
        X, Y, shared = hermitian_pair_with_shared(rng, dim, n_shared)
        rep = canonical_partial_isometry(X, Y)
        assert len(rep.pairs) == n_shared
        if rep.residuals:
            worst = max(worst, max(rep.residuals.values()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(6, ok, f"max residual {worst:.3e} (<= 1e-9) over 100 pairs, {elapsed:.2f}s (< 5s)")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_7_order_three_error_set():
    # Known red: the achieved numbers are printed before the pinned assertions.
    N, D, eps = 3, 256, 1e-4
    words = [approx_ideal_rot_codeword(N, j, D, eps) for j in (0, 1)]
    generators = map_error_generators(N, D, rotation_samples=8)
    shifts = {k: v for k, v in generators.items() if k.startswith("gamma")}
    rotations = {k: v for k, v in generators.items() if k.startswith("rotation")}

    shift_report = detectability_check(words, shifts, tol=1e-6)
    shift_dev = max(max(r.off_diag_max, r.diag_spread) for r in shift_report.rows)
    rot_report = detectability_check(words, rotations, tol=1e-6)
    rot_dev = max(max(r.off_diag_max, r.diag_spread) for r in rot_report.rows)

    gamma3 = fock_operator("number_shift", D, shift=N)
    target_x = np.array([[0, 1], [1, 0]], dtype=complex)
    action = logical_action(gamma3, words, target_x)

    ok = shift_dev <= 1e-6 and rot_dev <= 1e-6 and action.aligned_fidelity >= 0.99
    report(
        7,
        ok,
        f"shift deviation {shift_dev:.3e} (<= 1e-6), "
        f"rotation deviation {rot_dev:.3e} (<= 1e-6), "
        f"gamma_3 as logical swap fidelity {action.aligned_fidelity:.5f} (>= 0.99)",
    )
    assert shift_dev <= 1e-6, f"shift detectability deviation {shift_dev:.3e}"
    assert rot_dev <= 1e-6, f"rotation detectability deviation {rot_dev:.3e}"
    assert action.aligned_fidelity >= 0.99, f"gamma_3 fidelity {action.aligned_fidelity:.5f}"


def test_criterion_8_cyclic_generator_is_exact():
    t0 = time.monotonic()
    for k in range(1, 7):
        semis = block_basis_semis(k, 2)
        c, order_ok = cyclic_structure(semis)
        assert order_ok
        assert np.array_equal(np.linalg.matrix_power(c, k), np.eye(2 * k, dtype=np.int64))
        for i in range(k):
            assert np.array_equal(c @ semis[i], semis[(i + 1) % k])
    elapsed = time.monotonic() - t0
    report(8, True, f"c^k = 1 and c S_i = S_i+1 exact for k <= 6, {elapsed:.2f}s")
    assert elapsed < 5.0

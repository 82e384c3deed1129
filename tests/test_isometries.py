"""Spectrum bookkeeping, canonical partial isometries, block pipeline."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import block_basis_semis, hermitian_pair_with_shared, random_unitary
from cvqec.errors import DegenerateSpectrum, InvalidDimension, NotSemiUnitary
from cvqec.isometries import (
    BlockOperator,
    alg1_pipeline,
    alg1_report,
    canonical_partial_isometry,
    cyclic_structure,
    validate_spectrum_family,
)

F = Fraction


# --- spectrum sets ---------------------------------------------------------


def test_point_family_tiles_grid():
    # blocks {0,1}, {-1,-2} tile the grid {-2,-1,0,1}
    out = validate_spectrum_family([np.array([0, 1]), np.array([-1, -2])], np.arange(-2, 2))
    assert out["union_ok"] and out["disjoint_ok"] and out["witnesses"] == []
    # a 2-D table counts as its rows
    assert validate_spectrum_family(np.array([[0, 1], [-1, -2]]), [1, -2, 0, -1]) == out


def test_shared_point_is_witnessed():
    out = validate_spectrum_family([np.array([0, 1]), np.array([1, 2])], np.arange(3))
    assert not out["disjoint_ok"]
    assert out["witnesses"] == ["specs [0, 1] share point 1"]
    # four owners of one point: by the later owner, then the earlier one
    out = validate_spectrum_family(np.array([[1]] * 4), [1], den=2)
    assert out["union_ok"] and not out["disjoint_ok"]
    pairs = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert out["witnesses"] == [f"specs {[i, k]} share point 1/2" for i, k in pairs]


def test_single_spec_must_equal_target():
    row = np.array([0, 2, 3])  # 0, 1, 3/2 over halves
    assert validate_spectrum_family([row], row, den=2)["union_ok"]
    out = validate_spectrum_family([row], np.array([0, 2, 5]), den=2)
    assert not out["union_ok"] and out["disjoint_ok"]
    assert out["witnesses"] == [
        "union mismatch: family gives points ['0', '1', '3/2'], target has points ['0', '1', '5/2']"
    ]
    # no rows tile only the empty spectrum
    assert validate_spectrum_family([], np.zeros(0, np.int64))["union_ok"]
    assert validate_spectrum_family([], row, den=2)["witnesses"] == [
        "union mismatch: family gives points [], target has points ['0', '1', '3/2']"
    ]
    with pytest.raises(TypeError, match="integer"):
        validate_spectrum_family([np.array([0.5])], [0])


@pytest.mark.parametrize(
    "rows, den, witnesses",
    [
        ([np.array([1, 1])], 1, ["specs [0, 0] share point 1"]),
        ([np.array([2]), np.array([1, 0, 1])], 2, ["specs [1, 1] share point 1/2"]),
        ([np.array([3, 1, 3])], 4, ["specs [0, 0] share point 3/4"]),
        ([np.array([5, 5, 5])], 1, ["specs [0, 0] share point 5"] * 3),
        (np.array([[1, 2], [2, 2]]), 3, ["specs [0, 1] share point 2/3", "specs [0, 1] share point 2/3",
                                         "specs [1, 1] share point 2/3"]),
    ],
    ids=["duplicate points", "duplicate among others", "duplicate numerators", "three times", "table row"],
)
def test_point_repeated_in_one_row_is_witnessed(rows, den, witnesses):
    # each pair of occurrences of a value is one witness, within a row as across rows
    target = np.unique(np.concatenate(list(rows)))
    out = validate_spectrum_family(rows, target, den)
    assert out == {"union_ok": True, "disjoint_ok": False, "witnesses": witnesses}


# rows of numerators over sixths, ragged, where points collide within and across rows
row_points = st.lists(st.integers(-6, 6), max_size=6)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_family_verdicts_match_point_oracle(data):
    family = data.draw(st.lists(row_points, max_size=4))
    union = sorted(set().union(*family))
    # the target is the union, perhaps with a point dropped and a grid point added
    target = set(union)
    if target and data.draw(st.booleans()):
        target.discard(data.draw(st.sampled_from(union)))
    if data.draw(st.booleans()):
        target.add(data.draw(st.integers(-6, 6)))
    rows = [np.array(g, dtype=np.int64) for g in family]
    if family and len({len(g) for g in family}) == 1 and data.draw(st.booleans()):
        rows = np.array(family, dtype=np.int64).reshape(len(family), -1)
    out = validate_spectrum_family(rows, np.array(sorted(target), dtype=np.int64), den=6)

    shared = []
    for x in union:
        # every occurrence of x, in row order: each pair of occurrences is one witness
        owners = [i for i, g in enumerate(family) for y in g if y == x]
        for b in range(len(owners)):
            for a in range(b):
                shared.append(f"specs {[owners[a], owners[b]]} share point {F(x, 6)}")
    want = shared
    if set(union) != target:
        text = lambda points: [str(F(x, 6)) for x in sorted(points)]
        want = shared + [
            f"union mismatch: family gives points {text(union)}, target has points {text(target)}"
        ]
    assert out["disjoint_ok"] == (not shared)
    assert out["union_ok"] == (set(union) == target)
    assert out["witnesses"] == want


# --- canonical partial isometries --------------------------------------------


def test_identical_diagonals_give_identity():
    X = np.diag([1.0, 2.0])
    rep = canonical_partial_isometry(X, X)
    assert np.allclose(rep.V, np.eye(2))
    assert np.allclose(rep.K, np.eye(2)) and np.allclose(rep.L, np.eye(2))
    assert rep.pairs == ((1.0, 1.0), (2.0, 2.0))


def test_single_shared_value_matches_one_line():
    X = np.diag([0.0, 1.0])
    Y = np.diag([1.0, 2.0])
    rep = canonical_partial_isometry(X, Y)
    want_v = np.zeros((2, 2))
    want_v[1, 0] = 1
    assert np.allclose(rep.V, want_v)
    assert np.allclose(rep.K, np.diag([0.0, 1.0]))
    assert np.allclose(rep.L, np.diag([1.0, 0.0]))
    assert rep.pairs == ((1.0, 1.0),)


def test_conjugated_spectra_recover_intertwiner():
    rng = np.random.default_rng(7)
    q = random_unitary(rng, 3)
    X = np.diag([2.0, 3.0, 4.0])
    Y = q @ X @ q.conj().T
    Y = (Y + Y.conj().T) / 2
    rep = canonical_partial_isometry(X, Y)
    assert len(rep.pairs) == 3
    assert all(v <= 1e-9 for v in rep.residuals.values())
    assert np.allclose(rep.V @ Y @ rep.V.conj().T, X, atol=1e-9)


def test_degenerate_spectrum_refused():
    with pytest.raises(DegenerateSpectrum):
        canonical_partial_isometry(np.diag([1.0, 1.0]), np.diag([1.0, 2.0]))


def test_disjoint_spectra_give_flagged_zero_map():
    rep = canonical_partial_isometry(np.diag([0.0, 1.0]), np.diag([5.0, 6.0]))
    assert rep.is_zero
    assert np.allclose(rep.V, 0) and np.allclose(rep.K, 0) and np.allclose(rep.L, 0)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(2, 8), st.data())
def test_matched_pairs_intertwine_within_tolerance(seed, dim, data):
    rng = np.random.default_rng(seed)
    n_shared = data.draw(st.integers(0, dim))
    X, Y, shared = hermitian_pair_with_shared(rng, dim, n_shared)
    rep = canonical_partial_isometry(X, Y)
    assert len(rep.pairs) == n_shared
    got = np.array([p[0] for p in rep.pairs])
    assert np.allclose(got, shared, atol=1e-8)
    assert all(v <= 1e-9 for v in rep.residuals.values())


# --- cyclic families ------------------------------------------------------------


def test_cyclic_generator_on_standard_blocks():
    semis = block_basis_semis(3, 2)
    c, order_ok = cyclic_structure(semis)
    assert order_ok
    assert c.dtype == np.int64
    assert np.array_equal(np.linalg.matrix_power(c, 3), np.eye(6, dtype=np.int64))
    for i in range(3):
        assert np.array_equal(c @ semis[i], semis[(i + 1) % 3])


def test_cyclic_single_map_gives_identity():
    c, order_ok = cyclic_structure(block_basis_semis(1, 3))
    assert order_ok and np.array_equal(c, np.eye(3, dtype=np.int64))


def test_cyclic_rejects_non_isometry():
    bad = [np.ones((2, 1)), np.zeros((2, 1))]
    with pytest.raises(NotSemiUnitary):
        cyclic_structure(bad)
    with pytest.raises(NotSemiUnitary):
        cyclic_structure([])
    with pytest.raises(NotSemiUnitary):
        cyclic_structure([np.eye(2), np.eye(2)])  # two maps need a 2:1 shape


def test_cyclic_rotated_blocks_still_exact():
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 2)
    semis = [S.astype(complex) @ u for S in block_basis_semis(2, 2)]
    c, order_ok = cyclic_structure(semis)
    assert order_ok
    assert np.allclose(np.linalg.matrix_power(c, 2), np.eye(4), atol=1e-9)


# --- block operators ------------------------------------------------------------


def test_labels_cover_both_signs():
    table = alg1_pipeline(1, 2).block_op
    # labels (1, 0), (1, 1/2), (-1, 1/2), (-1, 1): nu is an integer over the table's one denominator
    assert table.tau.tolist() == [1, 1, -1, -1] and table.nu.tolist() == [0, 1, 1, 2] and table.den == 2


def test_block_operator_validation():
    table = BlockOperator([1, -1], [0, 2], np.array([[0, 1], [-2, -3]]), 2)
    assert table.tau.tolist() == [1, -1] and table.nu.tolist() == [0, 2]
    assert table.diagonal_values() == (F(0), F(1, 2), F(-1), F(-3, 2))
    assert not (table.tau.flags.writeable or table.nu.flags.writeable or table.num.flags.writeable)
    with pytest.raises(ValueError, match="tau"):
        BlockOperator([2], [0], np.array([[0]]))
    for nu in (-1, 3):  # nu = -1/2 and 3/2
        with pytest.raises(ValueError, match="nu"):
            BlockOperator([1], [nu], np.array([[0]]), 2)
    with pytest.raises(ValueError, match="distinct"):
        BlockOperator([1, 1], [1, 1], np.array([[0], [1]]), 2)
    # integer labels, and one integer row per label
    for tau, nu in (([1.0, -1.0], [0, 1]), ([1, -1], [0.0, 1.0])):
        with pytest.raises(InvalidDimension):
            BlockOperator(tau, nu, np.array([[0], [1]]))
    for num in (np.array([[0]]), np.array([0, 1]), np.array([[0.0], [1.0]])):
        with pytest.raises(InvalidDimension):
            BlockOperator([1, -1], [0, 1], num)


# --- discretization pipeline ------------------------------------------------------


def test_pipeline_smallest_case_frozen():
    result = alg1_pipeline(1, 1)
    table = result.block_op
    # blocks (1, 0) and (-1, 1) with diagonals (0) and (-1)
    assert table.tau.tolist() == [1, -1] and table.nu.tolist() == [0, 1] and table.den == 1
    assert table.num.tolist() == [[0], [-1]]
    assert result.grid_values == (F(-1), F(0))
    assert result.sigma == (1, 0)
    assert all(r == 0.0 for r in result.residuals.values())


def test_pipeline_two_level_case_frozen():
    result = alg1_pipeline(2, 1)
    assert result.block_op.diagonal_values() == (F(0), F(1), F(-1), F(-2))
    assert result.grid_values == (F(-2), F(-1), F(0), F(1))
    assert result.sigma == (2, 3, 1, 0)


def test_permutation_conjugation_is_exact():
    result = alg1_pipeline(2, 2)
    U = result.u_matrix()
    assert U.dtype == np.int64
    grid = np.array(result.grid_values, dtype=object)
    blocks = np.array(result.block_op.diagonal_values(), dtype=object)
    conj = U @ np.diag(grid) @ U.T
    assert np.array_equal(np.diagonal(conj), blocks)
    # distinguished rows pull out the plain number sequence
    ups = result.upsilon_matrix()
    assert [int(v) for v in (ups @ grid)] == list(range(result.D))


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 6), st.integers(1, 4))
def test_sigma_is_a_bijection(D, G):
    result = alg1_pipeline(D, G)
    n = 2 * D * G
    assert sorted(result.sigma) == list(range(n))
    for b, j in enumerate(result.sigma):
        assert result.grid_values[j] == result.block_op.diagonal_values()[b]


def test_report_certifies_family():
    out = alg1_report(alg1_pipeline(4, 3))
    assert out["union_ok"] and out["disjoint_ok"] and out["witnesses"] == []
    assert out["dim"] == 24
    assert all(r == 0.0 for r in out["residuals"].values())


def test_pipeline_rejects_bad_sizes():
    with pytest.raises(InvalidDimension):
        alg1_pipeline(0, 1)
    with pytest.raises(InvalidDimension):
        alg1_pipeline(1, 0)

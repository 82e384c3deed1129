"""Spectrum bookkeeping, canonical partial isometries, block pipeline."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import block_basis_semis, hermitian_pair_with_shared, random_unitary
from cvqec.errors import (
    DegenerateSpectrum,
    IncompleteFamily,
    InvalidDimension,
    NotSemiUnitary,
    UnknownLabel,
)
from cvqec.fock import diagonal_value_operator
from cvqec.isometries import (
    Alg1Result,
    BlockOperator,
    PartialIsometryRep,
    SpectrumSpec,
    alg1_pipeline,
    alg1_report,
    canonical_partial_isometry,
    cyclic_structure,
    family_labels,
    iota_embed,
    kappa_extract,
    unitary_from_family,
    validate_spectrum_family,
)

F = Fraction


# --- spectrum sets ---------------------------------------------------------


def test_point_family_tiles_grid():
    # blocks {0,1}, {-1,-2} tile the grid {-2,-1,0,1}
    specs = [SpectrumSpec(points=(F(0), F(1))), SpectrumSpec(points=(F(-1), F(-2)))]
    target = SpectrumSpec(points=(F(-2), F(-1), F(0), F(1)))
    out = validate_spectrum_family(specs, target)
    assert out["union_ok"] and out["disjoint_ok"] and out["witnesses"] == []


def test_shared_point_is_witnessed():
    specs = [SpectrumSpec(points=(F(0), F(1))), SpectrumSpec(points=(F(1), F(2)))]
    target = SpectrumSpec(points=(F(0), F(1), F(2)))
    out = validate_spectrum_family(specs, target)
    assert not out["disjoint_ok"]
    assert out["witnesses"] == ["specs [0, 1] share point 1"]
    # four owners of one point: by the later owner, then the earlier one
    out = validate_spectrum_family([SpectrumSpec(points=(F(1, 2),))] * 4, SpectrumSpec(points=(F(1, 2),)))
    assert out["union_ok"] and not out["disjoint_ok"]
    pairs = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert out["witnesses"] == [f"specs {[i, k]} share point 1/2" for i, k in pairs]


def test_single_spec_must_equal_target():
    spec = SpectrumSpec(points=(F(0), F(1), F(3, 2)))
    assert validate_spectrum_family([spec], spec)["union_ok"]
    other = SpectrumSpec(points=(F(0), F(1), F(5, 2)))
    out = validate_spectrum_family([spec], other)
    assert not out["union_ok"] and out["disjoint_ok"]
    assert out["witnesses"] == [
        "union mismatch: family gives points ['0', '1', '3/2'], target has points ['0', '1', '5/2']"
    ]
    # no specs tile only the empty spectrum
    assert validate_spectrum_family([], SpectrumSpec())["union_ok"]
    assert validate_spectrum_family([], spec)["witnesses"] == [
        "union mismatch: family gives points [], target has points ['0', '1', '3/2']"
    ]


def test_spec_keeps_sorted_read_only_numerators():
    spec = SpectrumSpec(points=(F(1, 2), F(-1, 3), F(2)))
    assert spec.den == 6 and spec.point_num.tolist() == [-2, 3, 12]
    assert spec.point_num.dtype == np.int64 and not spec.point_num.flags.writeable
    assert spec.points == (F(-1, 3), F(1, 2), F(2))
    table = np.array([5, -1, 3])
    over = SpectrumSpec(points=table, den=4)
    assert over.den == 4 and over.point_num.tolist() == [-1, 3, 5]
    # the caller's array is neither sorted nor frozen
    assert table.tolist() == [5, -1, 3] and table.flags.writeable


def test_common_denominator_may_exceed_int64():
    # each spec fits int64, but the family's common denominator 6 (2**59 - 1) 2**57 does not
    a, b = F(1, 2**59 - 1), F(-1, 2**58)
    specs = [SpectrumSpec(points=(F(0), a)), SpectrumSpec(points=(b, F(1, 6))), SpectrumSpec(points=(a,))]
    out = validate_spectrum_family(specs, SpectrumSpec(points=(F(0), a, F(1, 6))))
    assert not out["union_ok"] and not out["disjoint_ok"]
    assert out["witnesses"] == [
        "specs [0, 2] share point 1/576460752303423487",
        "union mismatch: family gives points ['-1/288230376151711744', '0', '1/576460752303423487', '1/6'], "
        "target has points ['0', '1/576460752303423487', '1/6']",
    ]


@pytest.mark.parametrize(
    "points, den",
    [
        ((F(1), F(1)), 1),
        ((F(1, 2), F(0), F(1, 2)), 1),
        ((F(1, 2), F(3, 6)), 1),  # one point written over two denominators
        ((1, F(2, 2)), 1),
        (np.array([3, 1, 3]), 4),
    ],
    ids=["duplicate points", "duplicate among others", "two denominators", "int and fraction",
         "duplicate numerators"],
)
def test_spec_rejects_its_own_overlaps(points, den):
    with pytest.raises(ValueError, match="given twice"):
        SpectrumSpec(points=points, den=den)


# points on a sixths grid, where specs collide, plus two whose denominators are coprime and
# near 2**59: a family holding both needs a common denominator beyond int64
BIG = (F(1, 2**59 - 1), F(-1, 2**58))
POOL = [F(n, 6) for n in range(-6, 7)] + list(BIG)
spec_points = st.sets(st.sampled_from(POOL), max_size=6).filter(lambda s: not set(BIG) <= s)


def _spec(points, as_sixths):
    """A spec from rationals, or from numerators over 6 when every point is a sixth."""
    if as_sixths and all((6 * p).denominator == 1 for p in points):
        return SpectrumSpec(points=np.array([int(6 * p) for p in points], dtype=np.int64), den=6)
    return SpectrumSpec(points=points)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_family_verdicts_match_point_oracle(data):
    family = data.draw(st.lists(spec_points, min_size=1, max_size=4))
    union = sorted(set().union(*family))
    # the target is the union, perhaps with a point dropped and a pool point added
    target = set(union)
    if target and data.draw(st.booleans()):
        target.discard(data.draw(st.sampled_from(union)))
    if data.draw(st.booleans()):
        target.add(data.draw(st.sampled_from(POOL)))
    if set(BIG) <= target:
        target.discard(data.draw(st.sampled_from(BIG)))
    specs = [_spec(g, data.draw(st.booleans())) for g in family]
    out = validate_spectrum_family(specs, _spec(target, data.draw(st.booleans())))

    shared = []
    for x in union:
        owners = [i for i, g in enumerate(family) if x in g]
        for b in range(len(owners)):
            for a in range(b):
                shared.append(f"specs {[owners[a], owners[b]]} share point {x}")
    want = shared
    if set(union) != target:
        text = lambda points: [str(x) for x in sorted(points)]
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


# --- unitary assembly ---------------------------------------------------------


def test_single_full_match_is_already_unitary():
    rng = np.random.default_rng(3)
    q = random_unitary(rng, 4)
    X = np.diag([1.0, 2.0, 3.0, 4.0])
    Y = q @ X @ q.conj().T
    rep = canonical_partial_isometry(X, (Y + Y.conj().T) / 2)
    U = unitary_from_family([rep])
    assert np.allclose(U, rep.V)


def test_complementary_domains_sum_to_unitary():
    # two maps on one 2d domain, each matching one eigenline
    X = np.diag([0.0, 1.0])
    Y = np.diag([1.0, 2.0])
    a = canonical_partial_isometry(X, Y)
    b = canonical_partial_isometry(np.diag([5.0, 0.5]), np.diag([2.0, 5.0]))
    U = unitary_from_family([a, b])
    assert np.allclose(U @ U.conj().T, np.eye(2), atol=1e-9)


def test_stacked_domains_build_a_direct_sum():
    up = PartialIsometryRep(
        V=np.array([[1.0], [0.0]]),
        K=np.diag([1.0, 0.0]),
        L=np.eye(1),
        pairs=((0.0, 0.0),),
    )
    down = PartialIsometryRep(
        V=np.array([[0.0], [1.0]]),
        K=np.diag([0.0, 1.0]),
        L=np.eye(1),
        pairs=((1.0, 1.0),),
    )
    U = unitary_from_family([up, down])
    assert np.allclose(U, np.eye(2))


def test_gappy_family_is_rejected():
    X = np.diag([0.0, 1.0])
    Y = np.diag([1.0, 2.0])
    rep = canonical_partial_isometry(X, Y)
    with pytest.raises(IncompleteFamily):
        unitary_from_family([rep])
    with pytest.raises(IncompleteFamily):
        unitary_from_family([])


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
    labels = family_labels(2)
    assert labels == ((1, F(0)), (1, F(1, 2)), (-1, F(1, 2)), (-1, F(1)))
    with pytest.raises(InvalidDimension):
        family_labels(0)


def test_kappa_round_trips_iota():
    labels = family_labels(1)
    A = diagonal_value_operator([F(0), F(1), F(2)])
    emb = iota_embed(lambda op: op, A, labels)
    back = kappa_extract(emb, (1, F(0)))
    assert back.exact_diag == (F(0), F(1), F(2))
    neg = kappa_extract(emb, (-1, F(1)))
    assert neg.exact_diag == (F(-1), F(-2), F(-3))
    with pytest.raises(UnknownLabel):
        kappa_extract(emb, (1, F(1, 2)))


def test_square_embedding_acts_blockwise():
    labels = family_labels(1)
    A = diagonal_value_operator([F(0), F(1), F(2)])
    emb = iota_embed(lambda op: diagonal_value_operator([v * v for v in op.exact_diag]), A, labels)
    assert kappa_extract(emb, (1, F(0))).exact_diag == (F(0), F(1), F(4))
    assert kappa_extract(emb, (-1, F(1))).exact_diag == (F(1), F(4), F(9))


def test_block_operator_validation():
    table = BlockOperator(((1, F(0)), (-1, F(1))), np.array([[0, 1], [-2, -3]]), 2)
    assert table.diagonal_values() == (F(0), F(1, 2), F(-1), F(-3, 2))
    with pytest.raises(ValueError, match="tau"):
        BlockOperator(((2, F(0)),), np.array([[0]]))
    with pytest.raises(ValueError, match="nu"):
        BlockOperator(((1, F(3, 2)),), np.array([[0]]))
    with pytest.raises(ValueError, match="distinct"):
        BlockOperator(((1, F(0)), (1, F(0))), np.array([[0], [1]]))
    # one integer row per label
    for num in (np.array([[0]]), np.array([0, 1]), np.array([[0.0], [1.0]])):
        with pytest.raises(InvalidDimension):
            BlockOperator(((1, F(0)), (-1, F(1))), num)


# --- discretization pipeline ------------------------------------------------------


def test_pipeline_smallest_case_frozen():
    result = alg1_pipeline(1, 1)
    assert result.labels == ((1, F(0)), (-1, F(1)))
    assert kappa_extract(result.block_op, (1, F(0))).exact_diag == (F(0),)
    assert kappa_extract(result.block_op, (-1, F(1))).exact_diag == (F(-1),)
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
    out = alg1_report(4, 3)
    assert out["union_ok"] and out["disjoint_ok"] and out["witnesses"] == []
    assert out["dim"] == 24
    assert all(r == 0.0 for r in out["residuals"].values())


def test_pipeline_rejects_bad_sizes():
    with pytest.raises(InvalidDimension):
        alg1_pipeline(0, 1)
    with pytest.raises(InvalidDimension):
        alg1_pipeline(1, 0)

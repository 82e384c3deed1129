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
    Interval,
    PartialIsometryRep,
    SpectrumSpec,
    alg1_pipeline,
    alg1_report,
    canonical_partial_isometry,
    cyclic_structure,
    diagonal_function,
    family_labels,
    iota_embed,
    kappa_extract,
    unitary_from_family,
    validate_spectrum_family,
)

F = Fraction


# --- spectrum sets ---------------------------------------------------------


def test_interval_validation_and_membership():
    with pytest.raises(ValueError):
        Interval(F(2), F(1))
    with pytest.raises(ValueError):
        Interval(F(1), F(1))
    iv = Interval(F(0), F(1), lo_open=False, hi_open=True)
    assert iv.contains(F(0)) and iv.contains(F(1, 2)) and not iv.contains(F(1))
    ray = Interval(None, F(0), hi_open=True)
    assert ray.contains(F(-100)) and not ray.contains(F(0))


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
    assert any("share point 1" in w for w in out["witnesses"])


def test_half_open_intervals_fuse_exactly():
    specs = [
        SpectrumSpec(intervals=(Interval(F(0), F(1), hi_open=True),)),
        SpectrumSpec(intervals=(Interval(F(1), F(2)),)),
    ]
    target = SpectrumSpec(intervals=(Interval(F(0), F(2)),))
    out = validate_spectrum_family(specs, target)
    assert out["union_ok"] and out["disjoint_ok"]


def test_pinhole_gap_is_not_an_interval():
    # [0,1) and (1,2] miss the single point 1
    specs = [
        SpectrumSpec(intervals=(Interval(F(0), F(1), hi_open=True),)),
        SpectrumSpec(intervals=(Interval(F(1), F(2), lo_open=True),)),
    ]
    target = SpectrumSpec(intervals=(Interval(F(0), F(2)),))
    out = validate_spectrum_family(specs, target)
    assert not out["union_ok"] and out["disjoint_ok"]
    # adding the pinhole as an explicit point repairs the union
    repaired = validate_spectrum_family(
        specs + [SpectrumSpec(points=(F(1),))], target
    )
    assert repaired["union_ok"] and repaired["disjoint_ok"]


def test_point_inside_interval_is_witnessed():
    specs = [
        SpectrumSpec(intervals=(Interval(F(0), F(2)),)),
        SpectrumSpec(points=(F(1),)),
    ]
    out = validate_spectrum_family(specs, SpectrumSpec(intervals=(Interval(F(0), F(2)),)))
    assert not out["disjoint_ok"]
    assert any("lies in" in w for w in out["witnesses"])


def test_overlapping_intervals_are_witnessed():
    specs = [
        SpectrumSpec(intervals=(Interval(F(0), F(2)),)),
        SpectrumSpec(intervals=(Interval(F(1), F(3)),)),
    ]
    out = validate_spectrum_family(specs, SpectrumSpec(intervals=(Interval(F(0), F(3)),)))
    assert not out["disjoint_ok"]
    assert any("meet at" in w for w in out["witnesses"])


def test_single_spec_must_equal_target():
    spec = SpectrumSpec(points=(F(0),), intervals=(Interval(F(1), F(2)),))
    assert validate_spectrum_family([spec], spec)["union_ok"]
    other = SpectrumSpec(points=(F(0),), intervals=(Interval(F(1), F(3)),))
    out = validate_spectrum_family([spec], other)
    assert not out["union_ok"]
    assert any("union mismatch" in w for w in out["witnesses"])


@pytest.mark.parametrize(
    "points, intervals",
    [
        ((F(1), F(1)), ()),
        ((), (Interval(F(0), F(2)), Interval(F(1), F(3)))),
        ((), (Interval(F(0), F(1)), Interval(F(1), F(2)))),
        ((F(1),), (Interval(F(0), F(2)),)),
        ((F(2),), (Interval(F(0), F(2)),)),
        ((F(-5),), (Interval(None, F(0), hi_open=True),)),
    ],
    ids=["duplicate points", "overlapping intervals", "closed ends meet", "point inside",
         "point on closed end", "point under a ray"],
)
def test_spec_rejects_its_own_overlaps(points, intervals):
    with pytest.raises(ValueError):
        SpectrumSpec(points=points, intervals=intervals)


def test_spec_accepts_point_on_open_end():
    spec = SpectrumSpec(points=(F(2),), intervals=(Interval(F(0), F(2), hi_open=True),))
    assert spec.points == (F(2),)
    closed = SpectrumSpec(intervals=(Interval(F(0), F(2)),))
    assert validate_spectrum_family([spec], closed)["union_ok"]
    touching = SpectrumSpec(intervals=(Interval(F(0), F(1), hi_open=True), Interval(F(1), F(2))))
    assert validate_spectrum_family([touching], closed)["union_ok"]


def _member(piece, x):
    if not isinstance(piece, Interval):
        return x == piece
    above = piece.lo is None or piece.lo < x or (piece.lo == x and not piece.lo_open)
    below = piece.hi is None or x < piece.hi or (x == piece.hi and not piece.hi_open)
    return above and below


def _samples(pieces):
    """Every end, the midpoints between consecutive ends, and a point beyond each extreme."""
    ends = sorted(
        {e for p in pieces for e in ((p.lo, p.hi) if isinstance(p, Interval) else (p,)) if e is not None}
    )
    if not ends:
        return [F(0)]
    return [ends[0] - 1, *ends, *((a + b) / 2 for a, b in zip(ends, ends[1:])), ends[-1] + 1]


def _meets(a, b):
    return any(_member(a, x) and _member(b, x) for x in _samples([a, b]))


def _spec(pieces):
    return SpectrumSpec(
        points=[p for p in pieces if not isinstance(p, Interval)],
        intervals=[p for p in pieces if isinstance(p, Interval)],
    )


half_grid_points = st.integers(-6, 6).map(lambda n: F(n, 2))
integer_ends = st.none() | st.integers(-3, 3).map(F)
integer_intervals = st.tuples(integer_ends, integer_ends, st.booleans(), st.booleans()).filter(
    lambda t: t[0] is None or t[1] is None or t[0] < t[1]
).map(lambda t: Interval(*t))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_family_verdicts_match_membership_oracle(data):
    # the line cut at integer values, as alternating gap and point atoms
    cuts = sorted(data.draw(st.sets(st.integers(-3, 3).map(F), max_size=4)))
    bounds = [None, *cuts, None]
    atoms = []
    for i in range(len(cuts) + 1):
        atoms.append((bounds[i], bounds[i + 1]))
        if i < len(cuts):
            atoms.append((cuts[i], cuts[i]))
    cover = data.draw(st.lists(st.booleans(), min_size=len(atoms), max_size=len(atoms)))

    def is_point(atom):
        return atom[0] is not None and atom[0] == atom[1]

    def chunked():
        """The covered atoms cut into pieces at random places."""
        cut_after = data.draw(st.lists(st.booleans(), min_size=len(atoms), max_size=len(atoms)))
        pieces, start = [], None
        for i, atom in enumerate(atoms):
            if not cover[i]:
                continue
            start = atom if start is None else start
            if i + 1 == len(atoms) or not cover[i + 1] or cut_after[i]:
                if start == atom and is_point(atom):
                    pieces.append(atom[0])
                else:  # an end that is a gap atom is open
                    pieces.append(Interval(start[0], atom[1], not is_point(start), not is_point(atom)))
                start = None
        return pieces

    # a family and a target that tile the same set in different pieces ...
    k = data.draw(st.integers(1, 3))
    groups = [[] for _ in range(k + 1)]
    for piece in chunked():
        groups[data.draw(st.integers(0, k - 1))].append(piece)
    groups[k] = chunked()
    # ... then perhaps one family piece dropped and a few random pieces added
    family_pieces = [p for g in groups[:k] for p in g]
    if family_pieces and data.draw(st.booleans()):
        dropped = data.draw(st.sampled_from(family_pieces))
        groups = [[p for p in g if p is not dropped] for g in groups[:k]] + [groups[k]]
    for _ in range(data.draw(st.integers(0, 2))):
        owner = data.draw(st.integers(0, k))
        piece = data.draw(half_grid_points | integer_intervals)
        if any(_meets(piece, other) for other in groups[owner]):
            with pytest.raises(ValueError):
                _spec(groups[owner] + [piece])
        else:
            groups[owner].append(piece)

    *family, target = groups
    samples = _samples([p for g in groups for p in g])
    owners = [[i for i, g in enumerate(family) if any(_member(p, x) for p in g)] for x in samples]
    union = [bool(o) for o in owners]
    want = [any(_member(p, x) for p in target) for x in samples]
    out = validate_spectrum_family([_spec(g) for g in family], _spec(target))
    assert out["disjoint_ok"] == all(len(o) <= 1 for o in owners)
    assert out["union_ok"] == (union == want)
    assert (out["witnesses"] == []) == (out["disjoint_ok"] and out["union_ok"])


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
    emb = iota_embed(lambda op: diagonal_function(op, lambda v: v * v), A, labels)
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

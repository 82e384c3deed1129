"""Partial isometries, spectrum bookkeeping, and the block discretization pipeline.

Three layers live here:

* exact set arithmetic on spectra (points plus open/closed intervals), used to
  certify that a family of operators tiles a target spectrum disjointly;
* numerical canonical partial isometries between Hermitian matrices with
  eigenvalue matching, plus assembly of unitaries and cyclic-shift generators
  from isometry families;
* the exact block pipeline that discretizes a momentum-like grid operator into
  a direct sum of shifted number operators, with the permutation conjugating
  one into the other computed and checked on integer numerators over one
  denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateSpectrum,
    IncompleteFamily,
    InvalidDimension,
    NotSemiUnitary,
    UnknownLabel,
)
from .fock import FockOperator, diagonal_value_operator
from .phases import as_fraction, fraction_view, numerators

HERMITIAN_TOL = 1e-9
PROJECTOR_TOL = 1e-9
UNITARY_TOL = 1e-8
GAP_TOL = 1e-8


# --- spectra as exact sets --------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """One interval of a continuous spectrum; None bounds mean +-infinity."""

    lo: Fraction | None
    hi: Fraction | None
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        lo = None if self.lo is None else as_fraction(self.lo)
        hi = None if self.hi is None else as_fraction(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo is None:
            object.__setattr__(self, "lo_open", True)
        if hi is None:
            object.__setattr__(self, "hi_open", True)
        if lo is not None and hi is not None and lo >= hi:
            raise ValueError("interval needs lo < hi; single values belong in points")

    def contains(self, x: Fraction) -> bool:
        if self.lo is not None and (x < self.lo or (x == self.lo and self.lo_open)):
            return False
        if self.hi is not None and (x > self.hi or (x == self.hi and self.hi_open)):
            return False
        return True

    def __str__(self):
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        return f"{left}{lo}, {hi}{right}"


def _scale(specs: Sequence[SpectrumSpec]) -> int:
    """The least common denominator of every finite end in specs."""
    ends = [v for s in specs for iv in s.intervals for v in (iv.lo, iv.hi) if v is not None]
    return math.lcm(*(s.den for s in specs), *(v.denominator for v in ends))


def _atom(value: Fraction, scale: int) -> int:
    return 2 * value.numerator * (scale // value.denominator)


def _pieces(specs: Sequence[SpectrumSpec], scale: int) -> list[tuple]:
    """Every point and interval of specs as (lo, hi, spec index, item), sorted by lo.

    Scaling every end to an integer n = value * scale splits the line into
    atoms: atom 2n is the point n / scale, atom 2n + 1 the open gap after it.
    Each piece is then a whole run of atoms, the closed range [lo, hi] (a
    point is [2n, 2n]; rays run to -inf or inf).  So two pieces share a point
    iff their ranges meet, and two unions are equal iff their merged runs are.
    The item is the Interval, or None for a point.
    """
    out = []
    for i, s in enumerate(specs):
        step = 2 * (scale // s.den)  # numerator to atom; Python ints, as scale may exceed int64
        out += [(n * step, n * step, i, None) for n in s.point_num.tolist()]
        for iv in s.intervals:
            lo = -math.inf if iv.lo is None else _atom(iv.lo, scale) + iv.lo_open
            hi = math.inf if iv.hi is None else _atom(iv.hi, scale) - iv.hi_open
            out.append((lo, hi, i, iv))
    out.sort(key=itemgetter(0))
    return out


def _shared(pieces: list[tuple]) -> Iterator[tuple[tuple, tuple, int]]:
    """Every pair (a, b) of sorted pieces, a first, that meets, with one shared atom."""
    active: list[tuple] = []
    reach = -math.inf  # the highest hi among the active pieces
    for b in pieces:
        lo, hi = b[0], b[1]
        if lo > reach:  # every active piece ends before b
            active, reach = [b], hi
            continue
        active = [a for a in active if a[1] >= lo]
        for a in active:
            # they share the atoms from b's lo to the lower hi; name the one nearest 0
            yield a, b, max(lo, min(a[1], hi, 0))
        active.append(b)
        reach = max(reach, hi)


def _runs(pieces: list[tuple]) -> list:
    """The union of sorted pieces as maximal runs of atoms, flat: [lo, hi, lo, hi, ...]."""
    runs: list = []
    for lo, hi, _, _ in pieces:
        if runs and lo <= runs[-1] + 1:
            runs[-1] = max(runs[-1], hi)
        else:
            runs += (lo, hi)
    return runs


def _piece_text(piece: tuple, scale: int) -> str:
    return str(Fraction(piece[0], 2 * scale) if piece[3] is None else piece[3])


def _runs_text(runs: list, scale: int) -> str:
    points, intervals = [], []
    for lo, hi in zip(runs[::2], runs[1::2]):
        if lo == hi and lo % 2 == 0:
            points.append(str(Fraction(lo, 2 * scale)))
        else:
            # an odd end is open: the gap after the point lo // 2, or before -(-hi // 2)
            left = None if lo == -math.inf else Fraction(lo // 2, scale)
            right = None if hi == math.inf else Fraction(-(-hi // 2), scale)
            intervals.append(str(Interval(left, right, lo % 2 == 1, hi % 2 == 1)))
    return f"points {points} intervals {intervals}"


@dataclass(frozen=True, init=False, eq=False)
class SpectrumSpec:
    """A spectrum as a pure-point part plus disjoint continuous intervals.

    The points are kept sorted as int64 numerators `point_num` over one
    denominator `den`; `points` is their Fraction view.  Pass `points` as
    rationals, or as an integer numerator array over `den`.
    """

    point_num: np.ndarray
    den: int
    intervals: tuple[Interval, ...]

    def __init__(self, points=(), intervals: Sequence[Interval] = (), *, den: int = 1):
        num, scale = numerators(points)
        num = np.sort(num)
        num.setflags(write=False)
        object.__setattr__(self, "point_num", num)
        object.__setattr__(self, "den", den * scale)
        object.__setattr__(self, "intervals", tuple(intervals))
        scale = _scale([self])
        pieces = _pieces([self], scale)
        for a, b, _ in _shared(pieces):
            raise ValueError(
                f"spectrum pieces {_piece_text(a, scale)} and {_piece_text(b, scale)} share a point"
            )
        object.__setattr__(self, "intervals", tuple(p[3] for p in pieces if p[3] is not None))

    @property
    def points(self) -> tuple[Fraction, ...]:
        return fraction_view(self.point_num, self.den)


def _witness(a: tuple, b: tuple, atom: int, scale: int) -> str:
    """The report line for pieces of two specs that share `atom`."""
    # intervals first: a is an interval whenever either piece is
    a, b = sorted((a, b), key=lambda p: p[3] is None)
    i, x, k, y = a[2], _piece_text(a, scale), b[2], _piece_text(b, scale)
    if b[3] is not None:
        return f"specs {i} and {k} intervals {x} and {y} meet at {Fraction(atom, 2 * scale)}"
    if a[3] is not None:
        return f"spec {k} point {y} lies in spec {i} interval {x}"
    return f"specs {[i, k]} share point {y}"


def validate_spectrum_family(specs: Sequence[SpectrumSpec], target: SpectrumSpec) -> dict:
    """Check that specs are pairwise disjoint and their union equals target.

    All comparisons are exact.  One sweep over the family's pieces names
    every pair of specs that share a point, and one merge of the same pieces
    gives the union's canonical runs, which must equal the target's.
    """
    scale = _scale([*specs, target])
    pieces = _pieces(specs, scale)
    witnesses = [_witness(a, b, atom, scale) for a, b, atom in _shared(pieces)]
    disjoint_ok = not witnesses
    union = _runs(pieces)
    del pieces  # free the family's pieces before building the target's: it lowers peak memory
    want = _runs(_pieces([target], scale))
    union_ok = union == want
    if not union_ok:
        witnesses.append(
            f"union mismatch: family gives {_runs_text(union, scale)}, "
            f"target has {_runs_text(want, scale)}"
        )
    return {"union_ok": union_ok, "disjoint_ok": disjoint_ok, "witnesses": witnesses}


# --- canonical partial isometries -------------------------------------------


@dataclass(frozen=True)
class PartialIsometryRep:
    """An eigenvalue-matched map V with its image and domain projectors."""

    V: np.ndarray
    K: np.ndarray
    L: np.ndarray
    pairs: tuple[tuple[float, float], ...]
    residuals: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        vvd = _max_abs(self.V @ self.V.conj().T - self.K)
        vdv = _max_abs(self.V.conj().T @ self.V - self.L)
        if vvd > PROJECTOR_TOL or vdv > PROJECTOR_TOL:
            raise ValueError("V does not reproduce its own projectors")
        for name, P in (("K", self.K), ("L", self.L)):
            if _max_abs(P @ P - P) > PROJECTOR_TOL or _max_abs(P - P.conj().T) > PROJECTOR_TOL:
                raise ValueError(f"{name} is not a projector")

    @property
    def is_zero(self) -> bool:
        return not self.pairs


def _max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _checked_eigh(M: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    if _max_abs(M - M.conj().T) > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian")
    vals, vecs = np.linalg.eigh(M)
    gaps = np.diff(vals)
    if gaps.size and float(np.min(gaps)) <= GAP_TOL:
        raise DegenerateSpectrum(f"{name} has eigenvalue gap <= {GAP_TOL}")
    # deterministic phase: largest-magnitude component made real positive
    for c in range(vecs.shape[1]):
        col = vecs[:, c]
        lead = col[int(np.argmax(np.abs(col)))]
        vecs[:, c] = col * (np.conj(lead) / abs(lead))
    return vals, vecs


def canonical_partial_isometry(X: np.ndarray, Y: np.ndarray, match_tol: float = 1e-8) -> PartialIsometryRep:
    """Eigenvalue-matched partial isometry from the Y eigenbasis to the X one.

    V maps each Y eigenvector onto the X eigenvector of the (unique) matching
    eigenvalue; K and L are the spectral projectors onto the matched subspaces.
    An empty match returns the zero map (is_zero set) rather than raising.
    """
    wx, ux = _checked_eigh(X, "X")
    wy, uy = _checked_eigh(Y, "Y")
    pairs = []
    matches = []
    i = j = 0
    while i < len(wx) and j < len(wy):
        if abs(wx[i] - wy[j]) <= match_tol:
            pairs.append((float(wx[i]), float(wy[j])))
            matches.append((i, j))
            i += 1
            j += 1
        elif wx[i] < wy[j]:
            i += 1
        else:
            j += 1
    dx, dy = len(wx), len(wy)
    V = np.zeros((dx, dy), dtype=complex)
    K = np.zeros((dx, dx), dtype=complex)
    L = np.zeros((dy, dy), dtype=complex)
    for i, j in matches:
        V += np.outer(ux[:, i], uy[:, j].conj())
        K += np.outer(ux[:, i], ux[:, i].conj())
        L += np.outer(uy[:, j], uy[:, j].conj())
    X_c = np.asarray(X, dtype=complex)
    Y_c = np.asarray(Y, dtype=complex)
    residuals = {
        "VVd_minus_K": _max_abs(V @ V.conj().T - K),
        "VdV_minus_L": _max_abs(V.conj().T @ V - L),
        "VYVd_minus_KXK": _max_abs(V @ Y_c @ V.conj().T - K @ X_c @ K),
        "VdXV_minus_LYL": _max_abs(V.conj().T @ X_c @ V - L @ Y_c @ L),
    }
    return PartialIsometryRep(V, K, L, tuple(pairs), residuals)


def unitary_from_family(isometries: Sequence[PartialIsometryRep]) -> np.ndarray:
    """Assemble a unitary from partial isometries whose projectors tile identity.

    Two assembly modes: if the domain projectors L resolve the identity on a
    shared domain the maps are summed; otherwise every map must be
    semi-unitary on its own domain and the domains are stacked as a direct
    sum.  Image projectors K must tile the codomain either way.
    """
    if not isometries:
        raise IncompleteFamily("empty family")
    rows = {rep.V.shape[0] for rep in isometries}
    if len(rows) != 1:
        raise IncompleteFamily("codomain dimensions differ")
    d_out = rows.pop()
    k_sum = sum(rep.K for rep in isometries)
    if _max_abs(k_sum - np.eye(d_out)) > PROJECTOR_TOL:
        raise IncompleteFamily("image projectors do not sum to identity")
    for i in range(len(isometries)):
        for j in range(i + 1, len(isometries)):
            if _max_abs(isometries[i].K @ isometries[j].K) > PROJECTOR_TOL:
                raise IncompleteFamily(f"image projectors {i} and {j} overlap")
    cols = {rep.V.shape[1] for rep in isometries}
    if len(cols) == 1:
        l_sum = sum(rep.L for rep in isometries)
        if _max_abs(l_sum - np.eye(cols.pop())) <= PROJECTOR_TOL:
            U = sum(rep.V for rep in isometries)
        else:
            U = None
    else:
        U = None
    if U is None:
        # direct-sum domain: each block must act semi-unitarily on all of it
        for idx, rep in enumerate(isometries):
            if _max_abs(rep.L - np.eye(rep.V.shape[1])) > PROJECTOR_TOL:
                raise IncompleteFamily(
                    f"domain projectors neither tile a shared domain nor make map {idx} semi-unitary"
                )
        U = np.hstack([rep.V for rep in isometries])
    if U.shape[0] != U.shape[1]:
        raise IncompleteFamily("assembled map is not square")
    eye = np.eye(U.shape[0])
    if _max_abs(U.conj().T @ U - eye) > UNITARY_TOL or _max_abs(U @ U.conj().T - eye) > UNITARY_TOL:
        raise IncompleteFamily("assembled map is not unitary")
    return U


def cyclic_structure(semis: Sequence[np.ndarray]) -> tuple[np.ndarray, bool]:
    """Cyclic-shift generator for semi-unitaries with orthogonal complete images.

    Given k maps S_i (each d -> k*d, isometric, images tiling the big space)
    returns c = sum_i S_{i+1} S_i^dag (indices mod k) and whether c^k = 1 and
    c S_i = S_{i+1} hold.  Integer inputs stay integer so permutation cases
    are exact.
    """
    if not semis:
        raise NotSemiUnitary("empty family")
    mats = [np.asarray(S) for S in semis]
    k = len(mats)
    big, small = mats[0].shape
    if big != k * small:
        raise NotSemiUnitary(f"expected maps {small} -> {k}*{small}, got {mats[0].shape}")
    for idx, S in enumerate(mats):
        if S.shape != (big, small):
            raise NotSemiUnitary("all maps must share one shape")
        if _max_abs(S.conj().T @ S - np.eye(small)) > PROJECTOR_TOL:
            raise NotSemiUnitary(f"map {idx} is not isometric on its domain")
    for i in range(k):
        for j in range(i + 1, k):
            if _max_abs(mats[i].conj().T @ mats[j]) > PROJECTOR_TOL:
                raise NotSemiUnitary(f"images of maps {i} and {j} are not orthogonal")
    completeness = sum(S @ S.conj().T for S in mats)
    if _max_abs(completeness - np.eye(big)) > PROJECTOR_TOL:
        raise NotSemiUnitary("images do not tile the codomain")
    c = sum(mats[(i + 1) % k] @ mats[i].conj().T for i in range(k))
    order_ok = _max_abs(np.linalg.matrix_power(c, k) - np.eye(big, dtype=c.dtype)) <= UNITARY_TOL
    for i in range(k):
        if _max_abs(c @ mats[i] - mats[(i + 1) % k]) > UNITARY_TOL:
            order_ok = False
    return c, order_ok


# --- block operators and the discretization pipeline ------------------------

Label = tuple[int, Fraction]


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Direct sum of diagonal blocks indexed by (tau, nu), as one exact table.

    Row i of the int64 table `num`, over the one denominator `den`, is the
    exact diagonal of the block at labels[i].  A block per label and one
    block dimension are built into the table's shape.
    """

    labels: tuple[Label, ...]
    num: np.ndarray
    den: int = 1

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        for tau, nu in self.labels:
            if tau not in (-1, 1):
                raise ValueError("tau must be -1 or +1")
            if not (0 <= nu <= 1):
                raise ValueError("nu must lie in [0, 1]")
        num = np.array(self.num)
        if num.dtype.kind not in "iu" or num.ndim != 2 or len(num) != len(self.labels):
            raise InvalidDimension("the table needs one integer row per label")
        num = num.astype(np.int64)
        num.setflags(write=False)
        object.__setattr__(self, "num", num)

    def diagonal_values(self) -> tuple[Fraction, ...]:
        """Concatenated exact diagonal across blocks, in label order."""
        return fraction_view(self.num.ravel(), self.den)


def kappa_extract(block: BlockOperator, label: Label) -> FockOperator:
    """Pull one block out of a direct sum."""
    key = (label[0], as_fraction(label[1]))
    if key not in block.labels:
        raise UnknownLabel(f"no block at label {key}")
    return diagonal_value_operator(block.num[block.labels.index(key)], den=block.den)


def diagonal_function(op: FockOperator, fn: Callable[[Fraction], Fraction]) -> FockOperator:
    """Apply a scalar function to an exact diagonal operator, exactly."""
    if op.exact_diag is None:
        raise ValueError("operator lacks an exact diagonal")
    return diagonal_value_operator([fn(v) for v in op.exact_diag])


def iota_embed(
    series_action: Callable[[FockOperator], FockOperator],
    A: FockOperator,
    labels: Sequence[Label],
) -> BlockOperator:
    """Embed f(A) blockwise: the block at (tau, nu) is f(tau * (A + nu)).

    At the distinguished label (+1, 0) this reproduces f(A) itself.
    """
    if A.exact_diag is None:
        raise ValueError("embedding needs an exact diagonal operator")
    keys = tuple((tau, as_fraction(nu)) for tau, nu in labels)
    blocks = []
    for tau, nu in keys:
        # tau (v + nu) with v = n / den and nu = p / q is tau (n q + p den) / (den q)
        num = tau * (A.diag_num * nu.denominator + nu.numerator * A.den)
        block = series_action(diagonal_value_operator(num, den=A.den * nu.denominator))
        if block.diag_num is None:
            raise ValueError("series action must return an exact diagonal operator")
        blocks.append(block)
    den = math.lcm(*(b.den for b in blocks))
    return BlockOperator(keys, [b.diag_num * (den // b.den) for b in blocks], den)


def family_labels(G: int) -> tuple[Label, ...]:
    """The 2G labels (+1, g/G) for g=0..G-1 and (-1, g/G) for g=1..G.

    The endpoint asymmetry keeps the block spectra pairwise disjoint at
    every resolution.
    """
    if G < 1:
        raise InvalidDimension("G must be >= 1")
    plus = tuple((1, Fraction(g, G)) for g in range(G))
    minus = tuple((-1, Fraction(g, G)) for g in range(1, G + 1))
    return plus + minus


@dataclass(frozen=True)
class Alg1Result:
    """Exact output of the discretization pipeline.

    sigma is the permutation taking block position b to the grid position
    holding the same eigenvalue: grid_values[sigma[b]] == block_values[b].
    All residuals are exact zeros by construction; they are recomputed and
    stored for reporting.
    """

    D: int
    G: int
    labels: tuple[Label, ...]
    block_op: BlockOperator
    sigma: tuple[int, ...]
    residuals: dict[str, float]

    @property
    def grid_values(self) -> tuple[Fraction, ...]:
        """The grid diagonal j/G for j in [-DG, DG)."""
        return fraction_view(np.arange(-self.D * self.G, self.D * self.G), self.G)

    def u_matrix(self) -> np.ndarray:
        """The permutation matrix U with U grid U^dag = blocks, as 0/1 ints."""
        n = len(self.sigma)
        U = np.zeros((n, n), dtype=np.int64)
        U[np.arange(n), self.sigma] = 1
        return U

    def upsilon_matrix(self) -> np.ndarray:
        """Rows of U belonging to the distinguished (+1, 0) block."""
        return self.u_matrix()[: self.D, :]


def alg1_pipeline(D: int, G: int) -> Alg1Result:
    """Discretize the grid operator diag(j/G) into shifted number blocks.

    Builds the label family, the block direct sum with exact diagonals, the
    grid diagonal, and the permutation matching them; verifies
    U grid U^dag = blocks, unitarity of U, and that the distinguished block
    rows extract the plain number operator, all with zero tolerance.  Every
    value is compared scaled by G, as an integer: block (tau, g/G) holds
    tau (G m + g) and grid position j holds j - DG.
    """
    if D < 1 or G < 1:
        raise InvalidDimension("D and G must be >= 1")
    labels = family_labels(G)
    m = np.arange(D, dtype=np.int64)
    # label (tau, nu) with nu = g/G in lowest terms holds tau (G m + g) over G
    tau, g = np.array([(t, nu.numerator * (G // nu.denominator)) for t, nu in labels]).T
    block_op = BlockOperator(labels, tau[:, None] * (G * m + g[:, None]), G)
    block_values = block_op.num.ravel()
    size = 2 * D * G
    grid = np.arange(size) - D * G
    sigma = block_values + D * G
    if sigma.min() < 0 or sigma.max() >= size:
        raise RuntimeError(f"block values fall outside the grid [-{D}, {D})")
    if not np.all(np.bincount(sigma, minlength=size) == 1):
        raise RuntimeError("block values do not cover the grid bijectively")
    conj_residual = int(np.max(np.abs(grid[sigma] - block_values)))
    upsilon_residual = int(np.max(np.abs(grid[sigma[:D]] - G * m)))
    residuals = {
        "permutation": 0.0,
        "U_grid_Udag_minus_blocks": conj_residual / G,
        "upsilon_grid_minus_number": upsilon_residual / G,
    }
    if any(r != 0.0 for r in residuals.values()):
        raise RuntimeError(f"pipeline identities violated: {residuals}")
    return Alg1Result(D, G, labels, block_op, tuple(sigma.tolist()), residuals)


def alg1_report(D: int, G: int) -> dict:
    """Pipeline run plus the spectrum-family certificate, ready to serialize."""
    result = alg1_pipeline(D, G)
    table = result.block_op
    specs = [SpectrumSpec(points=row, den=table.den) for row in table.num]
    target = SpectrumSpec(points=np.arange(-D * G, D * G), den=G)
    family = validate_spectrum_family(specs, target)
    return {
        "D": D,
        "G": G,
        "label_count": len(result.labels),
        "dim": len(result.sigma),
        "union_ok": family["union_ok"],
        "disjoint_ok": family["disjoint_ok"],
        "witnesses": family["witnesses"],
        "residuals": result.residuals,
    }

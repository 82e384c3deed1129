"""Partial isometries, spectrum bookkeeping, and the block discretization pipeline.

Three layers live here:

* exact bookkeeping of point spectra, used to certify that a family of
  operators tiles a target spectrum disjointly;
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
from typing import Callable, Sequence

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
MATCH_TOL = 1e-8


# --- spectra as exact sets --------------------------------------------------


@dataclass(frozen=True, init=False, eq=False)
class SpectrumSpec:
    """A pure-point spectrum: distinct points as sorted int64 numerators over one denominator.

    The points are kept as `point_num` over `den`; `points` is their
    Fraction view.  Pass `points` as rationals, or as an integer numerator
    array over `den`.  A point given twice is refused.
    """

    point_num: np.ndarray
    den: int

    def __init__(self, points=(), *, den: int = 1):
        num, scale = numerators(points)
        num.sort()  # a copy: numerators never returns its input
        repeated = np.flatnonzero(num[1:] == num[:-1])
        if repeated.size:
            raise ValueError(f"spectrum point {Fraction(int(num[repeated[0]]), den * scale)} is given twice")
        num.setflags(write=False)
        object.__setattr__(self, "point_num", num)
        object.__setattr__(self, "den", den * scale)

    @property
    def points(self) -> tuple[Fraction, ...]:
        return fraction_view(self.point_num, self.den)


def validate_spectrum_family(specs: Sequence[SpectrumSpec], target: SpectrumSpec) -> dict:
    """Check that specs are pairwise disjoint and their union equals target.

    All comparisons are exact.  Every point is scaled to an integer over the
    least common denominator, and one sort of the (value, spec index) pairs
    puts the owners of each point side by side: each run of equal values is
    one point of the union, and every pair of owners in a run is a witness.
    """
    scale = math.lcm(*(s.den for s in specs), target.den)
    owned = []
    for i, s in enumerate(specs):
        step = scale // s.den  # Python ints, as scale may exceed int64
        owned += [(n * step, i) for n in s.point_num.tolist()]
    owned.sort(key=itemgetter(0))  # stable: each point's owners stay in spec order
    union, witnesses = [], []
    for value, i in owned:
        if union and union[-1] == value:
            # by the later owner, then the earlier one
            witnesses += [f"specs {[k, i]} share point {Fraction(value, scale)}" for k in owners]
            owners.append(i)
        else:
            union.append(value)
            owners = [i]
    disjoint_ok = not witnesses
    step = scale // target.den
    want = [n * step for n in target.point_num.tolist()]
    union_ok = union == want
    if not union_ok:
        text = lambda values: [str(Fraction(v, scale)) for v in values]
        witnesses.append(f"union mismatch: family gives points {text(union)}, target has points {text(want)}")
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


def canonical_partial_isometry(X: np.ndarray, Y: np.ndarray) -> PartialIsometryRep:
    """Eigenvalue-matched partial isometry from the Y eigenbasis to the X one.

    V maps each Y eigenvector onto the X eigenvector of the (unique) matching
    eigenvalue, within MATCH_TOL; K and L are the spectral projectors onto
    the matched subspaces.  An empty match returns the zero map (is_zero set)
    rather than raising.
    """
    wx, ux = _checked_eigh(X, "X")
    wy, uy = _checked_eigh(Y, "Y")
    pairs = []
    matches = []
    i = j = 0
    while i < len(wx) and j < len(wy):
        if abs(wx[i] - wy[j]) <= MATCH_TOL:
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


def alg1_report(result: Alg1Result) -> dict:
    """A pipeline run's figures plus its spectrum-family certificate, ready to serialize."""
    D, G, table = result.D, result.G, result.block_op
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

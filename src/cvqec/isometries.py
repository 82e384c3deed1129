"""Partial isometries, spectrum bookkeeping, and the block discretization pipeline.

Three layers live here:

* exact bookkeeping of point spectra, used to certify that a family of
  operators tiles a target spectrum disjointly;
* numerical canonical partial isometries between Hermitian matrices with
  eigenvalue matching, plus cyclic-shift generators for semi-unitary
  families;
* the exact block pipeline that discretizes a momentum-like grid operator into
  a direct sum of shifted number operators, with the permutation conjugating
  one into the other computed and checked on integer numerators over one
  denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DegenerateSpectrum, InvalidDimension, NotSemiUnitary
from .phases import fraction_view

HERMITIAN_TOL = 1e-9
PROJECTOR_TOL = 1e-9
UNITARY_TOL = 1e-8
GAP_TOL = 1e-8
MATCH_TOL = 1e-8


# --- spectra as exact sets --------------------------------------------------


def validate_spectrum_family(rows, target, den: int = 1) -> dict:
    """Check that the rows' point spectra are pairwise disjoint and their union equals target.

    Each row is an integer array of numerators over one denominator `den`
    (a 2-D table counts as its rows); target holds distinct ones over `den`.
    All comparisons are exact: one stable sort of the (value, row) pairs
    puts the owners of each point side by side in row order.  Each run of
    equal values is one point of the union, and each pair of occurrences in
    a run is a witness, so a point repeated inside one row is witnessed by
    that row twice.
    """
    if isinstance(rows, np.ndarray):
        values, owner = rows.ravel(), np.repeat(np.arange(len(rows)), rows.shape[1])
    else:
        rows = [np.asarray(r) for r in rows]
        values = np.concatenate([np.zeros(0, np.int64), *rows])
        owner = np.repeat(np.arange(len(rows)), [r.size for r in rows])
    want = np.sort(target)
    if values.dtype.kind not in "iu" or want.dtype.kind not in "iu":
        raise TypeError("spectrum rows and target must be integer numerator arrays")
    order = np.argsort(values, kind="stable")
    values, owner = values[order], owner[order].tolist()
    new = np.r_[True, values[1:] != values[:-1]][: values.size]  # where each run of equal values starts
    start = np.maximum.accumulate(np.where(new, np.arange(values.size), 0))
    witnesses = []
    for p in np.flatnonzero(~new).tolist():  # repeats only: by the later owner, then the earlier ones
        point = Fraction(int(values[p]), den)
        witnesses += [f"specs {[k, owner[p]]} share point {point}" for k in owner[start[p] : p]]
    union = values[new]
    union_ok = bool(np.array_equal(union, want))
    if not union_ok:
        text = lambda num: [str(Fraction(v, den)) for v in num.tolist()]
        witnesses.append(f"union mismatch: family gives points {text(union)}, target has points {text(want)}")
    return {"union_ok": union_ok, "disjoint_ok": bool(new.all()), "witnesses": witnesses}


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

@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Direct sum of diagonal blocks indexed by (tau, nu), as one exact table.

    Block i has the label (tau[i], nu[i]/den), and row i of the int64 table
    `num`, over the same denominator `den`, is its exact diagonal.  A block
    per label and one block dimension are built into the table's shape.
    """

    tau: np.ndarray
    nu: np.ndarray
    num: np.ndarray
    den: int = 1

    def __post_init__(self):
        tau, nu, num = (np.array(a) for a in (self.tau, self.nu, self.num))
        shaped = tau.ndim == 1 and nu.shape == tau.shape and num.ndim == 2 and len(num) == len(tau)
        if not shaped or any(a.dtype.kind not in "iu" for a in (tau, nu, num)):
            raise InvalidDimension("the table needs one integer row per integer label")
        if not np.all((tau == 1) | (tau == -1)):
            raise ValueError("tau must be -1 or +1")
        if not np.all((0 <= nu) & (nu <= self.den)):
            raise ValueError("nu must lie in [0, 1]")
        key = np.sort(nu + (tau > 0) * (self.den + 1))  # one key per label, now that both are in range
        if np.any(key[1:] == key[:-1]):
            raise ValueError("labels must be distinct")
        for name, a in (("tau", tau), ("nu", nu), ("num", num)):
            a = a.astype(np.int64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def diagonal_values(self) -> tuple[Fraction, ...]:
        """Concatenated exact diagonal across blocks, in label order."""
        return fraction_view(self.num.ravel(), self.den)


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
    m = np.arange(D, dtype=np.int64)
    # labels (+1, g/G) for g = 0..G-1, then (-1, g/G) for g = 1..G: the endpoint
    # asymmetry keeps the block spectra pairwise disjoint at every resolution
    tau = np.repeat(np.array([1, -1]), G)
    g = np.r_[np.arange(G), np.arange(1, G + 1)]
    block_op = BlockOperator(tau, g, tau[:, None] * (G * m + g[:, None]), G)
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
    return Alg1Result(D, G, block_op, tuple(sigma.tolist()), residuals)


def alg1_report(result: Alg1Result) -> dict:
    """A pipeline run's figures plus its spectrum-family certificate, ready to serialize."""
    D, G, table = result.D, result.G, result.block_op
    family = validate_spectrum_family(table.num, np.arange(-D * G, D * G), G)
    return {
        "D": D,
        "G": G,
        "label_count": len(table.tau),
        "dim": len(result.sigma),
        "union_ok": family["union_ok"],
        "disjoint_ok": family["disjoint_ok"],
        "witnesses": family["witnesses"],
        "residuals": result.residuals,
    }

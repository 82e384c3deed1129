"""Truncated number-basis states, operators, and rotation-code constructions.

Operators on the first D number states are stored by their structure: a
diagonal or a number shift is one band at a signed offset from the main
diagonal, and a residue-class kernel such as logical H keeps its table of
2N^2 values; no operator stores a D x D matrix.  Bands act on vectors.  A
kernel never does: the only use of logical H is its 2x2 restriction to the
code space, which `verify.restricted_matrix` forms from the codewords'
residue-class sums.
Diagonal phase operators built from rational angles (units of pi) also keep
them exactly, as an int64 numerator array over one denominator.  That is
what lets the bridge check the comb gates against the rotation-side
ones exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, ZeroProjection
from .phases import RationalLike, as_fraction, mod_power

SUPPORT_TOL = 1e-12

# logical Z, S, T carry the phase m^k / (k N^k) at level m
_PHASE_POWERS = {"Z": 1, "S": 2, "T": 4}


@dataclass(frozen=True)
class FockVector:
    """A vector over the first `dim` number states."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidDimension(f"dim must be positive, got {self.dim}")
        amps = np.asarray(self.amplitudes, dtype=complex).copy()
        if amps.shape != (self.dim,):
            raise InvalidDimension(
                f"amplitude vector has shape {amps.shape}, expected ({self.dim},)"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        """The 2-norm; inf, without an overflow warning, when it exceeds the float range."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class FockOperator:
    """Operator on the truncated number basis, stored by its structure.

    For "band", the default, `data` is the one band that may be nonzero, of
    length dim - |offset|, with entry i at (i, i + offset), or at
    (i - offset, i) for a negative offset: offset +s is a lowering shift by
    s, -s a raising one, and 0 the main diagonal.  For "kernel" it is a
    table of P values, and entry (m, m') is data[m m' mod P].  `entries`
    builds the dense matrix on demand.

    The band at offset 0 of a unit-modulus operator may keep its phases
    exactly, as int64 numerators `phase_num` over the one denominator `den`
    (units of pi, reduced into [0, 2 den)); the float band then agrees with
    them at materialization precision.  `den` is reduced to the least common
    denominator (1 without phases), so two operators have equal phases iff
    their `phase_num` and `den` are equal.
    """

    dim: int
    data: np.ndarray
    structure: str = "band"
    offset: int = 0
    phase_num: np.ndarray | None = None
    den: int = 1

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidDimension(f"dim must be positive, got {self.dim}")
        if self.structure == "kernel":
            shape = (max(np.size(self.data), 1),)
        elif self.structure == "band":
            if not abs(self.offset) < self.dim:
                raise InvalidDimension(f"offset {self.offset} out of range for dim {self.dim}")
            shape = (self.dim - abs(self.offset),)
        else:
            raise ValueError(f"unknown structure tag {self.structure!r}")
        data = np.array(self.data, dtype=complex)
        if data.shape != shape:
            raise InvalidDimension(f"data has shape {data.shape}, expected {shape}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        den = int(self.den)
        if den < 1:
            raise ValueError(f"den must be a positive integer, got {den}")
        if self.phase_num is None:
            object.__setattr__(self, "den", 1)
            return
        if self.structure != "band" or self.offset:
            raise ValueError("phase_num only makes sense for diagonal operators")
        num = np.asarray(self.phase_num)
        if num.dtype.kind not in "iu" or num.shape != (self.dim,):
            raise InvalidDimension(f"phase_num must be {self.dim} integers")
        num = num.astype(np.int64) % (2 * den)  # this operator's own copy
        # divide out the common factor, so that den is the least common denominator
        g = math.gcd(den, int(np.gcd.reduce(num)))
        num //= g
        num.setflags(write=False)
        object.__setattr__(self, "phase_num", num)
        object.__setattr__(self, "den", den // g)

    @property
    def entries(self) -> np.ndarray:
        """The dense dim x dim matrix, read-only."""
        if self.structure == "kernel":
            m = np.arange(self.dim) % self.data.size
            matrix = self.data[np.outer(m, m) % self.data.size]
        else:
            matrix = np.diag(self.data, k=self.offset)
        matrix.setflags(write=False)
        return matrix


def diagonal_phase_operator(num: np.ndarray, *, den: int = 1) -> FockOperator:
    """Unit-modulus diagonal operator diag(e^{i pi num_m / den}), phases kept exact.

    `num` is an integer numerator array.  Each entry is the cos and sin of pi
    times the float of the reduced phase.
    """
    num = np.asarray(num) % (2 * den)
    angle = np.pi * (num / den)
    data = np.cos(angle) + 1j * np.sin(angle)
    return FockOperator(len(num), data, structure="band", phase_num=num, den=den)


def fock_operator(kind: str, dim: int, amount: RationalLike) -> FockOperator:
    """Bridge image, on the first `dim` number states, of a comb translation.

    The amount is raw, in comb index units, not `gkp_apply`'s logical units:
      "rotation"  a q-translation by theta (units of pi per unit index) gives
                  diag(e^{i pi theta m}) with exact phases; theta is an exact
                  rational, and a float raises NonRationalPhase.  The logical
                  q-translation by r of an order-N comb is theta = r/N.
      "shift"     a p-translation by an integer k, |k| < dim, gives the unit
                  band at offset k: lowering by k for k > 0, raising by -k for
                  k < 0, the identity at 0.  The logical p-translation by l
                  of an order-N comb is k = lN.
    """
    if dim <= 0:
        raise InvalidDimension(f"dim must be positive, got {dim}")
    a = as_fraction(amount)
    if kind == "rotation":
        den = a.denominator
        return diagonal_phase_operator(a.numerator % (2 * den) * np.arange(dim), den=den)
    if kind == "shift":
        if a.denominator != 1 or not abs(a) < dim:
            raise InvalidDimension(f"shift {a} is not an integer in (-{dim}, {dim})")
        return FockOperator(dim, np.ones(dim - abs(a.numerator)), structure="band", offset=a.numerator)
    raise ValueError(f"unknown operator kind {kind!r}")


def apply_operator(op: FockOperator, vec: FockVector) -> FockVector:
    """op|vec> for a band, in O(dim).

    A kernel raises ValueError: `verify.restricted_matrix` restricts one to
    the code space from the codewords' residue-class sums instead.
    """
    if op.dim != vec.dim:
        raise InvalidDimension(f"operator dim {op.dim} != vector dim {vec.dim}")
    if op.structure == "kernel":
        raise ValueError("a kernel is not applied to a vector; restrict it with verify.restricted_matrix")
    # band entry i sits at (row + i, col + i)
    n = op.data.size
    row, col = max(-op.offset, 0), max(op.offset, 0)
    out = np.zeros(vec.dim, dtype=complex)
    out[row : row + n] = op.data * vec.amplitudes[col : col + n]
    return FockVector(vec.dim, out)


def inner(left: FockVector, right: FockVector) -> complex:
    if left.dim != right.dim:
        raise InvalidDimension("dimension mismatch in inner product")
    return complex(np.vdot(left.amplitudes, right.amplitudes))


def coherent_state(alpha: complex, dim: int) -> FockVector:
    """Truncated coherent state, renormalized on the first `dim` levels."""
    if dim <= 0:
        raise InvalidDimension(f"dim must be positive, got {dim}")
    if not np.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha}")
    try:
        # m! overflows a float from m = 171; beyond, each level is the last times alpha / sqrt(m)
        amps = [alpha**m / math.sqrt(math.factorial(m)) for m in range(min(dim, 171))]
        for m in range(171, dim):
            amps.append(amps[-1] * (alpha / math.sqrt(m)))
        v = FockVector(dim, amps)
        norm = v.norm  # at least 1: level 0 has amplitude 1
        if not math.isfinite(norm):  # inf or nan: some level or the sum of squares overflowed
            raise OverflowError
        return FockVector(dim, v.amplitudes / norm)
    except OverflowError:
        raise ValueError(f"coherent state of amplitude {alpha} on {dim} levels overflows a float") from None


def rot_codeword_from_primitive(primitive: FockVector, n_fold: int, j: int) -> FockVector:
    """Project a primitive onto the order-N codeword with logical index j, normalized.

    The projector (1/2N) sum_s ((-1)^j R_{pi/N})^s is the 0/1 mask on m = jN
    mod 2N, so the projection keeps those levels; a primitive with no weight
    there raises ZeroProjection.
    """
    if n_fold <= 0:
        raise InvalidDimension(f"n_fold must be positive, got {n_fold}")
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1, got {j}")
    dim = primitive.dim
    if dim < 2 * n_fold:
        raise InvalidDimension(f"dim {dim} < 2*n_fold = {2 * n_fold}")
    selected = np.zeros(dim, dtype=complex)
    selected[j * n_fold :: 2 * n_fold] = primitive.amplitudes[j * n_fold :: 2 * n_fold]
    norm = np.linalg.norm(selected)
    if norm < SUPPORT_TOL:
        raise ZeroProjection(
            f"primitive has no weight on the j={j} sector of order {n_fold}"
        )
    return FockVector(dim, selected / norm)


def rot_logical_op(kind: str, n_fold: int, dim: int) -> FockOperator:
    """Logical operators of the order-N rotation code on `dim` levels.

    Z, S, T are diagonal with exact phases m^k/(k N^k) for k = 1, 2, 4, that
    is m/N, m^2/(2N^2), m^4/(4N^4) (units of pi).  Their numerators are
    reduced mod 2 k N^k in int64, which T allows up to N = 139.  X is the
    unit-amplitude lowering shift by N.  H is the integral kernel
    (2 pi)^{-1/2} e^{-i pi m m' / N^2}; its phase depends only on m m' mod
    2N^2, so it is stored as a "kernel" of the 2N^2 values at k = m m' mod
    2N^2, each computed from the reduced angle k / N^2.
    """
    if n_fold <= 0:
        raise InvalidDimension(f"n_fold must be positive, got {n_fold}")
    if dim <= 0:
        raise InvalidDimension(f"dim must be positive, got {dim}")
    N = n_fold
    if kind in _PHASE_POWERS:
        k = _PHASE_POWERS[kind]
        den = k * N**k
        return diagonal_phase_operator(mod_power(np.arange(dim), k, 2 * den), den=den)
    if kind == "X":
        return fock_operator("shift", dim, N)
    if kind == "H":
        angle = -np.pi * (np.arange(2 * N**2) / N**2)
        table = (np.cos(angle) + 1j * np.sin(angle)) / math.sqrt(2 * math.pi)
        return FockOperator(dim, table, structure="kernel")
    raise ValueError(f"unknown logical operator kind {kind!r}")


def crot(n_fold: int, m_fold: int, dim1: int, dim2: int) -> FockOperator:
    """Two-mode diagonal phase gate e^{i pi m m' / (N M)} on |m, m'>.

    It is diagonal on the product basis, so it is returned as a diagonal
    operator of dim dim1 * dim2, indexed lexicographically: entry m*dim2 + m'.
    """
    if n_fold <= 0 or m_fold <= 0:
        raise InvalidDimension("orders must be positive")
    return diagonal_phase_operator(np.outer(np.arange(dim1), np.arange(dim2)).ravel(), den=n_fold * m_fold)


def approx_ideal_rot_codeword(n_fold: int, j: int, dim: int, eps: float) -> FockVector:
    """The ideal family member: the envelope primitive e^{-eps m} on all `dim` levels, projected.

    That is the normalized comb sum_k e^{-eps (2k+j)N} |(2k+j)N> below `dim`,
    from rot_codeword_from_primitive, so dim < 2N raises InvalidDimension and
    an envelope that underflows on the sector raises ZeroProjection.
    """
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    with np.errstate(over="ignore"):  # a huge eps gives -inf exponents, whose exp is 0
        return rot_codeword_from_primitive(FockVector(dim, np.exp(-eps * np.arange(dim))), n_fold, j)

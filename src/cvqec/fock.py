"""Truncated number-basis states, operators, and rotation-code constructions.

Operators on the first D number states are stored by their structure: a
diagonal or a number shift is one band at a signed offset from the main
diagonal, a residue-class kernel such as logical H keeps its table of 2N^2
values, and only a caller-supplied "dense" operator keeps a D x D matrix.
Diagonal operators built from rational angles or eigenvalues also keep them
exactly, as an int64 numerator array over one denominator (see `phases`).
That is what lets the bridge check the comb gates against the rotation-side
ones exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvalidDimension, ZeroProjection
from .phases import (
    RationalLike,
    as_fraction,
    fraction_view,
    mod_power,
    numerators,
)

SUPPORT_TOL = 1e-12

# logical Z, S, T carry the phase m^k / (k N^k) at level m
_PHASE_POWERS = {"Z": 1, "S": 2, "T": 4}

# rows of a kernel's residue table formed at once, so its workspace is O(_KERNEL_ROWS R)
_KERNEL_ROWS = 256


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

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.amplitudes == 0))

    def normalized_copy(self) -> "FockVector":
        n = self.norm
        if n < SUPPORT_TOL:
            raise ZeroProjection("cannot normalize a (near-)zero vector")
        return FockVector(self.dim, self.amplitudes / n)

    @staticmethod
    def basis(dim: int, m: int) -> "FockVector":
        if not 0 <= m < dim:
            raise InvalidDimension(f"basis index {m} outside [0, {dim})")
        amps = np.zeros(dim, dtype=complex)
        amps[m] = 1.0
        return FockVector(dim, amps)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "structure": "vector",
            "entries": np.column_stack((self.amplitudes.real, self.amplitudes.imag)).tolist(),
        }


@dataclass(frozen=True)
class FockOperator:
    """Operator on the truncated number basis, stored by its structure.

    For "dense", `data` is the dim x dim matrix.  For "band" it is the one
    band that may be nonzero, of length dim - |offset|, with entry i at
    (i, i + offset), or at (i - offset, i) for a negative offset: offset +s
    is a lowering shift by s, -s a raising one, and 0 the main diagonal.
    For "kernel" it is a table of P values, and entry (m, m') is
    data[m m' mod P].  `entries` builds the dense matrix on demand.

    The band at offset 0 may keep its values exactly, as int64 numerators
    over the one denominator `den`: `phase_num` for the phases of a
    unit-modulus operator (units of pi, reduced into [0, 2 den)), and
    `diag_num` for the eigenvalues of a Hermitian generator.  Either implies
    the float band agrees with the exact data at materialization precision.
    `den` is reduced to the least common denominator, so two operators have
    equal exact data iff their arrays and `den` are equal.  `phases` and
    `exact_diag` are the same data as tuples of Fraction, built on demand.
    """

    dim: int
    data: np.ndarray
    structure: str = "dense"
    offset: int = 0
    phase_num: np.ndarray | None = None
    diag_num: np.ndarray | None = None
    den: int = 1

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidDimension(f"dim must be positive, got {self.dim}")
        if self.structure == "dense":
            shape = (self.dim, self.dim)
        elif self.structure == "kernel":
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
        exact = {}
        for name in ("phase_num", "diag_num"):
            num = getattr(self, name)
            if num is None:
                continue
            if self.structure != "band" or self.offset:
                raise ValueError(f"{name} only makes sense for diagonal operators")
            num = np.asarray(num)
            if num.dtype.kind not in "iu" or num.shape != (self.dim,):
                raise InvalidDimension(f"{name} must be {self.dim} integers")
            num = num.astype(np.int64)
            exact[name] = num % (2 * den) if name == "phase_num" else num
        # divide out the common factor, so that den is the least common denominator
        g = math.gcd(den, *(int(np.gcd.reduce(num)) for num in exact.values()))
        object.__setattr__(self, "den", den // g)
        for name, num in exact.items():
            num //= g  # this operator's own copy
            num.setflags(write=False)
            object.__setattr__(self, name, num)

    @property
    def phases(self) -> tuple[Fraction, ...] | None:
        return None if self.phase_num is None else fraction_view(self.phase_num, self.den)

    @property
    def exact_diag(self) -> tuple[Fraction, ...] | None:
        return None if self.diag_num is None else fraction_view(self.diag_num, self.den)

    @property
    def entries(self) -> np.ndarray:
        """The dense dim x dim matrix, read-only."""
        if self.structure == "dense":
            return self.data
        if self.structure == "kernel":
            m = np.arange(self.dim) % self.data.size
            matrix = self.data[np.outer(m, m) % self.data.size]
        else:
            matrix = np.diag(self.data, k=self.offset)
        matrix.setflags(write=False)
        return matrix

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.data == 0))


def identity(dim: int) -> FockOperator:
    return FockOperator(dim, np.ones(dim), structure="band")


def diagonal_phase_operator(phases: Sequence[RationalLike] | np.ndarray, *, den: int = 1) -> FockOperator:
    """Unit-modulus diagonal operator diag(e^{i pi phase_m / den}), phases kept exact.

    `phases` are rationals, or an integer numerator array.  Each entry is the
    cos and sin of pi times the float of the reduced phase, as in
    `phase_to_complex`.
    """
    num, scale = numerators(phases)
    den *= scale
    num %= 2 * den
    angle = np.pi * (num / den)
    data = np.cos(angle) + 1j * np.sin(angle)
    return FockOperator(len(num), data, structure="band", phase_num=num, den=den)


def diagonal_value_operator(values: Sequence[RationalLike] | np.ndarray) -> FockOperator:
    """Hermitian diagonal operator with exact eigenvalues `values`.

    `values` are rationals, or an integer numerator array.
    """
    num, den = numerators(values)
    return FockOperator(len(num), num / den, structure="band", diag_num=num, den=den)


def fock_operator(
    kind: str,
    dim: int,
    *,
    theta: float | RationalLike | None = None,
    shift: int | None = None,
) -> FockOperator:
    """Standard single-mode operators on the first `dim` number states.

    kind:
      "number"        diag(0, 1, ..., dim-1), exact
      "annihilation"  a|l> = sqrt(l)|l-1>
      "rotation"      diag(e^{i theta m}); pass theta as a Fraction to mean
                      theta = (that rational) * pi with exact phase storage,
                      or as a float in radians
      "number_shift"  sum_l |l><l+shift|, unit-amplitude lowering by `shift`
    """
    if dim <= 0:
        raise InvalidDimension(f"dim must be positive, got {dim}")
    if kind == "number":
        return diagonal_value_operator(np.arange(dim))
    if kind == "annihilation":
        return FockOperator(dim, np.sqrt(np.arange(1, dim)), structure="band", offset=1)
    if kind == "rotation":
        if theta is None:
            raise ValueError("rotation requires theta")
        if isinstance(theta, (int, Fraction)):
            frac = as_fraction(theta)
            den = frac.denominator
            return diagonal_phase_operator(frac.numerator % (2 * den) * np.arange(dim), den=den)
        angles = float(theta) * np.arange(dim)
        return FockOperator(dim, np.exp(1j * angles), structure="band")
    if kind == "number_shift":
        if shift is None:
            raise ValueError("number_shift requires shift")
        if not 1 <= shift < dim:
            raise InvalidDimension(f"shift {shift} outside [1, {dim})")
        return FockOperator(dim, np.ones(dim - shift), structure="band", offset=shift)
    raise ValueError(f"unknown operator kind {kind!r}")


def adjoint(op: FockOperator) -> FockOperator:
    """Conjugate transpose; a band moves to the opposite offset (a kernel is symmetric)."""
    return FockOperator(
        op.dim,
        op.data.conj().T,
        structure=op.structure,
        offset=-op.offset,
        phase_num=None if op.phase_num is None else -op.phase_num,
        diag_num=op.diag_num,
        den=op.den,
    )


def apply_operator(op: FockOperator, vec: FockVector) -> FockVector:
    """op|vec>; O(dim) for banded operators, O(dim + R^2) for a kernel of R = min(dim, P) classes."""
    if op.dim != vec.dim:
        raise InvalidDimension(f"operator dim {op.dim} != vector dim {vec.dim}")
    if op.structure == "dense":
        return FockVector(vec.dim, op.data @ vec.amplitudes)
    if op.structure == "kernel":
        # out(m) depends on m mod P only, and sees vec only through its sums over residue classes
        P, R = op.data.size, min(vec.dim, op.data.size)
        sums = np.pad(vec.amplitudes, (0, -vec.dim % P)).reshape(-1, P).sum(axis=0)[:R]
        s = np.arange(R)
        rows = [op.data[np.outer(s[i : i + _KERNEL_ROWS], s) % P] @ sums for i in range(0, R, _KERNEL_ROWS)]
        return FockVector(vec.dim, np.resize(np.concatenate(rows), vec.dim))
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
        if not math.isfinite(v.norm):  # inf or nan: some level or the sum of squares overflowed
            raise OverflowError
        return v.normalized_copy()
    except OverflowError:
        raise ValueError(f"coherent state of amplitude {alpha} on {dim} levels overflows a float") from None


def u_invariant_projector(
    spectrum: Sequence[RationalLike], s_z: RationalLike, j: int
) -> FockOperator:
    """Diagonal 0/1 projector onto generator eigenvalues (2k+j)/s_z, k integer.

    `spectrum` lists the exact eigenvalues of the diagonal generator in basis
    order; `s_z` is the logical-Z angle in units of pi.  An empty selection is
    legal and yields the zero projector (query with `FockOperator.is_zero`).
    """
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1, got {j}")
    s = as_fraction(s_z)
    if s == 0:
        raise ValueError("s_z must be nonzero")
    num, den = numerators(spectrum)
    # value * s_z = q / q_den
    q, q_den = num * s.numerator, den * s.denominator
    picked = (q % q_den == 0) & ((q // q_den - j) % 2 == 0)
    return diagonal_value_operator(picked.astype(np.int64))


def rot_primitive_validity(primitive: FockVector, n_fold: int) -> bool:
    """True iff both codewords of order `n_fold` survive projection.

    Requires weight above threshold on some |kN> with k even and on some
    |kN> with k odd.
    """
    if n_fold <= 0:
        raise InvalidDimension(f"n_fold must be positive, got {n_fold}")
    amps = primitive.amplitudes
    seen = {0: False, 1: False}
    for k in range(0, (primitive.dim - 1) // n_fold + 1):
        if abs(amps[k * n_fold]) > SUPPORT_TOL:
            seen[k % 2] = True
    return seen[0] and seen[1]


def rot_codeword_from_primitive(primitive: FockVector, n_fold: int, j: int) -> FockVector:
    """Project a primitive onto the order-N codeword with logical index j.

    Computes the projection twice, by index selection (keep m = jN mod 2N)
    and by the 2N-term rotation sum, and demands the two agree to 1e-12
    before returning the normalized index-selected result.
    """
    if n_fold <= 0:
        raise InvalidDimension(f"n_fold must be positive, got {n_fold}")
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1, got {j}")
    dim = primitive.dim
    if dim < 2 * n_fold:
        raise InvalidDimension(f"dim {dim} < 2*n_fold = {2 * n_fold}")

    m = np.arange(dim)
    selected = np.where(m % (2 * n_fold) == (j * n_fold) % (2 * n_fold), primitive.amplitudes, 0.0)

    # rotation-sum route: (1/2N) sum_s ((-1)^j R_{pi/N})^s
    rot_diag = np.exp(1j * np.pi * m / n_fold) * ((-1) ** j)
    acc = np.zeros(dim, dtype=complex)
    term = primitive.amplitudes.astype(complex)
    for _ in range(2 * n_fold):
        acc += term
        term = rot_diag * term
    acc /= 2 * n_fold

    if np.max(np.abs(acc - selected)) > 1e-12:
        raise RuntimeError("projector routes disagree beyond 1e-12; numerical fault")

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
        if dim <= N:
            raise InvalidDimension(f"dim {dim} too small for shift {N}")
        return fock_operator("number_shift", dim, shift=N)
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
    """Normalized envelope comb sum_k e^{-eps (2k+j)N} |(2k+j)N> below `dim`."""
    if n_fold <= 0:
        raise InvalidDimension(f"n_fold must be positive, got {n_fold}")
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1, got {j}")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    support = np.arange(j * n_fold, dim, 2 * n_fold)
    if support.size == 0:
        raise InvalidDimension(f"dim {dim} leaves no support for j={j}, N={n_fold}")
    amps = np.zeros(dim, dtype=complex)
    with np.errstate(over="ignore"):  # a huge eps gives -inf exponents, whose exp is 0
        amps[support] = np.exp(-eps * support.astype(float))
    return FockVector(dim, amps).normalized_copy()


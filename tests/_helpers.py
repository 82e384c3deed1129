"""Shared construction helpers for the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cvqec.combs import CombState, FiniteComb, bridge_unit, finite_comb, gkp_apply, product_comb
from cvqec.errors import ZeroProjection
from cvqec.fock import SUPPORT_TOL, FockOperator, FockVector, crot
from cvqec.phases import RationalLike, fraction_view, mod2


@dataclass(frozen=True)
class Tooth:
    index: Fraction
    magnitude: Fraction
    phase: Fraction


@dataclass(frozen=True)
class TwoModeTooth:
    index1: Fraction
    index2: Fraction
    magnitude: Fraction
    phase: Fraction


def teeth(state: FiniteComb) -> tuple[Tooth | TwoModeTooth, ...]:
    """The Fraction oracle of a finite comb: its teeth in index order, as Tooth or TwoModeTooth records."""
    record = Tooth if len(state.units) == 1 else TwoModeTooth
    return tuple(
        record(*(Fraction(x, d) for x, d in zip(place, state.place_dens)), Fraction(n, state.den))
        for place, n in zip(state.places, state.phase_num)
    )


def teeth_in_range(state: CombState, lo: int, hi: int) -> list[Tooth]:
    """The Fraction oracle of a periodic comb: its teeth with lo <= index < hi, as Tooth records."""
    p = state.periodic
    # offset + t * period >= x exactly when t >= ceil((x - offset) / period)
    first, stop = (math.ceil((x - p.offset) / p.period) for x in (lo, hi))
    L = len(p.pattern)
    return [Tooth(p.offset + t * p.period, p.magnitude, p.pattern[t % L]) for t in range(first, stop)]


def rational_to_json(num: int, den: int, unit: str | None = None) -> dict:
    """The JSON oracle of num / den (den > 0): least terms, with an optional unit tag."""
    g = math.gcd(num, den)
    out = {"num": num // g, "den": den // g}
    if unit is not None:
        out["unit"] = unit
    return out


def vector_to_json_dict(v: FockVector) -> dict:
    """The JSON oracle of a bundle's vector codeword: one [re, im] pair per level."""
    entries = np.column_stack((v.amplitudes.real, v.amplitudes.imag)).tolist()
    return {"dim": v.dim, "structure": "vector", "entries": entries}


def comb_to_json_dict(state: CombState | FiniteComb) -> dict:
    """The JSON oracle of a bundle's comb codeword, finite or periodic, with its unit."""
    unit = state.unit
    out = {
        "unit": {"sqrtPiExp": unit.sqrt_pi_exp, "rational": rational_to_json(*unit.scale.as_integer_ratio())},
        "kind": "finite" if isinstance(state, FiniteComb) else "periodic",
    }
    if isinstance(state, FiniteComb):
        (d, dm), den = state.place_dens, state.den
        out["entries"] = [
            {"index": rational_to_json(x, d), "magnitude": rational_to_json(m, dm),
             "phase": rational_to_json(n, den, unit="pi")}
            for (x, m), n in zip(state.places, state.phase_num)
        ]
    else:
        p = state.periodic
        out["offset"] = rational_to_json(*p.offset.as_integer_ratio())
        out["period"] = p.period
        out["pattern"] = [rational_to_json(*ph.as_integer_ratio(), unit="pi") for ph in p.pattern]
        out["magnitude"] = rational_to_json(*p.magnitude.as_integer_ratio())
    return out


def basis(dim: int, m: int) -> FockVector:
    """The number state |m> on `dim` levels."""
    amps = np.zeros(dim, dtype=complex)
    amps[m] = 1
    return FockVector(dim, amps)


def rotation_sum_projection(primitive: FockVector, n_fold: int, j: int) -> np.ndarray:
    """The order-N sector j projection of a primitive, unnormalized, as the 2N-term rotation sum.

    (1/2N) sum_s ((-1)^j R_{pi/N})^s is diagonal, and its entry at level m is
    e^{i pi s (m + jN) / N} averaged over s, which depends on m mod 2N only;
    the angle's numerator is reduced mod 2N in integers, so it stays small at
    any level.
    """
    residue = np.arange(primitive.dim) % (2 * n_fold)
    r, s = np.ogrid[: 2 * n_fold, : 2 * n_fold]
    unit = np.exp(1j * np.pi * np.arange(2 * n_fold) / n_fold)
    table = unit[(r + j * n_fold) * s % (2 * n_fold)].mean(axis=1)
    return table[residue] * primitive.amplitudes


def ideal_codeword(n_fold: int, j: int, dim: int, eps: float) -> FockVector:
    """The ideal codeword built directly: e^{-eps m} on the levels m = jN mod 2N below `dim`, normalized."""
    support = np.arange(j * n_fold, dim, 2 * n_fold)
    amps = np.zeros(dim, dtype=complex)
    with np.errstate(over="ignore"):  # a huge eps gives -inf exponents, whose exp is 0
        amps[support] = np.exp(-eps * support.astype(float))
    norm = FockVector(dim, amps).norm
    if norm < SUPPORT_TOL:
        raise ZeroProjection("cannot normalize a (near-)zero vector")
    return FockVector(dim, amps / norm)


def annihilation(dim: int) -> FockOperator:
    """The truncated annihilation operator, a|l> = sqrt(l)|l-1>: the band at offset 1."""
    return FockOperator(dim, np.sqrt(np.arange(1, dim)), structure="band", offset=1)


def phases(op: FockOperator) -> tuple[Fraction, ...]:
    """A diagonal phase operator's exact phases, as Fractions of pi."""
    return fraction_view(op.phase_num, op.den)


def phase_to_complex(phase: RationalLike) -> complex:
    """e^{i pi phase}, from the float of an exact phase."""
    angle = math.pi * float(Fraction(phase))
    return complex(math.cos(angle), math.sin(angle))


def adjoint(op: FockOperator) -> FockOperator:
    """The conjugate transpose: a band moves to the opposite offset, exact phases negate, a kernel is symmetric."""
    phase_num = None if op.phase_num is None else -op.phase_num
    return FockOperator(op.dim, op.data.conj(), op.structure, -op.offset, phase_num, op.den)


def random_state(rng: np.random.Generator, dim: int) -> FockVector:
    """Dense random normalized state; full support, so always a valid primitive."""
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return FockVector(dim, amps / np.linalg.norm(amps))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary via QR with a fixed diagonal phase convention."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def hermitian_pair_with_shared(
    rng: np.random.Generator, dim: int, n_shared: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two Hermitian matrices engineered to share exactly n_shared eigenvalues.

    Eigenvalues are spaced at least ~0.5 apart so both spectra clear the
    non-degeneracy gap, the shared values match to float precision, and the
    unshared values of one matrix sit strictly between the other's grid
    points, far beyond any sane match tolerance.
    """
    base = np.cumsum(rng.uniform(0.5, 1.5, size=dim))
    shared_idx = rng.choice(dim, size=n_shared, replace=False)
    vals_y = base.copy()
    unshared = np.setdiff1d(np.arange(dim), shared_idx)
    vals_y[unshared] += 0.25
    ux = random_unitary(rng, dim)
    uy = random_unitary(rng, dim)
    X = ux @ np.diag(base) @ ux.conj().T
    Y = uy @ np.diag(vals_y) @ uy.conj().T
    X = (X + X.conj().T) / 2
    Y = (Y + Y.conj().T) / 2
    return X, Y, np.sort(base[shared_idx])


def block_basis_semis(k: int, d: int) -> list[np.ndarray]:
    """k integer semi-unitaries d -> k*d whose images tile the big space."""
    out = []
    for i in range(k):
        S = np.zeros((k * d, d), dtype=np.int64)
        for r in range(d):
            S[i * d + r, r] = 1
        out.append(S)
    return out


def cz_crot_mismatches(N: int, D: int) -> int:
    """Teeth where comb CZ, mapped through Upsilon x Upsilon, differs from crot(N, N, D, D).

    The comb is the product of two finite combs with one tooth on each level
    0..2N (tooth v on level -v), with phases m/4 and m/3.  Level pair (m, m')
    is index m D + m' of the two-mode Fock space, and every value is compared
    exactly: the CZ output's tooth phase against the input's plus the CROT
    phase m m'/N^2.
    """
    unit = bridge_unit(N)
    a = finite_comb(unit, [(-m, 1, Fraction(m, 4)) for m in range(2 * N + 1)])
    b = finite_comb(unit, [(-m, 1, Fraction(m, 3)) for m in range(2 * N + 1)])
    prod = product_comb(a, b)
    rot = crot(N, N, D, D)
    index = lambda t: -int(t.index1) * D - int(t.index2)
    turn = lambda t: Fraction(int(rot.phase_num[index(t)]), rot.den)
    want = {index(t): (t.magnitude, mod2(t.phase + turn(t))) for t in teeth(prod)}
    got = {index(t): (t.magnitude, t.phase) for t in teeth(gkp_apply("CZ", prod, N))}
    return sum(got.get(i) != w for i, w in want.items()) + len(got.keys() - want.keys())

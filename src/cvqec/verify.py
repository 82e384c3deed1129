"""Quantitative checks: detectability, logical action, stabilizers, scans.

Fock-side checks compare restricted 2x2 matrices against targets with
explicit tolerances.  Comb-side checks are aggregated from the exact
rational-arithmetic identities and carry tolerance zero.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import combs
from .errors import InvalidDimension, NonOrthonormalCodewords
from .fock import FockOperator, FockVector, apply_operator, inner
from .phases import mod2

ORTHONORMAL_TOL = 1e-10
MONOTONE_SLACK = 1e-12

# rows of a kernel formed at once, so restricting it needs O(_KERNEL_ROWS min(D, P)) workspace
_KERNEL_ROWS = 32


def _check_codewords(codewords: Sequence[FockVector]) -> None:
    if len(codewords) != 2:
        raise NonOrthonormalCodewords("need exactly two codewords")
    for i, a in enumerate(codewords):
        for j, b in enumerate(codewords):
            target = 1.0 if i == j else 0.0
            if not abs(inner(a, b) - target) <= ORTHONORMAL_TOL:  # NaN fails too
                raise NonOrthonormalCodewords(
                    f"<{i}|{j}> deviates from {target} beyond {ORTHONORMAL_TOL}"
                )


def restricted_matrix(op: FockOperator, codewords: Sequence[FockVector]) -> np.ndarray:
    """The 2x2 matrix of op in the codeword basis, <i|op|j>.

    A band is applied to each codeword.  A kernel never is:
    its entry (m, m') depends on m m' mod P only, so <i|op|j> = C_i^H K C_j,
    where C_j holds codeword j's sums over the residue classes mod P and
    K[r, s] = data[r s mod P].  The sum runs only over the classes where
    some codeword's sum is nonzero (2N of the 2N^2 for the order-N
    codewords of logical H), forming K _KERNEL_ROWS rows at a time.  Every
    sum is numpy's pairwise one, over a contiguous axis.
    """
    if op.structure != "kernel":
        kets = [apply_operator(op, ket) for ket in codewords]
        return np.array([[inner(bra, ket) for ket in kets] for bra in codewords], dtype=complex)
    if any(w.dim != op.dim for w in codewords):
        raise InvalidDimension(f"codeword dim differs from operator dim {op.dim}")
    P, n = op.data.size, len(codewords)
    amps = np.pad([w.amplitudes for w in codewords], ((0, 0), (0, -op.dim % P)))
    sums = amps.reshape(n, -1, P).swapaxes(1, 2).copy().sum(axis=-1)  # each class contiguous
    live = np.flatnonzero(np.any(sums != 0, axis=0))
    sums = np.take(sums, live, axis=1)  # C order, so each sum below runs over a contiguous axis
    M = np.zeros((n, n), dtype=complex)
    for i in range(0, live.size, _KERNEL_ROWS):
        k = np.outer(live[i : i + _KERNEL_ROWS], live)
        k %= P
        kets = (op.data[k] * sums[:, None, :]).sum(axis=-1)  # (K C_j)[r] for the block's rows r
        M += (sums[:, None, i : i + _KERNEL_ROWS].conj() * kets).sum(axis=-1)
    return M


# --- detectability ----------------------------------------------------------


def detectability_check(
    codewords: Sequence[FockVector],
    errors: Iterable[tuple[str, FockOperator]],
    tol: float,
) -> list[dict]:
    """Check P E P = c_E P for each (name, E), against orthonormal codewords.

    Each error's restricted matrix must be a multiple of the identity within
    tol (off-diagonals and diagonal spread); a NaN entry fails the row.  Each
    error is restricted as it is drawn, so a generator of errors holds one
    operator at a time.  Returns one "detect_<name>" report row per error.
    """
    _check_codewords(codewords)
    rows = []
    for name, op in errors:
        M = restricted_matrix(op, codewords)
        off = float(np.max(np.abs([M[0, 1], M[1, 0]])))
        spread = float(abs(M[0, 0] - M[1, 1]))
        metrics = {"off_diag_max": off, "diag_spread": spread, "tol": tol}
        rows.append(result_row(f"detect_{name}", off <= tol and spread <= tol, metrics))
    return rows


# --- logical action ---------------------------------------------------------


@dataclass(frozen=True)
class LogicalActionResult:
    aligned_fidelity: float
    global_phase: float


def logical_action(
    op: FockOperator,
    codewords: Sequence[FockVector],
    target: np.ndarray,
) -> LogicalActionResult:
    """Compare op's code-space action against a target 2x2 unitary.

    The restricted matrix is normalized by its dominant singular value (the
    truncated operator need not be unitary) and phase-aligned to the target;
    the fidelity |sum conj(T) M| / 2 is 1 exactly when they agree up to a
    global phase.  A zero restriction gives fidelity 0.
    """
    _check_codewords(codewords)
    M = restricted_matrix(op, codewords)
    s = float(np.linalg.svd(M, compute_uv=False)[0])
    if s == 0.0:
        return LogicalActionResult(0.0, 0.0)
    Mn = M / s
    overlap = complex(np.sum(np.conj(np.asarray(target, dtype=complex)) * Mn))
    return LogicalActionResult(abs(overlap) / 2, cmath.phase(overlap))


def stabilizer_check(op: FockOperator, codewords: Sequence[FockVector], tol: float) -> bool:
    """True iff op restricts to the identity on the code space, up to global phase."""
    _check_codewords(codewords)
    M = restricted_matrix(op, codewords)
    tr = M[0, 0] + M[1, 1]
    if abs(tr) == 0.0:
        return False
    phase = tr / abs(tr)
    return float(np.max(np.abs(M / phase - np.eye(2)))) <= tol


# --- convergence scans ------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceScan:
    points: tuple[tuple[object, float], ...]
    monotonicity: str


def convergence_scan(builder: Callable[[object], float], params: Sequence[object]) -> ConvergenceScan:
    """Evaluate a metric over parameters and classify its monotonicity.

    Classification allows a tiny slack so float noise on genuinely flat or
    monotone series does not flip the verdict.
    """
    if not params:
        raise ValueError("params must be nonempty")
    points = tuple((p, float(builder(p))) for p in params)
    values = [m for _, m in points]
    nondecreasing = all(b >= a - MONOTONE_SLACK for a, b in zip(values, values[1:]))
    nonincreasing = all(b <= a + MONOTONE_SLACK for a, b in zip(values, values[1:]))
    constant = all(abs(b - a) <= MONOTONE_SLACK for a, b in zip(values, values[1:]))
    if constant:
        label = "constant"
    elif nondecreasing:
        label = "nondecreasing"
    elif nonincreasing:
        label = "nonincreasing"
    else:
        label = "none"
    return ConvergenceScan(points, label)


# --- report rows ------------------------------------------------------------


def result_row(name: str, passed, metrics: dict) -> dict:
    """One row of a suite report."""
    return {"name": name, "pass": bool(passed), "metrics": metrics}


def _phase_text(phase: Fraction | None) -> str | None:
    return None if phase is None else f"{phase.numerator}/{phase.denominator}"


# --- exact comb-side suite --------------------------------------------------


def _phase_row(name: str, want, got, expected: Fraction | None) -> dict:
    """Demand got == e^{i pi phase} want, with phase == expected (any phase when None)."""
    same, phase = combs.comb_equal_up_to_phase(want, got)
    if expected is None:
        ok, wanted = same and phase is not None, "any global"
    else:
        ok, wanted = same and phase == expected, _phase_text(expected)
    return result_row(name, ok, {"phase": _phase_text(phase), "expected": wanted})


def gkp_exact_suite(n_fold: int) -> list[dict]:
    """Exact comb-side checks for one code order; every row carries tolerance 0.

    Covers the single-qubit gate phases on both ideal codewords, the
    stabilizers acting as identity, codeword swap under the mapped bit flip,
    the entangling gate's phase on windowed codeword products, and the
    gate-algebra identities (two half gates compose to the next gate up).
    """
    N = n_fold
    words = {j: combs.gkp_codeword(N, j) for j in (0, 1)}
    # each distinct gate output once: the single gates, then each doubled on top of its first
    outs = {}
    for j, w in words.items():
        out = {name: combs.gkp_apply(name, w, N) for name in ("Z", "S", "T", "X", "stab_q", "stab_p")}
        out.update({name * 2: combs.gkp_apply(name, out[name], N) for name in ("Z", "X", "S", "T")})
        outs[j] = out

    rows: list[dict] = []
    for j in (0, 1):
        w = words[j]
        gate_phases = {"Z": j, "S": Fraction(j, 2), "T": Fraction(j, 4), "stab_q": 0, "stab_p": 0}
        for name, phase in gate_phases.items():
            rows.append(_phase_row(f"{name}_on_{j}", w, outs[j][name], mod2(phase)))
        rows.append(_phase_row(f"X_swaps_{j}", words[1 - j], outs[j]["X"], Fraction(0)))
    # CZ acts tooth by tooth, so windowed codewords witness the ideal phases
    windowed = {j: combs.gkp_codeword(N, j, window=2) for j in (0, 1)}
    for j in (0, 1):
        for jp in (0, 1):
            prod = combs.product_comb(windowed[j], windowed[jp])
            rows.append(_phase_row(f"CZ_on_{j}{jp}", prod, combs.gkp_apply("CZ", prod, N), mod2(j * jp)))
    # composition identities on the ideal codewords: (name, doubled gate, single gate, phase)
    identities = (
        ("ZZ_is_stab_q", "Z", "stab_q", Fraction(0)),
        ("XX_is_stab_p", "X", "stab_p", Fraction(0)),
        ("SS_is_Z", "S", "Z", None),
        ("TT_is_S", "T", "S", None),
    )
    for j in (0, 1):
        for name, double, single, expected in identities:
            rows.append(_phase_row(f"{name}_on_{j}", outs[j][single], outs[j][double * 2], expected))
    return rows


# --- markdown ---------------------------------------------------------------


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "| " + " | ".join(headers) + " |"
    rule = "| " + " | ".join("---" for _ in headers) + " |"
    body = ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join([head, rule, *body])


def suite_markdown(rows: Sequence[dict]) -> str:
    table_rows = []
    for r in rows:
        metrics = ", ".join(f"{k}={v}" for k, v in sorted(r.get("metrics", {}).items()))
        table_rows.append((r["name"], metrics, "pass" if r["pass"] else "FAIL"))
    return markdown_table(["check", "metrics", "status"], table_rows)

"""Independent checks of cvqec outputs.

Every expected value here is recomputed from the definitions in numpy or
`Fraction`, never read from a stored copy of earlier output.  A check raises
`Mismatch` with a reason when the program's output disagrees.  The verdict
thresholds are the CLI's documented defaults: a row is predicted to fail
exactly when the independent value misses its threshold, so a report that
exits 1 is correct when its failing rows are the predicted ones.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

LOGICAL_TOL_EXACT = 1e-9
LOGICAL_TOL_APPROX = 5e-2
DETECT_TOL_ROTATION = 1e-2
ROTATION_SAMPLES = 8
HADAMARD_FINAL_TOL = 1e-3
MONOTONE_SLACK = 1e-12
# largest gap allowed between a program float and its numpy closed form
AGREE = 1e-9
GKP_SUITE_ROWS = 24


class Mismatch(Exception):
    """A program output disagrees with its independent computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _close(got: float, want: float, what: str) -> None:
    _require(abs(got - want) <= AGREE * max(1.0, abs(want)), f"{what}: got {got!r}, want {want!r}")


# --- rotation codewords ---------------------------------------------------


def rot_codeword(N: int, j: int, D: int, eps: float) -> np.ndarray:
    """Normalized e^{-eps m} on m = jN (mod 2N), m < D; zero elsewhere."""
    m = np.arange(D)
    amps = np.where(m % (2 * N) == j * N, np.exp(-eps * m), 0.0)
    return amps / np.sqrt(np.sum(amps * amps))


def check_rot_bundle(bundle: dict, N: int, D: int, eps: float) -> None:
    _require(bundle.get("family") == "rot", "bundle family is not rot")
    header = (bundle.get("N"), bundle.get("D"), bundle.get("eps"))
    _require(header == (N, D, eps), f"bundle N, D, eps are {header}")
    _require(len(bundle.get("codewords", ())) == 2, "bundle needs two codewords")
    for j, word in enumerate(bundle["codewords"]):
        got = np.array(word["entries"], dtype=float)
        _require(word.get("dim") == D and got.shape == (D, 2), f"codeword {j} has the wrong shape")
        want = rot_codeword(N, j, D, eps)
        _require(not np.any(got[:, 1]), f"codeword {j} has imaginary parts")
        _require(not np.any(got[want == 0, 0]), f"codeword {j} has weight off its sector")
        gap = float(np.max(np.abs(got[:, 0] - want)))
        _require(gap <= 1e-12, f"codeword {j} amplitudes deviate by {gap:.3e}")


def check_gkp_bundle(bundle: dict, N: int) -> None:
    _require(bundle.get("family") == "gkp" and bundle.get("N") == N, "bundle family or N differ")
    _require(len(bundle.get("codewords", ())) == 2, "bundle needs two codewords")
    for j, word in enumerate(bundle["codewords"]):
        want = {
            "unit": {"sqrtPiExp": 0, "rational": {"num": N, "den": 1}},
            "kind": "periodic",
            "offset": {"num": j * N, "den": 1},
            "period": 2 * N,
            "pattern": [{"num": 0, "den": 1, "unit": "pi"}],
            "magnitude": {"num": 1, "den": 1},
        }
        _require(word == want, f"gkp codeword {j} is not the ideal comb at (2k+{j})N")


# --- restricted 2x2 actions, from the closed forms --------------------------


def _aligned_fidelity(M: np.ndarray, target: np.ndarray) -> float:
    """|<target, M/s>| / 2 with s the largest singular value of M."""
    s = float(np.linalg.svd(M, compute_uv=False)[0])
    return abs(complex(np.sum(np.conj(target) * M / s))) / 2


def x_fidelity(N: int, D: int, eps: float) -> float:
    """Lowering by N sends sector 1 onto sector 0 and back: overlaps of shifted words."""
    c0, c1 = rot_codeword(N, 0, D, eps), rot_codeword(N, 1, D, eps)
    M = np.array([[0.0, np.dot(c0[:-N], c1[N:])], [np.dot(c1[:-N], c0[N:]), 0.0]])
    return _aligned_fidelity(M, np.array([[0, 1], [1, 0]]))


def h_fidelity(N: int, D: int, eps: float) -> float:
    """On the codewords the kernel e^{-i pi m m'/N^2} is (-1)^{jj'}, so <i|H|j> ~ (-1)^{ij} S_i S_j.

    S_j is the sum of codeword j's amplitudes.  The fidelity is 1 exactly
    when S_0 = S_1, which holds when both sectors keep the same number of
    teeth below D.
    """
    S = [float(np.sum(rot_codeword(N, j, D, eps))) for j in (0, 1)]
    M = np.array([[S[0] * S[0], S[0] * S[1]], [S[0] * S[1], -S[1] * S[1]]]) / math.sqrt(2 * math.pi)
    return _aligned_fidelity(M, np.array([[1, 1], [1, -1]]) / math.sqrt(2))


def rotation_spreads(N: int, D: int, eps: float, samples: int = ROTATION_SAMPLES) -> list[float]:
    """|sum_n (p0(n) - p1(n)) e^{i theta n}| at theta = pi s / (N (samples + 1))."""
    dp = rot_codeword(N, 0, D, eps) ** 2 - rot_codeword(N, 1, D, eps) ** 2
    n = np.arange(D)
    return [
        abs(complex(np.sum(dp * np.exp(1j * math.pi * s / (N * (samples + 1)) * n))))
        for s in range(1, samples + 1)
    ]


def _rows(report: dict, names: list[str]) -> dict[str, dict]:
    got = [r["name"] for r in report["results"]]
    _require(got == names, f"report rows {got} differ from {names}")
    return {r["name"]: r for r in report["results"]}


def _check_exit(report: dict, rc: int) -> None:
    failed = sum(1 for r in report["results"] if not r["pass"])
    summary = {"total": len(report["results"]), "passed": len(report["results"]) - failed, "failed": failed}
    _require(report["summary"] == summary, f"summary {report['summary']} does not count the rows")
    _require(rc == (1 if failed else 0), f"exit code {rc} with {failed} failing rows")


def check_rot_logical(report: dict, rc: int, N: int, D: int, eps: float) -> None:
    names = ["logical_Z", "logical_S", "logical_T", "stabilizer_rotation", "logical_X", "logical_H"]
    rows = _rows(report, names)
    # Z, S, T phases are (-1)^j, j/2 and j/4 on every tooth of sector j: exact
    predicted = {
        "logical_Z": (1.0, LOGICAL_TOL_EXACT),
        "logical_S": (1.0, LOGICAL_TOL_EXACT),
        "logical_T": (1.0, LOGICAL_TOL_EXACT),
        "logical_X": (x_fidelity(N, D, eps), LOGICAL_TOL_APPROX),
        "logical_H": (h_fidelity(N, D, eps), LOGICAL_TOL_APPROX),
    }
    for name, (fidelity, tol) in predicted.items():
        _close(rows[name]["metrics"]["aligned_fidelity"], fidelity, f"{name} fidelity")
        _require(rows[name]["pass"] == (fidelity >= 1 - tol), f"{name} verdict differs from the prediction")
    # rotation by 2 pi / N is e^{2 pi i (2k+j)} = 1 on every tooth
    _require(rows["stabilizer_rotation"]["pass"] is True, "stabilizer_rotation fails")
    _check_exit(report, rc)


def check_rot_detect(report: dict, rc: int, N: int, D: int, eps: float) -> None:
    gammas = [f"gamma_{l}{dag}" for l in range(1, N) for dag in ("", "_dag")]
    rotations = [f"rotation_{s}" for s in range(1, ROTATION_SAMPLES + 1)]
    rows = _rows(report, [f"detect_{name}" for name in gammas + rotations])
    # shifts by 0 < l < N move every tooth off both sectors: exact zeros
    for name in gammas:
        row = rows[f"detect_{name}"]
        _require(
            row["metrics"]["off_diag_max"] == 0.0 and row["metrics"]["diag_spread"] == 0.0 and row["pass"],
            f"{name} row is not exactly zero",
        )
    for name, spread in zip(rotations, rotation_spreads(N, D, eps)):
        row = rows[f"detect_{name}"]
        _require(row["metrics"]["off_diag_max"] == 0.0, f"{name} has off-diagonal weight")
        _close(row["metrics"]["diag_spread"], spread, f"{name} diag_spread")
        predicted = spread <= DETECT_TOL_ROTATION
        _require(row["pass"] == predicted, f"{name} verdict differs from the prediction")
    _check_exit(report, rc)


def classify(values: list[float]) -> str:
    """Monotonicity label of a series with the CLI's documented slack."""
    steps = [b - a for a, b in zip(values, values[1:])]
    if all(abs(d) <= MONOTONE_SLACK for d in steps):
        return "constant"
    if all(d >= -MONOTONE_SLACK for d in steps):
        return "nondecreasing"
    if all(d <= MONOTONE_SLACK for d in steps):
        return "nonincreasing"
    return "none"


def check_bridge(report: dict, rc: int, N: int, eps_series: tuple[float, ...], dim: int) -> None:
    rows = _rows(report, ["gate_Z", "gate_S", "gate_T", "gate_X", "hadamard_series"])
    for gate in "ZSTX":
        row = rows[f"gate_{gate}"]
        _require(
            row["pass"] and row["metrics"]["exact_match"] and row["metrics"]["max_phase_diff"] == 0.0,
            f"bridged {gate} is not an exact match",
        )
    series = rows["hadamard_series"]["metrics"]
    _require(series["eps"] == list(eps_series) and series["dim"] == dim, "Hadamard series inputs differ")
    predicted = [h_fidelity(N, dim, eps) for eps in eps_series]
    _require(len(series["fidelities"]) == len(predicted), "Hadamard series length differs")
    for got, want in zip(series["fidelities"], predicted):
        _close(got, want, "Hadamard series fidelity")
    label = classify(predicted)
    _require(series["monotonicity"] == label, f"Hadamard series is {series['monotonicity']}, want {label}")
    ok = label in ("nondecreasing", "constant") and predicted[-1] >= 1 - HADAMARD_FINAL_TOL
    _require(rows["hadamard_series"]["pass"] == ok, "Hadamard series verdict differs from the prediction")
    _check_exit(report, rc)


def check_gkp_logical(report: dict, rc: int) -> None:
    rows = report["results"]
    _require(len(rows) == GKP_SUITE_ROWS, f"gkp suite has {len(rows)} rows, want {GKP_SUITE_ROWS}")
    _require(all(r["pass"] for r in rows), "a gkp suite row fails")
    _check_exit(report, rc)


# --- block discretization ---------------------------------------------------


def check_alg1_report(report: dict, rc: int, D: int, G: int) -> None:
    row = _rows(report, ["alg1_pipeline"])["alg1_pipeline"]
    m = row["metrics"]
    flags = (row["pass"], m["union_ok"], m["disjoint_ok"])
    _require(flags == (True, True, True), f"pass, union_ok, disjoint_ok are {flags}")
    _require((m["D"], m["G"], m["label_count"], m["dim"]) == (D, G, 2 * G, 2 * D * G), "alg1 sizes differ")
    _require(all(v == 0.0 for v in m["residuals"].values()), "alg1 residuals are not zero")
    _check_exit(report, rc)


def scaled_block_values(D: int, G: int) -> np.ndarray:
    """G times the block diagonal: labels (+1, g/G), g < G, then (-1, g/G), g = 1..G."""
    m = np.arange(D, dtype=np.int64)
    plus = [G * m + g for g in range(G)]
    minus = [-(G * m + g) for g in range(1, G + 1)]
    return np.concatenate(plus + minus)


def check_alg1_sigma(sigma, grid_values, block_values, D: int, G: int) -> None:
    """sigma is a bijection with G*grid[sigma(b)] = G*block[b], all in integers."""
    size = 2 * D * G
    sigma = np.asarray(sigma, dtype=np.int64)
    _require(sigma.shape == (size,), "sigma has the wrong length")
    _require(np.array_equal(np.sort(sigma), np.arange(size)), "sigma is not a bijection")
    want = scaled_block_values(D, G)
    scaled = [v * G for v in (*block_values, *grid_values)]
    _require(all(v.denominator == 1 for v in scaled), "G times a value is not an integer")
    blocks = np.array([int(v) for v in scaled[: len(block_values)]], dtype=np.int64)
    grid = np.array([int(v) for v in scaled[len(block_values):]], dtype=np.int64)
    _require(np.array_equal(blocks, want), "block values differ from tau (m + g/G)")
    _require(np.array_equal(grid, np.arange(size) - D * G), "grid differs from j/G - D")
    _require(np.array_equal(grid[sigma], blocks), "G grid[sigma(b)] differs from G block[b]")


# --- comb gates -------------------------------------------------------------

PHASE_GATES = {
    "Z": lambda l: -l,
    "stab_q": lambda l: -2 * l,
    "S": lambda l: l * l / 2,
    "T": lambda l: l**4 / 4,
}
SHIFT_GATES = {"X": 1, "stab_p": 2}


def check_comb_gate(gate: str, N: int, offset: Fraction, out) -> None:
    """Output of `gate` on the zero-phase comb at offset + 2N t, tooth by tooth.

    Tooth t of the output is compared with a direct `Fraction` evaluation
    for t over two pattern lengths, and no proper divisor of the pattern
    length may be a period of the pattern.
    """
    period = 2 * N
    p = out.periodic
    _require(p is not None, f"{gate} output is not periodic")
    _require(out.unit.sqrt_pi_exp == 0 and out.unit.scale == N, f"{gate} output left the order-{N} regime")
    _require(
        p.period == period and p.magnitude == 1,
        f"{gate} output has period {p.period}, magnitude {p.magnitude}",
    )
    shift = SHIFT_GATES.get(gate, 0) * N
    _require(
        0 <= p.offset < period and (p.offset - offset - shift) % period == 0,
        f"{gate} output offset {p.offset}",
    )
    phase = PHASE_GATES.get(gate, lambda l: Fraction(0))
    L = len(p.pattern)
    for t in range(2 * L):
        source = p.offset + t * period - shift
        want = phase(source / N) % 2
        _require(p.pattern[t % L] == want, f"{gate} tooth {t} has phase {p.pattern[t % L]}, want {want}")
    for d in range(1, L):
        if L % d == 0:
            _require(
                any(p.pattern[i] != p.pattern[(i + d) % L] for i in range(L)),
                f"{gate} pattern of length {L} repeats with period {d}",
            )

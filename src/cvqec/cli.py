"""Command-line front end: build code bundles, run check suites, bridge and
block-pipeline reports.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 malformed input.
Reports are JSON by default (sorted keys, so identical configs give
byte-identical output) or markdown tables with --format md.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__, isometries
from .bridge import bridge_gate_table, map_error_generators
from .combs import comb_to_json_dict, gkp_codeword
from .errors import CVCodeError
from .fock import (
    FockVector,
    approx_ideal_rot_codeword,
    coherent_state,
    fock_operator,
    rot_codeword_from_primitive,
    rot_logical_op,
    rot_primitive_validity,
)
from .isometries import alg1_report
from .verify import (
    convergence_scan,
    detectability_check,
    gkp_exact_suite,
    logical_action,
    result_row,
    stabilizer_check,
    suite_markdown,
)

MAX_D = 4096
MAX_N = 64
MAX_BRIDGE_N = 8
MAX_ALG1_CELLS = 4096
MAX_WINDOW = MAX_D // 2  # a windowed gkp codeword then has at most MAX_D + 1 teeth
# the largest bundle build-code writes under these caps is 2,344,586 bytes (gkp N=64,
# --window MAX_WINDOW); this must grow with MAX_D
MAX_BUNDLE_BYTES = 8 * 2**20

# exact rows (rational phases, disjoint supports) vs truncation-limited rows
LOGICAL_TOL_EXACT = 1e-9
LOGICAL_TOL_APPROX = 5e-2
DETECT_TOL_SHIFT = 1e-6
DETECT_TOL_ROTATION = 1e-2

GATE_TARGETS = {
    "Z": np.diag([1.0 + 0j, -1.0]),
    "S": np.diag([1.0 + 0j, 1j]),
    "T": np.diag([1.0 + 0j, np.exp(1j * np.pi / 4)]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _bundle_text(bundle: dict) -> str:
    """Exactly json.dumps(bundle, indent=2, sort_keys=True), at C-encoder speed.

    Each Fock codeword's entries table is encoded compactly and then laid out
    at its nesting depth, which is sound because a float's repr holds no ", ",
    "[" or "]".  A table stands in as the string "\\0" until then; "codewords"
    sorts before every string-valued field, so the k-th stand-in is codeword k's.
    """
    tables, words = [], []
    for w in bundle["codewords"]:
        if w.get("structure") == "vector":
            tables.append(
                json.dumps(w["entries"]).replace("], [", "\n        ],\n        [\n          ")
                .replace(", ", ",\n          ").replace("[[", "[\n        [\n          ")
                .replace("]]", "\n        ]\n      ]")
            )
            w = {**w, "entries": "\0"}
        words.append(w)
    text = json.dumps({**bundle, "codewords": words}, indent=2, sort_keys=True)
    for table in tables:
        text = text.replace('"\\u0000"', table, 1)
    return text


def _report_text(config: argparse.Namespace, results: list[dict]) -> str:
    if config.fmt == "md":
        return suite_markdown(results)
    passed = sum(1 for r in results if r["pass"])
    report = {
        "tool_version": __version__,
        "config": {k: v for k, v in vars(config).items() if v is not None and k != "out"},
        "results": results,
        "summary": {"total": len(results), "passed": passed, "failed": len(results) - passed},
    }
    return json.dumps(report, indent=2, sort_keys=True)


def _finish(config: argparse.Namespace, results: list[dict]) -> int:
    _emit(_report_text(config, results), config.out)
    return 0 if all(r["pass"] for r in results) else 1


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _field(bundle: dict, key: str):
    _require(key in bundle, f"bundle lacks field {key!r}")
    return bundle[key]


def _parse_primitive(text: str, dim: int) -> FockVector | None:
    """Parse a primitive descriptor; returns None for the ideal family member."""
    if text == "ideal":
        return None
    if text.startswith("fock:"):
        levels = [int(part) for part in text[len("fock:"):].split(",") if part]
        _require(bool(levels), "fock primitive needs at least one level")
        amps = np.zeros(dim, dtype=complex)
        for level in levels:
            _require(0 <= level < dim, f"fock level {level} outside [0, {dim})")
            amps[level] = 1.0
        return FockVector(dim, amps / np.linalg.norm(amps))
    if text.startswith("coherent:"):
        return coherent_state(complex(text[len("coherent:"):]), dim)
    raise ValueError(f"unrecognized primitive {text!r} (use ideal, fock:..., coherent:...)")


def _gkp_codewords(N: int, window: int | None) -> list[dict]:
    """The order-N gkp codewords in JSON form; gkp_codeword refuses a negative window."""
    _require(window is None or window <= MAX_WINDOW, f"window must be at most {MAX_WINDOW}")
    return [comb_to_json_dict(gkp_codeword(N, j, window=window)) for j in (0, 1)]


def _rot_codewords(N: int, D: int, primitive: str, eps: object) -> tuple[list[FockVector], bool]:
    """The order-N rot codewords build-code writes, and whether the primitive is ideal."""
    vector = _parse_primitive(primitive, D)
    if vector is None:
        _require(D >= 2 * N, "ideal family needs D >= 2N")
        _require(type(eps) in (int, float), f"the ideal primitive needs a number eps, got {eps!r}")
        # through the module global, which bench/spans.py patches
        return [approx_ideal_rot_codeword(N, j, D, eps) for j in (0, 1)], True
    _require(rot_primitive_validity(vector, N), "primitive misses one of the two codeword sectors")
    return [rot_codeword_from_primitive(vector, N, j) for j in (0, 1)], False


# --- commands ----------------------------------------------------------------


def cmd_build_code(config: argparse.Namespace) -> int:
    _require(config.family in ("rot", "gkp"), "family must be rot or gkp")
    _require(1 <= config.N <= MAX_N, f"N must be in [1, {MAX_N}]")
    bundle = {"tool_version": __version__, "family": config.family, "N": config.N}
    if config.family == "rot":
        _require(1 <= config.D <= MAX_D, f"D must be in [1, {MAX_D}]")
        words, ideal = _rot_codewords(config.N, config.D, config.primitive, config.eps)
        bundle.update(
            {
                "D": config.D,
                "primitive": config.primitive,
                "eps": config.eps if ideal else None,
                "codewords": [w.to_json_dict() for w in words],
            }
        )
    else:
        bundle.update(
            {
                "primitive": "ideal" if config.window is None else f"window:{config.window}",
                "codewords": _gkp_codewords(config.N, config.window),
            }
        )
    _emit(_bundle_text(bundle), config.out)
    return 0


def _logical_row(gate: str, N: int, D: int, words: list[FockVector], tol: float) -> dict:
    action = logical_action(rot_logical_op(gate, N, D), words, GATE_TARGETS[gate], tol)
    return result_row(
        f"logical_{gate}",
        action.passed,
        {"aligned_fidelity": action.aligned_fidelity, "global_phase": action.global_phase, "tol": tol},
    )


def _logical_suite_rot(
    N: int, D: int, words: list[FockVector], ideal: bool, config: argparse.Namespace
) -> list[dict]:
    results = [_logical_row(gate, N, D, words, LOGICAL_TOL_EXACT) for gate in ("Z", "S", "T")]
    stab_ok = stabilizer_check(
        fock_operator("rotation", D, theta=Fraction(2, N)), words, LOGICAL_TOL_EXACT
    )
    results.append(result_row("stabilizer_rotation", stab_ok, {"tol": LOGICAL_TOL_EXACT}))
    if ideal:
        # truncation-limited rows: fidelity is capped by the envelope's edge teeth
        results += [_logical_row(gate, N, D, words, LOGICAL_TOL_APPROX) for gate in ("X", "H")]
    return results


def _detect_rows(words: list[FockVector], errors: dict, tol: float) -> list[dict]:
    return [
        result_row(
            f"detect_{row.name}",
            row.passed,
            {"off_diag_max": row.off_diag_max, "diag_spread": row.diag_spread, "tol": tol},
        )
        for row in detectability_check(words, errors, tol).rows
    ]


def _detect_suite_rot(
    N: int, D: int, words: list[FockVector], ideal: bool, config: argparse.Namespace
) -> list[dict]:
    shifts, rotations = map_error_generators(N, D)
    if config.inject_gamma is not None:
        _require(1 <= config.inject_gamma < D, "injected shift outside [1, D)")
        shifts[f"gamma_{config.inject_gamma}_injected"] = fock_operator(
            "number_shift", D, shift=config.inject_gamma
        )
    results = []
    if shifts:
        results += _detect_rows(words, shifts, DETECT_TOL_SHIFT)
    if ideal:
        results += _detect_rows(words, rotations, DETECT_TOL_ROTATION)
    # N = 1 has no shift below its order, so without ideal rotation rows nothing could fail
    _require(bool(results), f"detect suite has no rows for N={N} and a non-ideal primitive")
    return results


def cmd_check(config: argparse.Namespace) -> int:
    _require(config.inject_gamma is None or config.suite == "detect", "--inject-gamma needs --suite detect")
    with open(config.code, "rb") as fh:
        text = fh.read(MAX_BUNDLE_BYTES + 1)
    _require(len(text) <= MAX_BUNDLE_BYTES, f"bundle file is longer than {MAX_BUNDLE_BYTES} bytes")
    bundle = json.loads(text.decode("utf-8"))
    _require(isinstance(bundle, dict), "bundle must be a JSON object")
    family = bundle.get("family")
    _require(family in ("rot", "gkp"), f"bundle has unknown family {family!r}")
    N = _field(bundle, "N")
    _require(type(N) is int, "bundle N must be an integer")
    _require(1 <= N <= MAX_N, f"N must be in [1, {MAX_N}]")
    # both families rebuild their codewords from N and the primitive
    primitive = _field(bundle, "primitive")
    _require(isinstance(primitive, str), f"bundle primitive must be a string, got {primitive!r}")
    if family == "gkp":
        _require(
            config.suite == "logical",
            "detect suite needs Fock-side codes; comb-side checks live in the logical suite",
        )
        match = re.fullmatch(r"ideal|window:([0-9]+)", primitive)
        _require(match is not None, f"gkp primitive must be ideal or window:W, got {primitive!r}")
        words = _gkp_codewords(N, None if match[1] is None else int(match[1]))
        _require(_field(bundle, "codewords") == words, "bundle codewords are not its N's gkp codewords")
        return _finish(config, gkp_exact_suite(N))
    D, eps = _field(bundle, "D"), _field(bundle, "eps")
    _require(type(D) is int, "bundle D must be an integer")
    _require(1 <= D <= MAX_D, f"D must be in [1, {MAX_D}]")
    words, ideal = _rot_codewords(N, D, primitive, eps)
    _require(ideal or eps is None, f"a non-ideal primitive's eps must be null, got {eps!r}")
    _require(
        _field(bundle, "codewords") == [w.to_json_dict() for w in words],
        "bundle codewords differ from those its N, D, primitive and eps build",
    )
    suite = _logical_suite_rot if config.suite == "logical" else _detect_suite_rot
    return _finish(config, suite(N, D, words, ideal, config))


def cmd_bridge(config: argparse.Namespace) -> int:
    _require(1 <= config.N <= MAX_BRIDGE_N, f"N must be in [1, {MAX_BRIDGE_N}]")
    _require(2 * config.N <= config.D <= MAX_D, f"D must be in [2N, {MAX_D}]")
    results = [
        result_row(f"gate_{gate}", row["exact_match"], row)
        for gate, row in bridge_gate_table(config.N, config.D).items()
    ]
    eps_series = config.eps_series or [1e-1, 1e-2, 1e-3]
    dim = 256 if config.hadamard_dim is None else config.hadamard_dim
    _require(2 * config.N <= dim <= MAX_D, f"hadamard dim must be in [2N, {MAX_D}]")
    hadamard = rot_logical_op("H", config.N, dim)

    def fidelity(eps: float) -> float:
        words = [approx_ideal_rot_codeword(config.N, j, dim, eps) for j in (0, 1)]
        return logical_action(hadamard, words, GATE_TARGETS["H"]).aligned_fidelity

    scan = convergence_scan(fidelity, eps_series)
    final = scan.points[-1][1]
    results.append(
        result_row(
            "hadamard_series",
            scan.monotonicity in ("nondecreasing", "constant") and final >= 1 - 1e-3,
            {
                "eps": eps_series,
                "fidelities": [m for _, m in scan.points],
                "monotonicity": scan.monotonicity,
                "dim": dim,
            },
        )
    )
    return _finish(config, results)


def cmd_alg1(config: argparse.Namespace) -> int:
    _require(config.D >= 1 and config.G >= 1, "D and G must be >= 1")
    _require(config.D * config.G <= MAX_ALG1_CELLS, f"D*G must stay <= {MAX_ALG1_CELLS}")
    # through the module attribute, which bench/spans.py patches to time the pipeline
    report = alg1_report(isometries.alg1_pipeline(config.D, config.G))
    ok = (
        report["union_ok"]
        and report["disjoint_ok"]
        and all(v == 0.0 for v in report["residuals"].values())
    )
    return _finish(config, [result_row("alg1_pipeline", ok, report)])


# --- argument plumbing --------------------------------------------------------


def comma_floats(text: str) -> list[float] | None:
    """Parse "0.1,0.01"; an empty string keeps the default."""
    return [float(part) for part in text.split(",")] if text else None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvqec", description="Bosonic code construction and verification."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-code", help="construct codewords and write a bundle")
    build.add_argument("--family", required=True, choices=["rot", "gkp"])
    build.add_argument("--N", required=True, type=int)
    build.add_argument("--D", type=int, default=64)
    build.add_argument("--primitive", default="ideal")
    build.add_argument("--eps", type=float, default=1e-3)
    build.add_argument("--window", type=int, default=None)
    build.add_argument("--out", default=None)

    check = sub.add_parser("check", help="run a verification suite on a bundle")
    check.add_argument("--code", required=True)
    check.add_argument("--suite", required=True, choices=["logical", "detect"])
    check.add_argument("--inject-gamma", dest="inject_gamma", type=int, default=None)
    check.add_argument("--format", dest="fmt", choices=["json", "md"], default="json")
    check.add_argument("--out", default=None)

    bridge = sub.add_parser("bridge", help="compare bridged gates against rotation-side ones")
    bridge.add_argument("--N", required=True, type=int)
    bridge.add_argument("--D", type=int, default=64)
    bridge.add_argument("--eps-series", dest="eps_series", type=comma_floats, default=None)
    bridge.add_argument("--hadamard-dim", dest="hadamard_dim", type=int, default=None)
    bridge.add_argument("--format", dest="fmt", choices=["json", "md"], default="json")
    bridge.add_argument("--out", default=None)

    alg1 = sub.add_parser("alg1", help="run the block discretization pipeline")
    alg1.add_argument("--D", required=True, type=int)
    alg1.add_argument("--G", required=True, type=int)
    alg1.add_argument("--format", dest="fmt", choices=["json", "md"], default="json")
    alg1.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "build-code": cmd_build_code,
    "check": cmd_check,
    "bridge": cmd_bridge,
    "alg1": cmd_alg1,
}


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CVCodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, OverflowError, RecursionError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

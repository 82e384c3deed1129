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

# the CLI's four size bounds.  MAX_D bounds Fock levels and alg1's D*G
# cells: at 2**20 a rotation detect check peaks at 408 MB and alg1 at 350 MB
MAX_D = 2**16
# code order: T's phases are reduced mod 8 N^4 in int64, which holds up to N = 139; check --suite
# detect at N = 64, D = MAX_D peaks at 80 MB RSS, as --suite logical does, building one error at a time
MAX_N = 64
MAX_WINDOW = 2048  # a windowed gkp codeword then has at most 4097 teeth
# the largest bundle build-code writes under these caps is rot N=1 at D=MAX_D: 8,050,126 bytes
# for fock:0,1,...,65535 (its label alone is 382,110 characters) and 7,801,548 for the ideal
# primitive at eps=0.0108, where most amplitudes print as 23-character e-notation; the largest
# gkp bundle (N=64, --window MAX_WINDOW) is 2,344,586.  This must grow with MAX_D.
MAX_BUNDLE_BYTES = 8 * 2**20

# exact rows (rational phases, disjoint supports) vs the ideal primitive's X, H and rotation
# rows, which its envelope e^{-eps m} and its truncation edge at D limit (see _logical_suite_rot)
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


# a codeword's entries table at its depth in the bundle: rows of [re, im] pairs
_ROW, _PAIR = "\n        ],\n        [\n          ", ",\n          "
_ZERO_PAIRS = np.array([f"{a!r}{_PAIR}{b!r}" for a in (0.0, -0.0) for b in (0.0, -0.0)], dtype=object)
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# one tooth of a finite comb codeword's entries table at its depth in the bundle; a phase's unit is pi
_TOOTH = (
    '{{\n          "index": {{\n            "den": {index[den]},\n            "num": {index[num]}\n          }},'
    '\n          "magnitude": {{\n            "den": {magnitude[den]},\n            "num": {magnitude[num]}'
    '\n          }},\n          "phase": {{\n            "den": {phase[den]},\n            "num": {phase[num]},'
    '\n            "unit": "pi"\n          }}\n        }}'
)


def _bundle_text(bundle: dict) -> str:
    """Exactly json.dumps(bundle, indent=2, sort_keys=True), a FockVector codeword as its to_json_dict().

    A vector's entries table is written from its amplitudes: a pair of zeros is
    picked by its two sign bits, and any other value is its repr, with json's
    spelling of nan and inf.  A finite comb codeword's teeth, all integers, are
    each written from one template.  A table stands in as the string "\\0"
    until then; "codewords" sorts before every string-valued field, and
    "entries" before a comb's other fields, so the k-th stand-in is the k-th
    table.
    """
    tables, words = [], []
    for w in bundle["codewords"]:
        if isinstance(w, FockVector):
            amps = w.amplitudes
            rows = _ZERO_PAIRS[2 * np.signbit(amps.real) + np.signbit(amps.imag)]
            rest = amps != 0
            values = iter([_JSON_SPELLING.get(v, v) for v in map(repr, amps[rest].view(float).tolist())])
            rows[rest] = list(map(_PAIR.join, zip(values, values)))
            tables.append("[\n        [\n          " + _ROW.join(rows.tolist()) + "\n        ]\n      ]")
            w = {"dim": w.dim, "entries": "\0", "structure": "vector"}
        elif w.get("kind") == "finite" and w["entries"]:
            tables.append("[\n        " + ",\n        ".join(map(_TOOTH.format_map, w["entries"])) + "\n      ]")
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


_FOCK_LEVELS = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")


def _parse_primitive(text: str, dim: int) -> FockVector | None:
    """Parse a primitive descriptor; returns None for the ideal family member."""
    if text == "ideal":
        return None
    if text.startswith("fock:"):
        body = text[len("fock:"):]
        _require(bool(body), "fock primitive needs at least one level")
        # only canonical labels: a level list has one spelling, so a bundle's size is bounded by D
        _require(
            _FOCK_LEVELS.fullmatch(body) is not None,
            "fock levels must be decimals without leading zeros, separated by single commas",
        )
        # canonical decimals order as (digit count, digits), so no level is converted before it
        # is known to be below D: int() refuses more than 4,300 digits
        levels = [(len(part), part) for part in body.split(",")]
        _require(all(a < b for a, b in zip(levels, levels[1:])), "fock levels must be strictly increasing")
        top = (len(str(dim)), str(dim))
        for level in levels:
            _require(level < top, f"fock level {level[1]} outside [0, {dim})")
        amps = np.zeros(dim, dtype=complex)
        amps[[int(part) for _, part in levels]] = 1.0
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
    return [rot_codeword_from_primitive(vector, N, j) for j in (0, 1)], False


# --- commands ----------------------------------------------------------------


def cmd_build_code(config: argparse.Namespace) -> int:
    _require(config.family in ("rot", "gkp"), "family must be rot or gkp")
    _require(1 <= config.N <= MAX_N, f"N must be in [1, {MAX_N}]")
    bundle = {"tool_version": __version__, "family": config.family, "N": config.N}
    if config.family == "rot":
        _require(config.window is None, "--window applies only to the gkp family")
        D = 64 if config.D is None else config.D
        primitive = "ideal" if config.primitive is None else config.primitive
        _require(config.eps is None or primitive == "ideal", "--eps applies only to the ideal primitive")
        eps = 1e-3 if config.eps is None else config.eps
        _require(1 <= D <= MAX_D, f"D must be in [1, {MAX_D}]")
        words, ideal = _rot_codewords(config.N, D, primitive, eps)
        bundle.update({"D": D, "primitive": primitive, "eps": eps if ideal else None, "codewords": words})
    else:
        _require(
            config.D is None and config.eps is None and config.primitive is None,
            "--D, --eps and --primitive apply only to the rot family",
        )
        bundle.update(
            {
                "primitive": "ideal" if config.window is None else f"window:{config.window}",
                "codewords": _gkp_codewords(config.N, config.window),
            }
        )
    _emit(_bundle_text(bundle), config.out)
    return 0


def _logical_row(gate: str, N: int, D: int, words: list[FockVector], tol: float) -> dict:
    action = logical_action(rot_logical_op(gate, N, D), words, GATE_TARGETS[gate])
    return result_row(
        f"logical_{gate}",
        action.aligned_fidelity >= 1 - tol,
        {"aligned_fidelity": action.aligned_fidelity, "global_phase": action.global_phase, "tol": tol},
    )


def _logical_suite_rot(N: int, D: int, words: list[FockVector], ideal: bool) -> list[dict]:
    results = [_logical_row(gate, N, D, words, LOGICAL_TOL_EXACT) for gate in ("Z", "S", "T")]
    stab_ok = stabilizer_check(fock_operator("rotation", D, Fraction(2, N)), words, LOGICAL_TOL_EXACT)
    results.append(result_row("stabilizer_rotation", stab_ok, {"tol": LOGICAL_TOL_EXACT}))
    if ideal:
        # y = e^{-2 eps N}, x = y^2, K_j sector-j teeth below D.  Envelope: lowering by N scales a
        # tooth by e^{-eps N} one way and e^{+eps N} the other, so X's fidelity is (1 + y)/2 when
        # D mod 2N is in [1, N] (K_0 = K_1 + 1).  Edge: otherwise (K_0 = K_1 = K) the top sector-1
        # tooth has no partner N above it, and X's is (1 + y (1 - x^(K-1)) / (1 - x^K))/2.  H's
        # envelope cancels between the sectors; its edge gives 1 when K_0 = K_1, less otherwise
        results += [_logical_row(gate, N, D, words, LOGICAL_TOL_APPROX) for gate in ("X", "H")]
    return results


def _detect_suite_rot(N: int, D: int, words: list[FockVector], ideal: bool, inject: int | None) -> list[dict]:
    shifts, angles = map_error_generators(N, D)
    if inject is not None:
        _require(1 <= inject < D, "injected shift outside [1, D)")
        shifts[f"gamma_{inject}_injected"] = inject
    # each image is built as its row runs, so one error operator is held at a time
    results = []
    if shifts:
        errors = ((name, fock_operator("shift", D, l)) for name, l in shifts.items())
        results += detectability_check(words, errors, DETECT_TOL_SHIFT)
    if ideal:
        # envelope and edge (README): the spread tends to ~ 2 eps N / |cos(theta N / 2)| as D grows
        errors = ((name, fock_operator("rotation", D, theta)) for name, theta in angles.items())
        results += detectability_check(words, errors, DETECT_TOL_ROTATION)
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
        # only the labels build-code writes: W in canonical decimal
        match = re.fullmatch(r"ideal|window:(0|[1-9][0-9]*)", primitive)
        _require(match is not None, f"gkp primitive must be ideal or window:W, got {primitive!r}")
        window = match[1]
        # more digits than MAX_WINDOW is too large, and int() refuses more than 4,300
        _require(window is None or len(window) <= len(str(MAX_WINDOW)), f"window must be at most {MAX_WINDOW}")
        words = _gkp_codewords(N, None if window is None else int(window))
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
    if config.suite == "logical":
        return _finish(config, _logical_suite_rot(N, D, words, ideal))
    return _finish(config, _detect_suite_rot(N, D, words, ideal, config.inject_gamma))


def cmd_bridge(config: argparse.Namespace) -> int:
    _require(1 <= config.N <= MAX_N, f"N must be in [1, {MAX_N}]")
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
    _require(config.D * config.G <= MAX_D, f"D*G must stay <= {MAX_D}")
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
    # rot-only: None until cmd_build_code sets 64, ideal and 1e-3; the gkp family refuses them
    build.add_argument("--D", type=int, default=None)
    build.add_argument("--primitive", default=None)
    build.add_argument("--eps", type=float, default=None)
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
    except (CVCodeError, OSError, ValueError, KeyError, OverflowError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Byte identity of the CLI: one sha1 per argv over its exit code, stdout, stderr and --out bytes.

The grid builds rot and gkp bundles and checks each one three ways: as build-code wrote it (the
byte path), as a compact copy and with CRLF line endings (both parsed and compared).  It runs
bridge and alg1, the README examples, tampered bundles and refusals.  Every run happens in one
directory with relative paths, so no report holds a temporary path.  A change that moves bytes
on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_manifest.py

and names every argv whose digest moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from cvqec.cli import main

MANIFEST = Path(__file__).parent / "manifest.json"

ROT_N = (1, 2, 3, 5, 8, 52, 53, 64)
ROT_PRIMITIVES = ("ideal", "fock:0,1,2,3", "fock:0,2,4", "coherent:2")
GKP_WINDOWS = (None, 0, 2, 2048)

COMPACT = lambda text: json.dumps(json.loads(text)).encode()
CRLF = lambda text: text.replace(b"\n", b"\r\n")
ROT, FOCK, GKP, WINDOWED = "rot-N2-D16-ideal.json", "rot-N2-D16-fock:0,2,4.json", "gkp-N2.json", "gkp-N2-window2.json"
# tampered files: (name, the built bundle it edits or None, the edit of that bundle's bytes)
TAMPERED = [
    ("n65.json", "gkp-N64.json", lambda t: COMPACT(t).replace(b'"N": 64', b'"N": 65')),
    ("d-cap.json", ROT, lambda t: COMPACT(t).replace(b'"D": 16', b'"D": 65537')),
    ("n-string.json", ROT, lambda t: COMPACT(t).replace(b'"N": 2', b'"N": "2"')),
    ("d-float.json", ROT, lambda t: COMPACT(t).replace(b'"D": 16', b'"D": 16.0')),
    ("no-d.json", ROT, lambda t: COMPACT(t).replace(b'"D": 16, ', b"")),
    ("eps-fock.json", FOCK, lambda t: COMPACT(t).replace(b'"eps": null', b'"eps": 0.001')),
    ("primitive-number.json", GKP, lambda t: COMPACT(t).replace(b'"primitive": "ideal"', b'"primitive": 2')),
    ("window-002.json", WINDOWED, lambda t: t.replace(b'"window:2"', b'"window:002"')),
    ("window-cap.json", WINDOWED, lambda t: t.replace(b'"window:2"', b'"window:2049"')),
    ("family.json", GKP, lambda t: t.replace(b'"family": "gkp"', b'"family": "cat"')),
    ("gkp-period.json", GKP, lambda t: t.replace(b'"period": 4', b'"period": 5')),
    ("gkp-tooth.json", WINDOWED, lambda t: t.replace(b'"num": -8', b'"num": -12', 1)),
    ("amplitude.json", FOCK, lambda t: COMPACT(t).replace(b"[1.0, 0.0]", b"[1.0, 1e-300]", 1)),
    ("amplitude-string.json", FOCK, lambda t: COMPACT(t).replace(b"[0.0, 0.0]", b'["0.0", 0.0]', 1)),
    ("extra-key.json", "rot-N3-D64-ideal.json", lambda t: t.replace(b"{\n", b'{\n  "note": "extra",\n', 1)),
    ("no-newline.json", "rot-N3-D64-ideal.json", lambda t: t.removesuffix(b"\n")),
    ("truncated.json", "rot-N3-D64-ideal.json", lambda t: t[: len(t) // 2]),
    ("array.json", None, lambda t: b"[]"),
    ("nested.json", None, lambda t: b"[" * 100000),
]


def _bundle_name(options: list[str]) -> str:
    """rot-N3-D64-ideal.json, rot-N3-D64-ideal-eps0.json, gkp-N2.json, gkp-N2-window2.json."""
    opts = dict(zip(options[::2], options[1::2]))
    name = f"{opts['--family']}-N{opts['--N']}"
    if opts["--family"] == "rot":
        name += f"-D{opts['--D']}-{opts['--primitive']}" + (f"-eps{opts['--eps']}" if "--eps" in opts else "")
    elif "--window" in opts:
        name += f"-window{opts['--window']}"
    return name + ".json"


def builds() -> list[list[str]]:
    """build-code options: rot over N, D, primitive and eps; gkp over N and window."""
    out = []
    for N in ROT_N:
        for D in sorted({2 * N, 16, 64, 256, 4096}):
            for primitive in ROT_PRIMITIVES:
                out.append(["--family", "rot", "--N", str(N), "--D", str(D), "--primitive", primitive])
            if D in (2 * N, 256):
                for eps in ("0", "1e-4", "0.0108"):
                    out.append(["--family", "rot", "--N", str(N), "--D", str(D), "--primitive", "ideal", "--eps", eps])
    for N in range(1, 65):
        for window in GKP_WINDOWS:
            if window != 2048 or N == 64:
                out.append(["--family", "gkp", "--N", str(N), *([] if window is None else ["--window", str(window)])])
    return out


def checks(name: str, options: list[str]) -> list[list[str]]:
    """check argvs for one built bundle and its compact and CRLF copies.

    A gkp bundle's reports depend on N alone (its detect suite is refused once the bundle is
    read), so a windowed one runs only the logical suite as json.
    """
    opts = dict(zip(options[::2], options[1::2]))
    N, D = int(opts["--N"]), int(opts.get("--D", 0))
    stem = name.removesuffix(".json")
    out = [["check", "--code", name, "--suite", "logical"]]
    if opts["--family"] == "rot" or "--window" not in opts:
        out.append(["check", "--code", name, "--suite", "detect"])
        out.append(["check", "--code", name, "--suite", "logical", "--format", "md"])
    if opts["--family"] == "rot":
        out.append(["check", "--code", name, "--suite", "detect", "--format", "md"])
        out.append(["check", "--code", name, "--suite", "logical", "--out", f"{stem}.report"])
        if D <= 256 and "--eps" not in opts:
            for gamma in sorted({-1, 0, 1, N, D - 1, D}):
                out.append(["check", "--code", name, "--suite", "detect", "--inject-gamma", str(gamma)])
    out += [["check", "--code", f"{stem}.{copy}.json", "--suite", "logical"] for copy in ("compact", "crlf")]
    return out


README = [
    ["build-code", "--family", "rot", "--N", "2", "--D", "64", "--out", "rot2.json"],
    ["check", "--code", "rot2.json", "--suite", "logical"],
    ["check", "--code", "rot2.json", "--suite", "detect", "--inject-gamma", "2"],
    ["build-code", "--family", "gkp", "--N", "2", "--out", "gkp2.json"],
    ["check", "--code", "gkp2.json", "--suite", "logical", "--format", "md"],
    ["bridge", "--N", "2", "--D", "64"],
    ["alg1", "--D", "4", "--G", "3"],
]

REFUSALS = [
    ["build-code", "--family", "rot", "--N", "0"],
    ["build-code", "--family", "rot", "--N", "65"],
    ["build-code", "--family", "gkp", "--N", "65"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "0"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "65537"],
    ["build-code", "--family", "rot", "--N", "2", "--window", "3"],
    ["build-code", "--family", "gkp", "--N", "2", "--D", "64"],
    ["build-code", "--family", "gkp", "--N", "2", "--eps", "0.1"],
    ["build-code", "--family", "gkp", "--N", "2", "--primitive", "ideal"],
    ["build-code", "--family", "gkp", "--N", "2", "--window", "-1"],
    ["build-code", "--family", "gkp", "--N", "2", "--window", "2049"],
    ["build-code", "--family", "rot", "--N", "2", "--primitive", "fock:0,2,4", "--eps", "0.1"],
    ["build-code", "--family", "rot", "--N", "2", "--eps", "1e308"],
    ["build-code", "--family", "rot", "--N", "2", "--eps", "nan"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "squeezed:1"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "fock:"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "fock:0,0"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "fock:2,0"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "fock:00,2"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "fock:0,,2"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "fock:0,2,"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "fock:0,16"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "fock:0," + "9" * 40],
    ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "coherent:1e15"],
    ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "coherent:x"],
    ["build-code", "--family", "cat", "--N", "2"],
    ["check", "--code", "missing.json", "--suite", "logical"],
    ["check", "--code", "rot2.json", "--suite", "bogus"],
    ["check", "--code", "gkp2.json", "--suite", "detect"],
    ["check", "--code", "rot2.json", "--suite", "logical", "--inject-gamma", "1"],
    ["bridge", "--N", "0"],
    ["bridge", "--N", "33"],
    ["bridge", "--N", "2", "--D", "65537"],
    ["bridge", "--N", "2", "--hadamard-dim", "3"],
    ["bridge", "--N", "2", "--eps-series", "0.1,x"],
    ["alg1", "--D", "0", "--G", "1"],
    ["alg1", "--D", "257", "--G", "256"],
    ["frobnicate"],
]

BRIDGES = [["bridge", "--N", str(N), "--D", str(max(64, 2 * N)), "--hadamard-dim", str(max(16, 2 * N))]
           for N in range(1, 65)]
BRIDGES += [["bridge", "--N", "2", "--eps-series", "0.1,0.05", "--format", "md"], ["bridge", "--N", "3", "--D", "2048"]]
ALG1 = [["alg1", "--D", str(D), "--G", str(G)] + fmt
        for D, G in ((1, 1), (1, 2), (2, 1), (3, 2), (4, 5), (8, 4), (16, 16), (64, 64), (2048, 2), (1, 4096),
                     (256, 256), (1, 65536))
        for fmt in ([], ["--format", "md"])]


def digest(argv: list[str]) -> str:
    """sha1 of main(argv)'s exit code, stdout, stderr and --out file (if it writes one)."""
    target = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if target is not None:
        target.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    h = hashlib.sha1(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    h.update(target.read_bytes() if target is not None and target.exists() else b"\0no file")
    return h.hexdigest()


def compute() -> dict[str, str]:
    """The manifest of the whole grid, run in a fresh directory."""
    digests = {}

    def run(argv):
        key = " ".join(argv)
        assert key not in digests, key
        digests[key] = digest(argv)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            built = []
            for options in builds():
                name = _bundle_name(options)
                run(["build-code", *options, "--out", name])
                if Path(name).exists():
                    text = Path(name).read_bytes()
                    Path(name.replace(".json", ".compact.json")).write_bytes(COMPACT(text))
                    Path(name.replace(".json", ".crlf.json")).write_bytes(CRLF(text))
                    built.append((name, options))
            for name, options in built:
                for argv in checks(name, options):
                    run(argv)
            for argv in README:
                run(argv)
            for name, source, edit in TAMPERED:
                Path(name).write_bytes(edit(None if source is None else Path(source).read_bytes()))
                for suite in ("logical", "detect"):
                    run(["check", "--code", name, "--suite", suite])
            for argv in REFUSALS + BRIDGES + ALG1:
                run(argv)
        finally:
            os.chdir(cwd)
    return digests


def test_cli_outputs_match_the_manifest():
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = compute()
    moved = sorted(k for k in got.keys() & expected.keys() if got[k] != expected[k])
    assert (moved, sorted(got.keys() - expected.keys()), sorted(expected.keys() - got.keys())) == ([], [], [])


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(compute(), indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)

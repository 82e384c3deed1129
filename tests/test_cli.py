"""Command line behavior: bundles, suites, exit codes, determinism."""

import contextlib
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec import __version__, cli, combs, fock, isometries
from cvqec.cli import MAX_D, MAX_N, MAX_WINDOW, _bundle_text, main
from cvqec.combs import comb_to_json_dict, gkp_codeword
from cvqec.fock import approx_ideal_rot_codeword

GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).parents[1] / "bench"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_quiet_exit_2(capsys, argv):
    """main(argv) exits 2 with an `error:` message and raises no Python warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and "error:" in err, (argv, code, err)
    assert not caught, [str(w.message) for w in caught]


# --- build-code ----------------------------------------------------------------


def test_build_writes_rot_bundle(tmp_path):
    out = tmp_path / "code.json"
    code = main(
        [
            "build-code", "--family", "rot", "--N", "2", "--D", "32",
            "--primitive", "fock:0,2", "--out", str(out),
        ]
    )
    assert code == 0
    bundle = json.loads(out.read_text())
    assert bundle["family"] == "rot" and bundle["N"] == 2 and bundle["D"] == 32
    assert bundle["tool_version"] == __version__
    assert bundle["eps"] is None
    assert len(bundle["codewords"]) == 2
    amps0 = bundle["codewords"][0]["entries"]
    assert amps0[0] == [1.0, 0.0] and all(a == [0.0, 0.0] for a in amps0[1:])


def test_build_writes_gkp_bundle(tmp_path):
    out = tmp_path / "code.json"
    assert main(["build-code", "--family", "gkp", "--N", "2", "--out", str(out)]) == 0
    bundle = json.loads(out.read_text())
    assert bundle["primitive"] == "ideal"
    desc = bundle["codewords"][1]
    assert desc["kind"] == "periodic"
    assert desc["offset"] == {"num": 2, "den": 1} and desc["period"] == 4


def test_build_windowed_gkp_label(tmp_path):
    out = tmp_path / "code.json"
    assert main(
        ["build-code", "--family", "gkp", "--N", "1", "--window", "2", "--out", str(out)]
    ) == 0
    bundle = json.loads(out.read_text())
    assert bundle["primitive"] == "window:2"
    assert bundle["codewords"][0]["kind"] == "finite"


def test_build_rejects_bad_requests(tmp_path, capsys):
    assert main(["build-code", "--family", "rot", "--N", "0"]) == 2
    assert main(["build-code", "--family", "rot", "--N", "2", "--D", "2"]) == 2
    assert main(["build-code", "--family", "rot", "--N", "2", "--primitive", "quux:3"]) == 2
    # primitive living in a single sector cannot seed both codewords
    assert main(["build-code", "--family", "rot", "--N", "2", "--primitive", "fock:0,4"]) == 2
    assert main(["build-code", "--family", "gkp", "--N", "1", "--window", str(MAX_WINDOW + 1)]) == 2
    assert "window must be at most" in capsys.readouterr().err
    # non-finite numbers and overflowing amplitudes never reach a bundle
    rot = ["build-code", "--family", "rot", "--N", "2", "--D", "64"]
    for extra in (["--eps", "nan"], ["--eps", "inf"], ["--eps=-inf"], ["--primitive", "coherent:nan"],
                  ["--primitive", "coherent:infj"], ["--primitive", "coherent:1e200"],
                  ["--D", "4096", "--primitive", "coherent:30"]):
        assert_quiet_exit_2(capsys, [*rot, *extra, "--out", str(tmp_path / "never.json")])
    assert not (tmp_path / "never.json").exists()


def test_build_coherent_primitive_beyond_171_levels(tmp_path):
    # (D - 1)! overflows a float from D = 172; the amplitudes themselves fit
    out = tmp_path / "code.json"
    argv = ["build-code", "--family", "rot", "--N", "2", "--D", "256", "--primitive", "coherent:1"]
    assert main([*argv, "--out", str(out)]) == 0
    words = json.loads(out.read_text())["codewords"]
    assert all(len(w["entries"]) == 256 for w in words)


# --- check ----------------------------------------------------------------------


@pytest.fixture()
def rot_bundle(tmp_path):
    path = tmp_path / "rot.json"
    assert main(
        ["build-code", "--family", "rot", "--N", "2", "--D", "64", "--eps", "1e-3",
         "--out", str(path)]
    ) == 0
    return path


@pytest.fixture()
def gkp_bundle(tmp_path):
    path = tmp_path / "gkp.json"
    assert main(["build-code", "--family", "gkp", "--N", "2", "--out", str(path)]) == 0
    return path


def test_logical_suite_passes_on_ideal_rot(rot_bundle, capsys):
    code, report = run_json(capsys, ["check", "--code", str(rot_bundle), "--suite", "logical"])
    assert code == 0
    names = [r["name"] for r in report["results"]]
    assert names == [
        "logical_Z", "logical_S", "logical_T", "stabilizer_rotation", "logical_X", "logical_H",
    ]
    assert report["summary"]["failed"] == 0
    assert report["config"]["suite"] == "logical"


def test_detect_suite_flags_injected_undetectable(rot_bundle, capsys):
    code, report = run_json(
        capsys,
        ["check", "--code", str(rot_bundle), "--suite", "detect", "--inject-gamma", "2"],
    )
    assert code == 1
    by_name = {r["name"]: r for r in report["results"]}
    assert not by_name["detect_gamma_2_injected"]["pass"]
    assert by_name["detect_gamma_1"]["pass"]


@pytest.mark.parametrize("bundle", ["rot_bundle", "gkp_bundle"])
def test_inject_gamma_needs_detect_suite(bundle, request, capsys):
    # a logical report would echo the option in its config without an injected row
    path = request.getfixturevalue(bundle)
    assert_quiet_exit_2(capsys, ["check", "--code", str(path), "--suite", "logical", "--inject-gamma", "5"])


def test_detect_suite_on_sparse_primitive_code(tmp_path, capsys):
    path = tmp_path / "sparse.json"
    assert main(
        ["build-code", "--family", "rot", "--N", "2", "--D", "32",
         "--primitive", "fock:0,2", "--out", str(path)]
    ) == 0
    code, report = run_json(capsys, ["check", "--code", str(path), "--suite", "detect"])
    assert code == 0
    # non-ideal codes skip the rotation rows
    assert all(r["name"].startswith("detect_gamma") for r in report["results"])


def test_detect_suite_without_rows_is_refused(tmp_path, capsys):
    # N = 1 has no shift below its order and a non-ideal code runs no rotation row: a report
    # with no rows could not fail, so it exits 2; an injected shift gives it a row again
    path = tmp_path / "order1.json"
    argv = ["build-code", "--family", "rot", "--N", "1", "--D", "8", "--primitive", "fock:0,1"]
    assert main([*argv, "--out", str(path)]) == 0
    for fmt in ("json", "md"):
        assert_quiet_exit_2(capsys, ["check", "--code", str(path), "--suite", "detect", "--format", fmt])
    code, report = run_json(capsys, ["check", "--code", str(path), "--suite", "detect", "--inject-gamma", "2"])
    assert code == 0 and [r["name"] for r in report["results"]] == ["detect_gamma_2_injected"]


def test_gkp_logical_suite_is_exact(gkp_bundle, capsys):
    code, report = run_json(capsys, ["check", "--code", str(gkp_bundle), "--suite", "logical"])
    assert code == 0
    assert report["summary"] == {"total": 24, "passed": 24, "failed": 0}
    for r in report["results"]:
        expected = r["metrics"]["expected"]
        assert expected == "any global" or r["metrics"]["phase"] == expected


def test_gkp_detect_suite_is_refused(gkp_bundle, capsys):
    assert main(["check", "--code", str(gkp_bundle), "--suite", "detect"]) == 2
    err = capsys.readouterr().err
    assert "logical suite" in err


def _hand_written_bundle(path, family, N, D=None):
    """A bundle with well-formed codewords, written without build-code's bounds."""
    bundle = {"tool_version": __version__, "family": family, "N": N, "primitive": "ideal"}
    if family == "rot":
        words = [approx_ideal_rot_codeword(N, j, D, 1e-3).to_json_dict() for j in (0, 1)]
        bundle.update({"D": D, "eps": 1e-3, "codewords": words})
    else:
        bundle["codewords"] = [comb_to_json_dict(gkp_codeword(N, j)) for j in (0, 1)]
    path.write_text(json.dumps(bundle))
    return path


@pytest.mark.parametrize("suite", ["logical", "detect"])
@pytest.mark.parametrize(
    "family, N, D, message",
    [
        ("rot", MAX_N + 1, 300, "N must be in"),
        ("gkp", MAX_N + 1, None, "N must be in"),
        ("rot", 2, MAX_D + 1, "D must be in"),
    ],
)
def test_check_rejects_oversized_bundles(tmp_path, capsys, suite, family, N, D, message):
    path = _hand_written_bundle(tmp_path / "big.json", family, N, D)
    assert main(["check", "--code", str(path), "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def _check_exit(path, suite):
    """Exit code and stderr of `check`; an exception escaping `main` fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", "--code", str(path), "--suite", suite])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def small_rot_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "rot.json"
    assert main(["build-code", "--family", "rot", "--N", "2", "--D", "16", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def small_gkp_bundles(tmp_path_factory):
    """The N=2 gkp bundles of the ideal primitive and of window:2."""
    out = {}
    for primitive, extra in (("ideal", []), ("window:2", ["--window", "2"])):
        path = tmp_path_factory.mktemp("small") / "gkp.json"
        assert main(["build-code", "--family", "gkp", "--N", "2", *extra, "--out", str(path)]) == 0
        out[primitive] = json.loads(path.read_text())
    return out


MISSING = object()


def _retyped(bundle, field, value):
    """The bundle with one field replaced, or dropped when value is MISSING.

    "codeword.<key>" names a field of codeword 0.
    """

    def put(obj, key):
        return {k: v for k, v in obj.items() if k != key} if value is MISSING else {**obj, key: value}

    if field.startswith("codeword."):
        word = put(bundle["codewords"][0], field.removeprefix("codeword."))
        return {**bundle, "codewords": [word, *bundle["codewords"][1:]]}
    return put(bundle, field)


@pytest.mark.parametrize("suite", ["logical", "detect"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        (None, "list", "JSON object"),
        # the JSON parser recurses once per nesting level
        pytest.param(None, "[" * 200_000 + "]" * 200_000, "maximum recursion depth", id="nested-arrays"),
        pytest.param(
            None, '{"a": ' * 200_000 + "0" + "}" * 200_000, "maximum recursion depth", id="nested-objects"
        ),
        ("N", None, "N must be an integer"),
        ("N", "2", "N must be an integer"),
        ("D", "16", "D must be an integer"),
        ("codewords", {"0": {}}, "codewords differ"),
        ("codewords", [1, 2], "codewords differ"),
        ("codeword.dim", None, "codewords differ"),
        ("codeword.dim", "16", "codewords differ"),
        ("codeword.entries", [1, 2], "codewords differ"),
        ("N", MISSING, "bundle lacks field 'N'"),
        ("D", MISSING, "bundle lacks field 'D'"),
        ("codewords", MISSING, "bundle lacks field 'codewords'"),
        ("codeword.entries", MISSING, "codewords differ"),
        # json writes these as the NaN and Infinity tokens, which json.load reads back
        ("codeword.entries", [[math.nan, 0.0]] * 16, "codewords differ"),
        ("codeword.entries", [[0.25, -math.inf]] * 16, "codewords differ"),
        # finite entries whose norm overflows a float: NaN overlaps would pass every row
        ("codeword.entries", [[1e308, 1e308]] + [[0.0, 0.0]] * 15, "codewords differ"),
        ("codeword.entries", [[10**400, 0]] * 16, "codewords differ"),
        # entries a numpy conversion would take without complaint
        ("codeword.entries", [[True, 0.0]] * 16, "codewords differ"),
        ("codeword.entries", [[0.1, 0.0, 0.0]] * 16, "codewords differ"),
        ("codeword.entries", [[0.1]] * 16, "codewords differ"),
        ("codeword.entries", [["0.1", 0.0]] * 16, "codewords differ"),
        ("codeword.entries", [[0.1, [0.2]]] * 16, "codewords differ"),
        ("codeword.entries", [[None, 0.0]] * 16, "codewords differ"),
        # the codewords are rebuilt from the primitive and eps
        ("primitive", MISSING, "bundle lacks field 'primitive'"),
        ("primitive", 7, "primitive must be a string"),
        ("primitive", None, "primitive must be a string"),
        ("primitive", ["ideal"], "primitive must be a string"),
        ("primitive", "banana", "unrecognized primitive"),
        ("primitive", "fock:", "at least one level"),
        ("eps", MISSING, "bundle lacks field 'eps'"),
        ("eps", None, "needs a number eps"),
        ("eps", "0.001", "needs a number eps"),
        ("eps", True, "needs a number eps"),
        # e^{-eps m} underflows to 0 on the j = 1 sector, without an overflow warning
        ("eps", 1e308, "cannot normalize"),
    ],
)
def test_check_rejects_wrongly_typed_bundles(
    small_rot_bundle, tmp_path, suite, field, value, message
):
    path = tmp_path / "typed.json"
    if field is None:  # value is the file's text
        path.write_text(json.dumps([small_rot_bundle]) if value == "list" else value)
    else:
        path.write_text(json.dumps(_retyped(small_rot_bundle, field, value)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _check_exit(path, suite)
    assert code == 2
    assert err.startswith("error:") and message in err
    assert not caught, [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def small_fock_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "fock.json"
    argv = ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--primitive", "fock:0,2"]
    assert main([*argv, "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _entry_one_ulp_up(bundle):
    """Codeword 0's entries with its first real part moved up by one ulp."""
    entries = [list(pair) for pair in bundle["codewords"][0]["entries"]]
    entries[0][0] = math.nextafter(entries[0][0], math.inf)
    return entries


@pytest.mark.parametrize(
    "built, changes, message",
    [
        ("ideal", {"codewords": [{"garbage": 1}, 7], "primitive": "window:5"}, "not its N's gkp codewords"),
        ("ideal", {"codewords": MISSING}, "bundle lacks field 'codewords'"),
        ("ideal", {"codeword.offset": {"num": 1, "den": 1}}, "not its N's gkp codewords"),
        ("window:2", {"primitive": "window:3"}, "not its N's gkp codewords"),
        ("window:2", {"primitive": "ideal"}, "not its N's gkp codewords"),
        ("ideal", {"primitive": MISSING}, "bundle lacks field 'primitive'"),
        ("ideal", {"primitive": "fock:0,2"}, "gkp primitive must be ideal or window:W"),
        ("ideal", {"primitive": "2"}, "gkp primitive must be ideal or window:W"),
        ("ideal", {"primitive": f"window:{MAX_WINDOW + 1}"}, "window must be at most"),
        # relabelled, the ideal rot bundle would skip its failing X and H rows
        ("rot", {"primitive": "fock:0,2"}, "eps must be null"),
        ("rot", {"primitive": "fock:0,2", "eps": None}, "codewords differ"),
        ("rot", {"eps": 2e-3}, "codewords differ"),
        ("rot fock:0,2", {"eps": 1e-3}, "eps must be null"),
        ("rot", {"codeword.entries": _entry_one_ulp_up}, "codewords differ"),
    ],
)
def test_check_rejects_foreign_codewords(
    small_rot_bundle, small_fock_bundle, small_gkp_bundles, tmp_path, built, changes, message
):
    bundle = {"rot": small_rot_bundle, "rot fock:0,2": small_fock_bundle, **small_gkp_bundles}[built]
    for field, value in changes.items():
        bundle = _retyped(bundle, field, value(bundle) if callable(value) else value)
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(bundle))
    code, err = _check_exit(path, "logical")
    assert code == 2
    assert err.startswith("error:") and message in err


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, MAX_N + 2)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
)
json_values = (
    json_scalars
    | st.lists(json_scalars, max_size=3)
    | st.lists(st.lists(json_scalars, max_size=3), max_size=3)
    | st.dictionaries(st.text(max_size=3), json_scalars, max_size=2)
)


@settings(deadline=None, max_examples=100)
@given(
    built=st.sampled_from(["rot", "ideal", "window:2"]),
    field=st.sampled_from(
        ["D", "N", "codewords", "eps", "family", "primitive", "tool_version",
         "codeword.dim", "codeword.entries", "codeword.structure",
         "codeword.kind", "codeword.unit", "codeword.offset", "codeword.pattern"]
    ),
    value=json_values,
    suite=st.sampled_from(["logical", "detect"]),
)
def test_check_survives_retyped_bundle_fields(
    small_rot_bundle, small_gkp_bundles, tmp_path_factory, built, field, value, suite
):
    bundle = small_rot_bundle if built == "rot" else small_gkp_bundles[built]
    path = tmp_path_factory.getbasetemp() / "retyped.json"
    path.write_text(json.dumps(_retyped(bundle, field, value)))
    code, err = _check_exit(path, suite)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert code != 2 or err.startswith("error:")


def test_check_refuses_a_file_longer_than_the_cap(small_rot_bundle, tmp_path, monkeypatch, capsys):
    # the largest bundle build-code writes under the caps stays inside the byte cap
    big = tmp_path / "gkp.json"
    argv = ["build-code", "--family", "gkp", "--N", str(MAX_N), "--window", str(MAX_WINDOW)]
    assert main([*argv, "--out", str(big)]) == 0
    assert big.stat().st_size <= cli.MAX_BUNDLE_BYTES
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(small_rot_bundle))
    argv = ["check", "--code", str(path), "--suite", "logical"]
    monkeypatch.setattr(cli, "MAX_BUNDLE_BYTES", path.stat().st_size)
    assert main(argv) != 2
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_BUNDLE_BYTES", path.stat().st_size - 1)
    assert_quiet_exit_2(capsys, argv)


def test_check_missing_bundle_file(capsys):
    assert main(["check", "--code", "/no/such/bundle.json", "--suite", "logical"]) == 2
    capsys.readouterr()


def test_check_markdown_output(gkp_bundle, capsys):
    code = main(["check", "--code", str(gkp_bundle), "--suite", "logical", "--format", "md"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("|") and "Z_on_0" in out


# --- bridge and alg1 ---------------------------------------------------------------


def test_bridge_reports_exact_gates_and_series(capsys):
    code, report = run_json(
        capsys,
        ["bridge", "--N", "2", "--D", "24", "--hadamard-dim", "64",
         "--eps-series", "1e-1,1e-2"],
    )
    assert code == 0
    by_name = {r["name"]: r for r in report["results"]}
    for gate in ("Z", "S", "T", "X"):
        row = by_name[f"gate_{gate}"]
        assert row["pass"] and row["metrics"]["max_phase_diff"] == 0.0
    series = by_name["hadamard_series"]
    assert series["metrics"]["eps"] == [0.1, 0.01]
    assert series["metrics"]["dim"] == 64
    assert all(f >= 0.99 for f in series["metrics"]["fidelities"])


@pytest.mark.parametrize("dim, red", [(288, set()), (256, {6, 7})])
def test_readme_bridge_loop_exit_codes(capsys, dim, red):
    # hadamard_series is red exactly when dim mod 2N lies in [1, N], where the j = 0 sector
    # keeps one more tooth than j = 1; the README loop runs at 288, where every order passes
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert "--eps-series 0.001 --hadamard-dim 288 --format md" in readme
    argv = ["bridge", "--D", "64", "--eps-series", "0.001", "--hadamard-dim", str(dim), "--format", "md"]
    codes = {N: main([*argv, "--N", str(N)]) for N in range(1, 9)}
    capsys.readouterr()
    assert codes == {N: int(N in red) for N in range(1, 9)}


def test_bridge_rejects_out_of_range(capsys):
    assert main(["bridge", "--N", "0"]) == 2
    assert main(["bridge", "--N", "9"]) == 2
    assert main(["bridge", "--N", "4", "--D", "6"]) == 2
    capsys.readouterr()
    # 0 is a given dim, not a request for the default 256
    assert_quiet_exit_2(capsys, ["bridge", "--N", "2", "--hadamard-dim", "0"])


@pytest.mark.parametrize("series", ["abc", "0.1,,0.2", "nan", "inf", "0.1,-inf"])
def test_bridge_rejects_malformed_eps_series(series, capsys):
    assert_quiet_exit_2(capsys, ["bridge", "--N", "2", "--eps-series", series])


def test_alg1_command_reports_certificate(capsys):
    code, report = run_json(capsys, ["alg1", "--D", "2", "--G", "2"])
    assert code == 0
    metrics = report["results"][0]["metrics"]
    assert metrics["union_ok"] and metrics["disjoint_ok"]
    assert metrics["dim"] == 8
    assert all(v == 0.0 for v in metrics["residuals"].values())


def test_alg1_size_guard(capsys):
    assert main(["alg1", "--D", "100", "--G", "100"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, argv",
    [
        (f"alg1-D{D}-G{G}.json", ["alg1", "--D", str(D), "--G", str(G)])
        for D, G in [(1, 1), (4, 3), (64, 64), (8, 512), (2048, 2), (1, 4096)]
    ]
    + [("alg1-D8-G4.md", ["alg1", "--D", "8", "--G", "4", "--format", "md"])]
    + [
        (f"check-logical-gkp2.{fmt}", ["check", "--suite", "logical", "--format", fmt, "--code", "gkp 2"])
        for fmt in ("json", "md")
    ]
    + [
        (f"check-logical-gkp{N}.json", ["check", "--suite", "logical", "--code", f"gkp {N}"])
        for N in (1, 3, 8)
    ]
    + [
        (f"build-{name}.json", ["build-code", "--family", *options.split()])
        for name, options in [
            ("rot3-D64", "rot --N 3 --D 64"),
            ("rot2-D16-fock024", "rot --N 2 --D 16 --primitive fock:0,2,4"),
            ("rot2-D16-coherent", "rot --N 2 --D 16 --primitive coherent:0.3+1j"),
            ("gkp2", "gkp --N 2"),
            ("gkp2-window3", "gkp --N 2 --window 3"),
        ]
    ]
    + [
        ("check-logical-rot3-D256.json", ["check", "--suite", "logical", "--code", "rot 3 --D 256"]),
        ("bridge-N3-D64-H256.json", ["bridge", "--N", "3", "--D", "64", "--hadamard-dim", "256"]),
    ]
    + [
        # D = 2N, the smallest legal D, puts the bridge's check comb at the window edge
        (f"bridge-N{N}-D{D}.{fmt}", ["bridge", "--N", str(N), "--D", str(D), "--format", fmt])
        for N, D, fmt in [(1, 2, "json"), (2, 4, "json"), (8, 16, "json"), (8, 64, "md")]
    ],
)
def test_reports_match_golden_bytes(tmp_path, capsys, name, argv):
    # The gkp and alg1 reports carry no float from a numerical routine, so their bytes are
    # portable.  The rot and bridge reports pin rotation-side floats, whose last digits depend
    # on numpy's floating-point routines; their logical H values lie within 5e-16 of an exact
    # oracle (phases reduced in integers, sums in 40 digits).  A check job names the family,
    # order and any build-code options of the bundle it reads in place of the bundle's path.
    # The build-code goldens pin bundle bytes: negative zeros, complex entries, comb codewords.
    code = tmp_path / "bundle.json"
    if argv[0] == "check":
        family, N, *options = argv[-1].split()
        assert main(["build-code", "--family", family, "--N", N, *options, "--out", str(code)]) == 0
        argv = [*argv[:-1], str(code)]
    assert main(argv) == 0
    out = capsys.readouterr().out.replace(json.dumps(str(code))[1:-1], "<code>")
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


table_floats = st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1])


@settings(deadline=None, max_examples=200)
@given(
    tables=st.lists(
        st.lists(st.lists(table_floats, min_size=2, max_size=2), min_size=1, max_size=6),
        min_size=1,
        max_size=3,
    )
)
def test_bundle_text_matches_indented_dumps(tables):
    bundle = {
        "tool_version": __version__, "family": "rot", "N": 2, "D": 16, "primitive": "ideal", "eps": 1e-3,
        "codewords": [{"dim": len(t), "entries": t, "structure": "vector"} for t in tables],
    }
    assert _bundle_text(bundle) == json.dumps(bundle, indent=2, sort_keys=True)


def test_parser_reuse_keeps_reports(tmp_path, capsys):
    # main keeps one parser for the process: a call's options and an argparse error
    # leave nothing behind for the next call
    code = tmp_path / "rot.json"
    assert main(["build-code", "--family", "rot", "--N", "2", "--D", "16", "--out", str(code)]) == 0
    calls = [
        ["check", "--code", str(code), "--suite", "detect", "--format", "md", "--inject-gamma", "3"],
        ["check", "--code", str(code), "--suite", "bogus"],
        ["check", "--code", str(code), "--suite", "detect"],
    ]
    outputs = []
    for argv in calls:
        rc = main(argv)
        outputs.append((rc, capsys.readouterr().out))
    assert outputs[1] == (2, "")
    for argv, (rc, out) in zip(calls[::2], outputs[::2]):
        fresh = subprocess.run([sys.executable, "-m", "cvqec.cli", *argv], capture_output=True, text=True)
        assert (rc, out) == (fresh.returncode, fresh.stdout)
    config = json.loads(outputs[2][1])["config"]
    assert config == {"code": str(code), "command": "check", "fmt": "json", "suite": "detect"}


def test_unknown_command_exits_nonzero(capsys):
    assert main(["frobnicate"]) != 0
    capsys.readouterr()


def test_trace_spans_cover_every_layer(tmp_path, monkeypatch):
    # the benchmark's --trace 1 patches these modules; a renamed or by-name import breaks it
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    rot, gkp, out = (str(tmp_path / name) for name in ("rot.json", "gkp.json", "out.json"))
    jobs = [
        ["build-code", "--family", "rot", "--N", "2", "--D", "16", "--out", rot],
        ["check", "--code", rot, "--suite", "logical", "--out", out],
        ["check", "--code", rot, "--suite", "detect", "--out", out],
        ["build-code", "--family", "gkp", "--N", "2", "--out", gkp],
        ["check", "--code", gkp, "--suite", "logical", "--out", out],
        ["bridge", "--N", "2", "--D", "16", "--hadamard-dim", "16", "--out", out],
        ["alg1", "--D", "2", "--G", "2", "--out", out],
    ]
    tracer = spans.Tracer()
    modules = {"cli": cli, "combs": combs, "fock": fock, "isometries": isometries}
    comb = combs.periodic_comb(combs.bridge_unit(2), 0, 4, [0])
    with spans.instrument(tracer, modules):
        codes = [tracer.call("cli", cli.main, argv) for argv in jobs]
        tracer.call("combs.gate", combs.gkp_apply, "S", comb, 2)
    assert 2 not in codes
    assert {span[0] for span in tracer.spans} == set(spans.SPAN_METRICS)
    assert tracer.counts["fock.operators"] > 0


# --- reproducibility -----------------------------------------------------------------


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["alg1", "--D", "3", "--G", "2", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_report_ignores_bundle_layout(tmp_path, capsys):
    # check reads a bundle's fields, not its bytes: compact, unsorted JSON gives the same report
    code = tmp_path / "rot.json"
    assert main(["build-code", "--family", "rot", "--N", "2", "--D", "16", "--out", str(code)]) == 0
    argv = ["check", "--code", str(code), "--suite", "logical"]
    main(argv)
    indented = capsys.readouterr().out
    bundle = json.loads(code.read_text())
    code.write_text(json.dumps(dict(reversed(bundle.items()))))
    main(argv)
    assert capsys.readouterr().out == indented


def test_bundles_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["build-code", "--family", "rot", "--N", "3", "--D", "48", "--eps", "1e-2"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cvqec.cli", "alg1", "--D", "1", "--G", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["passed"] == 1

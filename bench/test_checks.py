"""Each benchmark check accepts the program's output and rejects a corrupted copy.

Run from the repository root: PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import copy
import dataclasses
import json
from fractions import Fraction

import pytest

import checks
from cvqec import cli, combs
from cvqec.isometries import alg1_pipeline

N, D, EPS = 3, 256, 1e-3


def _run(tmp_path, *argv) -> tuple[dict, int]:
    out = tmp_path / "out.json"
    rc = cli.main([*argv, "--out", str(out)])
    return json.loads(out.read_text()), rc


@pytest.fixture
def bundle(tmp_path):
    argv = ("build-code", "--family", "rot", "--N", str(N), "--D", str(D), "--eps", str(EPS))
    data, rc = _run(tmp_path, *argv)
    assert rc == 0
    return data


def test_detect_spread_matches_closed_form_value():
    assert checks.rotation_spreads(N, D, EPS)[0] == pytest.approx(1.61988731e-2, abs=5e-11)


def test_rot_bundle_check_rejects_a_perturbed_amplitude(bundle):
    checks.check_rot_bundle(bundle, N, D, EPS)
    bad = copy.deepcopy(bundle)
    bad["codewords"][1]["entries"][N][0] *= 1 + 1e-9
    with pytest.raises(checks.Mismatch, match="deviate"):
        checks.check_rot_bundle(bad, N, D, EPS)


def test_detect_check_rejects_a_wrong_diag_spread(bundle, tmp_path):
    code = tmp_path / "code.json"
    code.write_text(json.dumps(bundle))
    report, rc = _run(tmp_path, "check", "--code", str(code), "--suite", "detect")
    checks.check_rot_detect(report, rc, N, D, EPS)
    row = next(r for r in report["results"] if r["name"] == "detect_rotation_1")
    row["metrics"]["diag_spread"] *= 1 + 1e-6
    with pytest.raises(checks.Mismatch, match="rotation_1 diag_spread"):
        checks.check_rot_detect(report, rc, N, D, EPS)


def test_logical_check_rejects_a_wrong_x_fidelity(bundle, tmp_path):
    code = tmp_path / "code.json"
    code.write_text(json.dumps(bundle))
    report, rc = _run(tmp_path, "check", "--code", str(code), "--suite", "logical")
    checks.check_rot_logical(report, rc, N, D, EPS)
    report["results"][4]["metrics"]["aligned_fidelity"] -= 1e-6
    with pytest.raises(checks.Mismatch, match="logical_X"):
        checks.check_rot_logical(report, rc, N, D, EPS)


def _with_pattern(state, pattern):
    return dataclasses.replace(state, periodic=dataclasses.replace(state.periodic, pattern=tuple(pattern)))


@pytest.fixture
def t_gate():
    offset = Fraction(1, 3)
    state = combs.periodic_comb(combs.bridge_unit(2), offset, 4, [0])
    out = combs.gkp_apply("T", state, 2)
    checks.check_comb_gate("T", 2, offset, out)
    return offset, out


def test_comb_check_rejects_one_changed_pattern_entry(t_gate):
    offset, out = t_gate
    pattern = list(out.periodic.pattern)
    pattern[5] = (pattern[5] + Fraction(1, 4)) % 2
    with pytest.raises(checks.Mismatch, match="tooth 5"):
        checks.check_comb_gate("T", 2, offset, _with_pattern(out, pattern))


def test_comb_check_rejects_a_non_minimal_pattern(t_gate):
    offset, out = t_gate
    doubled = _with_pattern(out, out.periodic.pattern * 2)
    with pytest.raises(checks.Mismatch, match="repeats with period"):
        checks.check_comb_gate("T", 2, offset, doubled)


def test_alg1_check_rejects_two_swapped_sigma_targets():
    result = alg1_pipeline(4, 3)
    block_values = result.block_op.diagonal_values()
    checks.check_alg1_sigma(result.sigma, result.grid_values, block_values, 4, 3)
    sigma = list(result.sigma)
    sigma[1], sigma[7] = sigma[7], sigma[1]
    with pytest.raises(checks.Mismatch, match="sigma"):
        checks.check_alg1_sigma(sigma, result.grid_values, block_values, 4, 3)

"""Exact phases, and bridged gate rows, against golden files.

Every pinned value is an exact rational printed as num/den, a boolean, or a
phase difference that is exactly zero, so the files are portable: no float
here comes from a numerical routine.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

from cvqec.cli import main
from cvqec.fock import fock_operator, rot_logical_op
from cvqec.phases import rational_to_json

GOLDEN = Path(__file__).parent / "golden"


def exact_fields() -> dict:
    """The exact `phases` field of each operator's JSON form, from its numerators over `den`."""
    ops = {f"rot_{gate}_N3_D64": rot_logical_op(gate, 3, 64) for gate in "ZST"}
    # the adjoint of the rotation by 1/3 is the rotation by -1/3
    ops["adjoint_rotation_8_1/3"] = fock_operator("rotation", 8, Fraction(-1, 3))
    return {
        name: {"phases": [rational_to_json(n, op.den, unit="pi") for n in op.phase_num.tolist()]}
        for name, op in ops.items()
    }


def bridge_gate_rows() -> list[dict]:
    """The gate_Z/S/T/X rows of `bridge --N 3 --D 2048`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bridge", "--N", "3", "--D", "2048"]) == 0
    return [r for r in json.loads(out.getvalue())["results"] if r["name"].startswith("gate_")]


def _text(value) -> str:
    return json.dumps(value, indent=1, sort_keys=True) + "\n"


def test_exact_operator_fields_match_golden():
    assert _text(exact_fields()) == (GOLDEN / "fock-exact-fields.json").read_text(encoding="utf-8")


def test_bridge_gate_rows_match_golden():
    assert _text(bridge_gate_rows()) == (GOLDEN / "bridge-N3-D2048-gates.json").read_text(
        encoding="utf-8"
    )

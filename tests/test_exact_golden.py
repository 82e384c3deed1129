"""Exact phases and eigenvalues, and bridged gate rows, against golden files.

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
from cvqec.fock import adjoint, fock_operator, rot_logical_op, u_invariant_projector
from cvqec.phases import rational_to_json

GOLDEN = Path(__file__).parent / "golden"


def exact_fields() -> dict:
    """The exact `phases` and `exact_diag` fields of each operator's JSON form."""
    ops = {f"rot_{gate}_N3_D64": rot_logical_op(gate, 3, 64) for gate in "ZST"}
    ops["adjoint_rotation_8_1/3"] = adjoint(fock_operator("rotation", 8, theta=Fraction(1, 3)))
    ops["number_8"] = fock_operator("number", 8)
    # a half-integer spectrum at s_z = 2/3: only values in 3/2 Z land on a sector
    spectrum = [Fraction(m, 2) for m in range(-8, 9)]
    for j in (0, 1):
        ops[f"u_invariant_j{j}"] = u_invariant_projector(spectrum, Fraction(2, 3), j)
    return {
        name: {
            "phases": None if op.phases is None else [rational_to_json(p, unit="pi") for p in op.phases],
            "exact_diag": None if op.exact_diag is None else [rational_to_json(x) for x in op.exact_diag],
        }
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

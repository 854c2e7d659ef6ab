"""Byte-for-byte comparison of exact-mode CLI reports and outputs against
the files under ``tests/golden``.

Every command here runs in exact arithmetic, so the files do not depend on
the platform's BLAS.  The closed-form tuple (E12, -E12, E21, -E21) reaches
the irreducible stability verdict and an integral spectral curve, which
the heavy-top fixture, with its zero residues, does not.
"""

import json
from pathlib import Path

import pytest

from conftest import FIXTURES, closed_form_flags, closed_form_matrices
from starquiver import jsonio
from starquiver.cli import main
from starquiver.higgs import HiggsTuple

GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(argv, tmp_path, produced):
    assert main(argv) == 0
    for name in produced:
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("fixture,name", [
    ("type_rank2_full_flags.json", "type_check_full_flags.json"),
    ("type_rank2_tight_weights.json", "type_check_tight_weights.json"),
])
def test_golden_type_check(tmp_path, fixture, name):
    _run(["type-check", "--type", str(FIXTURES / fixture), "--report", str(tmp_path / name)], tmp_path, [name])


def _bridge_round_trip(tmp_path, prefix, higgs_path, type_path):
    rep, higgs = f"{prefix}_rep.json", f"{prefix}_higgs.json"
    to_quiver, to_higgs = f"{prefix}_to_quiver_report.json", f"{prefix}_to_higgs_report.json"
    _run(["bridge", "to-quiver", "--higgs", str(higgs_path), "--hitchin",
          "--out", str(tmp_path / rep), "--report", str(tmp_path / to_quiver)], tmp_path, [rep, to_quiver])
    _run(["bridge", "to-higgs", "--rep", str(tmp_path / rep), "--type", str(type_path), "--hitchin",
          "--out", str(tmp_path / higgs), "--report", str(tmp_path / to_higgs)], tmp_path, [higgs, to_higgs])


def test_golden_heavy_top_bridge(tmp_path):
    fixture = FIXTURES / "higgs_rank2_heavy_top.json"
    type_path = tmp_path / "heavy_top_type.json"
    jsonio.dump(type_path, json.loads(fixture.read_text(encoding="utf-8"))["type"])
    _bridge_round_trip(tmp_path, "heavy_top", fixture, type_path)


def test_golden_closed_form_bridge(tmp_path, full_flag_type):
    h = HiggsTuple(full_flag_type, closed_form_matrices(), closed_form_flags(), mode="exact")
    higgs_path = tmp_path / "closed_form_input.json"
    jsonio.dump(higgs_path, jsonio.higgs_to_json(h))
    _bridge_round_trip(tmp_path, "closed_form", higgs_path, FIXTURES / "type_rank2_full_flags.json")

import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from common import (
    FIXTURES,
    class_to_json,
    closed_form_flags,
    closed_form_matrices,
    instance_to_json,
    mscale,
    scaled_flag_tuple,
    unnested_tuple,
)
from starquiver import cli, combinat, jsonio, poisson
from starquiver import linalg_exact as ex
from starquiver.cli import main
from starquiver.combinat import NilpotentClass
from starquiver.dsolve import (
    CONJUGATOR_TOL,
    DSInstance,
    DSSolution,
    RefinementError,
    SolverConfig,
    exact_refine,
    flags_from_solution,
    solve,
)
from starquiver.higgs import BridgeError, HiggsTuple, WeightsNotSmallError, higgs_to_quiver
from starquiver.poisson import hamiltonian_samples
from starquiver.spectral import ExactnessRequired, HitchinPoint
from starquiver.starrep import StarQuiver, StarRep, random_rep

F = Fraction


# ---------------------------------------------------------------------------
# serialization round trips


def test_type_round_trip(full_flag_type):
    data = jsonio.type_to_json(full_flag_type)
    back = jsonio.type_from_json(data)
    assert back == full_flag_type
    assert data["points"] == ["0", "1", "2", "3"]


def test_class_round_trip():
    c = NilpotentClass.from_partition((3, 2))
    data = class_to_json(c)
    assert data["partition"] == [3, 2]
    assert jsonio.class_from_json(data) == c
    # partitions alone reconstruct too
    assert jsonio.class_from_json({"rank": 5, "partition": [3, 2]}) == c


def test_instance_round_trip(rank2_instance):
    data = instance_to_json(rank2_instance)
    back = jsonio.instance_from_json(data)
    assert back == rank2_instance


def test_rep_round_trip_float():
    rng = np.random.default_rng(0)
    q = StarQuiver(rank=3, arms=((2, 1), (1,)))
    rep = random_rep(q, rng)
    data = jsonio.rep_to_json(rep)
    back = jsonio.rep_from_json(data)
    assert back.quiver == q
    for j in range(q.n_arms):
        for i in range(len(rep.f[j])):
            assert np.array_equal(back.f[j][i], rep.f[j][i])
            assert np.array_equal(back.g[j][i], rep.g[j][i])


def test_rep_round_trip_exact():
    q = StarQuiver(rank=2, arms=((1,),))
    f = [[[[F(0), F("1/3")]]]]
    g = [[[[F(2)], [F("-5/7")]]]]
    rep = StarRep(q, f, g, "exact")
    data = jsonio.rep_to_json(rep)
    assert data["matrices"]["f/1/1"] == [["0", "1/3"]]
    back = jsonio.rep_from_json(data)
    assert back.f[0][0] == f[0][0]
    assert back.g[0][0] == g[0][0]


def test_higgs_round_trip(full_flag_type):
    h = HiggsTuple(
        sigma=full_flag_type,
        matrices=closed_form_matrices(),
        flags=closed_form_flags(),
        mode="exact",
    )
    back = jsonio.higgs_from_json(jsonio.higgs_to_json(h))
    assert back.matrices == h.matrices
    assert back.flags == h.flags


def test_hitchin_round_trip(full_flag_type):
    # no subcommand reads a coefficient point; the --hitchin appendix
    # writes one with exact rational strings
    hp = HitchinPoint(
        rank=2,
        points=full_flag_type.line.points,
        coeffs=[[], [F(0), F(6), F(-11), F(6), F(-1)]],
    )
    assert jsonio.hitchin_to_json(hp) == {
        "rank": 2,
        "points": ["0", "1", "2", "3"],
        "coefficients": [[], ["0", "6", "-11", "6", "-1"]],
    }


def test_solution_round_trip():
    sol = DSSolution(
        matrices=[np.eye(2) * 0 for _ in range(3)],
        conjugators=[np.eye(2) for _ in range(3)],
        residual=0.0,
    )
    back = jsonio.solution_from_json(jsonio.solution_to_json(sol))
    assert all(np.array_equal(a, b) for a, b in zip(back.matrices, sol.matrices))


def test_malformed_json_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    with pytest.raises(jsonio.InputFormatError) as err:
        jsonio.load(bad)
    assert "line" in str(err.value)


# ---------------------------------------------------------------------------
# CLI behaviour and exit codes


def test_type_check_fixture(capsys):
    code = main(["type-check", "--type", str(FIXTURES / "type_rank2_tight_weights.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "small-weights bound      : FAIL" in out
    assert "coefficient space dim    : 1" in out


def test_type_check_reports_an_undetermined_genericity(tmp_path, capsys, monkeypatch):
    # past the sumset cap weights_generic gives up; type-check says so and
    # still exits 0
    monkeypatch.setattr(combinat, "_MAX_CASES", 4)
    report = tmp_path / "report.json"
    code = main(["type-check", "--type", str(FIXTURES / "type_rank2_full_flags.json"), "--report", str(report)])
    assert code == 0
    assert "weights generic          : undetermined" in capsys.readouterr().out
    assert json.loads(report.read_text(encoding="utf-8"))["conditions"]["weights_generic"] == "undetermined"


def test_type_check_missing_file(capsys):
    code = main(["type-check", "--type", "/nonexistent/type.json"])
    assert code == 1


def test_type_check_malformed(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"points": ["0","1","2","3"], "rank": 2}', encoding="utf-8")
    code = main(["type-check", "--type", str(p)])
    assert code == 1
    assert "missing the field" in capsys.readouterr().err


def test_ds_solve_certified(tmp_path, capsys):
    out_path = tmp_path / "sol.json"
    rep_path = tmp_path / "rep.json"
    code = main(
        [
            "ds",
            "solve",
            "--instance",
            str(FIXTURES / "ds_rank2_four_rank1.json"),
            "--seed",
            "7",
            "--out",
            str(out_path),
            "--report",
            str(rep_path),
        ]
    )
    assert code == 0
    report = json.loads(rep_path.read_text())
    assert report["verification"]["certified"] is True
    assert report["verification"]["sum_ok"] is report["verification"]["conjugators_ok"] is True
    assert report["feasibility"]["inequality"] is report["feasibility"]["in_sigma0"] is True
    sol = json.loads(out_path.read_text())
    assert len(sol["matrices"]) == 4


def test_ds_solve_infeasible_flagged(tmp_path):
    rep_path = tmp_path / "rep.json"
    code = main(
        [
            "ds",
            "solve",
            "--instance",
            str(FIXTURES / "ds_rank5_infeasible.json"),
            "--seed",
            "1",
            "--restarts",
            "3",
            "--report",
            str(rep_path),
        ]
    )
    report = json.loads(rep_path.read_text())
    assert report["feasibility"]["inequality"] is report["feasibility"]["in_sigma0"] is False
    if report["converged"]:
        # the sum can vanish here (images cancel pairwise), but no
        # irreducible tuple exists: four rank-one images span at most four
        # of the five dimensions, leaving an invariant subspace
        assert code == 0
        assert report["verification"]["irreducible"] is False
        assert report["verification"]["certified"] is False
    else:
        assert code == 2


def test_no_irreducible_tuple_at_twice_the_d4_root(tmp_path, capsys):
    # four (2, 2) classes at rank 4 pass the inequality and the arm chains,
    # but alpha = 2 delta of affine D4 is not in Sigma_0
    typ, inst, report = tmp_path / "type.json", tmp_path / "inst.json", tmp_path / "report.json"
    instance = DSInstance(rank=4, classes=(NilpotentClass.from_partition((2, 2)),) * 4)
    jsonio.dump(typ, jsonio.type_to_json(instance.parabolic_type()))
    jsonio.dump(inst, instance_to_json(instance))
    assert main(["type-check", "--type", str(typ), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "residue-sum inequality   : PASS" in out and "arm chain condition      : PASS" in out
    assert "irreducible tuple exists : FAIL  (dimension vector in Sigma_0)" in out
    assert json.loads(report.read_text())["conditions"]["in_sigma0"] is False
    assert main(["ds", "solve", "--instance", str(inst), "--seed", "0", "--restarts", "5", "--report", str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "rank profile PASS, irreducible FAIL (solution delivered without full certificate)"
        "; no irreducible tuple exists (dimension vector not in Sigma_0)"
    )
    feasibility = json.loads(report.read_text())["feasibility"]
    assert (feasibility["inequality"], feasibility["in_sigma0"]) == (True, False)


def test_ds_solve_zero_classes(tmp_path):
    inst = DSInstance(
        rank=3, classes=(NilpotentClass(rank=3, rank_sequence=()),) * 4
    )
    p = tmp_path / "inst.json"
    jsonio.dump(p, instance_to_json(inst))
    code = main(["ds", "solve", "--instance", str(p), "--seed", "0"])
    assert code == 0


def test_ds_verify_roundtrip(tmp_path):
    out_path = tmp_path / "sol.json"
    main(
        [
            "ds",
            "solve",
            "--instance",
            str(FIXTURES / "ds_rank2_four_rank1.json"),
            "--seed",
            "7",
            "--out",
            str(out_path),
        ]
    )
    code = main(
        [
            "ds",
            "verify",
            "--solution",
            str(out_path),
            "--instance",
            str(FIXTURES / "ds_rank2_four_rank1.json"),
            "--hitchin",
        ]
    )
    assert code == 0


RANK2_INSTANCE = str(FIXTURES / "ds_rank2_four_rank1.json")


@pytest.fixture(scope="module")
def rank2_solution_data(tmp_path_factory):
    """The rank-2 fixture's stored solution JSON, solved once."""
    out_path = tmp_path_factory.mktemp("rank2") / "sol.json"
    assert main(["ds", "solve", "--instance", RANK2_INSTANCE, "--seed", "7", "--out", str(out_path)]) == 0
    return jsonio.load(out_path)


@pytest.fixture
def rank2_solution(rank2_solution_data):
    """The rank-2 fixture's solution, decoded afresh for each test."""
    return jsonio.solution_from_json(rank2_solution_data)


def _verify_run(tmp_path, capsys, sol, *flags):
    """Exit code, stdout and stderr of `ds verify` on the stored ``sol``."""
    path = tmp_path / "stored.json"
    jsonio.dump(path, jsonio.solution_to_json(sol))
    code = main(["ds", "verify", "--solution", str(path), "--instance", RANK2_INSTANCE, *flags])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ds_verify_hitchin_rejects_an_off_class_solution(tmp_path, capsys, rank2_solution):
    # a stored solution moved off its classes, with the sum kept at zero,
    # fails its rank profile as under plain `ds verify`; the exact
    # cross-check needs a passing profile and does not run
    sol = rank2_solution
    g = 1e-3 * np.random.default_rng(0).standard_normal((2, 2))
    sol.matrices[0], sol.matrices[1] = sol.matrices[0] + g, sol.matrices[1] - g
    report = tmp_path / "report.json"
    code, out, err = _verify_run(tmp_path, capsys, sol, "--hitchin", "--report", str(report))
    assert code == 2
    assert "rank profile        : FAIL" in out.splitlines()
    assert "vanishing orders (found/required):" not in out
    assert "spectral" not in jsonio.load(report)
    assert err == ""


@pytest.mark.parametrize("flags", [(), ("--hitchin",)])
@pytest.mark.parametrize("cut,point", [("conjugators", 2), ("matrices", 3)])
def test_ds_verify_rejects_a_short_solution(tmp_path, capsys, rank2_solution, flags, cut, point):
    # a solution with fewer matrices or conjugators than classes is not
    # certified on the points it covers
    sol = rank2_solution
    setattr(sol, cut, getattr(sol, cut)[:point])
    code, out, err = _verify_run(tmp_path, capsys, sol, *flags)
    assert code == 1
    assert err == f"error: point {point}: the solution needs one 2x2 matrix and one 2x2 conjugator at each of the instance's 4 points\n"
    assert out == ""


def _verify_report(tmp_path, capsys, sol):
    """Exit code and JSON report of `ds verify` on the stored ``sol``."""
    report = tmp_path / "report.json"
    code, _, _ = _verify_run(tmp_path, capsys, sol, "--report", str(report))
    return code, jsonio.load(report)


def test_ds_verify_certifies_the_stored_conjugators(tmp_path, capsys, rank2_solution, rank2_solution_data):
    code, report = _verify_report(tmp_path, capsys, rank2_solution)
    assert (code, report["certified"]) == (0, True)
    assert report["conjugator_error"] == rank2_solution_data["report"]["verification"]["conjugator_error"]


@pytest.mark.parametrize("value", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("row,col", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("point", range(4))
def test_ds_verify_rejects_a_tampered_conjugator(tmp_path, capsys, rank2_solution, point, row, col, value):
    # a conjugator that no longer conjugates its Jordan form to the stored
    # matrix voids the certificate, whatever the other checks say
    rank2_solution.conjugators[point][row, col] = value
    code, report = _verify_report(tmp_path, capsys, rank2_solution)
    assert (code, report["certified"]) == (2, False)
    assert report["conjugator_error"] > CONJUGATOR_TOL
    assert report["profile_ok"] and report["irreducible"]


def test_ds_verify_rejects_a_singular_float_conjugator(tmp_path, capsys, rank2_solution):
    rank2_solution.conjugators[1] = np.zeros((2, 2))
    code, report = _verify_report(tmp_path, capsys, rank2_solution)
    assert (code, report["certified"]) == (2, False)


@pytest.fixture(scope="module")
def rank2_exact_solution(rank2_solution_data):
    inst = jsonio.instance_from_json(jsonio.load(RANK2_INSTANCE))
    return exact_refine(jsonio.solution_from_json(rank2_solution_data), inst)


@pytest.mark.parametrize("tamper", ["none", "entry", "zero", "scaled"])
def test_ds_verify_checks_exact_conjugators_exactly(tmp_path, capsys, rank2_exact_solution, tamper):
    # A P = P N in integers, with P invertible: a scalar multiple of a good
    # conjugator still conjugates, a zero one does not
    p = rank2_exact_solution.conjugators[1]
    changed = {
        "none": p,
        "entry": [p[0][:1] + [p[0][1] + Fraction(1, 10**30)], p[1]],
        "zero": ex.mzeros(2, 2),
        "scaled": mscale(Fraction(3), p),
    }[tamper]
    conjugators = list(rank2_exact_solution.conjugators)
    conjugators[1] = changed
    code, report = _verify_report(tmp_path, capsys, replace(rank2_exact_solution, conjugators=conjugators))
    certified = tamper in ("none", "scaled")
    assert (code, report["certified"]) == ((0, True) if certified else (2, False))
    assert (report["conjugator_error"] == 0.0) == (tamper != "entry")


@pytest.mark.parametrize("flags", [(), ("--hitchin",)])
def test_ds_verify_prints_the_conjugator_verdict(tmp_path, capsys, flags):
    # an exact zero-sum solution on its classes, stored with identity
    # conjugators, passes every other line; the conjugators line says why
    # it is not certified, as does the report's conjugators_ok, and the
    # conjugators that do carry the Jordan form to each matrix certify it
    mats = [[[0, 1], [0, 0]], [[0, -1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [-1, 0]]]
    good = [[[0, 1], [1, 0]], [[0, 1], [-1, 0]], [[1, 0], [0, 1]], [[1, 0], [0, -1]]]
    report = tmp_path / "report.json"
    for conjugators, expected in (([ex.meye(2)] * 4, 2), (good, 0)):
        sol = DSSolution(
            matrices=[[[Fraction(x) for x in row] for row in m] for m in mats],
            conjugators=[[[Fraction(x) for x in row] for row in p] for p in conjugators],
            residual=0.0,
            mode="exact",
        )
        code, out, err = _verify_run(tmp_path, capsys, sol, "--report", str(report), *flags)
        lines = out.splitlines()
        assert (code, err) == (expected, "")
        data = jsonio.load(report)
        assert (data["sum_ok"], data["conjugators_ok"], data["certified"]) == (True, not expected, not expected)
        assert {"residual            : 0.000e+00", "rank profile        : PASS", "irreducible         : PASS"} <= set(lines)
        verdict = "FAIL (error 2.000e+00)" if expected else "PASS (error 0.000e+00)"
        assert f"conjugators         : {verdict}" in lines


@pytest.mark.parametrize("flags", [(), ("--hitchin",)])
def test_ds_verify_rejects_residues_that_do_not_sum_to_zero(tmp_path, capsys, flags):
    # each A_i = P_i N P_i^-1 exactly, on its class, but the sum is
    # [[0, 1], [0, 0]]: the zero sum line voids the certificate, and the
    # exact cross-check, which needs a zero sum, does not run
    mats = [[[0, 2], [0, 0]], [[0, -1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [-1, 0]]]
    conjugators = [[[0, 2], [1, 0]], [[0, -1], [1, 0]], [[1, 0], [0, 1]], [[1, 0], [0, -1]]]
    sol = DSSolution(
        matrices=[[[Fraction(x) for x in row] for row in m] for m in mats],
        conjugators=[[[Fraction(x) for x in row] for row in p] for p in conjugators],
        residual=0.0,
        mode="exact",
    )
    report = tmp_path / "report.json"
    code, out, err = _verify_run(tmp_path, capsys, sol, "--report", str(report), *flags)
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "residual            : 1.000e+00",
        "zero sum            : FAIL",
        "rank profile        : PASS",
        "irreducible         : PASS",
        "conjugators         : PASS (error 0.000e+00)",
    ]
    data = jsonio.load(report)
    assert data["certified"] is False and "spectral" not in data
    assert (data["sum_ok"], data["conjugators_ok"]) == (False, True)


@pytest.mark.parametrize("delta,certified", [(5e-7, True), (2e-6, False)])
def test_ds_verify_bounds_a_float_sum_by_the_conjugator_tolerance(tmp_path, capsys, rank2_solution, delta, certified):
    # A_1 scaled by 1 + delta, with its conjugator's second column scaled to
    # match, still conjugates its Jordan form to it; the sum moves by
    # delta ||A_1|| (||A_1|| is about 0.97), inside or outside CONJUGATOR_TOL
    sol = rank2_solution
    sol.matrices[0] = (1 + delta) * sol.matrices[0]
    sol.conjugators[0] = sol.conjugators[0] @ np.diag([1.0, 1.0 + delta])
    report = tmp_path / "report.json"
    code, out, _ = _verify_run(tmp_path, capsys, sol, "--report", str(report))
    data = jsonio.load(report)
    assert (code, data["certified"]) == ((0, True) if certified else (2, False))
    assert data["residual"] == pytest.approx(delta * np.linalg.norm(sol.matrices[0]), rel=1e-3)
    assert data["conjugator_error"] < 1e-12
    assert f"zero sum            : {'PASS' if certified else 'FAIL'}" in out.splitlines()


def test_ds_verify_hitchin_reports_the_bridge_appendix(tmp_path, capsys, rank2_solution, certified_batch):
    # ds verify --hitchin runs the appendix of bridge --hitchin on the flags
    # of the solution's exact refinement: the same printed block and the
    # same spectral object, on the fixture's seed-7 solution and on three
    # solutions of the certified batch (ranks 2, 5 and 4)
    fixture = jsonio.instance_from_json(jsonio.load(RANK2_INSTANCE))
    cases = [(fixture, rank2_solution)] + [(inst, o.solution) for inst, o in certified_batch[1:4]]
    for inst, sol in cases:
        paths = {name: tmp_path / f"{name}.json" for name in ("instance", "solution", "higgs", "verify", "bridge")}
        jsonio.dump(paths["instance"], instance_to_json(inst))
        jsonio.dump(paths["solution"], jsonio.solution_to_json(sol))
        h = flags_from_solution(exact_refine(sol, inst), inst.parabolic_type())
        jsonio.dump(paths["higgs"], jsonio.higgs_to_json(h))
        argv = ["--solution", str(paths["solution"]), "--instance", str(paths["instance"]), "--hitchin"]
        assert main(["ds", "verify", *argv, "--report", str(paths["verify"])]) == 0
        verify_out = capsys.readouterr().out.splitlines()
        assert main(["bridge", "to-quiver", "--higgs", str(paths["higgs"]), "--hitchin", "--report", str(paths["bridge"])]) == 0
        bridge_out = capsys.readouterr().out.splitlines()
        assert verify_out[5:] == bridge_out[1:]
        assert sum(line.startswith("spectral polynomial integral:") for line in verify_out) == 1
        assert jsonio.load(paths["verify"])["spectral"] == jsonio.load(paths["bridge"])["spectral"]


def test_ds_verify_rejects_misshapen_matrices(tmp_path, capsys, rank2_solution):
    sol = rank2_solution
    sol.matrices = [np.zeros((3, 3)) for _ in sol.matrices]
    code, out, err = _verify_run(tmp_path, capsys, sol, "--hitchin")
    assert code == 1
    assert err.startswith("error: point 0: the solution needs one 2x2 matrix") and err.count("\n") == 1


def test_bridge_round_trip_cli(tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    code = main(
        [
            "bridge",
            "to-quiver",
            "--higgs",
            str(FIXTURES / "higgs_rank2_heavy_top.json"),
            "--out",
            str(rep_path),
        ]
    )
    assert code == 0
    h_path = tmp_path / "h.json"
    code = main(
        [
            "bridge",
            "to-higgs",
            "--rep",
            str(rep_path),
            "--type",
            str(FIXTURES / "type_rank2_full_flags.json"),
            "--out",
            str(h_path),
            "--hitchin",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "membership        : PASS" in out


def test_bridge_rejects_nontrivial_splitting(capsys):
    code = main(
        [
            "bridge",
            "to-quiver",
            "--higgs",
            str(FIXTURES / "higgs_rank2_split_bundle.json"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "not a sum of trivial line bundles" in err


def test_bridge_residue_tuple_without_marked_points(tmp_path, capsys):
    # the empty residue sum is the zero matrix, so the tuple is valid and
    # converts to a quiver without arms and back; no residues generate the
    # scalars, as the zero matrix does, so every line has slope 0, the full
    # slope: semistable only at rank 2, and stable at rank 1
    for rank, verdict in [(1, "stable"), (2, "semistable_only")]:
        sigma = {"points": [], "rank": rank, "K": 3, "flags": []}
        higgs = _dump(tmp_path, {"type": sigma, "mode": "exact", "matrices": [], "flags": []})
        rep, report, type_path = tmp_path / "rep.json", tmp_path / "report.json", tmp_path / "type.json"
        jsonio.dump(type_path, sigma)
        code = main(["bridge", "to-quiver", "--higgs", str(higgs), "--hitchin", "--out", str(rep), "--report", str(report)])
        assert code == 0
        assert json.loads(report.read_text())["moment_residual"] == 0.0
        assert json.loads(rep.read_text())["arms"] == []
        capsys.readouterr()
        code = main(["bridge", "to-higgs", "--rep", str(rep), "--type", str(type_path), "--report", str(report)])
        assert (code, capsys.readouterr()) == (0, (
            "conversion produced a valid residue tuple: PASS\n"
            f"stability verdict : {verdict} (full slope 0)\n", ""))
        assert json.loads(report.read_text())["stability"] == {"verdict": verdict, "full_slope": "0"}


def test_poisson_check_on_a_representation_without_arms(tmp_path, capsys):
    rep = _dump(tmp_path, {"rank": 2, "arms": [], "mode": "float", "matrices": {}})
    report = tmp_path / "report.json"
    assert main(["poisson", "check", "--rep", str(rep), "--report", str(report)]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads(report.read_text())
    assert payload["gradient_oracles_ok"] is True
    for key in ("entry_bracket_max_residual", "commutativity_max_residual", "jacobi_max_residual", "moment_residual"):
        assert payload[key] == 0.0


def test_poisson_check_cli(tmp_path):
    rng = np.random.default_rng(5)
    q = StarQuiver(rank=2, arms=((1,),) * 4)
    rep = random_rep(q, rng, scale=0.5)
    rep_path = tmp_path / "rep.json"
    jsonio.dump(rep_path, jsonio.rep_to_json(rep))
    report_path = tmp_path / "poisson.json"
    code = main(
        [
            "poisson",
            "check",
            "--rep",
            str(rep_path),
            "--grid",
            "20",
            "--seed",
            "3",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["entry_bracket_max_residual"] < 1e-9
    assert report["commutativity_max_residual"] < 1e-8
    assert report["jacobi_max_residual"] < 1e-9


def test_poisson_check_counts_every_hamiltonian_of_eight_arms(tmp_path, capsys):
    # each level's numerator has degree up to r(n - 2) = 12 here; the first
    # max(4, r) quarter steps, all left of the poles, counted 3 of 5
    inst = DSInstance(rank=2, classes=(NilpotentClass.from_partition((2,)),) * 8)
    sigma = inst.parabolic_type()
    rep = higgs_to_quiver(flags_from_solution(solve(inst, SolverConfig(seed=1)).solution, sigma))
    rep_path, report_path = tmp_path / "rep.json", tmp_path / "poisson.json"
    jsonio.dump(rep_path, jsonio.rep_to_json(rep))
    assert main(["poisson", "check", "--rep", str(rep_path), "--grid", "1", "--report", str(report_path)]) == 0
    capsys.readouterr()
    assert json.loads(report_path.read_text())["independent_hamiltonians"] == combinat.spectral_degrees(sigma)[1] == 5


def test_hamiltonian_samples_interleave_with_the_poles():
    assert hamiltonian_samples([0.0, 1.0, 2.0, 3.0], 6) == [-0.5, 0.5, 1.5, 2.5, 3.5, 4.5]
    assert hamiltonian_samples([5.0], 2) == [4.5, 5.5]
    # mean spacing 1.5: 0.75 lies within 0.375 of the pole 0.5 and is skipped
    points = [0.0, 0.5, 3.0]
    assert hamiltonian_samples(points, 3) == [-0.75, 2.25, 3.75]


RESIDUALS = ("entry_bracket_max_residual", "commutativity_max_residual", "jacobi_max_residual", "moment_residual")


def _overflowing_reps():
    # entries near 1e160 overflow every residual to NaN; on the one-arm rep
    # the central moment component is 0 and the arm component NaN
    yield random_rep(StarQuiver(2, ((1,),) * 4), np.random.default_rng(0), scale=1e160), RESIDUALS
    f = [[np.array([[1e200, 1e200], [0, 0]], dtype=complex)]]
    g = [[np.array([[0, -1e200], [0, 1e200]], dtype=complex)]]
    yield StarRep(StarQuiver(2, ((2,),)), f, g), ("jacobi_max_residual", "moment_residual")


@pytest.mark.parametrize("rep,nan_keys", _overflowing_reps(), ids=["all", "moment"])
def test_poisson_check_fails_on_nan_residuals(tmp_path, capsys, rep, nan_keys):
    # max(0.0, nan) is 0.0: a fold by max reports an overflowed residual as
    # a pass, and a NaN moment residual must count no Hamiltonians
    rep_path, report_path = tmp_path / "rep.json", tmp_path / "poisson.json"
    jsonio.dump(rep_path, jsonio.rep_to_json(rep))
    with np.errstate(all="ignore"):
        code = main(["poisson", "check", "--rep", str(rep_path), "--grid", "20", "--report", str(report_path)])
    report = json.loads(report_path.read_text())
    assert code == 3
    assert [key for key in RESIDUALS if math.isnan(report[key])] == list(nan_keys)
    assert "independent_hamiltonians" not in report
    assert "jacobi residual         : nan" in capsys.readouterr().out
    # the library report keeps each NaN and counts no Hamiltonians
    with np.errstate(all="ignore"):
        library = poisson.check(rep, [0.0, 1.0, 2.0, 3.0][: rep.quiver.n_arms], np.random.default_rng(3), 20)
    assert [key for key in RESIDUALS if math.isnan(getattr(library, key))] == list(nan_keys)
    assert library.independent_hamiltonians is None


def test_reports_byte_identical(tmp_path):
    paths = []
    for tag in ("a", "b"):
        rep_path = tmp_path / f"report_{tag}.json"
        sol_path = tmp_path / f"sol_{tag}.json"
        code = main(
            [
                "ds",
                "solve",
                "--instance",
                str(FIXTURES / "ds_rank2_four_rank1.json"),
                "--seed",
                "11",
                "--out",
                str(sol_path),
                "--report",
                str(rep_path),
            ]
        )
        assert code == 0
        paths.append((rep_path.read_bytes(), sol_path.read_bytes()))
    assert paths[0] == paths[1]


def test_type_check_report_byte_identical(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        p = tmp_path / f"tc_{tag}.json"
        main(
            [
                "type-check",
                "--type",
                str(FIXTURES / "type_rank2_full_flags.json"),
                "--report",
                str(p),
            ]
        )
        blobs.append(p.read_bytes())
    assert blobs[0] == blobs[1]


def test_ragged_exact_matrix_is_an_input_error(tmp_path, capsys):
    # the first row has the right length, so only a full rectangularity
    # check catches the empty second row before the exact kernels index it
    good_rep = tmp_path / "good.json"
    assert main(["bridge", "to-quiver", "--higgs", str(FIXTURES / "higgs_rank2_heavy_top.json"),
                 "--out", str(good_rep)]) == 0
    rep = json.loads(good_rep.read_text(encoding="utf-8"))
    assert rep["mode"] == "exact"
    rep["matrices"]["g/1/1"] = [["1"], []]
    bad_rep = tmp_path / "ragged.json"
    jsonio.dump(bad_rep, rep)
    capsys.readouterr()
    code = main(["bridge", "to-higgs", "--rep", str(bad_rep),
                 "--type", str(FIXTURES / "type_rank2_full_flags.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "rows have different lengths" in err
    assert "Traceback" not in err


def _malformed_run(tmp_path, capsys, payload, argv):
    """Exit code and stderr of ``argv`` with the malformed ``payload``
    written to the file named by the placeholder ``BAD``."""
    bad = tmp_path / "bad.json"
    jsonio.dump(bad, payload)
    capsys.readouterr()
    code = main([str(bad) if a == "BAD" else a for a in argv])
    return code, capsys.readouterr().err


def test_residue_tuple_with_scalar_matrices_is_an_input_error(tmp_path, capsys):
    data = jsonio.load(FIXTURES / "higgs_rank2_heavy_top.json")
    data["matrices"] = 5
    code, err = _malformed_run(tmp_path, capsys, data, ["bridge", "to-quiver", "--higgs", "BAD"])
    assert code == 1
    assert err.startswith("error: invalid residue tuple:")
    assert "Traceback" not in err


@pytest.mark.parametrize("data,message", [
    pytest.param(5, "expected a JSON object, got a number", id="number"),
    ({"splitting_type": 5}, "'int' object is not iterable"),
])
def test_residue_tuple_that_is_not_an_object_is_an_input_error(tmp_path, capsys, data, message):
    # the splitting-type guard reads the document inside the decoder
    code, err = _malformed_run(tmp_path, capsys, data, ["bridge", "to-quiver", "--higgs", "BAD"])
    assert code == 1
    assert err == f"error: invalid residue tuple: {message}\n"


def _heavy_top_as_float():
    data = jsonio.load(FIXTURES / "higgs_rank2_heavy_top.json")
    data["mode"] = "float"
    data["matrices"] = [[[float(F(x)) for x in row] for row in m] for m in data["matrices"]]
    data["flags"] = [[[[float(F(x)) for x in row] for row in b] for b in fl] for fl in data["flags"]]
    return data


@pytest.mark.parametrize("tol", [None, "inf"])
def test_residue_tuple_json_cannot_set_its_tolerance(tmp_path, capsys, tol):
    # the tuple is validated at BRIDGE_TOL whatever the file says: a "tol"
    # field used to switch validation off
    data = _heavy_top_as_float()
    assert main(["bridge", "to-quiver", "--higgs", str(_dump(tmp_path, data))]) == 0
    data["matrices"][0][0][0] += 5
    if tol is not None:
        data["tol"] = tol
    code, err = _malformed_run(tmp_path, capsys, data, ["bridge", "to-quiver", "--higgs", "BAD"])
    assert code == 1
    assert err.startswith("error: invalid residue tuple: residues do not sum to zero (norm 5.00e+00)")
    assert err.count("\n") == 1


def test_bridge_converts_a_validated_tuple_with_large_flag_bases(tmp_path, capsys):
    # validation accepts the tuple at every scale of its flag bases, and is
    # the conversion's one test of strong preservation: with bases of norm
    # 1e3 the conversion's own corestriction check used to exit 1
    path = _dump(tmp_path, jsonio.higgs_to_json(scaled_flag_tuple(1e3)))
    capsys.readouterr()
    assert main(["bridge", "to-quiver", "--higgs", str(path)]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == ("moment residual after conversion: 1.000e-09\n", "")


def _dump(tmp_path, data):
    path = tmp_path / "data.json"
    jsonio.dump(path, data)
    return path


@pytest.mark.parametrize("entry", [True, False, [True, 0.0]])
def test_float_entries_refuse_booleans(tmp_path, capsys, entry):
    data = jsonio.rep_to_json(random_rep(StarQuiver(rank=2, arms=((1,),) * 4), np.random.default_rng(5), scale=0.5))
    data["matrices"]["f/1/1"][0][0] = entry
    code, err = _malformed_run(tmp_path, capsys, data, ["poisson", "check", "--rep", "BAD", "--grid", "1"])
    assert (code, err) == (1, f"error: invalid representation: not a floating scalar: {entry!r}\n")


_HUGE = 10**400  # a JSON integer, and a rational, beyond the largest float


def _one_error_line(code, err, message):
    assert (code, err.count("\n")) == (1, 1)
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [
    ["poisson", "check", "--rep", "BAD", "--grid", "1"],
    ["bridge", "to-higgs", "--rep", "BAD", "--type", str(FIXTURES / "type_rank2_full_flags.json")],
])
def test_a_float_rep_entry_too_large_for_a_float_is_one_error_line(tmp_path, capsys, argv):
    data = jsonio.rep_to_json(random_rep(StarQuiver(rank=2, arms=((1,),) * 4), np.random.default_rng(5), scale=0.5))
    data["matrices"]["f/1/1"][0][0] = _HUGE
    _one_error_line(*_malformed_run(tmp_path, capsys, data, argv), "invalid representation: int too large to convert to float")


@pytest.mark.parametrize("where", ["entry", "residual"])
def test_a_solution_number_too_large_for_a_float_is_one_error_line(tmp_path, capsys, rank2_solution_data, where):
    data = json.loads(json.dumps(rank2_solution_data))
    if where == "entry":
        data["matrices"][0][0][0] = _HUGE
    else:
        data["residual"] = _HUGE
    argv = ["ds", "verify", "--solution", "BAD", "--instance", RANK2_INSTANCE]
    _one_error_line(*_malformed_run(tmp_path, capsys, data, argv), "invalid solution: int too large to convert to float")


def test_an_exact_rep_entry_too_large_for_a_float_is_one_error_line(tmp_path, capsys):
    # poisson check runs in floats: the exact entry converts, or names itself
    ones = {f"{s}/{j}/1": m for j in range(1, 5) for s, m in (("f", [["1", "0"]]), ("g", [["0"], ["1"]]))}
    data = {"rank": 2, "arms": [[1]] * 4, "mode": "exact", "matrices": dict(ones, **{"f/1/1": [[str(_HUGE), "0"]]})}
    _one_error_line(*_malformed_run(tmp_path, capsys, data, ["poisson", "check", "--rep", "BAD", "--grid", "1"]),
                    f"{_HUGE} is too large for a float")


def test_a_marked_point_too_large_for_a_float_is_one_error_line(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    jsonio.dump(rep, jsonio.rep_to_json(random_rep(StarQuiver(rank=2, arms=((1,),) * 4), np.random.default_rng(0))))
    code = main(["poisson", "check", "--rep", str(rep), "--points", f"0,1,2,{_HUGE}"])
    _one_error_line(code, capsys.readouterr().err, f"{_HUGE} is too large for a float")


def test_poisson_points_are_parsed_as_rationals(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    jsonio.dump(rep, jsonio.rep_to_json(random_rep(StarQuiver(rank=2, arms=((1,),) * 4), np.random.default_rng(0))))
    code = main(["poisson", "check", "--rep", str(rep), "--points", "1/0,1,2,3"])
    assert code == 1
    assert capsys.readouterr().err == "error: not an exact rational: '1/0'\n"


def test_poisson_points_must_be_distinct(tmp_path, capsys):
    # phi(z) has a pole at each marked point, so a repeated point is bad input
    rep = tmp_path / "rep.json"
    jsonio.dump(rep, jsonio.rep_to_json(random_rep(StarQuiver(rank=2, arms=((1,),) * 4), np.random.default_rng(0))))
    assert main(["poisson", "check", "--rep", str(rep), "--points", "0,1,1,2"]) == 1
    assert capsys.readouterr().err == "error: marked points must be pairwise distinct\n"
    assert main(["poisson", "check", "--rep", str(rep), "--points", "0,1,2/2,2"]) == 1
    assert capsys.readouterr().err == "error: marked points must be pairwise distinct\n"
    # distinct rationals that round to one float put two poles at one point
    assert main(["poisson", "check", "--rep", str(rep), "--points", "0,1,1000000000000000000001/1000000000000000000000,3"]) == 1
    assert capsys.readouterr().err == "error: marked points must be pairwise distinct\n"


def test_arm_dimensions_are_decoded_as_integers(tmp_path, capsys):
    # a JSON true in an arm chain is not the dimension 1: integer fields take
    # JSON integers and integral strings only
    data = jsonio.rep_to_json(random_rep(StarQuiver(rank=2, arms=((1,),) * 4), np.random.default_rng(5), scale=0.5))
    data["arms"][3] = [True]
    code, err = _malformed_run(tmp_path, capsys, data, ["poisson", "check", "--rep", "BAD", "--grid", "1"])
    assert (code, err) == (1, "error: invalid representation: not an integer: True\n")
    data["arms"][3] = ["1"]
    assert jsonio.rep_from_json(data).quiver.arms[3] == (1,)


@pytest.mark.parametrize("field,value", [("K", 16.9), ("K", True), ("rank", 2.5), ("K", "16.9"), ("K", None)])
def test_type_check_rejects_non_integer_fields(tmp_path, capsys, field, value):
    data = jsonio.load(FIXTURES / "type_rank2_full_flags.json")
    data[field] = value
    code, err = _malformed_run(tmp_path, capsys, data, ["type-check", "--type", "BAD"])
    assert code == 1
    assert err == f"error: invalid parabolic type: not an integer: {value!r}\n"


@pytest.mark.parametrize("value,expected", [(16, 16), (-3, -3), ("16", 16), ("32/2", 16), (" 7 ", 7)])
def test_integer_fields_take_integral_values(value, expected):
    got = jsonio.int_from_json(value)
    assert (got, type(got)) == (expected, int)


@pytest.mark.parametrize("value", [True, False, 16.9, 16.0, "16.9", "1/2", float("inf"), None, [1], "x"])
def test_integer_fields_refuse_other_values(value):
    with pytest.raises(jsonio.InputFormatError):
        jsonio.int_from_json(value)


@pytest.mark.parametrize("decode,path,field,value", [
    (jsonio.type_from_json, "type_rank2_full_flags.json", ("flags", 0, "weights", 0), 1.7),
    (jsonio.type_from_json, "type_rank2_full_flags.json", ("flags", 1, "multiplicities", 0), True),
    (jsonio.instance_from_json, "ds_rank2_four_rank1.json", ("rank",), 2.5),
    (jsonio.instance_from_json, "ds_rank2_four_rank1.json", ("classes", 0, "rank_sequence", 0), 1.5),
])
def test_decoders_refuse_non_integer_fields(decode, path, field, value):
    data = jsonio.load(FIXTURES / path)
    node = data
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    with pytest.raises(jsonio.InputFormatError, match="not an integer"):
        decode(data)


@pytest.mark.parametrize("field,value", [("restart_index", 0.5), ("iterations", True)])
def test_solution_counters_are_integers(field, value):
    sol = DSSolution(matrices=[np.zeros((2, 2))], conjugators=[np.eye(2)], residual=0.0)
    data = jsonio.solution_to_json(sol)
    data[field] = value
    with pytest.raises(jsonio.InputFormatError, match="invalid solution: not an integer"):
        jsonio.solution_from_json(data)


@pytest.mark.parametrize("value", [True, False, "1e3", None, [0.0]])
def test_solution_residual_is_a_json_number(value):
    # float() would read true as 1.0 and "1e3" as 1000.0, and the residual
    # sets the solution's rank and flag tolerances
    data = jsonio.solution_to_json(DSSolution(matrices=[np.zeros((2, 2))], conjugators=[np.eye(2)], residual=0.0))
    data["residual"] = value
    with pytest.raises(jsonio.InputFormatError, match="invalid solution: not a number"):
        jsonio.solution_from_json(data)
    data["residual"] = 3
    assert jsonio.solution_from_json(data).residual == 3.0


def test_ds_verify_refuses_a_residual_that_is_not_a_number(tmp_path, capsys, rank2_solution_data):
    data = dict(rank2_solution_data, residual=True)
    code, err = _malformed_run(tmp_path, capsys, data, ["ds", "verify", "--solution", "BAD", "--instance", RANK2_INSTANCE])
    assert (code, err) == (1, "error: invalid solution: not a number: True\n")


def test_ds_solve_refuses_repeated_marked_points(tmp_path, capsys):
    # a solution of such an instance was written, and then failed
    # ds verify --hitchin; the instance's points follow MarkedLine's rule
    data = dict(jsonio.load(RANK2_INSTANCE), points=["0", "1", "1", "2"])
    sol = tmp_path / "sol.json"
    code, err = _malformed_run(tmp_path, capsys, data, ["ds", "solve", "--instance", "BAD", "--out", str(sol)])
    assert (code, err) == (1, "error: invalid instance: marked points must be pairwise distinct\n")
    assert not sol.exists()


@pytest.mark.parametrize("sequence", [[2], [1, 0]])
def test_ds_solve_names_the_rule_a_malformed_class_breaks(tmp_path, capsys, sequence):
    # a first rank at the rank, and a zero rank, had messages of their own;
    # both break the one chain rule of a class, which the message names
    data = jsonio.load(RANK2_INSTANCE)
    data["classes"][0] = {"rank": 2, "rank_sequence": sequence}
    code, err = _malformed_run(tmp_path, capsys, data, ["ds", "solve", "--instance", "BAD"])
    rule = "power ranks must satisfy r - g_1 >= g_1 - g_2 >= ... >= g_s > 0"
    assert (code, err) == (1, f"error: invalid instance: invalid nilpotent class: {rule}\n")


@pytest.mark.parametrize("options,message", [
    (["--restarts", "0"], "restarts must be at least 1, got 0"),
    (["--restarts", "-2"], "restarts must be at least 1, got -2"),
    (["--max-iters", "-1"], "max_iters must be at least 0, got -1"),
    (["--tol", "nan"], "tolerance must be a positive finite number, got nan"),
    (["--tol", "-1", "--restarts", "1", "--max-iters", "50"], "tolerance must be a positive finite number, got -1.0"),
])
def test_ds_solve_refuses_a_budget_that_cannot_run(capsys, options, message):
    # each of these ran no restart or could never converge, and was
    # reported as an exhausted budget (exit 2)
    assert main(["ds", "solve", "--instance", RANK2_INSTANCE, *options]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--entry-tol", "--comm-tol", "--jacobi-tol", "--tol"])
@pytest.mark.parametrize("value,shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1", "-1.0")])
def test_tolerance_flags_refuse_values_that_fail_or_switch_off_a_gate(tmp_path, capsys, flag, value, shown):
    # nan, 0 and -1 failed every poisson check on a valid representation
    # (exit 3); bridge to-higgs --tol inf passed a float representation off
    # the moment-zero locus, and nan or -1 blamed the representation.  The
    # flag is refused before decoding: no file is read
    missing = str(tmp_path / "missing.json")
    command = ["bridge", "to-higgs", "--type", missing] if flag == "--tol" else ["poisson", "check"]
    assert main([*command, "--rep", missing, flag, value]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {flag} must be a positive finite number, got {shown}\n")


@pytest.mark.parametrize("command,message", [
    (["ds", "solve", "--instance"], "seed must be a non-negative integer, got -1"),
    (["poisson", "check", "--rep"], "--seed must be a non-negative integer, got -1"),
])
def test_a_negative_seed_is_refused_before_any_file_is_read(tmp_path, capsys, command, message):
    # numpy refused it inside the run with "expected non-negative integer",
    # which named neither the flag nor the value
    missing = str(tmp_path / "missing.json")
    assert main([*command, missing, "--seed", "-1"]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_poisson_check_refuses_a_non_finite_entry(tmp_path, capsys, value):
    # Python's json reads the NaN and Infinity tokens; such an entry failed
    # the bracket checks (exit 3), and Infinity spilled numpy warnings
    data = jsonio.rep_to_json(random_rep(StarQuiver(rank=2, arms=((1,),) * 4), np.random.default_rng(5), scale=0.5))
    data["matrices"]["f/1/1"][0][0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _malformed_run(tmp_path, capsys, data, ["poisson", "check", "--rep", "BAD", "--grid", "1"])
    assert (code, err) == (1, f"error: invalid representation: not a floating scalar: {value!r}\n")


@pytest.mark.parametrize("where,message", [
    ("entry", "not a floating scalar: [nan, 0.0]"),
    ("residual", "not a finite number: inf"),
])
def test_ds_verify_refuses_a_non_finite_number(tmp_path, capsys, rank2_solution_data, where, message):
    # a NaN entry ended in "SVD did not converge", and an infinite residual
    # was accepted
    data = json.loads(json.dumps(rank2_solution_data))
    if where == "entry":
        data["matrices"][0][0][0] = [math.nan, 0.0]
    else:
        data["residual"] = math.inf
    argv = ["ds", "verify", "--solution", "BAD", "--instance", RANK2_INSTANCE]
    assert _malformed_run(tmp_path, capsys, data, argv) == (1, f"error: invalid solution: {message}\n")


def _closed_form_json(full_flag_type, mode):
    mats, flags = closed_form_matrices(), closed_form_flags()
    if mode == "float":
        mats = [np.array(m, dtype=float) for m in mats]
        flags = [[np.array(b, dtype=float) for b in fl] for fl in flags]
    return jsonio.higgs_to_json(HiggsTuple(full_flag_type, mats, flags, mode=mode))


@pytest.mark.parametrize("mode,field,bad,message", [
    ("exact", "matrices", [["0"] * 3] * 3, "point 0: residue should be 2x2"),
    ("float", "flags", [[[[1.0, 0.0]]] * 3], "point 0: flag step 1 should be 2x1"),
])
def test_misshapen_residue_tuple_is_an_input_error(
    tmp_path, capsys, full_flag_type, mode, field, bad, message
):
    # shapes are checked before any sum or product uses them
    data = _closed_form_json(full_flag_type, mode)
    data[field][0] = bad
    code, err = _malformed_run(tmp_path, capsys, data, ["bridge", "to-quiver", "--higgs", "BAD"])
    assert code == 1
    assert err == f"error: invalid residue tuple: {message}\n"


@pytest.mark.parametrize("data", [{"mode": "exact", "matrices": 5, "conjugators": []}, [1, 2]])
def test_malformed_solution_is_an_input_error(tmp_path, capsys, data):
    argv = ["ds", "verify", "--solution", "BAD", "--instance", str(FIXTURES / "ds_rank2_four_rank1.json")]
    code, err = _malformed_run(tmp_path, capsys, data, argv)
    assert code == 1
    assert err.startswith("error: invalid solution:")
    assert "Traceback" not in err
    # a file that is not an object is refused by its JSON type
    assert isinstance(data, dict) or err == "error: invalid solution: expected a JSON object, got an array\n"


_STRING_ENTRIES = {
    "representation": lambda: jsonio.load(_GOLDEN / "closed_form_rep.json"),
    "residue tuple": lambda: jsonio.load(FIXTURES / "higgs_rank2_heavy_top.json"),
    "solution": lambda: {"matrices": [[["0", "1"], ["0", "0"]]] * 4, "conjugators": [[["1", "0"], ["0", "1"]]] * 4},
}
_NO_ENTRIES = {
    "representation": lambda: {"rank": 2, "arms": [], "matrices": {}},
    "residue tuple": lambda: {"type": jsonio.load(FIXTURES / "type_rank2_full_flags.json"), "matrices": [], "flags": []},
    "solution": lambda: {"matrices": [], "conjugators": []},
}


@pytest.mark.parametrize("what,mode,argv", [
    ("representation", "Exact", ["poisson", "check", "--rep", "BAD", "--grid", "1"]),
    ("residue tuple", "rational", ["bridge", "to-quiver", "--higgs", "BAD"]),
    ("solution", "exact ", ["ds", "verify", "--solution", "BAD", "--instance", RANK2_INSTANCE]),
])
def test_an_unknown_mode_is_refused_as_a_mode(tmp_path, capsys, what, mode, argv):
    # a mode other than float or exact was read as float, and the error
    # named the first string entry as a floating scalar; with no matrix at
    # all, the value refuses the mode when it is built
    for entries in (_STRING_ENTRIES, _NO_ENTRIES):
        code, err = _malformed_run(tmp_path, capsys, dict(entries[what](), mode=mode), argv)
        assert (code, err) == (1, f"error: invalid {what}: mode must be 'float' or 'exact'\n")


def test_unnested_flags_are_an_input_error(tmp_path, capsys):
    # the tuple's validation refuses it when the file is decoded, naming the
    # nesting it breaks, before any conversion runs
    data = jsonio.higgs_to_json(unnested_tuple("exact", check=False))
    code, err = _malformed_run(tmp_path, capsys, data, ["bridge", "to-quiver", "--higgs", "BAD"])
    assert (code, err) == (1, "error: invalid residue tuple: point 0: flag step 2 is not inside step 1\n")


@pytest.mark.parametrize("value", [0.1, False, 1.0])
def test_marked_points_refuse_bools_and_floats(tmp_path, capsys, value):
    data = jsonio.load(FIXTURES / "type_rank2_full_flags.json")
    data["points"][0] = value
    code, err = _malformed_run(tmp_path, capsys, data, ["type-check", "--type", "BAD"])
    assert (code, err) == (1, f"error: invalid parabolic type: not an exact rational: {value!r}\n")
    data["points"] = [0, "1", 2, "7/2"]
    assert jsonio.type_from_json(data).line.points == (0, 1, 2, F(7, 2))


@pytest.mark.parametrize("value", [0.5, True])
def test_exact_entries_refuse_bools_and_floats(tmp_path, capsys, value):
    data = jsonio.load(FIXTURES / "higgs_rank2_heavy_top.json")
    assert data["mode"] == "exact"
    data["flags"][0][0][0][0] = value
    code, err = _malformed_run(tmp_path, capsys, data, ["bridge", "to-quiver", "--higgs", "BAD"])
    assert (code, err) == (1, f"error: invalid residue tuple: not an exact rational: {value!r}\n")
    data["flags"][0][0][0][0] = 1
    assert jsonio.higgs_from_json(data).flags[0][0][0][0] == 1


def test_coefficient_point_trims_trailing_zeros():
    # the coefficient point that the --hitchin appendix writes keeps no
    # trailing zeros
    hp = HitchinPoint(rank=1, points=(F(0), F(1), F(2), F(3)), coeffs=[[F(1), F(0), F(0), F(0)]])
    assert jsonio.hitchin_to_json(hp)["coefficients"] == [["1"]]


@pytest.mark.parametrize("error,code", [
    (RefinementError("snapped flags kept degenerating"), 2),
    (ExactnessRequired("vanishing orders need exact entries"), 3),
    (jsonio.InputFormatError("not an exact rational"), 1),
    (BridgeError("moment map does not vanish"), 1),
    (WeightsNotSmallError("weights are too large"), 1),
    (ValueError("bad value"), 1),
])
def test_exit_code_table(monkeypatch, capsys, error, code):
    def raiser(args):
        raise error

    monkeypatch.setattr(cli, "cmd_type_check", raiser)
    assert main(["type-check", "--type", str(FIXTURES / "type_rank2_full_flags.json")]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


_GOLDEN = Path(__file__).resolve().parent / "golden"
_TYPE = str(FIXTURES / "type_rank2_full_flags.json")


@pytest.mark.parametrize("what,argv", [
    ("parabolic type", ["type-check", "--type", "BAD"]),
    ("instance", ["ds", "solve", "--instance", "BAD"]),
    ("instance", ["ds", "verify", "--solution", "SOLUTION", "--instance", "BAD"]),
    ("solution", ["ds", "verify", "--solution", "BAD", "--instance", RANK2_INSTANCE]),
    ("residue tuple", ["bridge", "to-quiver", "--higgs", "BAD"]),
    ("representation", ["bridge", "to-higgs", "--rep", "BAD", "--type", _TYPE]),
    ("parabolic type", ["bridge", "to-higgs", "--rep", str(_GOLDEN / "closed_form_rep.json"), "--type", "BAD"]),
    ("representation", ["poisson", "check", "--rep", "BAD", "--grid", "1"]),
], ids=["type-check", "ds-solve", "ds-verify-instance", "ds-verify-solution", "to-quiver", "to-higgs-rep", "to-higgs-type", "poisson-check"])
@pytest.mark.parametrize("data,name", [([], "an array"), ("x", "a string"), (None, "null")], ids=["array", "string", "null"])
def test_a_file_that_is_not_an_object_is_an_input_error(tmp_path, capsys, what, argv, data, name):
    # every decoder names the JSON type it got instead of an object, before
    # it reads a field; the command's other file is a valid one
    solution = tmp_path / "solution.json"
    jsonio.dump(solution, dict(_STRING_ENTRIES["solution"](), mode="exact"))
    argv = [str(solution) if a == "SOLUTION" else a for a in argv]
    code, err = _malformed_run(tmp_path, capsys, data, argv)
    assert (code, err) == (1, f"error: invalid {what}: expected a JSON object, got {name}\n")


@pytest.mark.parametrize("argv,option", [
    (["type-check", "--type", _TYPE], "--report"),
    (["ds", "solve", "--instance", RANK2_INSTANCE, "--seed", "7"], "--out"),
    (["ds", "solve", "--instance", RANK2_INSTANCE, "--seed", "7"], "--report"),
    (["ds", "verify", "--instance", RANK2_INSTANCE, "--solution"], "--report"),
    (["bridge", "to-quiver", "--higgs", str(_GOLDEN / "closed_form_higgs.json")], "--out"),
    (["bridge", "to-quiver", "--higgs", str(_GOLDEN / "closed_form_higgs.json")], "--report"),
    (["bridge", "to-higgs", "--rep", str(_GOLDEN / "closed_form_rep.json"), "--type", _TYPE], "--out"),
    (["bridge", "to-higgs", "--rep", str(_GOLDEN / "closed_form_rep.json"), "--type", _TYPE], "--report"),
    (["poisson", "check", "--rep", str(_GOLDEN / "closed_form_rep.json"), "--grid", "1"], "--report"),
], ids=lambda v: v if isinstance(v, str) else "-".join(v[:2]))
def test_an_unwritable_output_path_is_an_input_error(tmp_path, capsys, rank2_solution_data, argv, option):
    # a file in a missing directory ends the command with one error line
    if argv[-1] == "--solution":
        argv = argv + [str(tmp_path / "sol.json")]
        jsonio.dump(argv[-1], rank2_solution_data)
    target = tmp_path / "missing" / "out.json"
    assert main(argv + [option, str(target)]) == 1
    assert capsys.readouterr().err == f"error: {target}: No such file or directory\n"


def test_two_delta_passes_the_necessary_conditions_without_an_irreducible_tuple(tmp_path, capsys):
    # four (2, 2) classes at rank 4: alpha = 2 delta of affine D4, where
    # Crawley-Boevey's criterion fails (p(2 delta) = 1 < 2 p(delta) = 2),
    # so no irreducible tuple exists, though the residue-sum inequality and
    # the arm chain condition, both necessary, pass
    inst = DSInstance(rank=4, classes=(NilpotentClass.from_partition((2, 2)),) * 4)
    typ, instance, report = tmp_path / "type.json", tmp_path / "instance.json", tmp_path / "report.json"
    jsonio.dump(typ, jsonio.type_to_json(inst.parabolic_type()))
    jsonio.dump(instance, instance_to_json(inst))
    assert main(["type-check", "--type", str(typ)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("residue-sum inequality   : PASS") for line in lines)
    assert "arm chain condition      : PASS" in lines
    argv = ["ds", "solve", "--instance", str(instance), "--seed", "0", "--restarts", "5", "--report", str(report)]
    assert main(argv) == 0
    assert jsonio.load(report)["verification"]["irreducible"] is False


@pytest.mark.parametrize("factor,counted", [(0.99, True), (1.01, False)])
def test_hamiltonian_count_needs_a_vanishing_moment(tmp_path, capsys, monkeypatch, factor, counted):
    # the count runs only below poisson.HAMILTONIAN_MOMENT_TOL; the residual
    # is pinned at the edge on the closed-form representation, through the
    # name that poisson.check reads
    monkeypatch.setattr(poisson, "moment_residual", lambda rep: factor * poisson.HAMILTONIAN_MOMENT_TOL)
    report = tmp_path / "report.json"
    rep = str(Path(__file__).resolve().parent / "golden" / "closed_form_rep.json")
    assert main(["poisson", "check", "--rep", rep, "--grid", "1", "--report", str(report)]) == 0
    capsys.readouterr()
    assert ("independent_hamiltonians" in jsonio.load(report)) is counted



@pytest.mark.parametrize("grid", [0, -1])
def test_poisson_grid_below_one_is_refused(capsys, grid):
    # a grid below 1 ran no commutativity check and passed with residual 0
    rep = str(Path(__file__).resolve().parent / "golden" / "closed_form_rep.json")
    assert main(["poisson", "check", "--rep", rep, "--grid", str(grid)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --grid must be at least 1, got {grid}\n"


@pytest.mark.parametrize("argv,code", [
    (["type-check"], 1),
    (["no-such-command"], 1),
    (["poisson", "check", "--rep", "rep.json", "--grid", "abc"], 1),
    (["--help"], 0),
])
def test_usage_errors_are_input_errors(capsys, argv, code):
    # argparse exits 2 on a usage error, the code of an undetermined answer
    assert main(argv) == code
    out = capsys.readouterr()
    assert ("error: " in out.err) is (code == 1)
    assert (out.out if code == 0 else out.err).startswith("usage: starquiver")

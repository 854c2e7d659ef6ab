import copy
import functools
import json
import math
import operator
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


# ---------------------------------------------------------------------------
# input errors: one table
#
# Every input error exits 1 with one `error:` line.  A row is one case: its
# id, the argv, the file that BAD names and the exact stderr line.  In the
# argv, BAD is that file, SOL the rank-2 fixture's stored solution, OUT a
# writable path and UNWRITABLE one in a missing directory.  The file is a
# document, a shipped fixture or golden file (a Path) or SOL's solution,
# with ``value`` put at the path ``at`` (a callable value maps the old
# one); a row without one leaves BAD a missing file.  A new input error is
# a new row, never a new test function.

_NO_FILE = object()
_HUGE = 10**400  # a JSON integer, and a rational, beyond the largest float
_HEAVY_TOP = FIXTURES / "higgs_rank2_heavy_top.json"
_CLOSED_FORM_HIGGS = _GOLDEN / "closed_form_higgs.json"
_CLOSED_FORM_REP = _GOLDEN / "closed_form_rep.json"
_FLOAT_REP = jsonio.rep_to_json(random_rep(StarQuiver(rank=2, arms=((1,),) * 4), np.random.default_rng(5), scale=0.5))
_VERIFY = ["ds", "verify", "--solution", "BAD", "--instance", RANK2_INSTANCE]
_POISSON = ["poisson", "check", "--rep", "BAD", "--grid", "1"]
_TO_QUIVER = ["bridge", "to-quiver", "--higgs", "BAD"]
_TO_HIGGS = ["bridge", "to-higgs", "--rep", "BAD", "--type", _TYPE]


def _as_float(path):
    """The exact residue tuple at ``path`` with its entries as JSON floats."""
    data = jsonio.load(path)
    data["mode"] = "float"
    data["matrices"] = [[[float(F(x)) for x in row] for row in m] for m in data["matrices"]]
    data["flags"] = [[[[float(F(x)) for x in row] for row in b] for b in fl] for fl in data["flags"]]
    return data


_FLOAT_HEAVY_TOP = _as_float(_HEAVY_TOP)
_OFF_SUM = copy.deepcopy(_FLOAT_HEAVY_TOP)
_OFF_SUM["matrices"][0][0][0] += 5
_STRING_ENTRIES = {
    "representation": _CLOSED_FORM_REP,
    "residue tuple": _HEAVY_TOP,
    "solution": {"matrices": [[["0", "1"], ["0", "0"]]] * 4, "conjugators": [[["1", "0"], ["0", "1"]]] * 4},
}
_NO_ENTRIES = {
    "representation": {"rank": 2, "arms": [], "matrices": {}},
    "residue tuple": {"type": jsonio.load(FIXTURES / "type_rank2_full_flags.json"), "matrices": [], "flags": []},
    "solution": {"matrices": [], "conjugators": []},
}
_MODE_ARGV = {"representation": _POISSON, "residue tuple": _TO_QUIVER, "solution": _VERIFY}
_FILE_ARGV = {
    "type-check": ("parabolic type", ["type-check", "--type", "BAD"]),
    "ds-solve": ("instance", ["ds", "solve", "--instance", "BAD"]),
    "ds-verify-instance": ("instance", ["ds", "verify", "--solution", "SOL", "--instance", "BAD"]),
    "ds-verify-solution": ("solution", _VERIFY),
    "to-quiver": ("residue tuple", _TO_QUIVER),
    "to-higgs-rep": ("representation", _TO_HIGGS),
    "to-higgs-type": ("parabolic type", ["bridge", "to-higgs", "--rep", str(_CLOSED_FORM_REP), "--type", "BAD"]),
    "poisson-check": ("representation", _POISSON),
}
_OUTPUT_ARGV = {
    "type-check": ["type-check", "--type", _TYPE],
    "ds-solve": ["ds", "solve", "--instance", RANK2_INSTANCE, "--seed", "7"],
    "ds-verify": ["ds", "verify", "--instance", RANK2_INSTANCE, "--solution", "SOL"],
    "to-quiver": ["bridge", "to-quiver", "--higgs", str(_CLOSED_FORM_HIGGS)],
    "to-higgs": ["bridge", "to-higgs", "--rep", str(_CLOSED_FORM_REP), "--type", _TYPE],
    "poisson-check": ["poisson", "check", "--rep", str(_CLOSED_FORM_REP), "--grid", "1"],
}
_CHAIN_RULE = "power ranks must satisfy r - g_1 >= g_1 - g_2 >= ... >= g_s > 0"


def _row(id, argv, err, doc=_NO_FILE, at=None, value=None):
    return pytest.param(argv, doc, at, value, err, id=id)


INPUT_ERRORS = [
    _row("missing-file", ["type-check", "--type", "/nonexistent/type.json"], "error: /nonexistent/type.json: No such file or directory"),
    _row("missing-field", ["type-check", "--type", "BAD"], "error: parabolic type is missing the field 'flags'",
         {"points": ["0", "1", "2", "3"], "rank": 2}),
    _row("split-bundle", ["bridge", "to-quiver", "--higgs", str(FIXTURES / "higgs_rank2_split_bundle.json")],
         "error: invalid residue tuple: the underlying bundle is not a sum of trivial line bundles (splitting type [1, -1]); "
         "residue-matrix form requires a homologically trivial bundle with its global trivialization"),
    # a solution with fewer matrices or conjugators than classes is not
    # certified on the points it covers; nor is one of the wrong size
    *[_row(f"short-{cut}{'-hitchin' * len(flags)}", _VERIFY + flags,
           f"error: point {point}: the solution needs one 2x2 matrix and one 2x2 conjugator at each of the instance's 4 points",
           "SOL", (cut,), lambda old, point=point: old[:point])
      for flags in ([], ["--hitchin"]) for cut, point in (("conjugators", 2), ("matrices", 3))],
    _row("misshapen-solution", _VERIFY + ["--hitchin"],
         "error: point 0: the solution needs one 2x2 matrix and one 2x2 conjugator at each of the instance's 4 points",
         "SOL", ("matrices",), [[[[0.0, 0.0]] * 3] * 3] * 4),
    # the first row has the right length, so only a full rectangularity
    # check catches the empty second row before the exact kernels index it
    _row("ragged-exact-matrix", _TO_HIGGS, "error: invalid representation: matrix rows have different lengths",
         _GOLDEN / "heavy_top_rep.json", ("matrices", "g/1/1"), [["1"], []]),
    _row("scalar-matrices", _TO_QUIVER, "error: invalid residue tuple: matrices: expected an array, got a number", _HEAVY_TOP, ("matrices",), 5),
    # the splitting-type guard reads the document inside the decoder
    _row("tuple-number", _TO_QUIVER, "error: invalid residue tuple: expected a JSON object, got a number", 5),
    _row("splitting-number", _TO_QUIVER, "error: invalid residue tuple: splitting_type: expected an array, got a number", {"splitting_type": 5}),
    # the tuple is validated at BRIDGE_TOL whatever the file says: a "tol"
    # field used to switch validation off
    *[_row(f"tolerance-in-file-{tol}", _TO_QUIVER,
           "error: invalid residue tuple: residues do not sum to zero (norm 5.00e+00); point 0: residue does not push step 1 deeper",
           _OFF_SUM, ("tol",) if tol else None, tol) for tol in (None, "inf")],
    *[_row(f"float-entry-{name}", _POISSON, f"error: invalid representation: not a floating scalar: {entry!r}",
           _FLOAT_REP, ("matrices", "f/1/1", 0, 0), entry) for name, entry in (("true", True), ("false", False), ("pair", [True, 0.0]))],
    # Python's json reads the NaN and Infinity tokens; such an entry failed
    # the bracket checks (exit 3), and Infinity spilled numpy warnings
    *[_row(f"float-entry-{value}", _POISSON, f"error: invalid representation: not a floating scalar: {value!r}",
           _FLOAT_REP, ("matrices", "f/1/1", 0, 0), value) for value in (math.nan, math.inf)],
    # a NaN entry ended in "SVD did not converge", and an infinite residual
    # was accepted
    _row("solution-nan-entry", _VERIFY, "error: invalid solution: not a floating scalar: [nan, 0.0]", "SOL", ("matrices", 0, 0, 0), [math.nan, 0.0]),
    _row("solution-inf-residual", _VERIFY, "error: invalid solution: not a finite number: inf", "SOL", ("residual",), math.inf),
    _row("solution-bool-residual", _VERIFY, "error: invalid solution: not a number: True", "SOL", ("residual",), True),
    # numbers too large for a float are one error line
    *[_row(f"huge-float-rep-entry-{argv[0]}", argv, "error: invalid representation: int too large to convert to float",
           _FLOAT_REP, ("matrices", "f/1/1", 0, 0), _HUGE) for argv in (_POISSON, _TO_HIGGS)],
    *[_row(f"huge-solution-{name}", _VERIFY, "error: invalid solution: int too large to convert to float", "SOL", at, _HUGE)
      for name, at in (("entry", ("matrices", 0, 0, 0)), ("residual", ("residual",)))],
    # poisson check runs in floats: the exact entry converts, or names itself
    _row("huge-exact-rep-entry", _POISSON, f"error: {_HUGE} is too large for a float",
         {"rank": 2, "arms": [[1]] * 4, "mode": "exact",
          "matrices": {f"{s}/{j}/1": m for j in range(1, 5) for s, m in (("f", [["1", "0"]]), ("g", [["0"], ["1"]]))}},
         ("matrices", "f/1/1"), [[str(_HUGE), "0"]]),
    # phi(z) has a pole at each marked point, so a repeated point is bad
    # input, as are distinct rationals that round to one float
    *[_row(f"points-{id}", _POISSON + ["--points", points], err, _FLOAT_REP) for id, points, err in (
        ("huge", f"0,1,2,{_HUGE}", f"error: {_HUGE} is too large for a float"),
        ("zero-denominator", "1/0,1,2,3", "error: not an exact rational: '1/0'"),
        ("repeated", "0,1,1,2", "error: marked points must be pairwise distinct"),
        ("repeated-rational", "0,1,2/2,2", "error: marked points must be pairwise distinct"),
        ("one-float", "0,1,1000000000000000000001/1000000000000000000000,3", "error: marked points must be pairwise distinct"),
    )],
    # a JSON true in an arm chain is not the dimension 1: integer fields take
    # JSON integers and integral strings only
    _row("arm-dimension-true", _POISSON, "error: invalid representation: not an integer: True", _FLOAT_REP, ("arms", 3), [True]),
    *[_row(f"type-{field}-{name}", ["type-check", "--type", "BAD"], f"error: invalid parabolic type: not an integer: {value!r}",
           FIXTURES / "type_rank2_full_flags.json", (field,), value)
      for field, value, name in (("K", 16.9, "float"), ("K", True, "true"), ("rank", 2.5, "float"), ("K", "16.9", "string"), ("K", None, "null"))],
    # a solution of an instance with a repeated point was written, and then
    # failed ds verify --hitchin; the points follow MarkedLine's rule
    _row("instance-repeated-points", ["ds", "solve", "--instance", "BAD", "--out", "OUT"],
         "error: invalid instance: marked points must be pairwise distinct", Path(RANK2_INSTANCE), ("points",), ["0", "1", "1", "2"]),
    # a first rank at the rank, and a zero rank, had messages of their own;
    # both break the one chain rule of a class, which the message names
    *[_row(f"class-{name}", ["ds", "solve", "--instance", "BAD"], f"error: invalid instance: invalid nilpotent class: {_CHAIN_RULE}",
           Path(RANK2_INSTANCE), ("classes", 0), {"rank": 2, "rank_sequence": sequence})
      for name, sequence in (("first-rank-at-rank", [2]), ("zero-rank", [1, 0]))],
    # each budget ran no restart or could never converge, and was reported
    # as an exhausted budget (exit 2)
    *[_row(f"budget-{id}", ["ds", "solve", "--instance", RANK2_INSTANCE, *options], err) for id, options, err in (
        ("restarts-0", ["--restarts", "0"], "error: restarts must be at least 1, got 0"),
        ("restarts-negative", ["--restarts", "-2"], "error: restarts must be at least 1, got -2"),
        ("max-iters-negative", ["--max-iters", "-1"], "error: max_iters must be at least 0, got -1"),
        ("tol-nan", ["--tol", "nan"], "error: tolerance must be a positive finite number, got nan"),
        ("tol-negative", ["--tol", "-1", "--restarts", "1", "--max-iters", "50"], "error: tolerance must be a positive finite number, got -1.0"),
    )],
    # nan, 0 and -1 failed every poisson check on a valid representation
    # (exit 3); bridge to-higgs --tol inf passed a float representation off
    # the moment-zero locus, and nan or -1 blamed the representation.  The
    # flag is refused before decoding: BAD is never read
    *[_row(f"{flag[2:]}-{value}", [*(["bridge", "to-higgs", "--type", "BAD"] if flag == "--tol" else ["poisson", "check"]), "--rep", "BAD", flag, value],
           f"error: {flag} must be a positive finite number, got {shown}")
      for flag in ("--entry-tol", "--comm-tol", "--jacobi-tol", "--tol")
      for value, shown in (("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1", "-1.0"))],
    # numpy refused a negative seed inside the run with "expected
    # non-negative integer", which named neither the flag nor the value
    _row("seed-ds-solve", ["ds", "solve", "--instance", "BAD", "--seed", "-1"], "error: seed must be a non-negative integer, got -1"),
    _row("seed-poisson-check", ["poisson", "check", "--rep", "BAD", "--seed", "-1"], "error: --seed must be a non-negative integer, got -1"),
    # a grid below 1 ran no commutativity check and passed with residual 0
    *[_row(f"grid{grid}", ["poisson", "check", "--rep", str(_CLOSED_FORM_REP), "--grid", str(grid)],
           f"error: --grid must be at least 1, got {grid}") for grid in (0, -1)],
    # shapes are checked before any sum or product uses them
    _row("misshapen-residue", _TO_QUIVER, "error: invalid residue tuple: point 0: residue should be 2x2",
         _CLOSED_FORM_HIGGS, ("matrices", 0), [["0"] * 3] * 3),
    _row("misshapen-flag", _TO_QUIVER, "error: invalid residue tuple: point 0: flag step 1 should be 2x1",
         _as_float(_CLOSED_FORM_HIGGS), ("flags", 0), [[[[1.0, 0.0]]] * 3]),
    _row("solution-matrices-number", _VERIFY, "error: invalid solution: matrices: expected an array, got a number",
         {"mode": "exact", "matrices": 5, "conjugators": []}),
    _row("solution-array", _VERIFY, "error: invalid solution: expected a JSON object, got an array", [1, 2]),
    _row("type-flags-object", ["type-check", "--type", "BAD"], "error: invalid parabolic type: flags: expected an array, got an object",
         FIXTURES / "type_rank2_full_flags.json", ("flags",), {"a": 1}),
    _row("instance-classes-number", ["ds", "solve", "--instance", "BAD"], "error: invalid instance: classes: expected an array, got a number",
         Path(RANK2_INSTANCE), ("classes",), 3),
    # a mode other than float or exact was read as float, and the error
    # named the first string entry as a floating scalar; with no matrix at
    # all, the value refuses the mode when it is built
    *[_row(f"mode-{what.replace(' ', '-')}-{name}", _MODE_ARGV[what], f"error: invalid {what}: mode must be 'float' or 'exact'", entries[what], ("mode",), mode)
      for what, mode in (("representation", "Exact"), ("residue tuple", "rational"), ("solution", "exact "))
      for name, entries in (("strings", _STRING_ENTRIES), ("empty", _NO_ENTRIES))],
    # the tuple's validation refuses it when the file is decoded, naming the
    # nesting it breaks, before any conversion runs
    _row("unnested-flags", _TO_QUIVER, "error: invalid residue tuple: point 0: flag step 2 is not inside step 1",
         jsonio.higgs_to_json(unnested_tuple("exact", check=False))),
    *[_row(f"point-{value!r}", ["type-check", "--type", "BAD"], f"error: invalid parabolic type: not an exact rational: {value!r}",
           FIXTURES / "type_rank2_full_flags.json", ("points", 0), value) for value in (0.1, False, 1.0)],
    *[_row(f"exact-entry-{value!r}", _TO_QUIVER, f"error: invalid residue tuple: not an exact rational: {value!r}",
           _HEAVY_TOP, ("flags", 0, 0, 0, 0), value) for value in (0.5, True)],
    # argparse exits 2 on a usage error, the code of an undetermined answer
    _row("usage-missing-option", ["type-check"], "starquiver type-check: error: the following arguments are required: --type"),
    _row("usage-unknown-command", ["no-such-command"], "starquiver: error: argument command: invalid choice: 'no-such-command' "
         "(choose from 'type-check', 'ds', 'bridge', 'poisson')"),
    _row("usage-grid-abc", ["poisson", "check", "--rep", "rep.json", "--grid", "abc"],
         "starquiver poisson check: error: argument --grid: invalid int value: 'abc'"),
]
# Two groups of rows keep the names and ids of the tests they were before.
# Every decoder names the JSON type it got instead of an object, before it
# reads a field; the command's other file is a valid one.
NOT_AN_OBJECT = [_row(f"{name.split()[-1]}-{command}", argv, f"error: invalid {what}: expected a JSON object, got {name}", data)
                 for command, (what, argv) in _FILE_ARGV.items() for data, name in (([], "an array"), ("x", "a string"), (None, "null"))]
# A file in a missing directory ends the command with one error line, after
# the results it printed.
UNWRITABLE_OUTPUTS = [_row(f"{'-'.join(argv[:2])}-{option}", argv + [option, "UNWRITABLE"], "error: {UNWRITABLE}: No such file or directory")
                      for command, argv in _OUTPUT_ARGV.items()
                      for option in ("--out", "--report") if option == "--report" or command in ("ds-solve", "to-quiver", "to-higgs")]


def _refused(tmp_path, capsys, rank2_solution_data, argv, doc, at, value, err):
    """Run one row through ``main`` and check the one line it must end in."""
    files = {"BAD": tmp_path / "bad.json", "SOL": tmp_path / "sol.json", "OUT": tmp_path / "out.json", "UNWRITABLE": tmp_path / "missing" / "out.json"}
    if "SOL" in argv:
        jsonio.dump(files["SOL"], rank2_solution_data)
    if doc is not _NO_FILE:
        data = copy.deepcopy(rank2_solution_data if doc == "SOL" else jsonio.load(doc) if isinstance(doc, Path) else doc)
        if at is not None:
            node = functools.reduce(operator.getitem, at[:-1], data)
            node[at[-1]] = value(node[at[-1]]) if callable(value) else value
        jsonio.dump(files["BAD"], data)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(files.get(a, a)) for a in argv])
    out, stderr = capsys.readouterr()
    *usage, line = stderr.splitlines() or [""]
    assert (code, line) == (1, err.replace("{UNWRITABLE}", str(files["UNWRITABLE"])))
    assert stderr.endswith("\n") and "Traceback" not in stderr
    # argparse prints its usage before the error line, and nothing else may
    assert not usage or (line.startswith("starquiver") and usage[0].startswith("usage: starquiver"))
    # only a failed write comes after the command ran and printed
    assert out == "" or "UNWRITABLE" in argv
    assert not files["OUT"].exists() and not files["UNWRITABLE"].exists()


@pytest.mark.parametrize("argv,doc,at,value,err", INPUT_ERRORS)
def test_input_error(tmp_path, capsys, rank2_solution_data, argv, doc, at, value, err):
    _refused(tmp_path, capsys, rank2_solution_data, argv, doc, at, value, err)


@pytest.mark.parametrize("argv,doc,at,value,err", NOT_AN_OBJECT)
def test_a_file_that_is_not_an_object_is_an_input_error(tmp_path, capsys, rank2_solution_data, argv, doc, at, value, err):
    _refused(tmp_path, capsys, rank2_solution_data, argv, doc, at, value, err)


@pytest.mark.parametrize("argv,doc,at,value,err", UNWRITABLE_OUTPUTS)
def test_an_unwritable_output_path_is_an_input_error(tmp_path, capsys, rank2_solution_data, argv, doc, at, value, err):
    _refused(tmp_path, capsys, rank2_solution_data, argv, doc, at, value, err)


def test_decoders_accept_the_valid_counterparts(tmp_path, capsys):
    # the valid neighbours of rows of the table: integral and rational
    # strings next to JSON integers, and a float tuple that converts
    data = jsonio.load(FIXTURES / "type_rank2_full_flags.json")
    data["points"] = [0, "1", 2, "7/2"]
    assert jsonio.type_from_json(data).line.points == (0, 1, 2, F(7, 2))
    rep = copy.deepcopy(_FLOAT_REP)
    rep["arms"][3] = ["1"]
    assert jsonio.rep_from_json(rep).quiver.arms[3] == (1,)
    data = jsonio.load(_HEAVY_TOP)
    data["flags"][0][0][0][0] = 1
    assert jsonio.higgs_from_json(data).flags[0][0][0][0] == 1
    assert main(["bridge", "to-quiver", "--higgs", str(_dump(tmp_path, _FLOAT_HEAVY_TOP))]) == 0


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: starquiver")

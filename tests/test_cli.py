import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from common import FIXTURES, closed_form_flags, closed_form_matrices
from starquiver import cli, jsonio, starrep
from starquiver import linalg_exact as ex
from starquiver.cli import main
from starquiver.combinat import NilpotentClass
from starquiver.dsolve import CONJUGATOR_TOL, DSInstance, DSSolution, RefinementError, exact_refine
from starquiver.higgs import BridgeError, HiggsTuple, WeightsNotSmallError
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
    data = jsonio.class_to_json(c)
    assert data["partition"] == [3, 2]
    assert jsonio.class_from_json(data) == c
    # partitions alone reconstruct too
    assert jsonio.class_from_json({"rank": 5, "partition": [3, 2]}) == c


def test_instance_round_trip(rank2_instance):
    data = jsonio.instance_to_json(rank2_instance)
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
    hp = HitchinPoint(
        rank=2,
        points=full_flag_type.line.points,
        coeffs=[[], [F(0), F(6), F(-11), F(6), F(-1)]],
    )
    back = jsonio.hitchin_from_json(jsonio.hitchin_to_json(hp))
    assert back.coeffs == hp.coeffs


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
    assert report["feasibility"]["inequality"] is True
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
    assert report["feasibility"]["inequality"] is False
    if report["converged"]:
        # the sum can vanish here (images cancel pairwise), but no
        # irreducible tuple exists: four rank-one images span at most four
        # of the five dimensions, leaving an invariant subspace
        assert code == 0
        assert report["verification"]["irreducible"] is False
        assert report["verification"]["certified"] is False
    else:
        assert code == 2


def test_ds_solve_zero_classes(tmp_path):
    inst = DSInstance(
        rank=3, classes=(NilpotentClass(rank=3, rank_sequence=()),) * 4
    )
    p = tmp_path / "inst.json"
    jsonio.dump(p, jsonio.instance_to_json(inst))
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
    code, out, err = _verify_run(tmp_path, capsys, sol, "--hitchin")
    assert code == 2
    assert "rank profile        : FAIL" in out.splitlines()
    assert "spectral membership" not in out
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
        "scaled": ex.mscale(Fraction(3), p),
    }[tamper]
    conjugators = list(rank2_exact_solution.conjugators)
    conjugators[1] = changed
    code, report = _verify_report(tmp_path, capsys, replace(rank2_exact_solution, conjugators=conjugators))
    certified = tamper in ("none", "scaled")
    assert (code, report["certified"]) == ((0, True) if certified else (2, False))
    assert (report["conjugator_error"] == 0.0) == (tamper != "entry")


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
    (5, "argument of type 'int' is not iterable"),
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


def test_poisson_points_are_parsed_as_rationals(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    jsonio.dump(rep, jsonio.rep_to_json(random_rep(StarQuiver(rank=2, arms=((1,),) * 4), np.random.default_rng(0))))
    code = main(["poisson", "check", "--rep", str(rep), "--points", "1/0,1,2,3"])
    assert code == 1
    assert capsys.readouterr().err == "error: not an exact rational: '1/0'\n"


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


def test_coefficient_point_with_scalar_points_is_an_input_error():
    # no subcommand reads coefficient points, so the decoder is tested alone
    with pytest.raises(jsonio.InputFormatError, match="invalid coefficient point"):
        jsonio.hitchin_from_json({"rank": 2, "points": 5, "coefficients": [[], []]})
    with pytest.raises(jsonio.InputFormatError, match="exceeds the bound"):
        jsonio.hitchin_from_json({"rank": 1, "points": ["0", "1", "2", "3"], "coefficients": [["1"] * 4]})


def test_coefficient_point_trims_trailing_zeros():
    # the constant 1 written with trailing zeros is within the degree bound
    data = {"rank": 1, "points": ["0", "1", "2", "3"], "coefficients": [["1", "0", "0", "0"]]}
    assert jsonio.hitchin_from_json(data).coeffs == [[F(1)]]


def test_matrix_shape_checked_in_both_modes():
    for mode, entry in (("exact", "1"), ("float", [1.0, 0.0])):
        with pytest.raises(jsonio.InputFormatError, match="shape"):
            jsonio.matrix_from_json([[entry, entry]], mode, shape=(2, 1))


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


@pytest.mark.parametrize("factor,counted", [(0.99, True), (1.01, False)])
def test_hamiltonian_count_needs_a_vanishing_moment(tmp_path, capsys, monkeypatch, factor, counted):
    # the count runs only below HAMILTONIAN_MOMENT_TOL; the residual is
    # pinned at the edge on the closed-form representation, through the name
    # the handler imports when it runs
    monkeypatch.setattr(starrep, "moment_residual", lambda rep: factor * cli.HAMILTONIAN_MOMENT_TOL)
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

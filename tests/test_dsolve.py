import inspect
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from common import FIXTURES, closed_form_matrices, inverse, partitions_of
from starquiver import dsolve, higgs, jsonio
from starquiver import linalg_exact as ex
from starquiver.combinat import NilpotentClass
from starquiver.dsolve import (
    CONJUGATOR_TOL,
    DSInstance,
    DSSolution,
    RefinementError,
    SolverConfig,
    exact_refine,
    flags_from_solution,
    is_smooth_point,
    orbit_jacobian,
    random_feasible_instance,
    rank_tolerance,
    solve,
    verify,
)
from starquiver.floatarith import FLOAT
from starquiver.higgs import BridgeError, HiggsTuple, higgs_to_quiver
from starquiver.starrep import BRIDGE_TOL, moment_residual

F = Fraction


@pytest.mark.parametrize("point", [0.1, True])
def test_instance_points_are_exact_rationals(point):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, and True
    # the point 1; both are refused as MarkedLine refuses them
    c = NilpotentClass(rank=2, rank_sequence=(1,))
    with pytest.raises(TypeError):
        DSInstance(rank=2, classes=(c,) * 4, points=(point, 2, 3, 4))
    assert DSInstance(rank=2, classes=(c,) * 4, points=("1/10", 2, 3, Fraction(4))).points[0] == Fraction(1, 10)


def test_solve_rank2_boundary_instance(rank2_instance):
    out = solve(rank2_instance, SolverConfig(seed=7, restarts=20, tolerance=1e-10))
    assert out.success
    assert out.solution.residual < 1e-10
    assert out.solution.restart_index < 20
    rep = verify(out.solution, rank2_instance)
    assert rep.profile_ok and rep.irreducible
    assert rep.conjugator_error < 1e-6


@pytest.mark.parametrize("factor,ok", [(0.99, True), (1.01, False)])
def test_conjugator_tolerance_edge(rank2_instance, factor, ok):
    # moving A_0 by t E12 leaves ||A_0 - P_0 N P_0^-1|| = t up to roundoff
    sol = solve(rank2_instance, SolverConfig(seed=7, restarts=20, tolerance=1e-10)).solution
    t = factor * CONJUGATOR_TOL
    mats = list(sol.matrices)
    mats[0] = mats[0] + t * np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = verify(replace(sol, matrices=mats), rank2_instance)
    assert rep.conjugator_error == pytest.approx(t, rel=1e-6)
    assert rep.conjugators_ok is ok
    assert rep.passed() is ok


@pytest.mark.parametrize("factor,kept", [(1.01, True), (0.99, False)])
def test_nested_columns_tolerance_edge(factor, kept):
    # the tracker that builds a float flag holds the deeper step e1; the
    # shallower step's columns e1 and (1, eps, 0) leave Gram-Schmidt
    # residuals 0 and factor * _NESTED_TOL relative to their norms
    assert dsolve._NESTED_TOL == 1e-6
    eps = factor * dsolve._NESTED_TOL
    tracker = FLOAT.span_tracker(dsolve._NESTED_TOL)
    kept_now = [tracker.add(v) for v in ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, eps, 0.0])]
    assert kept_now == [True, False, kept]


def test_flag_steps_that_do_not_nest_stop_the_refinement():
    # the leading singular line of A^2 leaves the leading plane of A: the
    # float flag of type (2, 1) would have a step of dimension 3
    a = np.array([[1.0, 2.0, 0.0], [3.0, -1.0, 1.0], [2.0, 0.0, -1.0]])
    c21 = NilpotentClass(rank=3, rank_sequence=(2, 1))
    inst = DSInstance(rank=3, classes=(c21,) * 4)
    sol = DSSolution(matrices=[a, -a, a, -a], conjugators=[np.eye(3)] * 4, residual=0.0)
    with pytest.raises(ValueError, match="point 0: flag step 1 has dimension 3, the type needs 2"):
        flags_from_solution(sol, inst.parabolic_type())
    with pytest.raises(RefinementError, match="not numerically nested: point 0: flag step 1 has dimension 3"):
        exact_refine(sol, inst)


def test_closed_form_certificate(rank2_instance):
    # the explicit solution certifies feasibility independently of the solver
    mats = [
        np.array([[float(x) for x in row] for row in m]) for m in closed_form_matrices()
    ]
    assert np.linalg.norm(sum(mats)) == 0.0
    sol = DSSolution(
        matrices=mats,
        conjugators=[np.eye(2) for _ in mats],
        residual=0.0,
    )
    rep = verify(sol, rank2_instance)
    assert rep.profile_ok and rep.irreducible


def test_zero_classes_immediate():
    # restart 0 of the general loop starts at the answer: every conjugator
    # of a zero class is the identity, and the sum is already zero
    for r in range(1, 6):
        c = NilpotentClass(rank=r, rank_sequence=())
        for n in (1, 4):
            out = solve(DSInstance(rank=r, classes=(c,) * n), SolverConfig(seed=0))
            assert out.success and out.best_residuals == [0.0]
            sol = out.solution
            assert (sol.residual, sol.restart_index, sol.iterations) == (0.0, 0, 0)
            assert len(sol.matrices) == len(sol.conjugators) == n
            assert all(np.array_equal(m, np.zeros((r, r))) and not np.signbit(m).any() for m in sol.matrices)
            assert all(np.array_equal(p, np.eye(r)) and not np.signbit(p).any() for p in sol.conjugators)


def test_infeasible_instance_never_certifies():
    # rank-1 images of four matrices span at most four of five dimensions,
    # so any zero-sum tuple leaves a proper invariant subspace
    c = NilpotentClass.from_partition((2, 1, 1, 1))
    inst = DSInstance(rank=5, classes=(c,) * 4)
    feas = inst.feasibility()
    assert not feas.feasible
    out = solve(inst, SolverConfig(seed=0, restarts=5, max_iters=2000))
    if out.success:
        rep = verify(out.solution, inst)
        assert not rep.irreducible
        assert rep.words is not None


def test_verify_detects_broken_sum(rank2_instance):
    out = solve(rank2_instance, SolverConfig(seed=1))
    sol = out.solution
    bad = DSSolution(
        matrices=[m.copy() for m in sol.matrices],
        conjugators=[p.copy() for p in sol.conjugators],
        residual=sol.residual,
    )
    bad.matrices[3] = bad.matrices[3] + 0.5 * np.eye(2)
    rep = verify(bad, rank2_instance)
    assert rep.residual > 0.1


def test_verify_reducible_family():
    # strictly upper triangular tuple summing to zero: sum and profile pass,
    # irreducibility fails with an invariant-line witness
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = NilpotentClass(rank=2, rank_sequence=(1,))
    inst = DSInstance(rank=2, classes=(c, c, c))
    sol = DSSolution(
        matrices=[e12, e12, -2 * e12],
        conjugators=[np.eye(2), np.eye(2), np.diag([2.0, 1.0])],
        residual=0.0,
    )
    rep = verify(sol, inst)
    assert rep.residual == 0.0
    assert rep.profile_ok
    assert not rep.irreducible


def test_flags_from_solution_image_lines(rank2_instance):
    out = solve(rank2_instance, SolverConfig(seed=2))
    sigma = rank2_instance.parabolic_type()
    h = flags_from_solution(out.solution, sigma)
    for a, fl in zip(h.matrices, h.flags):
        basis = fl[0]
        # image line: A maps everything into it, and it dies under A
        img = a @ np.eye(2)
        q, _ = np.linalg.qr(basis)
        assert np.linalg.norm(img - q @ (q.conj().T @ img)) < 1e-6
        assert np.linalg.norm(a @ basis) < 1e-6


def test_flags_from_zero_solution():
    c = NilpotentClass(rank=2, rank_sequence=())
    inst = DSInstance(rank=2, classes=(c,) * 4)
    out = solve(inst, SolverConfig(seed=0))
    h = flags_from_solution(out.solution, inst.parabolic_type())
    assert all(fl == [] for fl in h.flags)


def _off_class_solution(rank2_instance):
    """The boundary solution moved off its classes, with the sum kept at
    zero: the flags of the prescribed widths are not preserved."""
    out = solve(rank2_instance, SolverConfig(seed=2))
    g = 1e-3 * np.random.default_rng(0).standard_normal((2, 2))
    mats = list(out.solution.matrices)
    mats[0], mats[1] = mats[0] + g, mats[1] - g
    return replace(out.solution, matrices=mats)


def test_off_class_float_solution_gets_no_flags(rank2_instance):
    with pytest.raises(BridgeError, match="point 0: residue does not push the full space deeper"):
        flags_from_solution(_off_class_solution(rank2_instance), rank2_instance.parabolic_type())


@pytest.mark.parametrize("residual", [1e-4, 1.0])
def test_a_stated_residual_does_not_loosen_the_flag_check(rank2_instance, residual):
    # the tuple validates at BRIDGE_TOL, so the solution's stated residual
    # (its true one is 3.6e-16) cannot widen the check
    moved = replace(_off_class_solution(rank2_instance), residual=residual)
    with pytest.raises(BridgeError, match="point 0: residue does not push the full space deeper"):
        flags_from_solution(moved, rank2_instance.parabolic_type())


def test_exact_flag_step_of_another_width_is_named(rank2_instance):
    # an invertible residue at point 2 where the type asks for a line
    mats = closed_form_matrices()
    mats[2] = ex.meye(2)
    sol = DSSolution(matrices=mats, conjugators=[ex.meye(2)] * 4, residual=0.0, mode="exact")
    with pytest.raises(ValueError, match="point 2: flag step 1 has dimension 2, the type needs 1"):
        flags_from_solution(sol, rank2_instance.parabolic_type())


@pytest.mark.parametrize("count", [3, 5])
def test_a_solution_with_another_point_count_is_refused(refined_batch, count):
    # the fixture instance's float solution and its exact refinement, cut to
    # three matrices or grown to five: both refuse the count up front, not
    # with a bare IndexError or an undetermined RefinementError
    inst, outcome, exact, _ = refined_batch[0]
    message = "need one residue matrix and one flag list per marked point"
    for sol in (outcome.solution, exact):
        wrong = replace(sol, matrices=(list(sol.matrices) * 2)[:count], conjugators=(list(sol.conjugators) * 2)[:count])
        with pytest.raises(BridgeError, match=message):
            flags_from_solution(wrong, inst.parabolic_type())
        with pytest.raises(ValueError, match=message):
            exact_refine(wrong, inst)


def test_pipeline_rank3_classes():
    c21 = NilpotentClass(rank=3, rank_sequence=(2, 1))
    c1 = NilpotentClass(rank=3, rank_sequence=(1,))
    inst = DSInstance(rank=3, classes=(c21, c1, c1, c21))
    out = solve(inst, SolverConfig(seed=11))
    assert out.success
    h = flags_from_solution(out.solution, inst.parabolic_type())
    rep = higgs_to_quiver(h)
    assert moment_residual(rep) < 1e-8


def test_orbit_jacobian_matches_finite_differences():
    # J vec(X) is the derivative of sum_i (I + eps X_i) A_i (I + eps X_i)^-1
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(2, 4))
        n = np.diag(np.ones(r - 1), 1)
        ps = [rng.standard_normal((r, r)) for _ in range(4)]
        mats = [p @ n @ np.linalg.inv(p) for p in ps]
        xs = [rng.standard_normal((r, r)) for _ in range(4)]
        analytic = orbit_jacobian(mats) @ np.concatenate([x.reshape(-1) for x in xs])
        h = 1e-6

        def total(eps):
            return sum(
                (np.eye(r) + eps * x) @ a @ np.linalg.inv(np.eye(r) + eps * x)
                for x, a in zip(xs, mats)
            )

        fd = ((total(h) - total(-h)) / (2 * h)).reshape(-1)
        scale = max(1.0, float(np.linalg.norm(fd)))
        worst = max(worst, float(np.linalg.norm(fd - analytic)) / scale)
    assert worst < 1e-6


def test_boundary_instance_seed_sweep(rank2_instance):
    # every seed must land on an irreducible tuple that refines exactly
    for seed in range(30):
        out = solve(rank2_instance, SolverConfig(seed=seed))
        assert out.success, seed
        assert verify(out.solution, rank2_instance).passed(), seed
        exact = exact_refine(out.solution, rank2_instance)
        assert exact.profile() == [c.rank_sequence for c in rank2_instance.classes]


def test_smooth_point_threshold():
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    e21 = e12.T
    # the closed-form tuple: singular value ratio 1/sqrt(2)
    assert is_smooth_point([e12, -e12, e21, -e21])
    # a reducible family: the commutant has dimension 2, ratio ~1e-16
    assert not is_smooth_point([e12, e12, -2 * e12])
    # irreducible but close to reducible: the ratio is about eps, so the
    # 1e-3 threshold falls between these two
    assert is_smooth_point([e12, -e12, 1.2e-3 * e21, -1.2e-3 * e21])
    assert not is_smooth_point([e12, -e12, 8e-4 * e21, -8e-4 * e21])


@pytest.mark.parametrize("factor,smooth", [(0.99, True), (1.01, False)])
def test_smooth_ratio_edge(certified_batch, monkeypatch, factor, smooth):
    # the first random batch instance (solver seed 100): its winning point's
    # sigma_{r^2-1}/sigma_1 against _SMOOTH_RATIO moved just below and above it
    inst, out = certified_batch[1]
    mats = np.asarray(out.solution.matrices)
    sv = np.linalg.svd(orbit_jacobian(mats), compute_uv=False)
    ratio = sv[mats[0].size - 2] / sv[0]
    assert dsolve._SMOOTH_RATIO < ratio
    monkeypatch.setattr(dsolve, "_SMOOTH_RATIO", factor * ratio)
    assert bool(is_smooth_point(mats)) is smooth
    if smooth:
        again = solve(inst, SolverConfig(seed=100)).solution
        assert again.restart_index == out.solution.restart_index
        assert all(np.array_equal(a, b) for a, b in zip(again.matrices, out.solution.matrices, strict=True))


def _accepted_steps(inst, config):
    """``solve(inst, config)`` and the (step, largest trial condition number)
    of every Gauss-Newton step it took, read off the solver's frame at the
    line that takes the step."""
    code = dsolve._gauss_newton_run.__code__
    lines, first = inspect.getsourcelines(code)
    take = first + next(i for i, line in enumerate(lines) if "ps, mats, s = trial, trial_mats, trial_s" in line)
    seen = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == take:
            seen.append((frame.f_locals["step"], np.linalg.cond(frame.f_locals["trial"]).max()))
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        out = solve(inst, config)
    finally:
        sys.settrace(previous)
    return out, seen


# five rank-1 nilpotents of rank 2 at 0..4, solver seed 215: the first
# restart takes half steps, 58 of its 102.  No certified-batch instance
# halves a step: every step they take is the full one
_HALVING = (DSInstance(rank=2, classes=(NilpotentClass(rank=2, rank_sequence=(1,)),) * 5), SolverConfig(seed=215))


@pytest.fixture(scope="module")
def halving_run():
    return _accepted_steps(*_HALVING)


@pytest.mark.parametrize("name,factor,same", [
    ("_MIN_STEP", 0.99, True),
    ("_MIN_STEP", 1.01, False),
    ("_CONDITION_CAP", 1.01, True),
    ("_CONDITION_CAP", 0.99, False),
])
def test_step_thresholds_edge(halving_run, monkeypatch, name, factor, same):
    # _MIN_STEP moved just below and above the smallest step taken, and
    # _CONDITION_CAP just above and below the largest condition number of a
    # step taken: the run is bit-identical on the side that keeps every
    # step, and differs on the other
    out, seen = halving_run
    smallest, largest = min(step for step, _ in seen), max(cond for _, cond in seen)
    assert out.success and dsolve._MIN_STEP < smallest < 1 and largest < dsolve._CONDITION_CAP
    monkeypatch.setattr(dsolve, name, factor * (smallest if name == "_MIN_STEP" else largest))
    again = solve(*_HALVING)
    identical = again.best_residuals == out.best_residuals and all(
        np.array_equal(a, b) for a, b in zip(again.solution.matrices, out.solution.matrices, strict=True)
    )
    assert identical is same


@pytest.mark.parametrize("factor,accepted", [(1.01, True), (0.99, False)])
def test_drift_bound_edge(refined_batch, monkeypatch, factor, accepted):
    # one snap only: the first random batch instance refines at the first
    # denominator, and its largest per-point drift, moved just above and
    # below _MAX_DRIFT, decides that snap
    inst, out, exact, _ = refined_batch[1]
    monkeypatch.setattr(dsolve, "_SNAP_ATTEMPTS", 1)
    drift = max(np.linalg.norm(FLOAT.from_exact(a) - np.asarray(f).real)
                for a, f in zip(exact.matrices, out.solution.matrices, strict=True))
    assert 0 < drift < dsolve._MAX_DRIFT
    monkeypatch.setattr(dsolve, "_MAX_DRIFT", factor * drift)
    if accepted:
        again = exact_refine(out.solution, inst)
        assert (again.matrices, again.conjugators) == (exact.matrices, exact.conjugators)
    else:
        with pytest.raises(RefinementError, match="snapped flags kept degenerating"):
            exact_refine(out.solution, inst)


def test_rank_tolerance_floor():
    # below a residual of 1e-10 the 1e-7 floor holds; above it the cut
    # follows 1e3 times the residual
    assert rank_tolerance(0.0) == 1e-7
    assert rank_tolerance(1e-11) == 1e-7
    assert rank_tolerance(1e-9) == pytest.approx(1e-6, rel=1e-12)


def test_higgs_tolerance_floor(rank2_instance):
    # the built tuple validates at BRIDGE_TOL whatever residual the solution
    # states, and the sum under test cannot widen it: A_1 scaled by 1 + t
    # keeps its flags and moves the sum by t |A_1|, refused from t = 1e-7,
    # with the residual 0.0 that solution_from_json defaults to and with t
    sol = solve(rank2_instance, SolverConfig(seed=3)).solution
    sigma = rank2_instance.parabolic_type()
    for residual in (0.0, 1e-9, 1.0):
        assert flags_from_solution(replace(sol, residual=residual), sigma).tol == BRIDGE_TOL
    for t in (1e-7, 1e-3):
        for residual in (0.0, t):
            off = replace(sol, matrices=[(1 + t) * sol.matrices[0]] + list(sol.matrices[1:]), residual=residual)
            with pytest.raises(BridgeError, match="residues do not sum to zero"):
                flags_from_solution(off, sigma)


def test_solver_falls_back_to_a_converged_reducible_tuple():
    # the rank-5 infeasible instance has only reducible zero-sum tuples, so
    # no restart is smooth and the first converged one is returned
    c = NilpotentClass.from_partition((2, 1, 1, 1))
    inst = DSInstance(rank=5, classes=(c,) * 4)
    out = solve(inst, SolverConfig(seed=1, restarts=3))
    assert out.success
    assert len(out.best_residuals) == 3
    assert out.solution.residual == out.best_residuals[out.solution.restart_index]
    assert not is_smooth_point(out.solution.matrices)
    assert not verify(out.solution, inst).irreducible


def test_verify_has_no_spectral_option():
    # cli._spectral_appendix runs the spectral cross-check; verify certifies
    # only the tuple it is given
    assert list(inspect.signature(verify).parameters) == ["solution", "instance"]


def test_verify_searches_no_invariant_subspace(monkeypatch):
    # verify reads only the certificate's verdict and words: on the reducible
    # tuple that ds solve finds for the rank-5 infeasible fixture (seed 1,
    # three restarts) it draws no witness candidate and forms no closure
    inst = jsonio.instance_from_json(jsonio.load(FIXTURES / "ds_rank5_infeasible.json"))
    out = solve(inst, SolverConfig(seed=1, restarts=3))
    calls = []
    for name in ("_witness_candidates", "_proper_closures"):
        monkeypatch.setattr(higgs, name, lambda *a, f=getattr(higgs, name), name=name: calls.append(name) or f(*a))
    rep = verify(out.solution, inst)
    assert out.success and not rep.irreducible and rep.words
    assert calls == []


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_flag_steps_are_prefixes_of_one_basis(refined_batch, mode):
    # each point's flag is one basis filled deepest step first: every step
    # is the leading columns of the next shallower one, and exact steps
    # stay Fraction matrices
    checked = 0
    for inst, out, _, exact_h in refined_batch:
        h = flags_from_solution(out.solution, inst.parabolic_type()) if mode == "float" else exact_h
        for fl in h.flags:
            for outer, inner in zip(fl, fl[1:]):
                if mode == "float":
                    assert np.array_equal(outer[:, : inner.shape[1]], inner)
                else:
                    assert [row[: len(inner[0])] for row in outer] == inner
                    assert all(type(x) is Fraction for row in outer + inner for x in row)
                checked += 1
    assert checked >= 20


def test_exact_refine_builds_no_tuple(certified_batch, monkeypatch):
    # the refinement reads only the flag bases, so it validates no HiggsTuple
    calls = []
    monkeypatch.setattr(HiggsTuple, "validate", lambda self: calls.append(self) or [])
    for inst, out in [certified_batch[0], certified_batch[20]]:
        assert exact_refine(out.solution, inst).mode == "exact"
    assert calls == []


def test_exact_refine_properties(rank2_instance):
    out = solve(rank2_instance, SolverConfig(seed=3))
    exact = exact_refine(out.solution, rank2_instance)
    assert exact.mode == "exact"
    total = exact.matrices[0]
    for m in exact.matrices[1:]:
        total = ex.madd(total, m)
    assert ex.is_zero(total)
    assert exact.profile() == [c.rank_sequence for c in rank2_instance.classes]
    # conjugators reproduce the matrices from the normal forms exactly
    for m, p, c in zip(exact.matrices, exact.conjugators, rank2_instance.classes):
        n = ex.jordan_nilpotent(c.to_partition(), 2)
        assert ex.mmul(ex.mmul(p, n), inverse(p)) == m
    # the refinement stays near the floating solution
    for m, a in zip(exact.matrices, out.solution.matrices):
        drift = np.linalg.norm(
            np.array([[float(x) for x in row] for row in m]) - np.asarray(a).real
        )
        assert drift < 1e-2


@pytest.mark.parametrize("r", range(1, 9))
def test_free_entries_lie_above_the_diagonal(r):
    # every free entry (a, b) has a < gamma <= b for a flag step gamma, so
    # the K that the refinement fills is strictly upper triangular, hence
    # nilpotent, and its Jordan basis needs no refusal path
    for p in partitions_of(r):
        ranks = NilpotentClass.from_partition(p).rank_sequence
        assert all(a < b for a, b in dsolve._free_entries(ranks, r)), p


def test_solver_reports_are_deterministic(rank2_instance):
    from starquiver import jsonio

    def run():
        out = solve(rank2_instance, SolverConfig(seed=5))
        rep = verify(out.solution, rank2_instance)
        return jsonio.dumps(
            {
                "residual": out.solution.residual,
                "restart": out.solution.restart_index,
                "profiles": [list(p) for p in rep.profiles],
                "irreducible": rep.irreducible,
                "best": out.best_residuals,
            }
        )

    assert run() == run()


def test_conjugated_instance_same_report(rank2_instance):
    # classes are basis-free (rank sequences), so a conjugated instance is
    # the same instance and seeded runs agree verbatim
    c = NilpotentClass(rank=2, rank_sequence=(1,))
    inst2 = DSInstance(rank=2, classes=(c, c, c, c))
    out1 = solve(rank2_instance, SolverConfig(seed=9))
    out2 = solve(inst2, SolverConfig(seed=9))
    assert out1.best_residuals == out2.best_residuals
    assert all(
        np.array_equal(a, b)
        for a, b in zip(out1.solution.matrices, out2.solution.matrices)
    )


def test_jordan_forms_are_built_once_per_solve(monkeypatch):
    # item 28 of the bridge stream (default_rng(9), solver seed 528) takes
    # six restarts; every one starts from the same Jordan forms
    rng = np.random.default_rng(9)
    for _ in range(29):
        inst = random_feasible_instance(rng, max_rank=3, max_points=6)
    built = []
    jordan = dsolve._jordan

    def counting(cls):
        built.append(cls)
        return jordan(cls)

    monkeypatch.setattr(dsolve, "_jordan", counting)
    out = solve(inst, SolverConfig(seed=528))
    assert out.success and len(out.best_residuals) == 6
    assert built == list(inst.classes)


def test_random_feasible_instances_valid():
    rng = np.random.default_rng(31)
    for _ in range(20):
        inst = random_feasible_instance(rng)
        assert inst.feasibility().feasible
        assert 2 <= inst.rank <= 5
        assert 4 <= inst.n <= 6
        assert all(c.rank_sequence for c in inst.classes)

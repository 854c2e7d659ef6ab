from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from common import closed_form_matrices
from starquiver import dsolve
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
    higgs_tolerance,
    is_smooth_point,
    orbit_jacobian,
    random_feasible_instance,
    rank_tolerance,
    solve,
    verify,
)
from starquiver.higgs import BridgeError, higgs_to_quiver
from starquiver.starrep import moment_residual

F = Fraction


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
    # the step e1 lies inside a step whose second column leaves a Gram-Schmidt
    # residual of exactly factor * _NESTED_TOL against e1
    assert dsolve._NESTED_TOL == 1e-6
    eps = factor * dsolve._NESTED_TOL
    outer = np.array([[1.0, 1.0], [0.0, eps], [0.0, 0.0]])
    flags = [outer, np.array([[1.0], [0.0], [0.0]])]
    if kept:
        assert np.array_equal(dsolve._nested_columns(flags, 3), np.eye(3)[:, :2])
    else:
        with pytest.raises(RefinementError, match="not numerically nested"):
            dsolve._nested_columns(flags, 3)


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
    c = NilpotentClass(rank=3, rank_sequence=())
    inst = DSInstance(rank=3, classes=(c, c, c, c))
    out = solve(inst, SolverConfig(seed=0))
    assert out.success
    assert out.solution.iterations == 0
    assert all(np.linalg.norm(m) == 0.0 for m in out.solution.matrices)


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


def test_off_class_float_solution_gets_no_flags(rank2_instance):
    # the boundary solution moved off its classes, with the sum kept at zero:
    # the flags of the prescribed widths are not preserved
    out = solve(rank2_instance, SolverConfig(seed=2))
    g = 1e-3 * np.random.default_rng(0).standard_normal((2, 2))
    mats = list(out.solution.matrices)
    mats[0], mats[1] = mats[0] + g, mats[1] - g
    moved = replace(out.solution, matrices=mats)
    with pytest.raises(BridgeError, match="point 0: residue does not push the full space deeper"):
        flags_from_solution(moved, rank2_instance.parabolic_type())


def test_exact_flag_step_of_another_width_is_named(rank2_instance):
    # an invertible residue at point 2 where the type asks for a line
    mats = closed_form_matrices()
    mats[2] = ex.meye(2)
    sol = DSSolution(matrices=mats, conjugators=[ex.meye(2)] * 4, residual=0.0, mode="exact")
    with pytest.raises(ValueError, match="point 2: flag step 1 has dimension 2, the type needs 1"):
        flags_from_solution(sol, rank2_instance.parabolic_type())


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


def test_rank_tolerance_floor():
    # below a residual of 1e-10 the 1e-7 floor holds; above it the cut
    # follows 1e3 times the residual
    assert rank_tolerance(0.0) == 1e-7
    assert rank_tolerance(1e-11) == 1e-7
    assert rank_tolerance(1e-9) == pytest.approx(1e-6, rel=1e-12)


def test_higgs_tolerance_floor(rank2_instance):
    # below a residual of 1e-10 the 1e-8 floor holds; above it the tolerance
    # follows 1e2 times the residual, and the built tuple carries it
    assert higgs_tolerance(0.0) == 1e-8
    assert higgs_tolerance(5e-11) == 1e-8
    assert higgs_tolerance(1e-9) == pytest.approx(1e-7, rel=1e-12)
    out = solve(rank2_instance, SolverConfig(seed=3))
    h = flags_from_solution(out.solution, rank2_instance.parabolic_type())
    assert h.tol == higgs_tolerance(out.solution.residual)


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
        assert ex.mmul(ex.mmul(p, n), ex.inv(p)) == m
    # the refinement stays near the floating solution
    for m, a in zip(exact.matrices, out.solution.matrices):
        drift = np.linalg.norm(
            np.array([[float(x) for x in row] for row in m]) - np.asarray(a).real
        )
        assert drift < 1e-2


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


def test_random_feasible_instances_valid():
    rng = np.random.default_rng(31)
    for _ in range(20):
        inst = random_feasible_instance(rng)
        assert inst.feasibility().feasible
        assert 2 <= inst.rank <= 5
        assert 4 <= inst.n <= 6
        assert all(c.rank_sequence for c in inst.classes)

"""The integer refinement against the Fraction oracle in ``refine_oracle``,
its snapping branches, and property tests of its kernels."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import linalg_oracle
import refine_oracle as oracle
from common import FIXTURES
from starquiver import dsolve, jsonio
from starquiver import linalg_exact as ex
from starquiver.cli import main
from starquiver.dsolve import (
    DSSolution,
    RefinementError,
    SolverConfig,
    exact_refine,
    flags_from_solution,
    random_feasible_instance,
    solve,
)
from starquiver.spectral import char_poly, is_integral, spectral_poly, vanishing_orders

F = Fraction


def _assert_valid(exact, solution, instance):
    """Exact zero sum, prescribed profile, exact conjugators, small drift."""
    r = instance.rank
    assert exact.mode == "exact"
    assert ex.is_zero([[sum(m[i][j] for m in exact.matrices) for j in range(r)] for i in range(r)])
    assert exact.profile() == [c.rank_sequence for c in instance.classes]
    for a, p, c in zip(exact.matrices, exact.conjugators, instance.classes):
        j = ex.jordan_nilpotent(c.to_partition(), r)
        assert ex.mmul(ex.mmul(p, j), ex.inv(p)) == a
    for a, af in zip(exact.matrices, solution.matrices):
        drift = np.linalg.norm(np.array([[float(x) for x in row] for row in a]) - np.asarray(af).real)
        assert drift < 1e-2


def _certificate(exact, instance):
    sigma = instance.parabolic_type()
    hp = char_poly(flags_from_solution(exact, sigma))
    return vanishing_orders(hp, sigma), is_integral(spectral_poly(hp))[0]


def test_refinement_matches_oracle_on_certified_batch(certified_batch):
    # the exact matrices differ (other free unknowns); the verdicts may not
    for inst, out in certified_batch:
        new, old = exact_refine(out.solution, inst), oracle.exact_refine(out.solution, inst)
        _assert_valid(new, out.solution, inst)
        _assert_valid(old, out.solution, inst)
        assert _certificate(new, inst) == _certificate(old, inst)


def _preserves_snapped_flags(exact, solution, instance):
    """Whether, at one of the snapping denominators, every A_i maps each
    snapped flag step (C^r, then the prefixes of round(den * columns))
    exactly into the next one, the last into zero."""
    r = instance.rank
    h = flags_from_solution(solution, instance.parabolic_type())
    nested = [dsolve._nested_columns(fl, r) for fl in h.flags]
    for attempt in range(dsolve._SNAP_ATTEMPTS):
        den = dsolve._SNAP_DENOMINATOR * 16**attempt
        ok = True
        for a, cols, c in zip(exact.matrices, nested, instance.classes):
            snapped = [[F(int(x)) for x in row] for row in np.rint(den * cols)]
            steps = [ex.meye(r)] + [[row[:g] for row in snapped] for g in c.rank_sequence]
            for src, dst in zip(steps, steps[1:] + [None]):
                image = ex.mmul(a, src)
                if dst is None:
                    ok = ok and ex.is_zero(image)
                else:
                    ok = ok and ex.rank(ex.hstack([dst, image])) == ex.rank(dst) == len(dst[0])
        if ok:
            return True
    return False


@settings(max_examples=20, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32 - 1), st.integers(0, 1000))
def test_refinement_properties_on_random_instances(instance_seed, solver_seed):
    inst = random_feasible_instance(np.random.default_rng(instance_seed), max_rank=3, max_points=6)
    out = solve(inst, SolverConfig(seed=solver_seed))
    assume(out.success and dsolve.verify(out.solution, inst).passed())
    exact = exact_refine(out.solution, inst)
    _assert_valid(exact, out.solution, inst)
    assert _preserves_snapped_flags(exact, out.solution, inst)


def _recorded_attempts(monkeypatch):
    attempts = []
    refine_at = dsolve._refine_at

    def recording(solution, instance, nested, den):
        exact = refine_at(solution, instance, nested, den)
        attempts.append((den, exact is not None))
        return exact

    monkeypatch.setattr(dsolve, "_refine_at", recording)
    return attempts


def test_first_snap_rejected_then_finer_snap_accepted(certified_batch, monkeypatch):
    # the last batch instance (rank 3, four points) drifts too far at 2^16
    inst, out = certified_batch[20]
    attempts = _recorded_attempts(monkeypatch)
    exact = exact_refine(out.solution, inst)
    assert attempts == [(2**16, False), (2**20, True)]
    _assert_valid(exact, out.solution, inst)


def _vanishing_pair_solution():
    # E12, -E12, eps E21, -eps E21: eps is below half a unit of the finest
    # snap (2^-28), so A_3 and A_4 round to zero and lose their rank every time
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    mats = [e12, -e12, 1e-10 * e12.T, -1e-10 * e12.T]
    return DSSolution(matrices=mats, conjugators=[np.eye(2)] * 4, residual=0.0)


def test_exhausted_snaps_raise(rank2_instance, monkeypatch):
    attempts = _recorded_attempts(monkeypatch)
    with pytest.raises(RefinementError):
        exact_refine(_vanishing_pair_solution(), rank2_instance)
    assert attempts == [(2**16 * 16**k, False) for k in range(4)]


def test_exhausted_snaps_exit_2_from_verify_hitchin(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    jsonio.dump(sol, jsonio.solution_to_json(_vanishing_pair_solution()))
    instance = str(FIXTURES / "ds_rank2_four_rank1.json")
    assert main(["ds", "verify", "--solution", str(sol), "--instance", instance, "--hitchin"]) == 2
    assert capsys.readouterr().err.startswith("error: rational refinement failed")


def _int_matrices(max_rows=5, max_cols=7):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-40, 40) | st.just(0), min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_int_matrices())
def test_bareiss_matches_rref(a):
    red, pivots, d = ex.bareiss(a)
    rr, rr_pivots = ex.rref([[F(x) for x in row] for row in a])
    assert pivots == rr_pivots
    assert all(isinstance(x, int) for row in red for x in row)
    assert [[F(x, d) for x in row] for row in red[: len(pivots)]] == rr[: len(pivots)]
    assert ex.is_zero(red[len(pivots):])
    for v in ex.int_kernel(a):
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    assert len(ex.int_kernel(a)) == len(a[0]) - len(pivots)


@st.composite
def anchored_systems(draw):
    """(columns, anchor): 1 to 10 integer columns of height 1 to 9, with
    small entries or entries up to 2^200, often of deficient rank, and one
    rational anchor per column."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 10))
    entries = draw(st.sampled_from([st.integers(-9, 9), st.integers(-(2**200), 2**200)]))
    k = draw(st.integers(0, min(m, n)))
    basis = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))
    mix = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    columns = [[sum(c * v[i] for c, v in zip(draw(mix), basis)) for i in range(m)] if k else [0] * m for _ in range(n)]
    denominators = st.sampled_from([1, 3, 2**16, 2**40 * 7]) | st.integers(1, 2**64)
    anchor = draw(st.lists(st.builds(F, st.integers(-(2**80), 2**80), denominators), min_size=n, max_size=n))
    return columns, anchor


def _check_anchored(columns, anchor):
    system = [[F(x) for x in row] for row in ex.mtrans(columns)]
    expected = linalg_oracle.reference(oracle.solve_anchored, system, anchor)
    x = dsolve._solve_anchored(columns, anchor)
    assert x == expected
    assert all(sum(v * c[i] for v, c in zip(x, columns)) == 0 for i in range(len(columns[0])))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(anchored_systems())
def test_anchored_zero_sum_solve_matches_oracle(case):
    _check_anchored(*case)


def test_anchored_zero_sum_solve_matches_oracle_on_the_batch(certified_batch, monkeypatch):
    # the zero-sum systems of the refined batch up to rank 3, as built
    systems = []
    solve_anchored = dsolve._solve_anchored

    def recording(columns, anchor):
        systems.append((columns, anchor))
        return solve_anchored(columns, anchor)

    monkeypatch.setattr(dsolve, "_solve_anchored", recording)
    for inst, out in certified_batch:
        if inst.rank <= 3:
            exact_refine(out.solution, inst)
    monkeypatch.undo()
    assert len(systems) >= 10
    for columns, anchor in systems:
        if columns:
            _check_anchored(columns, anchor)


_PARTITIONS = [(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (4,), (3, 2), (4, 1), (2, 2, 1)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(_PARTITIONS), st.lists(st.integers(-6, 6), min_size=25, max_size=25), st.integers(1, 5))
def test_jordan_basis_of_a_conjugated_jordan_form(partition, entries, den):
    r = sum(partition)
    p = [[F(entries[i * r + j] + 7 * (i == j), den) for j in range(r)] for i in range(r)]
    assume(ex.rank(p) == r)
    j = ex.jordan_nilpotent(partition, r)
    a = ex.mmul(ex.mmul(p, j), ex.inv(p))
    q = ex.nilpotent_jordan_basis(a)
    assert ex.mmul(ex.mmul(q, j), ex.inv(q)) == a


def test_jordan_basis_rejects_a_non_nilpotent_matrix():
    with pytest.raises(ValueError, match="not nilpotent"):
        ex.nilpotent_jordan_basis([[F(1), F(0)], [F(0), F(0)]])

"""The integer refinement against the Fraction oracle in ``refine_oracle``,
its snapping branches, and property tests of its kernels."""

import json
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import linalg_oracle
import refine_oracle as oracle
from common import FIXTURES, inverse
from starquiver import dsolve, jsonio
from starquiver import linalg_exact as ex
from starquiver.cli import main
from starquiver.combinat import NilpotentClass
from starquiver.dsolve import (
    DSInstance,
    DSSolution,
    RefinementError,
    SolverConfig,
    exact_refine,
    flags_from_solution,
    random_feasible_instance,
    solve,
    verify,
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
        assert ex.mmul(ex.mmul(p, j), inverse(p)) == a
    for a, af in zip(exact.matrices, solution.matrices):
        drift = np.linalg.norm(np.array([[float(x) for x in row] for row in a]) - np.asarray(af).real)
        assert drift < 1e-2


def _certificate(h):
    hp = char_poly(h)
    return vanishing_orders(hp, h.sigma), is_integral(spectral_poly(hp))[0]


def test_refinement_matches_oracle_on_certified_batch(refined_batch):
    # the exact matrices differ (other free unknowns); the verdicts may not
    for inst, out, new, h in refined_batch:
        old = oracle.exact_refine(out.solution, inst)
        _assert_valid(new, out.solution, inst)
        _assert_valid(old, out.solution, inst)
        assert _certificate(h) == _certificate(flags_from_solution(old, inst.parabolic_type()))


def _preserves_snapped_flags(exact, solution, instance):
    """Whether, at one of the snapping denominators, every A_i maps each
    snapped flag step (C^r, then the prefixes of round(den * columns))
    exactly into the next one, the last into zero."""
    r = instance.rank
    h = flags_from_solution(solution, instance.parabolic_type())
    nested = [oracle.nested_columns(fl, r) for fl in h.flags]
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
    # the certificate's report is written although the refinement fails
    sol, report = tmp_path / "sol.json", tmp_path / "report.json"
    jsonio.dump(sol, jsonio.solution_to_json(_vanishing_pair_solution()))
    instance = str(FIXTURES / "ds_rank2_four_rank1.json")
    assert main(["ds", "verify", "--solution", str(sol), "--instance", instance, "--hitchin", "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: rational refinement failed")
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["certified"] is False and "spectral" not in payload
    assert payload["message"] == "rational refinement failed: snapped flags kept degenerating"


def test_a_certified_solution_whose_refinement_fails_says_so_in_its_report(tmp_path, capsys, monkeypatch):
    # the certificate passes, so only the report's message tells this run
    # from a certified one without --hitchin
    inst = jsonio.instance_from_json(jsonio.load(FIXTURES / "ds_rank2_four_rank1.json"))
    solution = solve(inst, SolverConfig(seed=0)).solution
    assert verify(solution, inst).passed()
    sol, report = tmp_path / "sol.json", tmp_path / "report.json"
    jsonio.dump(sol, jsonio.solution_to_json(solution))

    def refuse(*_):
        raise RefinementError("rational refinement failed: snapped flags kept degenerating")

    monkeypatch.setattr(dsolve, "exact_refine", refuse)
    argv = ["ds", "verify", "--solution", str(sol), "--instance", str(FIXTURES / "ds_rank2_four_rank1.json")]
    assert main([*argv, "--hitchin", "--report", str(report)]) == 2
    assert capsys.readouterr().err == "error: rational refinement failed: snapped flags kept degenerating\n"
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["certified"] is True and "spectral" not in payload
    assert payload["message"] == "rational refinement failed: snapped flags kept degenerating"
    # without --hitchin the same solution reports no message
    assert main([*argv, "--report", str(report)]) == 0
    assert "message" not in json.loads(report.read_text(encoding="utf-8"))


def _zero_class_instance(rank):
    """Regular classes with a zero class among them: (2) four times at rank
    2, (3) three times at rank 3."""
    c, zero = NilpotentClass.from_partition((rank,)), NilpotentClass(rank=rank, rank_sequence=())
    return DSInstance(rank=rank, classes=(c, c, zero, c, c) if rank == 2 else (c, zero, c, c))


@pytest.mark.parametrize("rank", [2, 3])
def test_zero_classes_take_the_general_path(rank, monkeypatch):
    # a zero class gets the completed flag basis Q = I and no free entry,
    # so its residue is exactly 0 and its conjugator Q P exactly I, and the
    # exact tuple certifies
    inst = _zero_class_instance(rank)
    out = solve(inst, SolverConfig(seed=0))
    bases, flag_basis = [], dsolve._flag_basis
    monkeypatch.setattr(dsolve, "_flag_basis", lambda rows, den: bases.append(flag_basis(rows, den)) or bases[-1])
    exact = exact_refine(out.solution, inst)
    _assert_valid(exact, out.solution, inst)
    assert len(bases) == inst.n
    for q, a, p, c in zip(bases, exact.matrices, exact.conjugators, inst.classes):
        if not c.rank_sequence:
            assert (q, a, p) == (ex.meye(rank), ex.mzeros(rank, rank), ex.meye(rank))
    assert verify(exact, inst).passed()


def test_a_float_residue_off_its_zero_class_is_refused():
    # the zero class rounds to 0, which is farther than the drift bound
    # from 0.1 E12: the refinement refuses, as at any other class, where
    # it used to put 0 in its place
    inst = _zero_class_instance(2)
    out = solve(inst, SolverConfig(seed=0))
    mats = list(out.solution.matrices)
    mats[2] = np.array([[0.0, 0.1], [0.0, 0.0]])
    with pytest.raises(RefinementError, match="snapped flags kept degenerating"):
        exact_refine(DSSolution(matrices=mats, conjugators=out.solution.conjugators, residual=0.0), inst)


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
    # echelon, then back substitution of every column: d times the
    # oracle's reduced row echelon form
    red, pivots, d = ex.echelon(a)
    rr, rr_pivots = linalg_oracle.rref([[F(x) for x in row] for row in a])
    assert pivots == rr_pivots
    xs = ex.back_substitute(red, pivots, d, [[-x for x in row] for row in red[: len(pivots)]])
    assert all(isinstance(x, int) for row in xs for x in row)
    assert [[F(x, d) for x in row] for row in xs] == rr[: len(pivots)]
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


def _check_anchored(columns, anchor, full=None):
    """The solve of ``columns`` is the oracle's solve of ``full`` (by
    default the same system) and makes it vanish."""
    full = columns if full is None else full
    system = [[F(x) for x in row] for row in ex.mtrans(full)]
    x = dsolve._solve_anchored(columns, anchor)
    assert x == oracle.solve_anchored(system, anchor)
    assert all(sum(v * c[i] for v, c in zip(x, full)) == 0 for i in range(len(full[0])))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(anchored_systems())
def test_anchored_zero_sum_solve_matches_oracle(case):
    _check_anchored(*case)


def _trace_free(columns, r):
    """The r x r columns of a system that leaves out the (r-1, r-1)
    equation: each column gets back that entry, minus the sum of its other
    diagonal entries."""
    return [c + [-sum(c[p * r + p] for p in range(r - 1))] for c in columns]


@contextmanager
def _echelon_shapes():
    """The shape of every matrix ``linalg_exact.echelon`` eliminates."""
    shapes = []
    echelon = ex.echelon

    def recording(a):
        shapes.append(ex.shape(a))
        return echelon(a)

    with mock.patch.object(ex, "echelon", recording):
        yield shapes


@st.composite
def block_systems(draw, case):
    """(columns, anchor, r): a trace-free system as ``_refine_at`` builds
    it, r^2 - 1 equations for r from 2 to 4, with small entries or entries
    up to 2^100 and one rational anchor per column.  ``case``:
    'nonsingular' makes the leading square block invertible (unit lower
    triangular times upper triangular), 'repeat' repeats a leading column
    in a later leading column and adds columns after the block, 'fewer'
    has fewer columns than equations."""
    r = draw(st.integers(2, 4))
    m = r * r - 1
    entries = draw(st.sampled_from([st.integers(-9, 9), st.integers(-(2**100), 2**100)]))
    column = st.lists(entries, min_size=m, max_size=m)
    if case == "fewer":
        columns = draw(st.lists(column, min_size=1, max_size=m - 1))
    else:
        if case == "nonsingular":
            upper = [
                [draw(entries.filter(bool)) if i == j else draw(entries) if i < j else 0 for j in range(m)]
                for i in range(m)
            ]
            lower = [[draw(st.integers(-3, 3)) if j < i else int(i == j) for j in range(m)] for i in range(m)]
            block = ex.mtrans(ex.imul(lower, upper))
        else:
            block = draw(st.lists(column, min_size=m, max_size=m))
            j = draw(st.integers(1, m - 1))
            block[j] = block[draw(st.integers(0, j - 1))]
        extra = draw(st.lists(column, min_size=case == "repeat", max_size=12))
        columns = block + extra
    denominators = st.sampled_from([1, 3, 2**16, 2**40 * 7]) | st.integers(1, 2**64)
    n = len(columns)
    anchor = draw(st.lists(st.builds(F, st.integers(-(2**80), 2**80), denominators), min_size=n, max_size=n))
    return columns, anchor, r


@settings(max_examples=100, derandomize=True, deadline=None)
@given(block_systems("nonsingular"))
def test_a_nonsingular_leading_block_is_solved_alone(case):
    # one echelon of the m leading columns and the anchor column, whatever
    # the number of columns after them
    columns, anchor, r = case
    m = r * r - 1
    with _echelon_shapes() as shapes:
        _check_anchored(columns, anchor, _trace_free(columns, r))
    assert shapes == [(m, m + 1)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(block_systems("repeat"))
def test_a_repeated_leading_column_widens_to_all_columns(case):
    columns, anchor, r = case
    m = r * r - 1
    with _echelon_shapes() as shapes:
        _check_anchored(columns, anchor, _trace_free(columns, r))
    assert shapes == [(m, m + 1), (m, len(columns) + 1)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(block_systems("fewer"))
def test_fewer_columns_than_equations_are_eliminated_once(case):
    columns, anchor, r = case
    with _echelon_shapes() as shapes:
        _check_anchored(columns, anchor, _trace_free(columns, r))
    assert shapes == [(r * r - 1, len(columns) + 1)]


def test_anchored_solve_without_columns_or_equations():
    assert dsolve._solve_anchored([], []) == []
    # rank 1 leaves no equation: every unknown keeps its anchor, and the
    # restored trace equation is zero
    anchor = [F(1, 3), F(-7, 2**16), F(0)]
    columns = [[] for _ in anchor]
    assert dsolve._solve_anchored(columns, anchor) == anchor
    _check_anchored(columns, anchor, _trace_free(columns, 1))


def test_anchored_zero_sum_solve_matches_oracle_on_the_batch(certified_batch, monkeypatch):
    # the zero-sum systems of the refined batch up to rank 3, and of the
    # rank-4 instance with solver seed 104, whose 15 leading columns have
    # rank 14, as built; each column is checked against its flag basis Q
    # and d Q^-1 and solved against the oracle's solve of the full system
    systems, attempt = [], {}
    refine_at, flag_basis, solve_anchored = dsolve._refine_at, dsolve._flag_basis, dsolve._solve_anchored

    def recording_refine(solution, instance, nested, den):
        attempt.update(instance=instance, bases=[])
        return refine_at(solution, instance, nested, den)

    def recording_basis(rows, den):
        attempt["bases"].append(flag_basis(rows, den))
        return attempt["bases"][-1]

    def recording_solve(columns, anchor):
        systems.append((attempt["instance"], attempt["bases"], columns, anchor))
        return solve_anchored(columns, anchor)

    monkeypatch.setattr(dsolve, "_refine_at", recording_refine)
    monkeypatch.setattr(dsolve, "_flag_basis", recording_basis)
    monkeypatch.setattr(dsolve, "_solve_anchored", recording_solve)
    for k, (inst, out) in enumerate(certified_batch):
        if inst.rank <= 3 or k == 5:
            exact_refine(out.solution, inst)
    monkeypatch.undo()
    assert len(systems) >= 11
    widened = 0
    for inst, qs, columns, anchor in systems:
        r = inst.rank
        full = []
        for q, c in zip(qs, inst.classes, strict=True):  # every class gets a flag basis, a zero class I
            d = ex.echelon(q)[2]  # the last pivot of [Q | I] is that of Q
            adj = [[d * x for x in row] for row in inverse(q)]
            for a, b in dsolve._free_entries(c.rank_sequence, r):
                col = [q[p][a] * adj[b][t] for p in range(r) for t in range(r)]
                assert sum(col[p * r + p] for p in range(r)) == 0
                full.append(col)
        assert columns == [col[:-1] for col in full]
        _check_anchored(columns, anchor, full)
        m = r * r - 1
        widened += ex.rank([[F(x) for x in row] for row in ex.mtrans(columns[:m])]) < m
    assert widened == 1


_PARTITIONS = [(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (4,), (3, 2), (4, 1), (2, 2, 1)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(_PARTITIONS), st.lists(st.integers(-6, 6), min_size=25, max_size=25), st.integers(1, 5))
def test_jordan_basis_of_a_conjugated_jordan_form(partition, entries, den):
    r = sum(partition)
    p = [[F(entries[i * r + j] + 7 * (i == j), den) for j in range(r)] for i in range(r)]
    assume(ex.rank(p) == r)
    j = ex.jordan_nilpotent(partition, r)
    a = ex.mmul(ex.mmul(p, j), inverse(p))
    q, ranks = ex.nilpotent_jordan_basis(a)
    assert ex.mmul(ex.mmul(q, j), inverse(q)) == a
    # rank of J^k: each block of size b contributes max(b - k, 0)
    assert ranks == tuple(sum(max(b - k, 0) for b in partition) for k in range(1, max(partition)))


def test_jordan_basis_rejects_a_non_nilpotent_matrix():
    with pytest.raises(ValueError, match="not nilpotent"):
        ex.nilpotent_jordan_basis([[F(1), F(0)], [F(0), F(0)]])

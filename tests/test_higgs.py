import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from common import assert_witness_pairing, closed_form_flags, closed_form_matrices, theta
from starquiver import cli, higgs, jsonio
from starquiver import linalg_exact as ex
from starquiver.combinat import ParabolicType
from starquiver.dsolve import DSInstance, SolverConfig, exact_refine, flags_from_solution, solve
from starquiver.higgs import (
    IRREDUCIBLE_RTOL,
    BridgeError,
    HiggsTuple,
    WeightsNotSmallError,
    assemble_phi,
    higgs_to_quiver,
    irreducible,
    parabolic_slope,
    quiver_to_higgs,
    stability_verdict,
)
from starquiver.starrep import (
    BRIDGE_TOL,
    StarQuiver,
    StarRep,
    build_character,
    build_star_quiver,
    center_cycles,
    moment_is_zero,
    moment_residual,
    random_rep,
    trace_along_cycle,
    zero_rep,
)

F = Fraction


@pytest.fixture()
def closed_form_tuple(full_flag_type):
    return HiggsTuple(
        sigma=full_flag_type,
        matrices=closed_form_matrices(),
        flags=closed_form_flags(),
        mode="exact",
    )


def test_tuple_invariants_enforced(full_flag_type):
    mats = closed_form_matrices()
    bad = [m for m in mats]
    bad[3] = ex.mscale(F(2), bad[3])  # sum no longer zero
    with pytest.raises(BridgeError):
        HiggsTuple(sigma=full_flag_type, matrices=bad, flags=closed_form_flags(), mode="exact")
    # flag not preserved: swap the image lines
    flags = closed_form_flags()
    flags[0], flags[2] = flags[2], flags[0]
    with pytest.raises(BridgeError):
        HiggsTuple(sigma=full_flag_type, matrices=mats, flags=flags, mode="exact")


def test_round_trip_exact(closed_form_tuple):
    rep = higgs_to_quiver(closed_form_tuple)
    assert moment_is_zero(rep)
    h2 = quiver_to_higgs(rep, closed_form_tuple.sigma)
    assert h2.matrices[0] == closed_form_matrices()[0]
    assert h2.matrices == closed_form_matrices()


@pytest.fixture(scope="module")
def exact_tuples(certified_batch, full_flag_type):
    """The closed-form tuple and the exact refinement of every solved
    instance of the certified batch: ranks 2 to 5, four to six points."""
    tuples = [HiggsTuple(full_flag_type, closed_form_matrices(), closed_form_flags(), mode="exact")]
    for inst, out in certified_batch:
        if out.success:
            tuples.append(flags_from_solution(exact_refine(out.solution, inst), inst.parabolic_type()))
    return tuples


def _invertible(data, n):
    """L U for L unit lower triangular and U upper triangular with a nonzero
    diagonal, so never singular."""
    entry = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    pivot = st.sampled_from([F(1), F(-1), F(2), F(-1, 3)])
    lower = [[data.draw(entry) if j < i else F(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[data.draw(pivot if i == j else entry) if j >= i else F(0) for j in range(n)] for i in range(n)]
    return ex.mmul(lower, upper)


def _same_column_space(a, b):
    return ex.rank(a) == ex.rank(b) == ex.rank(ex.hstack([a, b]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_round_trip_exact_on_conjugated_tuples(exact_tuples, data):
    # conjugating a tuple by P, scaling it by c and changing every flag
    # step's basis gives another valid exact tuple; the conversion there and
    # back returns its residues exactly and its flags up to their bases
    h0 = data.draw(st.sampled_from(exact_tuples))
    r = h0.rank
    p = _invertible(data, r)
    p_inv = ex.inv(p)
    c = data.draw(st.sampled_from([F(1), F(-1), F(2), F(-3, 2), F(1, 5)]))
    mats = [ex.mscale(c, ex.mmul(ex.mmul(p, a), p_inv)) for a in h0.matrices]
    flags = [[ex.mmul(ex.mmul(p, b), _invertible(data, len(b[0]))) for b in fl] for fl in h0.flags]
    h = HiggsTuple(h0.sigma, mats, flags, mode="exact")
    rep = higgs_to_quiver(h)
    assert moment_residual(rep) == 0
    h2 = quiver_to_higgs(rep, h.sigma)
    assert h2.matrices == h.matrices
    assert [len(fl) for fl in h2.flags] == [len(fl) for fl in h.flags]
    for fl, fl2 in zip(h.flags, h2.flags):
        assert all(_same_column_space(b, b2) for b, b2 in zip(fl, fl2))


def test_round_trip_preserves_traces_float(rank2_instance):
    out = solve(rank2_instance, SolverConfig(seed=3))
    assert out.success
    sigma = rank2_instance.parabolic_type()
    h = flags_from_solution(out.solution, sigma)
    rep = higgs_to_quiver(h)
    assert moment_residual(rep) < 1e-8
    h2 = quiver_to_higgs(rep, sigma)
    rep2 = higgs_to_quiver(h2)
    for cyc in center_cycles(rep.quiver, 6):
        t1 = trace_along_cycle(rep, cyc)
        t2 = trace_along_cycle(rep2, cyc)
        assert abs(t1 - t2) < 1e-9


def test_zero_tuple_with_coordinate_flags(full_flag_type):
    e1 = [[F(1)], [F(0)]]
    h = HiggsTuple(
        sigma=full_flag_type,
        matrices=[ex.mzeros(2, 2)] * 4,
        flags=[[e1]] * 4,
        mode="exact",
    )
    rep = higgs_to_quiver(h)
    assert all(ex.is_zero(m) for arm in rep.f for m in arm)
    assert moment_is_zero(rep)


def test_quiver_to_higgs_requires_moment_zero(full_flag_type):
    rng = np.random.default_rng(0)
    q = build_star_quiver(full_flag_type)
    rep = random_rep(q, rng)
    with pytest.raises(BridgeError):
        quiver_to_higgs(rep, full_flag_type)


def test_quiver_to_higgs_requires_full_rank_arms(full_flag_type):
    q = build_star_quiver(full_flag_type)
    rep = zero_rep(q)
    with pytest.raises(BridgeError):
        quiver_to_higgs(rep, full_flag_type)


def test_assemble_phi_values(closed_form_tuple):
    z = F(1, 2)
    val = assemble_phi(closed_form_tuple, z)
    expected = ex.mzeros(2, 2)
    pts = closed_form_tuple.sigma.line.points
    for a, x in zip(closed_form_tuple.matrices, pts):
        expected = ex.madd(expected, ex.mscale(F(1) / (z - x), a))
    assert val == expected
    with pytest.raises(BridgeError):
        assemble_phi(closed_form_tuple, 1)


def test_assemble_phi_zero(full_flag_type):
    e1 = [[F(1)], [F(0)]]
    h = HiggsTuple(full_flag_type, [ex.mzeros(2, 2)] * 4, [[e1]] * 4, mode="exact")
    assert assemble_phi(h, F(7, 3)) == ex.mzeros(2, 2)


def test_assemble_phi_residue_recovery(closed_form_tuple):
    hf = HiggsTuple(
        sigma=closed_form_tuple.sigma,
        matrices=[np.array([[float(x) for x in row] for row in m]) for m in closed_form_tuple.matrices],
        flags=[[np.array([[float(x) for x in row] for row in b]) for b in fl] for fl in closed_form_tuple.flags],
        mode="float",
    )
    z = 0.0 + 1e-6
    rec = z * assemble_phi(hf, z)
    assert np.linalg.norm(rec - np.array([[0.0, 1.0], [0.0, 0.0]])) < 1e-4


def test_assemble_phi_no_pole_at_infinity(closed_form_tuple):
    hf = HiggsTuple(
        sigma=closed_form_tuple.sigma,
        matrices=[np.array([[float(x) for x in row] for row in m]) for m in closed_form_tuple.matrices],
        flags=[[np.array([[float(x) for x in row] for row in b]) for b in fl] for fl in closed_form_tuple.flags],
        mode="float",
    )
    z = 1e6
    assert np.linalg.norm(assemble_phi(hf, z)) * abs(z) < 1e-4


# ---------------------------------------------------------------------------
# slopes


def test_slope_decomposable_bundle_fixture(tight_weight_type):
    e1 = [[F(1)], [F(0)]]
    h = HiggsTuple(tight_weight_type, [ex.mzeros(2, 2)] * 4, [[e1]] * 4, mode="exact")
    assert parabolic_slope(h) == F(1)


def test_slopes_heavy_top_type(heavy_top_type):
    lines = [
        [[F(1)], [F(0)]],
        [[F(0)], [F(1)]],
        [[F(1)], [F(1)]],
        [[F(1)], [F(-1)]],
    ]
    h = HiggsTuple(heavy_top_type, [ex.mzeros(2, 2)] * 4, [[l] for l in lines], mode="exact")
    assert parabolic_slope(h) == F(3, 2)
    assert parabolic_slope(h, w=lines[0]) == F(3, 4)
    # the tautological sub-line-bundle: fiber at point i is the i-th line,
    # underlying degree -1
    assert parabolic_slope(h, degree=-1, point_fibers=lines) == F(2)
    # full-space subobject recovers the full slope
    eye = ex.meye(2)
    assert parabolic_slope(h, w=eye) == F(3, 2)
    with pytest.raises(BridgeError):
        parabolic_slope(h, w=[[F(1), F(2)], [F(1), F(2)]])


# ---------------------------------------------------------------------------
# irreducibility


def test_irreducible_closed_form():
    cert = irreducible(closed_form_matrices(), "exact")
    assert cert.irreducible and cert.dimension == 4
    spanned = set(cert.words)
    assert () in spanned and len(cert.words) == 4


def test_reducible_upper_triangular():
    e12 = [[F(0), F(1)], [F(0), F(0)]]
    cert = irreducible([e12, ex.mscale(F(-1), e12)], "exact")
    assert not cert.irreducible
    w = cert.invariant_subspace
    assert w is not None
    # the invariant line is the span of the first coordinate vector
    assert ex.rank(w) == 1
    assert w[1][0] == 0


def test_single_nilpotent_reducible():
    n = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0), F(0), F(0)]]
    cert = irreducible([n], "exact")
    assert not cert.irreducible


def test_irreducible_conjugation_invariant():
    rng = np.random.default_rng(8)
    mats = [np.asarray([[float(x) for x in row] for row in m]) for m in closed_form_matrices()]
    p = rng.standard_normal((2, 2)) + np.eye(2) * 3
    conj = [p @ m @ np.linalg.inv(p) for m in mats]
    assert irreducible(mats, "float").irreducible
    assert irreducible(conj, "float").irreducible


def _scaled_closed_form(delta):
    """E12, -E12, delta E21, -delta E21 in float mode: irreducible for every
    nonzero delta, numerically reducible once delta E21 drops below the
    span tolerance times the identity's norm sqrt(2)."""
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    e21 = np.array([[0.0, 0.0], [1.0, 0.0]])
    return [e12, -e12, delta * e21, -delta * e21]


@pytest.mark.parametrize("factor,expected", [(0.5, False), (4.0, True)])
def test_irreducible_rtol_edges(factor, expected):
    assert irreducible(_scaled_closed_form(factor * IRREDUCIBLE_RTOL), "float").irreducible is expected


@pytest.mark.parametrize("factor,stable", [(0.5, False), (4.0, True)])
def test_stability_verdict_rtol_edges(full_flag_type, factor, stable):
    e1, e2 = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    h = HiggsTuple(full_flag_type, _scaled_closed_form(factor * IRREDUCIBLE_RTOL), [[e1], [e1], [e2], [e2]], mode="float")
    rep = stability_verdict(h)
    assert (rep.verdict == "stable") is stable
    assert_witness_pairing(h, rep)


# ---------------------------------------------------------------------------
# stability


def test_stable_from_solver(rank2_instance):
    out = solve(rank2_instance, SolverConfig(seed=3))
    h = flags_from_solution(out.solution, rank2_instance.parabolic_type())
    rep = stability_verdict(h)
    assert rep.verdict == "stable"


def test_stability_refuses_large_weights(heavy_top_type):
    lines = [
        [[F(1)], [F(0)]],
        [[F(0)], [F(1)]],
        [[F(1)], [F(1)]],
        [[F(1)], [F(-1)]],
    ]
    h = HiggsTuple(heavy_top_type, [ex.mzeros(2, 2)] * 4, [[l] for l in lines], mode="exact")
    with pytest.raises(WeightsNotSmallError):
        stability_verdict(h)


def test_semistable_only_symmetric_single_step(line4):
    # trivial flags with one equal weight at every point: all subspaces tie
    t = ParabolicType(line=line4, rank=2, K=16, multiplicities=((2,),) * 4, weights=((1,),) * 4)
    h = HiggsTuple(t, [ex.mzeros(2, 2)] * 4, [[]] * 4, mode="exact")
    rep = stability_verdict(h)
    assert rep.verdict == "semistable_only"
    assert rep.witness_slope == rep.full_slope
    assert_witness_pairing(h, rep)


def test_unstable_aligned_flags(full_flag_type):
    # zero residues with all flag lines equal: that common line wins
    e1 = [[F(1)], [F(0)]]
    h = HiggsTuple(full_flag_type, [ex.mzeros(2, 2)] * 4, [[e1]] * 4, mode="exact")
    rep = stability_verdict(h)
    assert rep.verdict == "unstable"
    assert rep.witness_slope > rep.full_slope
    assert_witness_pairing(h, rep)


def test_inconclusive_distinct_lines_zero_field(full_flag_type):
    lines = [
        [[F(1)], [F(0)]],
        [[F(0)], [F(1)]],
        [[F(1)], [F(1)]],
        [[F(1)], [F(-1)]],
    ]
    h = HiggsTuple(full_flag_type, [ex.mzeros(2, 2)] * 4, [[l] for l in lines], mode="exact")
    rep = stability_verdict(h)
    assert rep.verdict == "inconclusive"


def test_reducible_verdict_builds_the_algebra_once(full_flag_type, monkeypatch):
    # E12 and -E12 on the e1 flags, zero residues on the e2 flags: the e1
    # line is invariant and ties the full slope, so every candidate,
    # algebra closures included, gets tested; the expected report is the
    # one the verdict gave while it closed the algebra twice
    e1, e2 = [[F(1)], [F(0)]], [[F(0)], [F(1)]]
    e12 = [[F(0), F(1)], [F(0), F(0)]]
    mats = [e12, ex.mscale(F(-1), e12), ex.mzeros(2, 2), ex.mzeros(2, 2)]
    h = HiggsTuple(full_flag_type, mats, [[e1], [e1], [e2], [e2]], mode="exact")
    calls = []
    closure = higgs.irreducible
    monkeypatch.setattr(higgs, "irreducible", lambda *args, **kw: calls.append(args) or closure(*args, **kw))
    rep = stability_verdict(h)
    assert rep.verdict == "semistable_only"
    assert rep.witness_subspace == e1
    assert rep.full_slope == rep.witness_slope == F(1, 8)
    assert len(calls) == 1
    assert_witness_pairing(h, rep)



# ---------------------------------------------------------------------------
# one stability across the bridge


@pytest.fixture(scope="module")
def float_tuples(certified_batch):
    """The float solution of every solved instance of the certified batch."""
    return [flags_from_solution(out.solution, inst.parabolic_type()) for inst, out in certified_batch if out.success]


def _gap_scale(sigma):
    """The factor c > 0 by which ``build_character`` scales the weight gaps;
    1 when every arm is empty."""
    ch = build_character(sigma)
    for wts, ds in zip(sigma.weights, ch.arm_exponents):
        if ds:
            return F(ds[0], wts[1] - wts[0])
    return 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_theta_is_the_slope_gap(exact_tuples, float_tuples, data):
    # theta(W) = c K dim W (slope(W) - full slope) on every flag step and on
    # a random subspace: some columns of a flag step topped up with random
    # integer vectors, so that it meets the flags in every dimension
    h = data.draw(st.sampled_from(exact_tuples + float_tuples))
    o, r = h.ops, h.rank
    steps = [b for fl in h.flags for b in fl]
    base = data.draw(st.sampled_from(steps))
    cols = o.columns(base)[: data.draw(st.integers(0, o.shape(base)[1]))]
    extra = data.draw(st.integers(0 if cols else 1, r - len(cols)))
    ints = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=extra, max_size=extra), min_size=r, max_size=r))
    w = o.from_columns(cols + o.columns(o.from_exact([[F(x) for x in row] for row in ints])))
    assume(o.rank(w) == o.shape(w)[1])
    c, full = _gap_scale(h.sigma), parabolic_slope(h)
    assert c > 0
    for sub in steps + [w]:
        k = o.shape(sub)[1]
        assert theta(h, sub) == c * h.sigma.K * k * (parabolic_slope(h, sub) - full)


# ---------------------------------------------------------------------------
# the bridge tolerance


def test_bridge_defaults_share_one_tolerance(full_flag_type, tmp_path, monkeypatch):
    # the residue tuple, both conversions, the tuple's JSON and the CLI all
    # default to BRIDGE_TOL; the CLI by leaving tol to quiver_to_higgs when
    # --tol is omitted
    h = HiggsTuple(full_flag_type, closed_form_matrices(), closed_form_flags(), mode="exact")
    data = jsonio.higgs_to_json(h)
    rep, typ = tmp_path / "rep.json", tmp_path / "type.json"
    jsonio.dump(rep, jsonio.rep_to_json(higgs_to_quiver(h)))
    jsonio.dump(typ, data["type"])
    passed = []

    def spy(*args, **kwargs):
        bound = inspect.signature(quiver_to_higgs).bind(*args, **kwargs)
        bound.apply_defaults()
        passed.append(bound.arguments["tol"])
        return quiver_to_higgs(*args, **kwargs)

    monkeypatch.setattr(higgs, "quiver_to_higgs", spy)
    assert cli.main(["bridge", "to-higgs", "--rep", str(rep), "--type", str(typ)]) == 0
    defaults = [
        HiggsTuple.tol,
        inspect.signature(quiver_to_higgs).parameters["tol"].default,
        inspect.signature(moment_is_zero).parameters["tol"].default,
        jsonio.higgs_from_json(data).tol,
        *passed,
    ]
    assert defaults == [BRIDGE_TOL] * 5


@pytest.mark.parametrize("factor,zero", [(0.99, True), (1.01, False)])
def test_moment_is_zero_at_the_bridge_tolerance(factor, zero):
    # one arm of dimension 1: the moment is g f at the center and f g = 0 on
    # the arm, so the residual is the one entry t of f
    t = factor * BRIDGE_TOL
    rep = StarRep(StarQuiver(rank=2, arms=((1,),)), [[np.array([[0.0, t]])]], [[np.array([[1.0], [0.0]])]], "float")
    assert moment_residual(rep) == pytest.approx(t, rel=1e-12)
    assert moment_is_zero(rep) is zero


@pytest.mark.parametrize("factor,valid", [(0.99, True), (1.01, False)])
def test_residue_sum_at_the_bridge_tolerance(full_flag_type, factor, valid):
    # scaling the first closed-form residue by 1 + t keeps its flag and moves
    # the residue sum to t E12, of norm t
    t = factor * BRIDGE_TOL
    mats = [np.array([[float(x) for x in row] for row in m]) for m in closed_form_matrices()]
    flags = [[np.array([[float(x) for x in row] for row in b]) for b in fl] for fl in closed_form_flags()]
    mats[0] = (1 + t) * mats[0]
    if valid:
        HiggsTuple(full_flag_type, mats, flags)
    else:
        with pytest.raises(BridgeError, match="residues do not sum to zero"):
            HiggsTuple(full_flag_type, mats, flags)

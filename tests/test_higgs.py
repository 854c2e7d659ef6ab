import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import closure_oracle
from common import (
    assert_witness_pairing,
    closed_form_flags,
    closed_form_matrices,
    inverse,
    mscale,
    same_column_space,
    scaled_flag_tuple,
    theta,
    twisted_slope,
    unnested_tuple,
)
from starquiver import cli, higgs, jsonio
from starquiver import linalg_exact as ex
from starquiver.combinat import MarkedLine, ParabolicType
from starquiver.dsolve import SolverConfig, flags_from_solution, solve
from starquiver.higgs import (
    IRREDUCIBLE_RTOL,
    BridgeError,
    HiggsTuple,
    WeightsNotSmallError,
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
)

F = Fraction


def test_tuple_invariants_enforced(full_flag_type):
    mats = closed_form_matrices()
    bad = [m for m in mats]
    bad[3] = mscale(F(2), bad[3])  # sum no longer zero
    with pytest.raises(BridgeError):
        HiggsTuple(sigma=full_flag_type, matrices=bad, flags=closed_form_flags(), mode="exact")
    # flag not preserved: swap the image lines
    flags = closed_form_flags()
    flags[0], flags[2] = flags[2], flags[0]
    with pytest.raises(BridgeError):
        HiggsTuple(sigma=full_flag_type, matrices=mats, flags=flags, mode="exact")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_flag_steps_must_be_nested(mode):
    # such a tuple used to validate and get a stability verdict
    with pytest.raises(BridgeError) as err:
        unnested_tuple(mode)
    assert str(err.value) == "point 0: flag step 2 is not inside step 1"


def _unpushed_tuple():
    """A = E12 + E23 at point 0 and -A at point 1 with full flags, except
    that step 2 at point 0 is span(e2), which A does not map span(e1, e2) into."""
    sigma = ParabolicType(line=MarkedLine((0, 1)), rank=3, K=72, multiplicities=((1, 1, 1),) * 2, weights=((0, 1, 2),) * 2)
    a = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    e = np.eye(3, dtype=complex)
    return HiggsTuple(sigma, [a, -a], [[e[:, :2], e[:, 1:2]], [e[:, :2], e[:, :1]]], mode="float", check=False)


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0])
@pytest.mark.parametrize(
    "build,problem",
    [
        (lambda: unnested_tuple("float", check=False), "point 0: flag step 2 is not inside step 1"),
        (_unpushed_tuple, "point 0: residue does not push step 1 deeper"),
    ],
)
def test_scaled_flag_bases_are_refused(build, problem, scale):
    # flag steps are column spaces, so scaling every basis keeps the
    # violation; the float containment cut used to miss it below unit norm
    h = build()
    h.flags = [[scale * b for b in fl] for fl in h.flags]
    assert h.validate() == [problem]


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6])
def test_a_validated_tuple_converts_at_every_flag_scale(scale):
    # validation is the one test of strong preservation, and it accepts this
    # tuple at every scale of its flag bases; the conversion's corestriction
    # solves used to refuse it from 1e3 on, at the cut tol * max(1, |b|)
    h = scaled_flag_tuple(scale)
    assert h.validate() == []
    rep = higgs_to_quiver(h)
    assert moment_residual(rep) == pytest.approx(1e-9, rel=1e-9)
    back = quiver_to_higgs(rep, h.sigma)
    assert all(np.linalg.norm(b - a) <= BRIDGE_TOL for a, b in zip(h.matrices, back.matrices))


def test_every_batch_tuple_converts_at_any_flag_scale(refined_batch, float_tuples):
    # every exact refinement, its flag bases x1 and x1000, and every float
    # image-flag tuple of the certified batch, its flag bases x1e-6 .. x1e6,
    # converts; quiver_to_higgs gives back the residues, exactly for the
    # exact tuples and within BRIDGE_TOL for the float ones
    for _, _, _, h in refined_batch:
        for c in (F(1), F(1000)):
            scaled = HiggsTuple(h.sigma, h.matrices, [[mscale(c, b) for b in fl] for fl in h.flags], mode="exact")
            assert quiver_to_higgs(higgs_to_quiver(scaled), h.sigma).matrices == h.matrices
    assert len(float_tuples) == len(refined_batch)
    for h in float_tuples:
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            scaled = HiggsTuple(h.sigma, h.matrices, [[scale * b for b in fl] for fl in h.flags], tol=h.tol)
            back = quiver_to_higgs(higgs_to_quiver(scaled), h.sigma)
            assert all(np.linalg.norm(b - a) <= BRIDGE_TOL for a, b in zip(h.matrices, back.matrices))


def test_round_trip_exact(closed_form_tuple):
    rep = higgs_to_quiver(closed_form_tuple)
    assert moment_is_zero(rep)
    h2 = quiver_to_higgs(rep, closed_form_tuple.sigma)
    assert h2.matrices[0] == closed_form_matrices()[0]
    assert h2.matrices == closed_form_matrices()


@pytest.fixture(scope="module")
def exact_tuples(refined_batch, closed_form_tuple):
    """The closed-form tuple and the exact refinement of every solved
    instance of the certified batch: ranks 2 to 5, four to six points."""
    return [closed_form_tuple] + [h for _, _, _, h in refined_batch]


def _invertible(data, n):
    """L U for L unit lower triangular and U upper triangular with a nonzero
    diagonal, so never singular."""
    entry = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    pivot = st.sampled_from([F(1), F(-1), F(2), F(-1, 3)])
    lower = [[data.draw(entry) if j < i else F(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[data.draw(pivot if i == j else entry) if j >= i else F(0) for j in range(n)] for i in range(n)]
    return ex.mmul(lower, upper)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_round_trip_exact_on_conjugated_tuples(exact_tuples, data):
    # conjugating a tuple by P, scaling it by c and changing every flag
    # step's basis gives another valid exact tuple; the conversion there and
    # back returns its residues exactly and its flags up to their bases
    h0 = data.draw(st.sampled_from(exact_tuples))
    r = h0.rank
    p = _invertible(data, r)
    p_inv = inverse(p)
    c = data.draw(st.sampled_from([F(1), F(-1), F(2), F(-3, 2), F(1, 5)]))
    mats = [mscale(c, ex.mmul(ex.mmul(p, a), p_inv)) for a in h0.matrices]
    flags = [[ex.mmul(ex.mmul(p, b), _invertible(data, len(b[0]))) for b in fl] for fl in h0.flags]
    h = HiggsTuple(h0.sigma, mats, flags, mode="exact")
    rep = higgs_to_quiver(h)
    assert moment_residual(rep) == 0
    h2 = quiver_to_higgs(rep, h.sigma)
    assert h2.matrices == h.matrices
    assert [len(fl) for fl in h2.flags] == [len(fl) for fl in h.flags]
    for fl, fl2 in zip(h.flags, h2.flags):
        assert all(same_column_space(b, b2) for b, b2 in zip(fl, fl2))


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
    rep = random_rep(q, np.random.default_rng(0), 0.0)
    with pytest.raises(BridgeError):
        quiver_to_higgs(rep, full_flag_type)


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
    assert twisted_slope(h, -1, lines) == F(2)
    # full-space subobject recovers the full slope
    eye = ex.meye(2)
    assert parabolic_slope(h, w=eye) == F(3, 2)
    with pytest.raises(BridgeError):
        parabolic_slope(h, w=[[F(1), F(2)], [F(1), F(2)]])


def test_parabolic_slope_ranks_no_flag_step_alone(heavy_top_type, monkeypatch):
    # a step's dimension is the type's gamma_j, which the tuple's validation
    # matched to its rank: only w and each [F_j w] are ranked
    lines = [[[F(1)], [F(0)]], [[F(0)], [F(1)]], [[F(1)], [F(1)]], [[F(1)], [F(-1)]]]
    h = HiggsTuple(heavy_top_type, [ex.mzeros(2, 2)] * 4, [[l] for l in lines], mode="exact")
    ranked, rank = [], type(h.ops).rank
    monkeypatch.setattr(type(h.ops), "rank", lambda self, a, *rest: ranked.append(a) or rank(self, a, *rest))
    w = [[F(1)], [F(2)]]  # meets no flag line, so only the weights 0 count
    assert parabolic_slope(h, w=w) == 0
    assert ranked == [w] + [ex.hstack([l, w]) for l in lines]


# ---------------------------------------------------------------------------
# irreducibility


def test_irreducible_closed_form():
    cert = irreducible(closed_form_matrices(), "exact")
    assert cert.irreducible and len(cert.words) == 4
    spanned = set(cert.words)
    assert () in spanned and len(cert.words) == 4


def test_reducible_upper_triangular():
    e12 = [[F(0), F(1)], [F(0), F(0)]]
    mats = [e12, mscale(F(-1), e12)]
    cert = irreducible(mats, "exact")
    assert not cert.irreducible
    # the verdict's first candidate, which the certificate used to carry
    w = closure_oracle.witness(cert.elements, mats, "exact")
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
    nonzero delta, numerically reducible once delta E21, over the tuple's
    norm sqrt(2 + 2 delta^2), drops below the span tolerance times the
    identity's norm sqrt(2): for delta below about twice the tolerance."""
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
    mats = [e12, mscale(F(-1), e12), ex.mzeros(2, 2), ex.mzeros(2, 2)]
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

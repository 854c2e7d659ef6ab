from fractions import Fraction

import numpy as np
import pytest

from starquiver import linalg_exact as ex
from starquiver.combinat import NilpotentClass, ParabolicType
from starquiver.dsolve import DSInstance, SolverConfig, flags_from_solution, solve
from starquiver.higgs import higgs_to_quiver
from starquiver.starrep import (
    GroupElement,
    InvalidCycle,
    StarQuiver,
    StarRep,
    arm_semistable,
    build_character,
    build_star_quiver,
    center_cycles,
    group_act,
    moment_is_zero,
    moment_map,
    moment_residual,
    random_group_element,
    random_rep,
    trace_along_cycle,
    zero_rep,
)

F = Fraction


def closed_form_rep():
    """Rank-1 factorizations of E12, -E12, E21, -E21 on four one-step arms."""
    q = StarQuiver(rank=2, arms=((1,),) * 4)
    f = [
        [np.array([[0.0, 1.0]])],
        [np.array([[0.0, 1.0]])],
        [np.array([[1.0, 0.0]])],
        [np.array([[1.0, 0.0]])],
    ]
    g = [
        [np.array([[1.0], [0.0]])],
        [np.array([[-1.0], [0.0]])],
        [np.array([[0.0], [1.0]])],
        [np.array([[0.0], [-1.0]])],
    ]
    return StarRep(q, f, g, "float")


def test_build_star_quiver_examples(full_flag_type, line4):
    q = build_star_quiver(full_flag_type)
    assert q.arms == ((1,),) * 4
    t = ParabolicType(
        line=line4, rank=3, K=4,
        multiplicities=((3,), (1, 1, 1), (2, 1), (3,)),
        weights=((0,), (0, 1, 2), (0, 1), (0,)),
    )
    q = build_star_quiver(t)
    assert q.arms[0] == ()
    assert q.arms[1] == (2, 1)
    assert q.arms[2] == (1,)


def test_character_four_arms(line4):
    t = ParabolicType(
        line=line4, rank=2, K=16, multiplicities=((1, 1),) * 4, weights=((0, 3),) * 4
    )
    ch = build_character(t)
    assert ch.N == 6
    assert ch.arm_exponents == ((3,), (3,), (3,), (3,))
    q = build_star_quiver(t)
    assert ch.pairing(q.rank, q.arms) == 0


def test_pairing_sign_convention(line4):
    # theta > 0 destabilizes: a kernel vector of one rank-deficient inward
    # map (a single 1 at that tip) pairs to the arm exponent there, a line
    # through two of the four flag lines ties, one through three beats it
    t = ParabolicType(
        line=line4, rank=2, K=16, multiplicities=((1, 1),) * 4, weights=((0, 3),) * 4
    )
    ch = build_character(t)
    assert ch.pairing(0, ((1,), (0,), (0,), (0,))) == 3
    assert ch.pairing(1, ((1,), (1,), (0,), (0,))) == 0
    assert ch.pairing(1, ((1,), (1,), (1,), (0,))) == 3
    assert ch.pairing(1, ((0,),) * 4) == -6
    with pytest.raises(ValueError):
        ch.pairing(2, ((1,),) * 3)


def test_character_trivial_for_equal_gaps_zero(line4):
    t = ParabolicType(line=line4, rank=2, K=4, multiplicities=((2,),) * 4, weights=((1,),) * 4)
    ch = build_character(t)
    assert ch.N == 0 and all(d == () for d in ch.arm_exponents)


def test_character_minimal_scaling():
    classes = [NilpotentClass(rank=3, rank_sequence=(1,))] + [
        NilpotentClass(rank=3, rank_sequence=())
    ] * 3
    from starquiver.combinat import type_from_classes

    t = type_from_classes(classes)
    ch = build_character(t)
    q = build_star_quiver(t)
    # one arm of chain (1,) with weight gap 1: scaled by 3 so N = 1
    assert ch.N == 1
    assert ch.arm_exponents[0] == (3,)
    assert ch.pairing(q.rank, q.arms) == 0


def test_moment_map_zero_rep():
    q = StarQuiver(rank=3, arms=((2, 1), (1,), (1,)))
    mv = moment_map(zero_rep(q))
    assert all(np.linalg.norm(m) == 0.0 for _, m in mv.components())


def test_moment_map_closed_form_rep_vanishes():
    rep = closed_form_rep()
    assert moment_residual(rep) == 0.0
    assert moment_is_zero(rep)


def test_moment_map_perturbation_scales_linearly():
    rep = closed_form_rep()
    norms = []
    for delta in (1e-3, 1e-6):
        pert = rep.copy()
        pert.g[0][0][0, 0] += delta
        norms.append(moment_residual(pert))
    assert norms[0] / norms[1] == pytest.approx(1e3, rel=1e-3)


def test_arm_semistable_inclusions_and_zero():
    q = StarQuiver(rank=3, arms=((2, 1),))
    rep = zero_rep(q)
    assert not arm_semistable(rep, 0)
    rep.g[0][0] = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    rep.g[0][1] = np.array([[1.0], [0.0]])
    assert arm_semistable(rep, 0)


def test_arm_semistable_random_full_rank():
    rng = np.random.default_rng(1)
    q = StarQuiver(rank=4, arms=((3, 2, 1), (2,), (1,)))
    for _ in range(100):
        rep = random_rep(q, rng)
        assert all(arm_semistable(rep, j) for j in range(q.n_arms))


def test_trace_along_cycles():
    rep = closed_form_rep()
    t = trace_along_cycle(rep, [("f", 0, 1), ("g", 0, 1)])
    a0 = rep.residue(0)
    assert t == pytest.approx(np.trace(a0))
    assert trace_along_cycle(rep, []) == 2
    t2 = trace_along_cycle(rep, [("f", 0, 1), ("g", 0, 1), ("f", 2, 1), ("g", 2, 1)])
    assert t2 == pytest.approx(np.trace(rep.residue(2) @ rep.residue(0)))
    with pytest.raises(InvalidCycle):
        trace_along_cycle(rep, [("f", 0, 1)])
    with pytest.raises(InvalidCycle):
        trace_along_cycle(rep, [("g", 0, 1)])


def test_center_cycles_enumeration():
    # two one-step arms within length 4: the two excursions and the four
    # ordered pairs of them, each excursion followed by its continuations
    q = StarQuiver(rank=2, arms=((1,), (1,)))
    e0, e1 = (("f", 0, 1), ("g", 0, 1)), (("f", 1, 1), ("g", 1, 1))
    assert center_cycles(q, 4) == [e0, e0 + e0, e0 + e1, e1, e1 + e0, e1 + e1]


@pytest.mark.parametrize("max_len", [0, -1, -5])
def test_center_cycles_of_no_length(max_len):
    # a negative length used to recurse until RecursionError
    assert center_cycles(StarQuiver(rank=2, arms=((1,),) * 4), max_len) == []


def test_group_act_identity_and_scalar():
    rep = closed_form_rep()
    q = rep.quiver
    ident = GroupElement(
        center=np.eye(2, dtype=complex),
        arms=[[np.eye(1, dtype=complex)] for _ in range(4)],
    )
    acted = group_act(rep, ident)
    for j in range(4):
        assert np.allclose(acted.f[j][0], rep.f[j][0])
        assert np.allclose(acted.g[j][0], rep.g[j][0])
    t = 2.7 - 0.3j
    scalar = GroupElement(
        center=t * np.eye(2, dtype=complex),
        arms=[[t * np.eye(1, dtype=complex)] for _ in range(4)],
    )
    acted = group_act(rep, scalar)
    for j in range(4):
        assert np.allclose(acted.f[j][0], rep.f[j][0])
        assert np.allclose(acted.g[j][0], rep.g[j][0])


def test_group_act_invariances():
    rng = np.random.default_rng(4)
    q = StarQuiver(rank=3, arms=((2, 1), (1,), (2,), (1,)))
    rep = random_rep(q, rng)
    h = random_group_element(q, rng)
    acted = group_act(rep, h)
    # all cycle traces of length <= 6 are invariant
    for cyc in center_cycles(q, 6):
        t1 = trace_along_cycle(rep, cyc)
        t2 = trace_along_cycle(acted, cyc)
        assert abs(t1 - t2) < 1e-10 * max(1.0, abs(t1))
    # arm stability is invariant
    for j in range(q.n_arms):
        assert arm_semistable(rep, j) == arm_semistable(acted, j)
    # moment map transforms by blockwise conjugation
    mv = moment_map(rep)
    mv2 = moment_map(acted)
    hc = np.asarray(h.center)
    assert np.allclose(mv2.center, hc @ mv.center @ np.linalg.inv(hc), atol=1e-8)
    for j in range(q.n_arms):
        for i, comp in enumerate(mv.arms[j]):
            b = np.asarray(h.arms[j][i])
            assert np.allclose(mv2.arms[j][i], b @ comp @ np.linalg.inv(b), atol=1e-8)


def test_moment_zero_forces_nilpotent_traces():
    # solver-produced moment-zero reps with a two-level arm
    c21 = NilpotentClass(rank=3, rank_sequence=(2, 1))
    c1 = NilpotentClass(rank=3, rank_sequence=(1,))
    inst = DSInstance(rank=3, classes=(c21, c1, c1, c21))
    out = solve(inst, SolverConfig(seed=5))
    assert out.success
    h = flags_from_solution(out.solution, inst.parabolic_type())
    rep = higgs_to_quiver(h)
    assert moment_residual(rep) < 1e-8
    for j in range(rep.quiver.n_arms):
        sigma_j = len(rep.quiver.arms[j])
        a = rep.residue(j)
        power = np.linalg.matrix_power(a, sigma_j + 1)
        assert np.trace(power) == pytest.approx(0, abs=1e-8)
        assert np.linalg.norm(power) < 1e-7


def test_exact_mode_rep_shapes():
    q = StarQuiver(rank=2, arms=((1,),))
    f = [[[[F(0), F(1)]]]]
    g = [[[[F(1)], [F(0)]]]]
    rep = StarRep(q, f, g, "exact")
    assert rep.residue(0) == [[F(0), F(1)], [F(0), F(0)]]
    with pytest.raises(ValueError):
        StarRep(q, [[np.zeros((2, 2))]], [[np.zeros((1, 2))]], "float")

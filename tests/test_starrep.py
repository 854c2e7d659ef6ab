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
    destabilizing_one_ps,
    group_act,
    moment_is_zero,
    moment_map,
    moment_residual,
    one_ps_replay,
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
    assert ch.check_diagonal(build_star_quiver(t))


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
    assert ch.check_diagonal(q)


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


def test_destabilizer_zero_column_at_tip():
    q = StarQuiver(rank=2, arms=((1,),))
    rep = zero_rep(q)
    rep.f[0][0] = np.array([[0.0, 0.0]])
    ps = destabilizing_one_ps(rep, 0)
    assert ps is not None
    assert ps.level == 1
    assert ps.exponents == (-1,)
    ch_d = 3
    # pairing is minus the arm exponent at the chosen vertex
    from starquiver.starrep import StabilityCharacter

    ch = StabilityCharacter(central_exponent=-ch_d, arm_exponents=((ch_d,),))
    assert ps.pairing(ch) == -ch_d


def test_destabilizer_full_rank_arm_none():
    rng = np.random.default_rng(2)
    q = StarQuiver(rank=3, arms=((2, 1),))
    rep = random_rep(q, rng)
    assert destabilizing_one_ps(rep, 0) is None


def test_destabilizer_middle_level_replay_bounded():
    rng = np.random.default_rng(3)
    q = StarQuiver(rank=4, arms=((3, 1),))
    rep = random_rep(q, rng)
    # make the first inward map rank deficient
    u = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    v = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
    rep.g[0][0] = u @ v
    ps = destabilizing_one_ps(rep, 0)
    assert ps is not None and ps.level == 1
    assert sum(ps.exponents) == -1
    sizes = one_ps_replay(rep, ps, ts=(1e2, 1e4, 1e6))
    assert max(sizes) < 10 * max(np.abs(rep.g[0][0]).max(), np.abs(rep.g[0][1]).max())


def test_destabilizer_basis_is_unitary_and_spans_the_kernel():
    rng = np.random.default_rng(4)
    q = StarQuiver(rank=4, arms=((3, 1),))
    rep = random_rep(q, rng)
    u = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    v = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
    rep.g[0][0] = u @ v
    b = destabilizing_one_ps(rep, 0).basis
    assert b.shape == (3, 3)
    assert np.linalg.norm(b.conj().T @ b - np.eye(3)) < 1e-12
    # the first column spans the kernel of the rank-deficient inward map
    assert np.linalg.norm(rep.g[0][0] @ b[:, 0]) < 1e-12 * np.linalg.norm(rep.g[0][0])
    assert abs(abs(np.vdot(b[:, 0], rep.ops.kernel_vector(rep.g[0][0]))) - 1.0) < 1e-12


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
    q = StarQuiver(rank=2, arms=((1,), (1,)))
    cycles = center_cycles(q, 4)
    assert [("f", 0, 1), ("g", 0, 1)] not in [list(c) for c in []]
    as_lists = [list(c) for c in cycles]
    assert [("f", 0, 1), ("g", 0, 1)] in as_lists
    assert [("f", 0, 1), ("g", 0, 1), ("f", 1, 1), ("g", 1, 1)] in as_lists
    assert all(len(c) % 2 == 0 for c in cycles)


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

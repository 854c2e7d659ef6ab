import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sigma0_oracle
from common import FIXTURES, partitions_of, random_parabolic_type
from starquiver import jsonio
from starquiver import combinat
from starquiver.combinat import (
    EnumerationBoundExceeded,
    MarkedLine,
    NilpotentClass,
    ParabolicType,
    chain_simple,
    check_small_weights,
    ds_feasible,
    mu_eps,
    simpleness_condition,
    spectral_degrees,
    type_from_classes,
    weights_generic,
)
from starquiver.dsolve import DSInstance
from starquiver.starrep import build_star_quiver

F = Fraction


def test_small_weights_tight_denominator_fails(tight_weight_type):
    assert check_small_weights(tight_weight_type) is False


def test_small_weights_zero_weights_pass(line4):
    t = ParabolicType(line=line4, rank=3, K=5, multiplicities=((3,),) * 4, weights=((0,),) * 4)
    assert check_small_weights(t) is True


def test_small_weights_large_denominator_passes(full_flag_type):
    assert check_small_weights(full_flag_type) is True


def test_small_weights_monotone_under_weight_decrease(line4):
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = random_parabolic_type(rng)
        if not check_small_weights(t):
            continue
        # decrease one top weight where a gap allows it
        for i in range(t.n_points):
            w = list(t.weights[i])
            if len(w) == 1 and w[0] > 0:
                w[0] -= 1
            elif len(w) > 1 and w[-1] - w[-2] > 1:
                w[-1] -= 1
            else:
                continue
            t2 = ParabolicType(
                line=t.line,
                rank=t.rank,
                K=t.K,
                multiplicities=t.multiplicities,
                weights=t.weights[:i] + (tuple(w),) + t.weights[i + 1 :],
            )
            assert check_small_weights(t2) is True
            break


def test_flag_dimension_vectors(line4):
    t = ParabolicType(
        line=line4,
        rank=3,
        K=4,
        multiplicities=((2, 1), (3,), (1, 1, 1), (2, 1)),
        weights=((0, 1), (0,), (0, 1, 2), (0, 1)),
    )
    assert t.gamma(0) == (1,)
    assert t.gamma(1) == ()
    assert t.gamma(2) == (2, 1)


def test_full_flag_rank2_step(full_flag_type):
    assert full_flag_type.gamma(0) == (1,)


def test_mu_eps_two_one(line4):
    t = ParabolicType(
        line=line4, rank=3, K=4, multiplicities=((2, 1),) * 4, weights=((0, 1),) * 4
    )
    mu, eps = mu_eps(t)[0]
    assert mu == (2, 1, 0)
    assert eps == (1, 1, 2)
    assert eps[-1] == max((2, 1))


def test_mu_eps_full_flag(line4):
    r = 4
    t = ParabolicType(
        line=line4, rank=r, K=8, multiplicities=((1,) * r,) * 4, weights=((0, 1, 2, 3),) * 4
    )
    mu, eps = mu_eps(t)[0]
    assert mu == (r, 0, 0, 0)
    assert eps == (1,) * r


def test_mu_eps_no_flag(line4):
    r = 4
    t = ParabolicType(line=line4, rank=r, K=8, multiplicities=((r,),) * 4, weights=((0,),) * 4)
    mu, eps = mu_eps(t)[0]
    assert mu == (1,) * r
    assert eps == tuple(range(1, r + 1))


def test_mu_eps_identities_random():
    rng = np.random.default_rng(123)
    for _ in range(200):
        t = random_parabolic_type(rng)
        for (mu, eps), mult in zip(mu_eps(t), t.multiplicities):
            assert sum(mu) == t.rank
            assert eps[-1] == max(mult)
            # eps nondecreasing, j - eps_j nondecreasing
            assert all(a <= b for a, b in zip(eps, eps[1:]))
            gaps = [j - e for j, e in enumerate(eps, start=1)]
            assert all(a <= b for a, b in zip(gaps, gaps[1:]))


def test_spectral_degrees_rank1(line4):
    t = ParabolicType(line=line4, rank=1, K=4, multiplicities=((1,),) * 4, weights=((0,),) * 4)
    degrees, dim = spectral_degrees(t)
    assert degrees == [-2]
    assert dim == 0


def test_spectral_degrees_rank2_four_points(full_flag_type):
    degrees, dim = spectral_degrees(full_flag_type)
    assert degrees == [-2, 0]
    assert dim == 1


def test_spectral_degrees_rank2_five_points():
    t = ParabolicType(
        line=MarkedLine((0, 1, 2, 3, 4)),
        rank=2,
        K=16,
        multiplicities=((1, 1),) * 5,
        weights=((0, 1),) * 5,
    )
    degrees, dim = spectral_degrees(t)
    assert degrees[-1] == 1
    assert dim == 2


def test_top_degree_equivalent_to_residue_inequality():
    # for class-derived types the top degree condition is the inequality
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = int(rng.integers(2, 6))
        n = int(rng.integers(4, 7))
        classes = []
        for _ in range(n):
            parts = []
            left = r
            while left:
                p = int(rng.integers(1, left + 1))
                parts.append(p)
                left -= p
            classes.append(NilpotentClass.from_partition(parts))
        t = type_from_classes(classes)
        assert (spectral_degrees(t)[0][-1] >= 0) == ds_feasible(t).feasible


def test_ds_feasible_boundary():
    c = NilpotentClass(rank=2, rank_sequence=(1,))
    rep = ds_feasible(type_from_classes([c] * 4))
    assert rep.feasible is True
    assert rep.sum_gamma1 == 4 and rep.two_r == 4
    assert rep.n_at_least_4 is True and rep.r_at_least_4 is False


def test_ds_feasible_rank5_rank1_classes():
    c = NilpotentClass(rank=5, rank_sequence=(1,))
    rep = ds_feasible(type_from_classes([c] * 4))
    assert rep.feasible is False


def test_ds_feasible_zero_classes():
    c = NilpotentClass(rank=3, rank_sequence=())
    assert ds_feasible(type_from_classes([c] * 5)).feasible is False


def _type_of(*partitions):
    return type_from_classes([NilpotentClass.from_partition(p) for p in partitions])


# the indivisible isotropic root delta of each extended Dynkin star, as classes
DELTA = {
    "D4": [(2,)] * 4,
    "E6": [(3,)] * 3,
    "E7": [(4,), (4,), (2, 2)],
    "E8": [(6,), (3, 3), (2, 2, 2)],
}


def _times(m, partitions):
    """The classes of m times the dimension vector: every block m times."""
    return [tuple(b for b in p for _ in range(m)) for p in partitions]


@pytest.mark.parametrize("star", sorted(DELTA))
def test_sigma0_keeps_delta_and_drops_its_multiples(star):
    # p(m delta) = 1 < m p(delta) = m: only delta itself has an irreducible
    # tuple, although every m delta passes the inequality and the arm chains
    for m in (1, 2, 3) if star == "D4" else (1, 2):
        sigma = _type_of(*_times(m, DELTA[star]))
        rep = ds_feasible(sigma)
        assert rep.feasible and simpleness_condition(sigma)
        assert rep.in_sigma0 is (m == 1), m


def _leaf_at(arm, m, star):
    """The type of m delta + e_v, v a new leaf at the tip of the given arm,
    and delta's value at that tip."""
    classes = [NilpotentClass.from_partition(p) for p in _times(m, DELTA[star])]
    arms = [c.rank_sequence for c in classes]
    tip = arms[arm][-1] // m
    arms[arm] += (1,)
    return type_from_classes([NilpotentClass(rank=classes[0].rank, rank_sequence=a) for a in arms]), tip


@pytest.mark.parametrize("star", sorted(DELTA))
def test_sigma0_drops_a_leaf_at_an_extending_vertex(star):
    # Crawley-Boevey's second exception: m delta + e_v, v a new leaf where
    # delta is 1, has p = m = p(delta + e_v) + (m - 1) p(delta), so no
    # irreducible tuple, although it lies in the fundamental region; where
    # delta is 2 or 3 the same leaf keeps alpha in Sigma_0
    for arm in range(len(DELTA[star])):
        for m in (2, 3):
            sigma, tip = _leaf_at(arm, m, star)
            rep = ds_feasible(sigma)
            assert rep.feasible and simpleness_condition(sigma)
            assert rep.in_sigma0 is (tip > 1), (arm, m, tip)


def test_sigma0_of_the_shipped_fixtures():
    for name, expected in [("type_rank2_full_flags.json", True), ("type_rank2_tight_weights.json", True)]:
        assert ds_feasible(jsonio.type_from_json(jsonio.load(FIXTURES / name))).in_sigma0 is expected
    for name, expected in [("ds_rank2_four_rank1.json", True), ("ds_rank5_infeasible.json", False)]:
        assert jsonio.instance_from_json(jsonio.load(FIXTURES / name)).feasibility().in_sigma0 is expected


def test_sigma0_at_rank_1_and_for_zero_classes():
    # alpha = e_0 at rank 1, with or without marked points; zero classes
    # of a higher rank add no arm, and r e_0 is no root
    assert ds_feasible(_type_of((1,))).in_sigma0 is True
    assert ds_feasible(ParabolicType(MarkedLine(()), 1, 1, (), ())).in_sigma0 is True
    assert ds_feasible(_type_of((1, 1, 1), (1, 1, 1))).in_sigma0 is False


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.lists(st.sampled_from(list(partitions_of(r))), min_size=1, max_size=4)))
@example([(2, 2)] * 4)
@example([(2,)] * 4)
@example([(2, 2)] * 3 + [(3, 1)])  # 2 delta + e_v of affine D4
@example([(2, 2, 2)] * 3 + [(3, 2, 1)])  # 3 delta + e_v of affine D4
@example([(3, 3), (3, 3), (4, 2)])  # 2 delta + e_v of affine E6
def test_sigma0_matches_the_brute_force_oracle(partitions):
    sigma = _type_of(*partitions)
    assert ds_feasible(sigma).in_sigma0 is sigma0_oracle.in_sigma0(*sigma0_oracle.star_vector(sigma))


def test_ds_feasible_rank_mismatch():
    # classes of two ranks make no type: the instance refuses them, and so
    # does the type's multiplicity check
    classes = [NilpotentClass(rank=2, rank_sequence=(1,)), NilpotentClass(rank=3, rank_sequence=(1,))]
    with pytest.raises(ValueError, match="share the instance rank"):
        DSInstance(rank=2, classes=classes)
    with pytest.raises(ValueError, match="sum to the rank"):
        type_from_classes(classes)


def test_chain_simpleness():
    assert chain_simple(2, (1,)) is True
    assert chain_simple(3, (2, 1)) is True
    assert chain_simple(3, (2, 0)) is False  # chain ending at zero
    assert chain_simple(4, (3, 1)) is False  # 4-3=1 < 3-1=2
    assert chain_simple(5, ()) is True


def test_simpleness_condition_type(line4):
    t = ParabolicType(
        line=line4, rank=3, K=4, multiplicities=((2, 1), (3,), (1, 1, 1), (2, 1)),
        weights=((0, 1), (0,), (0, 1, 2), (0, 1)),
    )
    assert simpleness_condition(t) is True
    t2 = ParabolicType(
        line=line4, rank=4, K=4,
        multiplicities=((1, 3), (4,), (4,), (4,)),  # gamma = (3,), 4-3 < 3
        weights=((0, 1), (0,), (0,), (0,)),
    )
    assert simpleness_condition(t2) is False


def test_weights_generic_symmetric_tops_fail(full_flag_type):
    # identical weights at all points: a split through one flag line ties
    assert weights_generic(full_flag_type) is False


def test_weights_generic_perturbed_pass(line4):
    t = ParabolicType(
        line=line4, rank=2, K=31,
        multiplicities=((1, 1),) * 4,
        weights=((0, 1), (0, 2), (0, 4), (0, 8)),
    )
    # odd total of top weights: the equal-slope equation has no integer solution
    assert weights_generic(t) is True


def test_weights_generic_rank_one_vacuous(line4):
    # rank 1 has no proper sub-rank, so nothing can tie the full slope
    for K, weights in [(4, ((1,),) * 4), (7, ((0,), (3,), (5,), (6,)))]:
        t = ParabolicType(line=line4, rank=1, K=K, multiplicities=((1,),) * 4, weights=weights)
        assert weights_generic(t) is True


def test_weights_generic_gives_up_past_the_sumset_cap(full_flag_type, monkeypatch):
    # at s = 1 each of the four points adds a weight sum of 0 or 1, so the
    # sumset ends as {0, ..., 4}: five sums
    monkeypatch.setattr(combinat, "_MAX_CASES", 4)
    with pytest.raises(EnumerationBoundExceeded):
        weights_generic(full_flag_type)
    monkeypatch.setattr(combinat, "_MAX_CASES", 5)
    assert weights_generic(full_flag_type) is False


def test_partition_rank_sequence_round_trip():
    assert NilpotentClass(rank=2, rank_sequence=(1,)).to_partition() == (2,)
    assert NilpotentClass(rank=3, rank_sequence=()).to_partition() == (1, 1, 1)
    assert NilpotentClass.from_partition((2,)).rank_sequence == (1,)
    c = NilpotentClass.from_partition((3, 3, 1))
    assert c.rank == 7 and c.rank_sequence == (4, 2)
    assert c.to_partition() == (3, 3, 1)
    rng = np.random.default_rng(11)
    for _ in range(200):
        r = int(rng.integers(1, 9))
        parts = []
        left = r
        while left:
            p = int(rng.integers(1, left + 1))
            parts.append(p)
            left -= p
        parts = tuple(sorted(parts, reverse=True))
        c = NilpotentClass.from_partition(parts)
        assert c.to_partition() == parts
        c2 = NilpotentClass(rank=r, rank_sequence=c.rank_sequence)
        assert c2.to_partition() == parts


@st.composite
def partitions(draw, max_rank=8):
    left = draw(st.integers(1, max_rank))
    parts = []
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def tits_form(quiver):
    """q(alpha) = sum of alpha_v^2 over vertices - sum of alpha_s alpha_t
    over edges, alpha the dimension vector of a star quiver."""
    total = quiver.rank**2
    for chain in quiver.arms:
        dims = (quiver.rank,) + chain
        total += sum(d * d for d in chain) - sum(a * b for a, b in zip(dims, dims[1:]))
    return total


@st.composite
def nonzero_classes(draw):
    """Two to seven nonzero nilpotent classes of one rank from 2 to 5."""
    r = draw(st.integers(2, 5))
    nonzero = [p for p in partitions_of(r) if p[0] >= 2]
    return draw(st.lists(st.sampled_from(nonzero).map(NilpotentClass.from_partition), min_size=2, max_size=7))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(nonzero_classes())
@example([NilpotentClass.from_partition((2, 2))] * 4)
def test_coefficient_space_is_half_the_quiver_variety(classes):
    # on a feasible type the coefficient space has dimension 1 - q(alpha),
    # half that of the quiver variety, alpha the dimension vector of the
    # type's star quiver.  Where q(alpha) = 0, alpha is m times the
    # indivisible isotropic root and the dimension is m: four (2, 2)
    # classes give twice the D4~ root, dimension 2 where 1 - q(alpha) = 1
    sigma = type_from_classes(classes)
    assume(ds_feasible(sigma).feasible)
    quiver = build_star_quiver(sigma)
    q = tits_form(quiver)
    assert spectral_degrees(sigma)[1] == (1 - q if q else math.gcd(quiver.rank, *sum(quiver.arms, ())))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(partitions())
def test_partition_round_trips_through_its_rank_sequence(p):
    c = NilpotentClass.from_partition(p)
    assert c.rank == sum(p) and c.to_partition() == p
    assert NilpotentClass(rank=c.rank, rank_sequence=c.rank_sequence) == c


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda r: st.tuples(st.just(r), st.sets(st.integers(1, 7)))))
def test_valid_rank_sequence_round_trips_through_its_partition(draw):
    # strictly decreasing positive sequences below the rank: the constructor
    # accepts exactly those of a partition of the rank
    r, ranks = draw
    seq = tuple(sorted((g for g in ranks if g < r), reverse=True))
    try:
        c = NilpotentClass(rank=r, rank_sequence=seq)
    except ValueError:
        assert seq not in {NilpotentClass.from_partition(p).rank_sequence for p in partitions_of(r)}
        return
    assert NilpotentClass.from_partition(c.to_partition()) == c


@pytest.mark.parametrize("r", range(1, 9))
def test_partitions_and_valid_rank_sequences_are_in_bijection(r):
    # every partition of r <= 8 and every subset of 1 .. r-1 as a sequence
    valid = set()
    for mask in range(2 ** (r - 1)):
        seq = tuple(g for g in range(r - 1, 0, -1) if mask >> (g - 1) & 1)
        try:
            valid.add(NilpotentClass(rank=r, rank_sequence=seq))
        except ValueError:
            pass
    classes = [NilpotentClass.from_partition(p) for p in partitions_of(r)]
    assert all(c.to_partition() == p for c, p in zip(classes, partitions_of(r)))
    assert len(set(classes)) == len(classes) and set(classes) == valid


def _former_class_checks(r, seq):
    """The three checks a class used to make: first rank below the rank,
    strictly decreasing and positive, then the chain rule."""
    if not seq:
        return True
    return seq[0] < r and all(a > b for a, b in zip(seq, seq[1:])) and seq[-1] > 0 and chain_simple(r, seq)


def test_invalid_rank_sequence_rejected():
    rule = "power ranks must satisfy r - g_1 >= g_1 - g_2 >= ... >= g_s > 0"
    with pytest.raises(ValueError, match=re.escape(rule)):
        NilpotentClass(rank=3, rank_sequence=(3,))  # not nilpotent
    with pytest.raises(ValueError, match=re.escape(rule)):
        NilpotentClass(rank=3, rank_sequence=(1, 1))  # not strictly decreasing
    with pytest.raises(ValueError, match=re.escape(rule)):
        NilpotentClass(rank=4, rank_sequence=(1, 0))  # zero tail entry
    with pytest.raises(ValueError, match=re.escape(rule)):
        NilpotentClass(rank=5, rank_sequence=(4, 3))  # differences increase
    # valid convex sequences construct fine
    NilpotentClass(rank=5, rank_sequence=(2, 1))
    NilpotentClass(rank=5, rank_sequence=(3, 1))
    # the one rule accepts and refuses exactly as the former three checks
    for r in range(1, 7):
        for length in range(5):
            for seq in itertools.product(range(-1, 8), repeat=length):
                try:
                    NilpotentClass(rank=r, rank_sequence=seq)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == _former_class_checks(r, seq), (r, seq)


def test_marked_line_invariants():
    with pytest.raises(ValueError):
        MarkedLine((0, 1, 1, 2))
    assert MarkedLine((0, 1, 2)).n == 3
    line = MarkedLine(("1/2", 1, 2, 3))
    assert line.points[0] == F(1, 2)


@pytest.mark.parametrize("point", [True, 0.5])
def test_marked_line_refuses_bools_and_floats(point):
    # True is an int to Python, but no exact coordinate
    with pytest.raises(TypeError):
        MarkedLine((point, 2))


def test_type_validation(line4):
    with pytest.raises(ValueError):
        ParabolicType(line=line4, rank=2, K=4, multiplicities=((1,),) * 4, weights=((0,),) * 4)
    with pytest.raises(ValueError):
        ParabolicType(line=line4, rank=2, K=4, multiplicities=((1, 1),) * 4, weights=((1, 1),) * 4)
    with pytest.raises(ValueError):
        ParabolicType(line=line4, rank=2, K=2, multiplicities=((1, 1),) * 4, weights=((0, 2),) * 4)

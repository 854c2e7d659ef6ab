from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import random_parabolic_type
from starquiver.combinat import (
    MarkedLine,
    NilpotentClass,
    ParabolicType,
    UnknownPointError,
    chain_simple,
    check_small_weights,
    condition_spectral_top,
    ds_feasible,
    flag_dimension_vector,
    mu_eps,
    simpleness_condition,
    spectral_degrees,
    type_from_classes,
    weights_generic,
)

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
    assert flag_dimension_vector(t, 0) == (1,)
    assert flag_dimension_vector(t, 1) == ()
    assert flag_dimension_vector(t, 2) == (2, 1)
    with pytest.raises(UnknownPointError):
        flag_dimension_vector(t, 17)


def test_full_flag_rank2_step(full_flag_type):
    assert flag_dimension_vector(full_flag_type, 0) == (1,)


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
        feas = ds_feasible(classes, r)
        assert condition_spectral_top(t) == feas.feasible


def test_ds_feasible_boundary():
    c = NilpotentClass(rank=2, rank_sequence=(1,))
    rep = ds_feasible([c] * 4, 2)
    assert rep.feasible is True
    assert rep.sum_gamma1 == 4 and rep.two_r == 4
    assert rep.n_at_least_4 is True and rep.r_at_least_4 is False


def test_ds_feasible_rank5_rank1_classes():
    c = NilpotentClass(rank=5, rank_sequence=(1,))
    rep = ds_feasible([c] * 4, 5)
    assert rep.feasible is False


def test_ds_feasible_zero_classes():
    c = NilpotentClass(rank=3, rank_sequence=())
    assert ds_feasible([c] * 5, 3).feasible is False


def test_ds_feasible_rank_mismatch():
    with pytest.raises(ValueError):
        ds_feasible(
            [NilpotentClass(rank=2, rank_sequence=(1,)), NilpotentClass(rank=3, rank_sequence=(1,))],
            2,
        )


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
    t = ParabolicType(line=line4, rank=1, K=4, multiplicities=((1,),) * 4, weights=((1,),) * 4)
    assert weights_generic(t) is True


def test_partition_rank_sequence_round_trip():
    assert NilpotentClass(rank=2, rank_sequence=(1,)).to_partition() == (2,)
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
        if c.rank_sequence:
            c2 = NilpotentClass(rank=r, rank_sequence=c.rank_sequence)
            assert c2.to_partition() == parts


def partitions_of(r, largest=None):
    """Every partition of r, parts largest first."""
    if r == 0:
        yield ()
        return
    for p in range(min(r, largest or r), 0, -1):
        for rest in partitions_of(r - p, p):
            yield (p,) + rest


@st.composite
def partitions(draw, max_rank=8):
    left = draw(st.integers(1, max_rank))
    parts = []
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    return tuple(sorted(parts, reverse=True))


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


def test_invalid_rank_sequence_rejected():
    with pytest.raises(ValueError):
        NilpotentClass(rank=3, rank_sequence=(3,))  # not nilpotent
    with pytest.raises(ValueError):
        NilpotentClass(rank=3, rank_sequence=(1, 1))  # not strictly decreasing
    with pytest.raises(ValueError):
        NilpotentClass(rank=4, rank_sequence=(1, 0))  # zero tail entry
    with pytest.raises(ValueError):
        NilpotentClass(rank=5, rank_sequence=(4, 3))  # differences increase
    # valid convex sequences construct fine
    NilpotentClass(rank=5, rank_sequence=(2, 1))
    NilpotentClass(rank=5, rank_sequence=(3, 1))


def test_marked_line_invariants():
    with pytest.raises(ValueError):
        MarkedLine((0, 1, 1, 2))
    with pytest.raises(ValueError):
        MarkedLine((0, 1, 2))
    assert MarkedLine((0, 1, 2), allow_small=True).n == 3
    line = MarkedLine(("1/2", 1, 2, 3))
    assert line.points[0] == F(1, 2)


def test_type_validation(line4):
    with pytest.raises(ValueError):
        ParabolicType(line=line4, rank=2, K=4, multiplicities=((1,),) * 4, weights=((0,),) * 4)
    with pytest.raises(ValueError):
        ParabolicType(line=line4, rank=2, K=4, multiplicities=((1, 1),) * 4, weights=((1, 1),) * 4)
    with pytest.raises(ValueError):
        ParabolicType(line=line4, rank=2, K=2, multiplicities=((1, 1),) * 4, weights=((0, 2),) * 4)

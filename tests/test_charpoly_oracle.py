"""Differential tests of the integer characteristic-polynomial kernel
against the Fraction oracle in ``charpoly_oracle``, and of its evaluation
and interpolation kernel against the former Faddeev-LeVerrier over Z[z]
kept there."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import charpoly_oracle as oracle
from common import FIXTURES
from starquiver import jsonio
from starquiver import linalg_exact as ex
from starquiver.combinat import MarkedLine, ParabolicType
from starquiver.dsolve import exact_refine, flags_from_solution
from starquiver.higgs import HiggsTuple
from starquiver import spectral
from starquiver.spectral import ExactnessRequired, char_poly

GOLDEN = Path(__file__).resolve().parent / "golden"


def _flagless_tuple(points, mats):
    """An exact residue tuple on flagless points, unchecked: only the
    matrices and the points reach ``char_poly``."""
    r, n = len(mats[0]), len(points)
    sigma = ParabolicType(MarkedLine(tuple(points), allow_small=n < 4), r, 1, ((r,),) * n, ((0,),) * n)
    return HiggsTuple(sigma, mats, [[]] * n, mode="exact", check=False)


def test_oracle_on_certified_batch_up_to_rank_3(certified_batch):
    checked = 0
    for inst, out in certified_batch:
        if inst.rank > 3 or not out.success:
            continue
        sigma = inst.parabolic_type()
        h = flags_from_solution(exact_refine(out.solution, inst), sigma)
        assert char_poly(h).coeffs == oracle.char_poly(h)
        checked += 1
    assert checked >= 9


@pytest.mark.parametrize("path", [
    *sorted(FIXTURES.glob("higgs_*.json")),
    GOLDEN / "closed_form_higgs.json",
    GOLDEN / "heavy_top_higgs.json",
], ids=lambda p: p.name)
def test_oracle_on_fixture_tuples(path):
    data = jsonio.load(path)
    data.pop("splitting_type", None)  # the split-bundle fixture's residues are still a tuple
    h = jsonio.higgs_from_json(data, check=False)
    assert h.mode == "exact"
    assert char_poly(h).coeffs == oracle.char_poly(h)


def _rationals(max_den):
    return st.builds(Fraction, st.integers(-12, 12), st.integers(1, max_den))


@st.composite
def residue_tuples(draw):
    """(points, matrices, sums_to_zero): 1 to 5 distinct rational points, at
    least one of them not an integer, and rank 1 to 3 rational residues."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, 3))
    points = draw(st.lists(_rationals(6), min_size=n, max_size=n, unique=True))
    assume(any(x.denominator > 1 for x in points))
    entry = _rationals(9)
    matrix = st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r)
    zero_sum = draw(st.booleans())
    mats = draw(st.lists(matrix, min_size=n - 1 if zero_sum else n, max_size=n - 1 if zero_sum else n))
    if zero_sum:
        total = ex.mzeros(r, r)
        for m in mats:
            total = ex.madd(total, m)
        mats.append(ex.mscale(Fraction(-1), total))
    return points, mats, zero_sum


@settings(derandomize=True, max_examples=150, deadline=None)
@given(residue_tuples())
def test_char_poly_matches_oracle_on_random_tuples(case):
    points, mats, zero_sum = case
    h = _flagless_tuple(points, mats)
    if zero_sum:
        assert char_poly(h).coeffs == oracle.char_poly(h)
        return
    total = ex.mzeros(len(mats[0]), len(mats[0]))
    for m in mats:
        total = ex.madd(total, m)
    # M(z) = S z^{n-1} + lower terms for S the residue sum, so c_j(S) is the
    # z^{j(n-1)} coefficient of p_j: a sum that is not nilpotent breaks the
    # degree bound at some level, in both implementations
    if any(oracle.charpoly(total)):
        with pytest.raises(ExactnessRequired):
            char_poly(h)
        with pytest.raises(ExactnessRequired):
            oracle.char_poly(h)
        return
    # a nonzero nilpotent sum may or may not break it; both must agree
    try:
        expected = oracle.char_poly(h)
    except ExactnessRequired:
        with pytest.raises(ExactnessRequired):
            char_poly(h)
    else:
        assert char_poly(h).coeffs == expected


@st.composite
def zx_matrices(draw):
    """Square matrices over Z[z] of rank 1 to 6: entries of degree up to 0,
    1 or 4 (an empty list is zero), often with zero entries and trailing
    zero coefficients; the trace is not forced to vanish, unlike the
    pole-cleared matrix of a zero-sum tuple."""
    r = draw(st.integers(1, 6))
    top = draw(st.sampled_from([0, 1, 4]))
    coefficient = st.integers(-50, 50) | st.integers(-(2**70), 2**70)
    entry = st.lists(coefficient, max_size=top + 1) | st.just([]) | st.just([0] * (top + 1))
    return [[draw(entry) for _ in range(r)] for _ in range(r)]


def _check_zx(a):
    before = [[list(e) for e in row] for row in a]
    assert spectral._zx_charpoly(a) == [ex.ptrim(c) for c in oracle.zx_charpoly(before)]
    assert a == before


@settings(derandomize=True, max_examples=200, deadline=None)
@given(zx_matrices())
def test_zx_charpoly_matches_the_former_kernel(a):
    _check_zx(a)


@pytest.mark.parametrize("a", [
    [[[]]],  # rank 1, zero
    [[[7]]],  # rank 1, degree 0
    [[[1, 2], [0, 1]], [[3], [5, 0, 0]]],  # trailing zeros, nonzero trace
    [[[2], [1]], [[0], [3]]],  # degree 0, trace 5
    [[[0, 1] if i == j else [] for j in range(6)] for i in range(6)],  # z I at rank 6
    [[[i + j, i - j, 1] for j in range(5)] for i in range(5)],  # rank 5, degree 2
])
def test_zx_charpoly_matches_the_former_kernel_at_the_edges(a):
    _check_zx(a)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda r: st.lists(
    st.lists(st.integers(-(2**64), 2**64), min_size=r, max_size=r), min_size=r, max_size=r)))
def test_int_charpoly_matches_fraction_faddeev_leverrier(a):
    before = [row[:] for row in a]
    assert spectral._int_charpoly(a) == oracle.charpoly([[Fraction(x) for x in row] for row in a])
    assert a == before

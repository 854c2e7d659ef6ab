"""Differential tests of the integer characteristic-polynomial kernel
against the Fraction oracle in ``charpoly_oracle``."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import charpoly_oracle as oracle
from common import FIXTURES, GOLDEN, mscale
from starquiver import jsonio
from starquiver import linalg_exact as ex
from starquiver.combinat import MarkedLine, ParabolicType
from starquiver.higgs import HiggsTuple
from starquiver import spectral
from starquiver.spectral import ExactnessRequired, char_poly


def _flagless_tuple(points, mats):
    """An exact residue tuple on flagless points, unchecked: only the
    matrices and the points reach ``char_poly``."""
    r, n = len(mats[0]), len(points)
    sigma = ParabolicType(MarkedLine(tuple(points)), r, 1, ((r,),) * n, ((0,),) * n)
    return HiggsTuple(sigma, mats, [[]] * n, mode="exact", check=False)


def test_oracle_on_certified_batch_up_to_rank_3(refined_batch):
    checked = 0
    for inst, _, _, h in refined_batch:
        if inst.rank > 3:
            continue
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


def _rationals(numerators, max_den):
    return st.builds(Fraction, numerators, st.integers(1, max_den))


SMALL = st.integers(-12, 12)
# in about half of the tuples, some residue numerators are near 2^64, of either sign
LARGE = SMALL | st.integers(2**64 - 3, 2**64 + 3).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def rational_residues(draw):
    """(points, matrices, sums_to_zero): 1 to 5 distinct rational points, at
    least one of them not an integer, and rank 1 to 5 rational residues."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, 5))
    points = draw(st.lists(_rationals(SMALL, 6), min_size=n, max_size=n, unique=True))
    assume(any(x.denominator > 1 for x in points))
    entry = _rationals(draw(st.sampled_from([SMALL, LARGE])), 9)
    matrix = st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r)
    zero_sum = draw(st.booleans())
    mats = draw(st.lists(matrix, min_size=n - 1 if zero_sum else n, max_size=n - 1 if zero_sum else n))
    if zero_sum:
        total = ex.mzeros(r, r)
        for m in mats:
            total = ex.madd(total, m)
        mats.append(mscale(Fraction(-1), total))
    return points, mats, zero_sum


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rational_residues())
def test_char_poly_matches_oracle_on_random_tuples(case):
    points, mats, zero_sum = case
    h = _flagless_tuple(points, mats)
    total = ex.mzeros(len(mats[0]), len(mats[0]))
    for m in mats:
        total = ex.madd(total, m)
    if zero_sum or ex.is_zero(total):
        assert char_poly(h).coeffs == oracle.char_poly(h)
        return
    # a sum that is not zero is refused up front, whether or not it breaks
    # the oracle's degree bound (a nonzero nilpotent sum may not)
    with pytest.raises(ExactnessRequired, match="do not sum to zero"):
        char_poly(h)


@pytest.mark.parametrize("zero_sum", [True, False])
def test_char_poly_runs_one_node_per_degree(monkeypatch, zero_sum):
    # N + 1 integer nodes, N = r(n-2), when the residues sum to zero, since
    # then M's entries have degree n - 2; none when they do not
    calls = []
    kernel = spectral._int_charpoly
    monkeypatch.setattr(spectral, "_int_charpoly", lambda a: calls.append(a) or kernel(a))
    r, points = 3, [Fraction(0), Fraction(1, 2), Fraction(3), Fraction(-2, 3)]
    mats = [[[Fraction(3 * i + a - b, 1 + (a + b) % 2) for b in range(r)] for a in range(r)] for i in range(3)]
    total = ex.madd(ex.madd(mats[0], mats[1]), mats[2])
    mats.append(mscale(Fraction(-1), total) if zero_sum else ex.mzeros(r, r))
    h = _flagless_tuple(points, mats)
    if zero_sum:
        assert char_poly(h).coeffs == oracle.char_poly(h)
    else:
        assert any(oracle.charpoly(total))
        with pytest.raises(ExactnessRequired, match="do not sum to zero"):
            char_poly(h)
    assert len(calls) == (r * (len(points) - 2) + 1 if zero_sum else 0)


def test_char_poly_refuses_a_nonzero_sum_before_any_node(monkeypatch):
    # the three residues sum to E12; before the sum was decided first,
    # nodes at r(n-1) gave p_1 = -4 + 3z, p_2 = -8 + 2z + 4z^2, which no
    # degree bound caught
    calls = []
    monkeypatch.setattr(spectral, "_int_charpoly", lambda a: calls.append(a))
    mats = [[[Fraction(x) for x in row] for row in a] for a in ([[2, -2], [-1, 0]], [[-2, 0], [2, 1]], [[0, 3], [-1, -1]])]
    h = _flagless_tuple([Fraction(0), Fraction(1), Fraction(2)], mats)
    assert ex.madd(ex.madd(mats[0], mats[1]), mats[2]) == [[0, 1], [0, 0]]
    with pytest.raises(ExactnessRequired, match="the residues do not sum to zero exactly"):
        char_poly(h)
    assert calls == []


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda r: st.lists(
    st.lists(st.integers(-(2**64), 2**64), min_size=r, max_size=r), min_size=r, max_size=r)))
def test_int_charpoly_matches_fraction_faddeev_leverrier(a):
    before = [row[:] for row in a]
    assert spectral._int_charpoly(a) == oracle.charpoly([[Fraction(x) for x in row] for row in a])
    assert a == before

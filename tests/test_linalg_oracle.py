"""Differential tests of the fraction-free exact elimination and the
integer products against the Fraction oracle in ``linalg_oracle``, of
``echelon`` with ``back_substitute`` against the former interleaved
``bareiss`` kept there, properties of the integer powers, exact/float
agreement of rank profiles on integer nilpotents, and the exact Frobenius
norm against numpy's and at the edges of the float range."""

import inspect
import math
import sys
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from common import column_space, inverse
from starquiver import linalg_exact as ex
from starquiver import spectral
from starquiver.arith import EXACT
from starquiver.floatarith import FLOAT
from starquiver.combinat import NilpotentClass
from starquiver.dsolve import rank_profile

_ENTRIES = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


def _grid(m, n, entries=_ENTRIES):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)


@st.composite
def matrices(draw, m=None, n=None):
    """Small rational matrices: 0 to 5 rows and columns (no rows is ``[]``,
    no columns is a list of empty rows), half of them of full rank before up
    to two rows are replaced by combinations of the others (rank deficient),
    and now and then a zeroed row and column."""
    m = draw(st.integers(0, 5)) if m is None else m
    n = draw(st.integers(0, 5)) if n is None else n
    a = draw(_grid(m, n))
    if draw(st.booleans()):  # diagonally dominant, so of full rank
        for i in range(min(m, n)):
            a[i][i] += 50
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)) if m > 1 else []:
        c = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
        a[i] = [sum((c[t] * a[t][j] for t in range(m) if t != i), Fraction(0)) for j in range(n)]
    if m and n and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        a[i] = [Fraction(0)] * n
        for row in a:
            row[j] = Fraction(0)
    return a


def _same_outcome(fn, ref, *args):
    """``fn(*args)`` equals ``ref(*args)`` exactly, or both raise ValueError."""
    try:
        expected = ref(*args)
    except ValueError:
        with pytest.raises(ValueError):
            fn(*args)
        return False
    assert fn(*args) == expected
    return True


def _assert_kernel_matches_oracle(a):
    """``EXACT.nullspace(a)`` is the oracle's kernel up to a nonzero
    multiple of each vector, and each of its vectors is primitive in the
    integers."""
    got, ref = EXACT.nullspace(a), oracle.nullspace(a)
    assert len(got) == len(ref)
    for v, w in zip(got, ref):
        assert all(type(x) is int for x in v) and math.gcd(*v) == 1
        j = next(j for j, x in enumerate(w) if x)
        assert v[j] and [v[j] * x for x in w] == [x * w[j] for x in v]


def _rank_ref(a):
    return len(oracle.rref(a)[1])


def _bareiss_triple(a):
    """(d·rref, pivots, d) of an integer matrix from ``echelon`` and
    ``back_substitute``: with minus every column of the echelon rows on the
    right, row k of the solution is row k of d·rref, free columns and
    pivot columns alike."""
    red, pivots, d = ex.echelon(a)
    xs = ex.back_substitute(red, pivots, d, [[-x for x in row] for row in red[: len(pivots)]])
    return xs + red[len(pivots):], pivots, d


def _rref_by_back_substitution(a):
    """The reduced row echelon form of the cleared matrix, read off
    ``_bareiss_triple`` and divided by d."""
    red, pivots, d = _bareiss_triple(ex.clear(a)[0])
    return ex.divide(red, d), pivots


_inv_ref = partial(oracle.reference, inverse)
_solve_ref = partial(oracle.reference, ex.solve)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices())
# wider than the drawn matrices: rank 2, with a dependent and a zero row, so
# five kernel vectors
@example([[Fraction(x) for x in row] for row in (
    [40, -40, 0, 7, 1, 0, 3], [-13, 26, 5, 0, 40, -1, 2], [27, -14, 5, 7, 41, -1, 5], [0] * 7)])
def test_rref_rank_nullspace_match_oracle(a):
    assert _rref_by_back_substitution(a) == oracle.rref(a)
    assert ex.rank(a) == _rank_ref(a)
    _assert_kernel_matches_oracle(a)


_SMALL = st.integers(-9, 9)
_BIG = st.integers(-(2**200), 2**200)


@st.composite
def integer_matrices(draw):
    """Integer matrices of 0x0 to 7x8 (no rows is ``[]``, no columns a list
    of empty rows), with small entries or entries up to 2^200: drawn freely,
    or as a product of an m x k and a k x n factor (rank at most k), then
    with up to two rows and two columns zeroed."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    entries = draw(st.sampled_from([_SMALL, _BIG]))
    if draw(st.booleans()):
        a = draw(_grid(m, n, entries))
    else:
        k = draw(st.integers(0, min(m, n)))
        left, right = draw(_grid(m, k, entries)), draw(_grid(k, n, _SMALL))
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if k else [0] * n for row in left]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)) if m else []:
        a[i] = [0] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)) if m and n else []:
        for row in a:
            row[j] = 0
    return a


def _check_elimination(a):
    expected = oracle.bareiss(a)
    triple = _bareiss_triple(a)
    assert triple == expected  # every column, back substituted
    red, pivots, d = ex.echelon(a)
    assert (pivots, d) == expected[1:]
    assert all(type(x) is int for row in red + triple[0] for x in row)
    assert all(not any(row[: p]) and row[p] for row, p in zip(red, pivots))  # echelon form
    assert ex.is_zero(red[len(pivots):])
    assert ex.rank([[Fraction(x) for x in row] for row in a]) == len(pivots)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(integer_matrices())
def test_bareiss_and_echelon_match_the_interleaved_oracle(a):
    _check_elimination(a)


@pytest.mark.parametrize("a", [
    [],  # 0x0
    [[], [], []],  # 3x0
    [[0] * 8] * 7,  # zero 7x8
    [[0, 0, 5]],  # pivot in the last column
    [[2**200, 1], [2**200 - 1, 1]],  # det 1 from entries of 200 bits
    [[1, 2, 3], [2, 4, 6], [0, 0, 7], [3, 6, 9]],  # a swap below a zero pivot candidate
    [[i * j + (i == j) for j in range(8)] for i in range(7)],  # full row rank 7x8
])
def test_bareiss_and_echelon_match_the_interleaved_oracle_at_the_edges(a):
    _check_elimination(a)


@st.composite
def linear_systems(draw):
    """(a, b, consistent): b = a x for a drawn x when ``consistent``, else
    drawn freely (and then usually inconsistent)."""
    a = draw(matrices())
    m, n = ex.shape(a)
    k = draw(st.integers(0, 3))
    consistent = draw(st.booleans())
    if consistent:
        b = ex.mmul(a, draw(_grid(n, k))) if a else []
    else:
        b = draw(_grid(m, k))
    return a, b, consistent


@settings(derandomize=True, max_examples=300, deadline=None)
@given(linear_systems())
def test_solve_matches_oracle(case):
    a, b, consistent = case
    solved = _same_outcome(ex.solve, _solve_ref, a, b)
    assert solved or not consistent


@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrices(), st.sampled_from([0, 1, 3]), st.data())
def test_solve_with_zero_one_and_three_right_hand_columns(a, k, data):
    # back_substitute works on all right-hand columns at once
    m, n = ex.shape(a)
    b = ex.mmul(a, data.draw(_grid(n, k))) if n else [[Fraction(0)] * k for _ in range(m)]
    x = ex.solve(a, b)
    assert x == _solve_ref(a, b)
    if n:
        assert ex.shape(x) == (n, k) and ex.mmul(a, x) == b


@st.composite
def inconsistent_systems(draw):
    """(a, b): row i of a is a combination of the other rows (zero when
    m = 1), and b = a x but for one entry of row i moved by a nonzero
    amount, so that the elimination of [a | b] finds a pivot in b."""
    m, n, k = draw(st.integers(1, 5)), draw(st.integers(0, 5)), draw(st.sampled_from([1, 3]))
    a = draw(matrices(m, n))
    i = draw(st.integers(0, m - 1))
    c = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    a[i] = [sum((c[t] * a[t][j] for t in range(m) if t != i), Fraction(0)) for j in range(n)]
    b = ex.mmul(a, draw(_grid(n, k))) if n else [[Fraction(0)] * k for _ in range(m)]
    b[i][draw(st.integers(0, k - 1))] += draw(_ENTRIES.filter(bool))
    return a, b


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_backend_solve_takes_no_tolerance(backend):
    # HiggsTuple.validate is the one test of strong preservation, so
    # neither backend's solve takes a tolerance
    assert list(inspect.signature(backend.solve).parameters) == ["a", "b"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(inconsistent_systems())
def test_solve_refuses_a_pivot_in_the_right_hand_side(case):
    a, b = case
    n = ex.shape(a)[1]
    assert ex.echelon(ex.clear([ra + rb for ra, rb in zip(a, b)])[0])[1][-1] >= n
    for fn in (ex.solve, _solve_ref):
        with pytest.raises(ValueError, match="^inconsistent linear system$"):
            fn(a, b)


@st.composite
def containment_cases(draw):
    """(span, vecs): span drawn by ``matrices``, no columns included, and
    vecs of 0 to 3 columns on its rows: half of the time combinations of
    span's columns, so contained, else drawn freely, so usually not."""
    span = draw(matrices())
    m, n = ex.shape(span)
    k = draw(st.integers(0, 3))
    if n and draw(st.booleans()):
        return span, ex.mmul(span, draw(_grid(n, k)))
    return span, draw(_grid(m, k))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(containment_cases())
@example(([[], [], []], [[Fraction(1)], [Fraction(0)], [Fraction(0)]]))  # empty span, nonzero vector
@example(([[], []], [[Fraction(0)], [Fraction(0)]]))  # empty span, zero vector
@example(([[Fraction(1)], [Fraction(2)]], [[], []]))  # empty vecs
@example(([], []))  # no rows
def test_exact_contains_runs_one_echelon_and_matches_the_two_rank_rule(case):
    span, vecs = case
    with mock.patch.object(ex, "echelon", wraps=ex.echelon) as echelon:
        got = EXACT.contains(span, vecs)
    assert echelon.call_count == 1
    assert got is oracle.contains(span, vecs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: matrices(n, n)))
def test_inv_matches_oracle(a):
    assert ex.rank(a) == _rank_ref(a)
    assert _same_outcome(inverse, _inv_ref, a) == (ex.rank(a) == len(a))


def _check_int_inverse(a):
    """``int_inverse(a)`` against the Fraction ``rref`` of [a | I]: x / d is
    its right half when the left half reduces to I, and None otherwise."""
    n = len(a)
    red, pivots = oracle.rref([[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)])
    got = ex.int_inverse(a)
    if pivots[:n] != list(range(n)):
        assert got is None
        return
    x, d = got
    assert all(type(v) is int for row in x for v in row) and type(d) is int
    assert [[Fraction(v, d) for v in row] for row in x] == [row[n:] for row in red]
    assert d == ex.echelon(a)[2]  # the last pivot, det a up to sign


@st.composite
def square_integer_matrices(draw):
    """n x n integer matrices, n 0 to 6: drawn freely with small or 200-bit
    entries, diagonally dominant (nonsingular), or a product through k < n
    columns (singular)."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["free", "dominant", "low rank"]))
    if kind == "low rank" and n:
        k = draw(st.integers(0, n - 1))
        left, right = draw(_grid(n, k, _SMALL)), draw(_grid(k, n, _SMALL))
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if k else [0] * n for row in left]
    a = draw(_grid(n, n, draw(st.sampled_from([_SMALL, _BIG]))))
    if kind == "dominant":
        for i in range(n):
            a[i][i] += 2**204
    return a


@settings(derandomize=True, max_examples=300, deadline=None)
@given(square_integer_matrices())
def test_int_inverse_matches_the_oracle(a):
    _check_int_inverse(a)


@st.composite
def sylvester_pairs(draw):
    """Sylvester matrices of two monic integer polynomials of degree 1 to
    4, ascending, now and then with a common linear factor."""
    g, h = ([*draw(st.lists(_SMALL, min_size=d, max_size=d)), 1] for d in (draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    if draw(st.booleans()):
        c = draw(_SMALL)
        g, h = ex.paddmul([], g, [c, 1]), ex.paddmul([], h, [c, 1])
    return g, h


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sylvester_pairs())
def test_int_inverse_inverts_the_sylvester_matrix_of_coprime_pairs(pair):
    g, h = pair
    a = spectral._sylvester(g, h)
    coprime = len(oracle.rref([[Fraction(v) for v in row] for row in a])[1]) == len(a)
    assert (ex.int_inverse(a) is not None) == coprime
    _check_int_inverse(a)


@st.composite
def products(draw):
    """(a, b): an m x k and a k x n rational matrix, each of 0 to 5 rows
    and columns."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(matrices(m, k)), draw(matrices(k, n))


def _check_product(a, b):
    if not _same_outcome(ex.mmul, oracle.mmul, a, b):
        return
    (ai, da), (bi, db) = ex.clear(a), ex.clear(b)
    prod = ex.imul(ai, bi)
    assert all(type(x) is int for row in prod for x in row)
    assert prod == [[x * da * db for x in row] for row in oracle.mmul(a, b)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(products())
def test_products_match_oracle(case):
    _check_product(*case)


_Z = Fraction(0)


@pytest.mark.parametrize("a, b", [
    ([], []),  # 0x0 by 0x0
    ([[], []], []),  # 2x0 by 0x0: a 2x0 product
    ([[Fraction(1), Fraction(2)]], [[], []]),  # 1x2 by 2x0
    ([[_Z] * 3] * 3, [[Fraction(1, 2), Fraction(-3), Fraction(5, 7)]] * 3),  # zero factor
    ([[Fraction(1, 3)] * 2] * 3, [[_Z] * 4] * 2),  # zero factor on the right
    ([[Fraction(1, 2)]], [[Fraction(2), Fraction(1)]] * 2),  # shape mismatch
])
def test_products_match_oracle_at_the_edges(a, b):
    _check_product(a, b)


def _powers_ref(a, count):
    out, power = [], a
    for _ in range(count):
        out.append(power)
        power = oracle.mmul(power, a)
    return out


def _basis_ref(a):
    rr, piv = oracle.rref(ex.mtrans(a))
    return ex.mtrans(rr[: len(piv)]) if piv else [[] for _ in a]


def _same_basis(a, b):
    """Bases of one column space: equal widths, full column rank, and one
    canonical form (the oracle's, over Fraction)."""
    canonical = column_space(a)
    return ex.shape(a) == ex.shape(b) and len(canonical) == ex.shape(a)[1] and canonical == column_space(b)


def _check_basis(a, ref):
    """``EXACT.basis(a)`` spans ``ref``'s column space with columns of ``a``."""
    basis = EXACT.basis(a)
    assert _same_basis(basis, ref)
    assert all(col in ex.mtrans(a) for col in ex.mtrans(basis))


def _check_powers(a):
    count = len(a) + 1
    d = ex.clear(a)[1]
    powers = list(EXACT.powers(a, count))
    expected = _powers_ref(a, count)
    assert len(powers) == count
    for j, (p, q) in enumerate(zip(powers, expected), start=1):
        assert p == [[x * d**j for x in row] for row in q]
        assert EXACT.rank(p) == _rank_ref(q)
        _check_basis(p, _basis_ref(q))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: matrices(n, n)))
def test_exact_powers_rank_and_basis_match_oracle(a):
    _check_powers(a)


@pytest.mark.parametrize("a", [[], [[_Z]], [[_Z] * 3] * 3, [[Fraction(2, 3)]]])
def test_exact_powers_match_oracle_at_the_edges(a):
    _check_powers(a)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(n, n)))
def test_scaled_powers_keep_rank_and_column_space(a):
    # (D A)^j = D^j A^j: the rank and the column space do not see the scale
    for p, q in zip(EXACT.powers(a, len(a)), _powers_ref(a, len(a))):
        assert EXACT.rank(p) == EXACT.rank(q)
        assert _same_basis(EXACT.basis(p), EXACT.basis(q))
        assert _rref_by_back_substitution(ex.mtrans(p)) == _rref_by_back_substitution(ex.mtrans(q))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices())
def test_clearing_then_dividing_is_the_identity(a):
    rows, d = ex.clear(a)
    assert d > 0 and all(type(x) is int for row in rows for x in row)
    assert math.gcd(d, *(x for row in rows for x in row)) == 1  # no smaller denominator
    assert ex.divide(rows, d) == a


def test_float_powers_are_the_repeated_products():
    a = np.random.default_rng(3).standard_normal((4, 4)) + 0j
    expected = [a, a @ a, a @ a @ a]
    assert all(np.array_equal(p, q) for p, q in zip(FLOAT.powers(a, 3), expected, strict=True))


def test_elimination_matches_oracle_on_certified_batch(refined_batch):
    # the exact flags and residues of the refined batch, through every kernel
    # the flag, bridge and verification code applies to them
    checked = 0
    for inst, _, exact, h in refined_batch:
        for a, flags in zip(h.matrices, h.flags):
            chain = [ex.meye(inst.rank)] + flags
            for b in [a] + chain:
                bt = ex.mtrans(b)
                assert _rref_by_back_substitution(bt) == oracle.rref(bt)
                assert ex.rank(b) == _rank_ref(b)
                _assert_kernel_matches_oracle(b)
            for prev, cur in zip(chain, chain[1:]):
                assert _same_outcome(ex.solve, _solve_ref, prev, cur)
                assert _same_outcome(ex.solve, _solve_ref, cur, ex.mmul(a, prev))
        for p in exact.conjugators:
            assert _same_outcome(inverse, _inv_ref, p)
        checked += 1
    assert checked >= 20


@st.composite
def integer_nilpotents(draw):
    """(partition, P J P^-1): J the Jordan nilpotent of a partition of a
    rank from 1 to 5, P a product of unitriangular integer matrices, so
    that P^-1 and the nilpotent are integer matrices too."""
    r = draw(st.integers(1, 5))
    parts, left = [], r
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    partition = tuple(sorted(parts, reverse=True))
    small = st.integers(-2, 2).map(Fraction)
    lower, upper = draw(_grid(r, r, small)), draw(_grid(r, r, small))
    for i in range(r):
        lower[i][i:] = [Fraction(int(j == i)) for j in range(i, r)]
        upper[i][: i + 1] = [Fraction(0)] * i + [Fraction(1)]
    p = ex.mmul(lower, upper)
    return partition, ex.mmul(ex.mmul(p, ex.jordan_nilpotent(partition, r)), inverse(p))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(integer_nilpotents())
def test_rank_profile_exact_and_float_agree(case):
    partition, a = case
    expected = [NilpotentClass.from_partition(partition).rank_sequence]
    assert rank_profile([a], "exact") == expected
    assert rank_profile([FLOAT.from_exact(a)], "float") == expected


@pytest.mark.parametrize("op, expected", [(EXACT.add, [[2, 4], [6, 8]]), (EXACT.sub, [[0, 0], [0, 0]])])
def test_entrywise_ops_check_shapes(op, expected):
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert op(a, a) == expected
    # a smaller, a larger and a ragged operand used to be truncated by zip
    for b in ([[Fraction(1)]], [[Fraction(1), Fraction(2), Fraction(3)]] * 2, [[Fraction(1), Fraction(2)], [Fraction(3)]]):
        with pytest.raises(ValueError, match="shape mismatch"):
            op(a, b)
        with pytest.raises(ValueError, match="shape mismatch"):
            op(b, a)


@st.composite
def matrix_vector_pairs(draw):
    """An m x n rational matrix, square or not, 0 rows included, and an
    n-vector."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return draw(matrices(m, n)), m, n, draw(st.lists(_ENTRIES, min_size=n, max_size=n))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrix_vector_pairs())
def test_exact_apply_matches_float_apply(case):
    a, m, n, v = case
    exact = EXACT.apply(a, v)
    dense = np.array([[float(x) for x in row] for row in a], dtype=complex).reshape(m, n)
    floated = FLOAT.apply(dense, np.array([float(x) for x in v], dtype=complex))
    assert len(exact) == m and floated.shape == (m,)
    assert all(isinstance(x, Fraction) for x in exact)
    assert np.allclose(np.array([float(x) for x in exact]), floated, rtol=1e-12, atol=1e-12)


_WIDE = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(lambda m: st.integers(0, 5).flatmap(lambda n: _grid(m, n, _WIDE))))
def test_exact_norm_matches_numpy_on_the_float_image(a):
    # the float image of each entry is within half an ulp and numpy sums at
    # most 25 squares in floats; the exact sum leaves one rounding of its root
    want = float(np.linalg.norm(np.array([[float(x) for x in row] for row in a], dtype=float)))
    assert math.isclose(EXACT.norm(a), want, rel_tol=4 * sys.float_info.epsilon)


@pytest.mark.parametrize("a", [[], [[], []], [[Fraction(0)]], [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]])
def test_exact_norm_of_a_zero_matrix_is_exactly_zero(a):
    norm = EXACT.norm(a)
    assert norm == 0.0 and isinstance(norm, float)


@pytest.mark.parametrize(
    "a, finite",
    [
        ([[Fraction(6 * 10**188), Fraction(-4 * 10**188)], [Fraction(0), Fraction(10**188, 3)]], True),  # squares overflow
        ([[Fraction(1, 10**200), Fraction(-3, 10**200)]], True),  # squares underflow
        ([[Fraction(10**400 + 1, 10**400), Fraction(2)]], True),  # terms beyond float range, norm near 2
        ([[Fraction(35 * 10**306)] * 5] * 5, True),  # norm 1.75e308, below the largest float
        ([[Fraction(36 * 10**306)] * 5] * 5, False),  # norm 1.8e308, above it
        ([[Fraction(10**400)], [Fraction(1)]], False),  # an entry beyond float range
    ],
)
def test_exact_norm_beyond_float_squares(a, finite):
    # the true norm when a float holds it, inf when none does, never NaN or
    # OverflowError; math.hypot scales its arguments and stays within an ulp
    norm = EXACT.norm(a)
    if finite:
        floats = [float(x) for row in a for x in row]
        assert math.isfinite(norm) and math.isclose(norm, math.hypot(*floats), rel_tol=2 * sys.float_info.epsilon)
    else:
        assert norm == math.inf


def test_exact_apply_refuses_a_vector_of_the_wrong_length():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)], [Fraction(5), Fraction(6)]]
    assert EXACT.apply(a, [Fraction(1), Fraction(-1)]) == [-1, -1, -1]
    for v in ([Fraction(1)], [Fraction(1)] * 3):
        with pytest.raises(ValueError):
            EXACT.apply(a, v)
        with pytest.raises(ValueError):
            FLOAT.apply(np.ones((3, 2)), np.ones(len(v)))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_float_span_ops_take_zero_column_operands(k):
    # an operand without columns spans the zero subspace: it has rank 0,
    # adds nothing to a column space and lies inside every one
    rng = np.random.default_rng(k)
    a = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
    none = np.zeros((3, 0), dtype=complex)
    exact_none = [[] for _ in range(3)]
    exact_a = [[Fraction(int(x)) for x in row] for row in np.rint(8 * a.real)]
    assert FLOAT.rank(none) == EXACT.rank(exact_none) == 0
    assert FLOAT.rank(np.hstack([a, none])) == FLOAT.rank(a)
    assert EXACT.rank(ex.hstack([exact_a, exact_none])) == EXACT.rank(exact_a)
    assert FLOAT.contains(a, none, 1e-12) is True
    assert EXACT.contains(exact_a, exact_none) is True
    # an empty span contains only zero columns
    assert FLOAT.contains(none, a, 1e-12) is (k == 0)
    assert FLOAT.contains(none, np.zeros((3, k), dtype=complex), 0.0) is True

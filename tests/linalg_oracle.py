"""Reference elimination for differential tests.

This is the library's former exact ``rref``: Gauss-Jordan elimination over
Fraction with magnitude pivoting.  It shares no arithmetic with the
fraction-free ``echelon`` and ``back_substitute`` that
``starquiver.linalg_exact`` now eliminates with, and the reduced row
echelon form is unique, so the two must agree exactly.  ``reference`` runs
a ``linalg_exact`` function on this elimination in place of ``echelon``,
which is how the former ``solve`` and ``inv`` worked; the former ``rank``
was the pivot count of this ``rref``.

``nullspace`` is the library's former Fraction kernel, read off this
``rref`` with a 1 in each free column.  ``starquiver.arith.EXACT.nullspace``
now returns ``linalg_exact.int_kernel`` of the cleared matrix: a nonzero
multiple of each of its vectors, primitive in the integers.

``mmul`` is the library's former matrix product: one Fraction sum of
Fraction products per entry.  ``starquiver.linalg_exact.mmul`` now clears
each factor of denominators once and multiplies integers.

``bareiss`` is the library's former fraction-free Gauss-Jordan
elimination, which updated the rows above each pivot inside the forward
loop.  ``starquiver.linalg_exact`` now eliminates forward only
(``echelon``) and solves the echelon rows bottom-up afterwards
(``back_substitute``), for the right-hand columns a caller reads; d times
the reduced row echelon form is unique, so the two must agree exactly at
every column.

``contains`` is the library's former exact containment test, two ranks
compared: the columns of vecs lie in the column space of span exactly
when appending them keeps its rank.  ``starquiver.arith.EXACT.contains``
now runs one ``echelon`` of [span | vecs] and asks that no pivot fall in
the vecs columns.  Here each rank is a pivot count of ``rref``.

``root_order`` is the library's former Fraction root multiplicity:
evaluate at x, then divide synthetically by (z - x), until the value is
nonzero.  ``starquiver.spectral`` now divides integer numerators by
(b z - a) instead.
"""

import math
from fractions import Fraction
from unittest import mock

from starquiver import linalg_exact as ex
from starquiver.linalg_exact import mzeros, peval, ptrim, shape


def rref(a):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    r = [row[:] for row in a]
    m, n = shape(r)
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        # largest entry by magnitude keeps intermediate fractions tame
        best, best_val = -1, Fraction(0)
        for i in range(row, m):
            v = abs(r[i][col])
            if v > best_val:
                best, best_val = i, v
        if best < 0:
            continue
        r[row], r[best] = r[best], r[row]
        piv = r[row][col]
        r[row] = [x / piv for x in r[row]]
        for i in range(m):
            if i != row and r[i][col] != 0:
                c = r[i][col]
                r[i] = [x - c * y for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
    return r, pivots


def mmul(a, b):
    """Matrix product over Fraction."""
    m, k = shape(a)
    k2, n = shape(b)
    if k != k2:
        raise ValueError(f"shape mismatch in matrix product: {m}x{k} by {k2}x{n}")
    bt = list(zip(*b)) if n else []
    out = mzeros(m, n)
    for i in range(m):
        ai = a[i]
        for j in range(n):
            bj = bt[j]
            out[i][j] = sum(ai[t] * bj[t] for t in range(k))
    return out


def bareiss(a):
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss
    1968).  Returns (R, pivot_columns, d).

    Pivot columns are the first independent columns, left to right.  Row k
    of R (k < rank) is the pivot row of ``pivots[k]``: it holds d in its own
    pivot column and 0 in the other pivot columns; the remaining rows are
    zero.  Every entry is a minor of ``a``, so each division is exact and
    the entries stay integers; d is the pivot minor up to sign, and for an
    invertible square ``a`` elimination of ``[a | I]`` leaves ``d a^{-1}``
    on the right.
    """
    r = [list(row) for row in a]
    m, n = shape(r)
    pivots = []
    prev = 1
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        k = next((i for i in range(row, m) if r[i][col]), None)
        if k is None:
            continue
        r[row], r[k] = r[k], r[row]
        prow = r[row]
        p = prow[col]
        for i in range(m):
            if i != row:
                # rows below the pivot are zero left of col
                lo = 0 if i < row else col
                f = r[i][col]
                r[i][lo:] = [(p * x - f * y) // prev for x, y in zip(r[i][lo:], prow[lo:])]
        prev = p
        pivots.append(col)
    return r, pivots, prev


def nullspace(a):
    """Basis of the right kernel, one vector per non-pivot column."""
    n = shape(a)[1]
    r, pivots = rref(a)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(int(j == f)) for j in range(n)]
        for row, p in zip(r, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def _scaled_rref(a):
    """An ``echelon`` triple read off ``rref``: (D R, pivots, D) for the
    reduced row echelon form R of the integer matrix ``a`` and the lcm D of
    its denominators.  D R is an echelon form whose pivot rows are zero at
    the other pivots, so ``back_substitute`` reads it correctly; D need not
    be ``echelon``'s d, but ``solve`` reads only quotients by it."""
    r, pivots = rref([[Fraction(x) for x in row] for row in a])
    d = math.lcm(*(x.denominator for row in r for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in r], pivots, d


def reference(fn, *args):
    """``fn(*args)`` for a ``linalg_exact`` function, eliminating with this
    module's ``rref`` in place of ``echelon``."""
    with mock.patch.object(ex, "echelon", _scaled_rref):
        return fn(*args)


def contains(span, vecs):
    """Column space of vecs contained in column space of span: rank
    [span | vecs] == rank span."""
    return len(rref(ex.hstack([span, vecs]))[1]) == len(rref(span)[1])


def root_order(p, x):
    """Multiplicity of x as a root of p; None for the zero polynomial
    (order is unbounded)."""
    q = ptrim(list(p))
    if not q:
        return None
    order = 0
    while True:
        if peval(q, x) != 0:
            return order
        # synthetic division: q = (z - x) * out, remainder q(x) = 0
        out = [Fraction(0)] * (len(q) - 1)
        acc = q[-1]
        for i in range(len(q) - 2, -1, -1):
            out[i] = acc
            acc = q[i] + acc * x
        q = ptrim(out)
        order += 1

"""Exact linear algebra and dense univariate polynomials over Fraction.

Matrices are lists of row lists with ``fractions.Fraction`` entries.  All
elimination is fraction-free (Bareiss 1968) on integer matrices: one
forward loop, ``echelon``, keeps every entry an integer minor and never
reduces a fraction, and one back substitution, ``back_substitute``, solves
its rows bottom-up for d times the pivot unknowns, for any number of
right-hand columns at once.  ``clear`` is the one clearing rule: it writes
a rational matrix as integer rows over one denominator, and every exact
kernel that takes rational input calls it.  ``rank`` counts the pivots of
``echelon`` alone; ``solve``, the one kernel, ``int_kernel``, and the one
inverse, ``int_inverse``, read their answers off ``back_substitute``;
``Span`` decides the independence of one vector at a time in integers.
Products run on integers too: ``imul`` multiplies integer matrices, and
``mmul`` builds one Fraction per entry of the integer product.

Polynomials are dense coefficient lists in ascending order; trailing
zeros are trimmed so that ``[]`` is the zero polynomial.  ``paddmul`` is
the one schoolbook product, for rational and integer coefficients alike.
"""

import math
import operator
from fractions import Fraction


# ---------------------------------------------------------------------------
# matrix basics


def mzeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def meye(n):
    a = mzeros(n, n)
    for i in range(n):
        a[i][i] = Fraction(1)
    return a


def shape(a):
    return len(a), (len(a[0]) if a else 0)


def _same_shape(a, b, what):
    if [len(row) for row in a] != [len(row) for row in b]:
        raise ValueError("shape mismatch in matrix {}: {}x{} and {}x{}".format(what, *shape(a), *shape(b)))


def madd(a, b):
    _same_shape(a, b, "sum")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def msub(a, b):
    _same_shape(a, b, "difference")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def clear(a):
    """(rows, d): the integer rows of ``d a`` and the positive lcm d of the
    entry denominators (1 for an integer or empty matrix); the one
    clearing rule, since no rank or solution depends on the row scale."""
    d = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def divide(a, d):
    """The rational matrix ``a / d`` of an integer matrix ``a``; undoes
    ``clear``."""
    return [[Fraction(x, d) for x in row] for row in a]


def imul(a, b):
    """Product of two integer matrices, in integers."""
    m, k = shape(a)
    k2, n = shape(b)
    if k != k2:
        raise ValueError(f"shape mismatch in matrix product: {m}x{k} by {k2}x{n}")
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def mmul(a, b):
    """Product of two rational matrices: both factors are cleared of
    denominators once and multiplied in integers."""
    ai, da = clear(a)
    bi, db = clear(b)
    return divide(imul(ai, bi), da * db)


def mtrans(a):
    return [list(col) for col in zip(*a)]


def mtrace(a):
    return sum(a[i][i] for i in range(len(a)))


def hstack(mats):
    mats = [m for m in mats if shape(m)[1] > 0]
    if not mats:
        return []
    rows = len(mats[0])
    return [sum((m[i] for m in mats), []) for i in range(rows)]


def is_zero(a):
    return all(x == 0 for row in a for x in row)


# ---------------------------------------------------------------------------
# elimination


def rank(a):
    return len(echelon(clear(a)[0])[1])


def solve(a, b):
    """Solve a @ x = b exactly (b a matrix); raises if inconsistent.

    Returns one particular solution (free variables set to zero).  Scaling
    a row does not change the solutions, so ``[a | b]`` is cleared of
    denominators and eliminated once by ``echelon``; ``back_substitute``
    with the rows' -b parts on the right gives d·x at the pivots.
    """
    m, n = shape(a)
    mb, k = shape(b)
    if m != mb:
        raise ValueError("incompatible right-hand side")
    r, pivots, d = echelon(clear([a[i] + b[i] for i in range(m)])[0])
    if any(p >= n for p in pivots):
        raise ValueError("inconsistent linear system")
    xs = back_substitute(r, pivots, d, [[-v for v in row[n:]] for row in r[: len(pivots)]])
    x = mzeros(n, k)
    for p, row in zip(pivots, xs):
        x[p] = [Fraction(v, d) for v in row]
    return x


def echelon(a):
    """Forward fraction-free elimination of an integer matrix (Bareiss
    1968).  Returns (R, pivot_columns, d).

    Pivot columns are the first independent columns, left to right.  Row k
    of R (k < rank) is the pivot row of ``pivots[k]``, zero left of it; its
    pivot entry is the leading (k+1)-minor of the row-swapped ``a`` at the
    first k+1 pivot columns, so d, the last pivot (1 for rank 0), is the
    pivot minor up to sign.  The remaining rows are zero.  Only the rows
    below each pivot are updated; every entry is a minor of ``a``, so each
    division is exact.  ``rank`` needs nothing more.
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
        prow = r[row][col:]
        p = prow[0]
        for i in range(row + 1, m):
            f = r[i][col]
            r[i][col:] = [(p * x - f * y) // prev for x, y in zip(r[i][col:], prow)]
        prev = p
        pivots.append(col)
    return r, pivots, prev


def back_substitute(r, pivots, d, rhs):
    """d times the pivot unknowns x of ``R x + c = 0``, for the rows R and
    pivots of ``echelon`` (last pivot d) and ``rhs[k]`` the values of c at
    row k, one per right-hand column; unknowns off the pivots are zero.

    Bottom-up, ``xs_k = -(d c_k + sum_{l>k} R_k[p_l] xs_l) / R_k[p_k]`` on
    all right-hand columns at once.  Every caller's c is an integer
    combination of columns of R: xs is then the same combination of
    columns of -d·rref, whose entries are minors of the eliminated matrix,
    so each division is exact.
    """
    xs = [None] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        row = r[k]
        acc = [d * c for c in rhs[k]]
        for l in range(k + 1, len(pivots)):
            c = row[pivots[l]]
            if c:
                acc = [x + c * y for x, y in zip(acc, xs[l])]
        xs[k] = [-(x // row[pivots[k]]) for x in acc]
    return xs


def int_inverse(a):
    """(x, d) with x / d the inverse of the square integer matrix ``a``, or
    None when ``a`` is singular: the rows of ``echelon([a | I])`` with their
    -I parts on the right give x = d a^-1, d the last pivot (det a up to
    sign)."""
    n = len(a)
    r, pivots, d = echelon([row + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    return back_substitute(r, pivots, d, [[-v for v in row[n:]] for row in r]), d


class Span:
    """Incremental linear independence of rational vectors, in integers.

    Each vector is cleared of denominators and reduced against the rows kept
    so far, in order; row k is zero at the pivots of rows 0..k-1, so no
    reduction step undoes an earlier one.  A vector that does not reduce to
    zero is kept primitive, with its first nonzero index as its pivot.
    """

    def __init__(self):
        self.rows = []
        self.pivots = []

    def add(self, vec):
        """Keep ``vec`` if it is independent of the kept rows; True if kept."""
        v = clear([vec])[0][0]
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                p = row[piv]
                v = [p * x - c * y for x, y in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        g = math.gcd(*v)
        self.rows.append([x // g for x in v])
        self.pivots.append(piv)
        return True

    def __len__(self):
        return len(self.rows)


# ---------------------------------------------------------------------------
# nilpotent normal form


def int_kernel(a):
    """Integer basis of the right kernel of an integer matrix: one
    primitive vector per non-pivot column."""
    r, pivots, d = echelon(a)
    n = shape(a)[1]
    free = [j for j in range(n) if j not in pivots]
    xs = back_substitute(r, pivots, d, [[row[f] for f in free] for row in r[: len(pivots)]])
    basis = []
    for t, f in enumerate(free):
        v = [0] * n
        v[f] = d
        for p, x in zip(pivots, xs):
            v[p] = x[t]
        g = math.gcd(*v)
        basis.append([x // g for x in v])
    return basis


def nilpotent_jordan_basis(a):
    """(P, ranks): a conjugator P with a = P N P^{-1}, N the Jordan form of
    the nilpotent matrix ``a`` (blocks ordered largest first), and the ranks
    of the nonzero powers of ``a``, read off the kernel chain.

    Raises ValueError if ``a`` is not nilpotent.  The columns of P are
    Jordan chains, chain by chain, each listed from its top vector downward
    so that N has ones on the subdiagonal of each block.  The chains are
    built on the integer matrix ``k = D a`` (D the lcm of the denominators):
    going down from the longest length s, the tops of the chains of length
    s extend ``ker k^{s-1}`` plus the level-s vectors of longer chains to
    ``ker k^s``, greedily from an integer basis of ``ker k^s``; one ``Span``
    per length decides each candidate.  Position t of a chain of ``k`` is
    divided by ``D^t`` to give a chain of ``a``.
    """
    n = len(a)
    k, den = clear(a)
    kernels = [[]]  # kernels[j]: integer basis of ker k^j
    power = k
    while len(kernels[-1]) < n:
        if len(kernels) > n:
            raise ValueError("matrix is not nilpotent")
        kernels.append(int_kernel(power))
        power = imul(k, power)
    chains = []
    for s in range(len(kernels) - 1, 0, -1):
        span = Span()
        for v in kernels[s - 1] + [c[len(c) - s] for c in chains]:
            span.add(v)
        for v in kernels[s]:
            if span.add(v):
                chain = [v]
                for _ in range(s - 1):
                    chain.append([sum(x * y for x, y in zip(row, chain[-1])) for row in k])
                chains.append(chain)
    cols = [[Fraction(x, den**t) for x in v] for c in chains for t, v in enumerate(c)]
    return mtrans(cols), tuple(n - len(b) for b in kernels[1:-1])


def jordan_nilpotent(partition, n):
    """Nilpotent matrix with ones on block subdiagonals, block sizes from
    ``partition`` (descending), padded with zero blocks up to size n."""
    a = mzeros(n, n)
    pos = 0
    for part in partition:
        for i in range(part - 1):
            a[pos + i + 1][pos + i] = Fraction(1)
        pos += part
    return a


# ---------------------------------------------------------------------------
# dense polynomials over Fraction (ascending coefficients)


def ptrim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def paddmul(acc, p, q):
    """acc += p * q in place, extending acc with zeros as needed; returns acc."""
    acc.extend([0] * (len(p) + len(q) - 1 - len(acc)))
    for u, x in enumerate(p):
        if x:
            for v, y in enumerate(q):
                acc[u + v] += x * y
    return acc


def peval(p, x):
    """p(x); integer coefficients at an integer x give an int."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc

"""Exact linear algebra and dense univariate polynomials over Fraction.

Matrices are lists of row lists with ``fractions.Fraction`` entries.  The
sizes in this package are tiny (ranks up to ~6, systems up to a few
hundred unknowns), so plain Gaussian elimination with magnitude pivoting
is both fast enough and fully exact.

Polynomials are dense coefficient lists in ascending order; trailing
zeros are trimmed so that ``[]`` is the zero polynomial.
"""

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


def mcopy(a):
    return [row[:] for row in a]


def shape(a):
    return len(a), (len(a[0]) if a else 0)


def madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(c, a):
    return [[c * x for x in row] for row in a]


def mmul(a, b):
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


def mtrans(a):
    if not a:
        return []
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


def rref(a):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    r = mcopy(a)
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


def rank(a):
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a):
    """Basis of the right kernel, as a list of column vectors (lists)."""
    m, n = shape(a)
    if n == 0:
        return []
    if m == 0:
        return [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    r, pivots = rref(a)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def solve(a, b):
    """Solve a @ x = b exactly (b a matrix); raises if inconsistent.

    Returns one particular solution (free variables set to zero).
    """
    m, n = shape(a)
    mb, k = shape(b)
    if m != mb:
        raise ValueError("incompatible right-hand side")
    aug = [a[i] + b[i] for i in range(m)]
    r, pivots = rref(aug)
    for i in range(len(pivots), m):
        if any(r[i][j] != 0 for j in range(n, n + k)):
            raise ValueError("inconsistent linear system")
    if any(p >= n for p in pivots):
        raise ValueError("inconsistent linear system")
    x = mzeros(n, k)
    for i, p in enumerate(pivots):
        for j in range(k):
            x[p][j] = r[i][n + j]
    return x


def inv(a):
    n = len(a)
    try:
        x = solve(a, meye(n))
    except ValueError:
        raise ValueError("matrix is singular")
    if rank(a) < n:
        raise ValueError("matrix is singular")
    return x


def solve_anchored(a, anchor):
    """A point of ker(a) close to ``anchor``: free variables keep their
    anchor values, pivot variables are solved for exactly.

    Pivot columns are chosen greedily by entry magnitude, which keeps the
    correction small when ``anchor`` already nearly solves the system.
    """
    m, n = shape(a)
    r, pivots = rref(a)
    free = [j for j in range(n) if j not in pivots]
    x = [Fraction(0)] * n
    for j in free:
        x[j] = Fraction(anchor[j])
    for i, p in enumerate(pivots):
        x[p] = -sum(r[i][j] * x[j] for j in free)
    return x


# ---------------------------------------------------------------------------
# nilpotent normal form


def nilpotent_jordan_basis(a):
    """Conjugator P with a = P N P^{-1}, N the Jordan form of the
    nilpotent matrix ``a`` (blocks ordered largest first).

    Raises ValueError if ``a`` is not nilpotent.  The returned basis is a
    matrix whose columns are Jordan chains, chain by chain, each chain
    listed from its top vector downward so that N has ones on the
    subdiagonal of each block.
    """
    n = len(a)
    powers = [meye(n)]
    while not is_zero(powers[-1]):
        if len(powers) > n:
            raise ValueError("matrix is not nilpotent")
        powers.append(mmul(a, powers[-1]))
    m = len(powers) - 1  # a^m = 0, a^{m-1} != 0
    ranks = [rank(p) for p in powers]  # ranks[j] = rank(a^j)
    # number of blocks of size >= j is rank(a^{j-1}) - rank(a^j)
    chains = []
    used = []  # columns collected so far, as a matrix

    def in_span(space_cols, vec):
        if not space_cols:
            return all(x == 0 for x in vec)
        mat = [list(row) for row in zip(*space_cols)]
        aug = [row + [v] for row, v in zip(mat, vec)]
        return rank(mat) == rank(aug)

    for size in range(m, 0, -1):
        count = (ranks[size - 1] - ranks[size]) - (
            (ranks[size] - ranks[size + 1]) if size < m else 0
        )
        for _ in range(count):
            # top of chain: v with a^{size-1} v != 0, a^size v = 0, and the
            # full chain independent from what we already have
            top = None
            ker = nullspace(powers[size])
            for v in ker:
                chain = []
                w = v
                for _ in range(size):
                    chain.append(w)
                    w = [sum(a[i][j] * chain[-1][j] for j in range(n)) for i in range(n)]
                if any(x != 0 for x in chain[-1][:]) and not in_span(
                    used, chain[0]
                ):
                    cand = used + chain
                    mat = [list(row) for row in zip(*cand)]
                    if rank(mat) == len(cand):
                        top = chain
                        break
            if top is None:
                # random rational combinations of the kernel
                for trial in range(1, 200):
                    v = [Fraction(0)] * n
                    for idx, kv in enumerate(ker):
                        c = Fraction(((trial * 7 + idx * 13) % 11) - 5)
                        v = [x + c * y for x, y in zip(v, kv)]
                    chain = []
                    w = v
                    for _ in range(size):
                        chain.append(w)
                        w = [
                            sum(a[i][j] * chain[-1][j] for j in range(n))
                            for i in range(n)
                        ]
                    if all(x == 0 for x in chain[-1]):
                        continue
                    cand = used + chain
                    mat = [list(row) for row in zip(*cand)]
                    if rank(mat) == len(cand):
                        top = chain
                        break
            if top is None:
                raise ValueError("failed to complete a Jordan chain")
            used = used + top
            chains.append(top)
    cols = []
    for chain in chains:
        cols.extend(chain)
    p = [list(row) for row in zip(*cols)] if cols else meye(n)
    return p


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


def pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ptrim(out)


def peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def root_order(p, x, cap=None):
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
        if cap is not None and order >= cap:
            return order


def poly_from_roots(roots_with_mult):
    p = [Fraction(1)]
    for root, mult in roots_with_mult:
        for _ in range(mult):
            p = pmul(p, [-root, Fraction(1)])
    return p

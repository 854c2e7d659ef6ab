"""Characteristic data of residue tuples: coefficient polynomials,
vanishing orders, spectral polynomials, and an integrality test.

With marked points x_1..x_n and residues A_i, write
``M(z) = sum_i A_i prod_{k != i} (z - x_k)``, the pole-cleared matrix.
The coefficient of lambda^{r-j} in det(lambda I - M(z)) is the numerator
polynomial p_j; residues summing to zero kill the z^{n-1} terms of M, so
deg p_j <= j(n-2).  Only exact tuples have a characteristic point: the
denominator-cleared M is formed as an integer matrix at each node
z = 0..N, N = r(n-2) (a nonzero residue sum is refused first), an
integer Faddeev-LeVerrier pass gives its coefficients there, and Newton
interpolation from forward differences gives p_j, all in plain integers,
so the exact cross-check of ``ds verify --hitchin`` never loads sympy.
Membership in the admissible coefficient space means p_j vanishes at x_i
to order at least eps_j(x_i); the order at x = a/b comes from repeated
exact integer division of the denominator-cleared p_j by (b z - a).

The spectral polynomial lambda^r + sum_j p_j lambda^{r-j} is a small exact
value (``SpectralPolynomial``), the only input ``is_integral`` takes.  Its
integrality is decided in plain integers, with a certificate each time.
A few specializations z = z0 decide first when p(lambda, z0) is
irreducible, shown by the factor degrees modulo small primes.  When none
is, p is factored over Z.  Its squarefree walk over z0 = -1, -2, ...
stops at the first squarefree p(lambda, z0), or shows p not squarefree
once the discriminant in lambda has vanished more often than its degree
allows.  At that point p(lambda, z0) is factored by Cantor-Zassenhaus and
Hensel lifting, and each of its splittings is lifted (z - z0)-adically,
which yields a factor of p or shows there is none.

Levels whose coefficient space has negative degree carry the zero
polynomial identically (the level-1 trace is the universal example); the
exactness bookkeeping treats those levels as forced-zero rather than as
witnesses.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import factorial, isqrt, lcm, prod
from operator import mul
from random import Random

from . import linalg_exact as ex
from .combinat import ParabolicType, mu_eps, spectral_degrees
from .higgs import HiggsTuple


class ExactnessRequired(ValueError):
    pass


@dataclass
class HitchinPoint:
    """Numerator polynomials p_1..p_r over the marked line.

    ``coeffs[j-1]`` is the ascending coefficient list of p_j (empty list =
    zero polynomial), with Fraction entries, stored without trailing zeros.
    """

    rank: int
    points: tuple
    coeffs: list

    def __post_init__(self):
        self.points = tuple(self.points)
        self.coeffs = [ex.ptrim(list(p)) for p in self.coeffs]


def _int_charpoly(a):
    """(c_1..c_r) of det(lambda I - a) for an integer matrix, by
    Faddeev-LeVerrier: M_1 = a, c_k = -tr(M_k) / k, M_{k+1} = a (M_k + c_k I).
    Every c_k is an integer, so the division by k is exact.  Of M_r only
    the trace is read, so the last product forms only its diagonal."""
    r = len(a)
    m = [row[:] for row in a]  # c_k goes onto the diagonal of m, never of a
    trace = sum(m[i][i] for i in range(r))
    coeffs = []
    for k in range(1, r + 1):
        c = -trace // k
        coeffs.append(c)
        if k < r:
            for i in range(r):
                m[i][i] += c
            if k < r - 1:
                m = ex.imul(a, m)
                trace = sum(m[i][i] for i in range(r))
            else:
                trace = sum(x * y for row, col in zip(a, zip(*m)) for x, y in zip(row, col))
    return coeffs


def char_poly(h: HiggsTuple) -> HitchinPoint:
    """Coefficient polynomials of det(lambda I - M(z)).

    Exact tuples are computed in plain integers: with D the lcm of the
    entry denominators and E the lcm of the point denominators, the node
    value s M(t) = sum_i (D A_i) prod_{k != i} (E t - E x_k), s = D E^{n-1},
    is an integer matrix, and p_j = c_j(s M) / s^j.  The cleared residues
    must sum to zero, as ``HiggsTuple.validate`` requires; then M's entries
    have degree at most n - 2 (the residue theorem), so c_j is fixed by its
    values at the nodes t = 0..N, N = max(0, r(n-2)): the integer
    Faddeev-LeVerrier gives each value, and Newton interpolation from the
    forward differences, c_j = b_0 + z (b_1 + (z - 1)(b_2 + ...)) with
    b_k = Δ^k c_j(0) / k! an integer, gives c_j.  A float tuple, or
    residues that do not sum to zero, raise ``ExactnessRequired`` first.

    The sign convention: p_j is (-1)^j times the j-th elementary symmetric
    function of the eigenvalues of M(z), so lambda^r + sum_j p_j
    lambda^{r-j} is the characteristic polynomial.
    """
    if h.mode != "exact":
        raise ExactnessRequired("characteristic polynomials are only certified in exact mode")
    r = h.rank
    n = h.sigma.n_points
    points = h.sigma.line.points
    (ints,), e = ex.clear([points])
    rows, d = ex.clear([row for a in h.matrices for row in a])
    # entries[a][b] = (D A_1[a][b], ..., D A_n[a][b]): r x r even when n = 0
    entries = [[tuple(rows[i * r + a][b] for i in range(n)) for b in range(r)] for a in range(r)]
    if any(sum(x) for row in entries for x in row):
        raise ExactnessRequired("the residues do not sum to zero exactly")
    top = max(0, r * (n - 2))
    values = []
    for t in range(top + 1):
        gaps = [e * t - x for x in ints]
        w = [prod(gaps[:i]) * prod(gaps[i + 1 :]) for i in range(n)]
        values.append(_int_charpoly([[sum(map(mul, w, x)) for x in row] for row in entries]))
    scale = d * e ** (n - 1)
    coeffs = []
    for j, v in enumerate(zip(*values), start=1):
        b = []
        for k in range(top + 1):
            b.append(v[0] // factorial(k))
            v = [y - x for x, y in zip(v, v[1:])]
        c = []
        for k in range(top, -1, -1):  # c <- b_k + (z - k) c
            c = [0] + c
            for i in range(len(c) - 1):
                c[i] -= k * c[i + 1]
            c[0] += b[k]
        # trimmed first: at n = 0 the scale is the float 1.0
        coeffs.append([Fraction(x, scale**j) for x in ex.ptrim(c)])
    return HitchinPoint(rank=r, points=points, coeffs=coeffs)


@dataclass
class VanishingOrderReport:
    """Root orders against their minima (compare ``orders`` with ``required``), as the spectral appendix reports them."""

    orders: list  # orders[j-1][i]: int, or None for an identically zero p_j
    required: list  # required[j-1][i] = eps_j(x_i)
    member: bool
    all_exact: bool  # order == eps everywhere it is achievable, p_j = 0 where forced

    def order_table(self):
        lines = []
        for j, (row, req) in enumerate(zip(self.orders, self.required), start=1):
            cells = []
            for o, e in zip(row, req):
                s = "inf" if o is None else str(o)
                cells.append(f"{s}/{e}")
            lines.append(f"level {j}: " + "  ".join(cells))
        return "\n".join(lines)


def vanishing_orders(hp: HitchinPoint, sigma: ParabolicType) -> VanishingOrderReport:
    """Exact root orders of every p_j at every marked point, the
    membership verdict (order >= eps everywhere), and whether the order is
    exactly eps (the full-rank locus) wherever a level has sections."""
    me = mu_eps(sigma)
    degrees, _ = spectral_degrees(sigma)
    orders, required = [], []
    member = True
    all_exact = True
    for j in range(1, hp.rank + 1):
        row = _orders(hp.coeffs[j - 1], sigma.line.points)
        req_row = []
        for i, order in enumerate(row):
            eps = me[i][1][j - 1]
            req_row.append(eps)
            member = member and (order is None or order >= eps)
            if degrees[j - 1] >= 0:
                all_exact = all_exact and order == eps
            else:
                all_exact = all_exact and order is None
        orders.append(row)
        required.append(req_row)
    return VanishingOrderReport(
        orders=orders,
        required=required,
        member=member,
        all_exact=all_exact,
    )


def _orders(p, points):
    """Root order of the Fraction polynomial p at each point; None for
    every point when p is zero.  The denominators are cleared once."""
    q = ex.ptrim(ex.clear([p])[0][0])
    return [_root_order(q, x.numerator, x.denominator) if q else None for x in points]


def _root_order(q, a, b):
    """Multiplicity of a/b (b > 0, lowest terms) as a root of the nonzero
    integer polynomial q (ascending), by repeated division by b z - a from
    the top.  b z - a is primitive, so by Gauss's lemma it divides q over Q
    exactly when every step divides exactly over Z."""
    order = 0
    while len(q) > 1:
        quot = [0] * (len(q) - 1)
        carry = q[-1]
        for i in range(len(q) - 2, -1, -1):
            quot[i], rem = divmod(carry, b)
            if rem:
                return order
            carry = q[i] + a * quot[i]
        if carry:
            return order
        q = quot
        order += 1
    return order


# ---------------------------------------------------------------------------
# spectral polynomial and integrality

# the integers z0 at which the degree analysis specializes p(lambda, z):
# off the marked points 0..n-1 of the default types, where the fibre
# degenerates.  The seven points serve only that certificate; the
# squarefree walk of ``_factor`` takes as many points as the discriminant's
# degree bound asks.  In the tests, -1 decides every certified-batch
# instance and -2 the few sampled full-flag points that -1 leaves open
SPECIALIZATION_POOL = (-1, -2, -3, -4, -5, -6, -7)
# the degree analysis runs modulo the primes below this cap: a few primes
# usually decide (Musser 1978), and every instance of the acceptance batch
# is certified below 60
PRIME_CAP = 100


def _is_prime(q):
    return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))


_PRIMES = tuple(filter(_is_prime, range(PRIME_CAP)))


@dataclass(frozen=True)
class SpectralPolynomial:
    """The plane model lambda^r + sum_j p_j(z) lambda^{r-j}: ``coeffs[j-1]``
    is the trimmed ascending tuple of Fraction coefficients of p_j, and
    r = len(coeffs)."""

    coeffs: tuple


def spectral_poly(hp: HitchinPoint) -> SpectralPolynomial:
    """The plane model lambda^r + sum_j p_j(z) lambda^{r-j}, exactly the
    characteristic polynomial of the pole-cleared matrix, as exact
    coefficient lists."""
    return SpectralPolynomial(tuple(map(tuple, hp.coeffs)))


def is_integral(p: SpectralPolynomial):
    """Whether the plane spectral polynomial is squarefree and irreducible
    over the rationals: (verdict, certificate), the verdict 'integral' or
    'not_integral'.  The certificate names what decided:

    - ``(z0, l)``: p(lambda, z0) is irreducible over Q, because its
      factor-degree patterns modulo the primes up to l leave only the
      trivial subset sums {0, r} (Musser's degree analysis, with
      distinct-degree factorization over F_l).  A factorization of p into
      factors monic in lambda would specialize, so p is irreducible in
      Q[lambda, z], and squarefree.
    - ``'discriminant'``: the squarefree walk of the factorization found
      disc_lambda(p) vanishing at more of the points z0 = -1, -2, ... than
      its z-degree bound, so it is zero and p is not squarefree.
    - ``('factor', g)``: the ``SpectralPolynomial`` g, of positive degree
      below r, divides p exactly.
    - ``('hensel', z0, k)``: p(lambda, z0) is squarefree and none of its k
      splittings into two factors over Q lifts (z - z0)-adically to a
      factorization of p, so p is irreducible (k = 0: p(lambda, z0) is).
    - ``'degree'``: p has no positive degree in lambda.

    Everything runs on s^r p(lambda/s, z) = lambda^r + sum_j c_j(z)
    lambda^{r-j}, monic over Z[z] for s the lcm of the denominators, in
    plain integers.  The degree analysis at the pool points decides first;
    the factorization of ``_factor``, squarefree walk included, runs only
    when it does not.  Rational irreducibility is the desk-scale proxy
    here: absolute irreducibility is not certified.
    """
    if not p.coeffs:
        return "not_integral", "degree"
    s, c = _integer_form(p.coeffs)
    return _certify(c) or _factor(c, s)


def _integer_form(coeffs):
    """(s, [c_1..c_r]) with s^r p(lambda/s, z) = lambda^r + sum_j c_j(z)
    lambda^{r-j} for s the lcm of the denominators: integer lists, since
    s^j clears p_j."""
    s = lcm(*(c.denominator for q in coeffs for c in q))
    out = []
    for j, q in enumerate(coeffs, start=1):
        sj = s**j
        out.append([c.numerator * (sj // c.denominator) for c in q])
    return s, out


def _discriminant_bound(c):
    """A bound on the z-degree of disc_lambda: it is isobaric of weight
    r(r-1) in the c_j (c_j of weight j), so at most r(r-1) max_j deg(c_j)/j."""
    r = len(c)
    return max((r * (r - 1) * (len(q) - 1) // j for j, q in enumerate(c, start=1) if q), default=0)


def _specialize(c, z0):
    """lambda^r + sum_j c_j(z0) lambda^{r-j}, ascending."""
    return [ex.peval(q, z0) for q in reversed(c)] + [1]


def _certify(c):
    """("integral", (z0, q)) for lambda^r + sum_j c_j(z) lambda^{r-j}, r >= 1,
    when the degree analysis modulo the primes up to q shows its
    specialization at a pool point z0 irreducible; None when none does."""
    trivial = 1 | 1 << len(c)
    for z0 in SPECIALIZATION_POOL:
        f = _specialize(c, z0)
        common = -1  # bit k: some factor of f over Q may have degree k
        for q in _PRIMES:
            parts = _distinct_degree(f, q)
            if parts is None:
                continue
            sums = 1
            for d, g in parts:
                for _ in range((len(g) - 1) // d):
                    sums |= sums << d
            common &= sums
            if common == trivial:
                return "integral", (z0, q)
    return None


def _factor(c, s):
    """(verdict, certificate) for F = lambda^r + sum_j c_j(z) lambda^{r-j}
    by its factorization over Z (von zur Gathen and Gerhard, *Modern
    Computer Algebra*, ch. 14-15); s scales a factor of F back to one of
    s^-r F(s lambda, z).

    The walk over z0 = -1, -2, ... is the one squarefree test: when the
    discriminant of f = F(lambda, z0) vanishes at more points than its
    z-degree bound, it is zero and F is not squarefree ('discriminant').
    At the first point where f is squarefree, f is factored modulo an odd
    prime q where it stays squarefree, and the factors are lifted
    q-adically.  Every subset of them whose product divides f exactly is a
    splitting f = g h over Z, which is lifted (z - z0)-adically to F's
    z-degree.  A factor of F monic in lambda has z-degree at most F's (the
    Gauss norm is multiplicative), so a lift that is not a factor by then
    never becomes one, and by the uniqueness of Hensel lifts, F is
    irreducible when no splitting lifts."""
    bound = _discriminant_bound(c)
    for k, z0 in enumerate(count(-1, -1)):
        f = _specialize(c, z0)
        if not _discriminant_vanishes(f):
            break
        if k >= bound:
            return "not_integral", "discriminant"
    q, parts = next((q, parts) for q in count(3, 2) if _is_prime(q) and (parts := _distinct_degree(f, q)))
    rng = Random(q)
    factors, m = _hensel(f, [u for d, g in parts for u in _equal_degree(g, d, q, rng)], q)
    fz = [_shift(p, z0) for p in reversed(c)] + [[1]]  # F(lambda, z0 + y)
    splits = 0
    for size in range(len(factors) - 1):
        for rest in combinations(range(1, len(factors)), size):  # each splitting once: factor 0 goes to g
            chosen = (0, *rest)
            g = _product([factors[i] for i in chosen], m)
            h = _product([u for i, u in enumerate(factors) if i not in chosen], m)
            if ex.paddmul([], g, h) != f:
                continue
            splits += 1
            lift = _lift(fz, g, h)
            if lift is not None:
                d = len(g) - 1
                coeffs = tuple(tuple(Fraction(x, s**j) for x in _shift(lift[d - j], -z0)) for j in range(1, d + 1))
                return "not_integral", ("factor", SpectralPolynomial(coeffs))
    return "integral", ("hensel", z0, splits)


def _discriminant_vanishes(f):
    """Whether the monic integer polynomial f (ascending) has a repeated
    root: exactly when its Sylvester matrix with f' is singular."""
    return len(ex.echelon(_sylvester(f, [k * c for k, c in enumerate(f)][1:]))[1]) < 2 * len(f) - 3


def _distinct_degree(f, q):
    """[(d, g), ...]: g the product of the irreducible factors of degree d
    of the monic integer polynomial f modulo the prime q, monic, by
    distinct-degree factorization; None when f mod q is not squarefree."""
    f = [c % q for c in f]
    if len(_fp_gcd(f, ex.ptrim([k * c % q for k, c in enumerate(f)][1:]), q)) > 1:
        return None
    parts = []
    h = [0, 1]  # lambda^(q^d) mod f
    d = 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _fp_powmod(h, q, f, q)
        moved = h + [0] * (2 - len(h))
        moved[1] -= 1
        g = _fp_gcd(f, ex.ptrim([c % q for c in moved]), q)
        if len(g) > 1:
            parts.append((d, g))
            f = _fp_divmod(f, g, q)[0]
            h = _fp_divmod(h, f, q)[1]
    if len(f) > 1:
        parts.append((len(f) - 1, f))
    return parts


def _equal_degree(g, d, q, rng):
    """The irreducible factors of g modulo the odd prime q, for g a monic
    product of distinct irreducibles of degree d (Cantor-Zassenhaus): for a
    random a, gcd(g, a^((q^d - 1)/2) - 1) is a proper factor about half of
    the time."""
    if len(g) - 1 == d:
        return [g]
    while True:
        b = _fp_powmod(ex.ptrim([rng.randrange(q) for _ in range(len(g) - 1)]), (q**d - 1) // 2, g, q) or [0]
        b[0] = (b[0] - 1) % q
        u = _fp_gcd(g, ex.ptrim(b), q)
        if 1 < len(u) < len(g):
            return _equal_degree(u, d, q, rng) + _equal_degree(_fp_divmod(g, u, q)[0], d, q, rng)


def _hensel(f, factors, q):
    """(lifted, m): the monic factors of f modulo the prime q, lifted to
    monic factors of f modulo m, the first power of q above
    2^(deg f + 1) ||f||_2, so that symmetric residues mod m recover every
    factor of f in Z[lambda] (Mignotte's bound).  Linear Hensel lifting
    splits off one factor at a time."""
    m = q
    while m * m <= 4 ** len(f) * sum(c * c for c in f):
        m *= q
    lifted = []
    for k, g in enumerate(factors[:-1]):
        h = _product(factors[k + 1 :], q)
        x, d = ex.int_inverse(_sylvester(g, h))
        inv, dg, p = pow(d, -1, q), len(g) - 1, q
        while p < m:  # f = g h mod p, and the step makes it so mod p q
            e = [(u - v) // p * inv for u, v in zip(f, ex.paddmul([], g, h))]
            ab = [sum(a * b for a, b in zip(row, e)) % q for row in x]
            g = [u + p * v for u, v in zip(g, ab[:dg] + [0])]
            h = [u + p * v for u, v in zip(h, ab[dg:] + [0])]
            p *= q
        lifted.append(g)
        f = h
    return lifted + [f], m


def _lift(fz, g, h):
    """G with G H = F, both monic in lambda, and G = g, H = h at y = 0,
    where fz is F(lambda, z0 + y): ascending in lambda, with ascending
    coefficient lists in y.  G and H are lifted one power of y at a time
    up to F's degree in y; None when a coefficient is not an integer or
    G H != F."""
    x, d = ex.int_inverse(_sylvester(g, h))
    dg = len(g) - 1
    big_g, big_h = [[c] for c in g], [[c] for c in h]
    for k in range(1, max(map(len, fz))):
        e = [(u[k] if k < len(u) else 0) - (v[k] if k < len(v) else 0) for u, v in zip(fz, _bmul(big_g, big_h))]
        ab = [sum(a * b for a, b in zip(row, e)) for row in x]
        if any(t % d for t in ab):
            return None
        for p, t in zip(big_g[:dg] + big_h[:-1], ab):
            p.append(t // d)
    return big_g if [ex.ptrim(p) for p in _bmul(big_g, big_h)] == fz else None


def _sylvester(g, h):
    """The Sylvester matrix of g and h (ascending integer lists, nonzero
    leading coefficients): the map (a, b) -> a h + b g on ascending
    coefficients, deg a < deg g and deg b < deg h, those of a first.  It
    is invertible exactly when g and h are coprime."""
    dg, dh = len(g) - 1, len(h) - 1
    cols = [[0] * j + h + [0] * (dg - 1 - j) for j in range(dg)]
    cols += [[0] * j + g + [0] * (dh - 1 - j) for j in range(dh)]
    return ex.mtrans(cols)


def _bmul(a, b):
    """The product of two polynomials in lambda whose coefficients are
    ascending lists in y."""
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            ex.paddmul(out[i + j], u, v)
    return out


def _shift(p, a):
    """p(y + a) of the ascending list p, trimmed."""
    out = []
    for c in reversed(p):
        out = ex.paddmul([c], out, [a, 1])
    return ex.ptrim(out)


def _product(polys, m):
    """The product of integer polynomials in symmetric residues modulo the
    odd m."""
    out = [1]
    for p in polys:
        out = [(c + m // 2) % m - m // 2 for c in ex.paddmul([], out, p)]
    return out


def _fp_divmod(a, b, q):
    """Quotient and remainder of a by b over F_q (trimmed ascending lists)."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, q)
    quot = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = quot[k] = a[k + db] * inv % q
        if c:
            for i, x in enumerate(b):
                a[k + i] = (a[k + i] - c * x) % q
    return quot, ex.ptrim(a[:db])


def _fp_gcd(a, b, q):
    """Monic gcd over F_q."""
    while b:
        a, b = b, _fp_divmod(a, b, q)[1]
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _fp_powmod(a, e, f, q):
    """a^e mod f over F_q."""
    out = [1]
    while e:
        if e & 1:
            out = _fp_mulmod(out, a, f, q)
        e >>= 1
        if e:
            a = _fp_mulmod(a, a, f, q)
    return out


def _fp_mulmod(a, b, f, q):
    """a b mod f over F_q."""
    return _fp_divmod([c % q for c in ex.paddmul([], a, b)], f, q)[1]

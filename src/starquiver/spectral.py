"""Characteristic data of residue tuples: coefficient polynomials,
vanishing orders, spectral polynomials, and an integrality test.

With marked points x_1..x_n and residues A_i, write
``M(z) = sum_i A_i prod_{k != i} (z - x_k)``, the pole-cleared matrix.
The coefficient of lambda^{r-j} in det(lambda I - M(z)) is the numerator
polynomial p_j; residues summing to zero kill the z^{n-1} terms of M, so
deg p_j <= j(n-2).  Only exact tuples have a characteristic point: their
p_j come from the denominator-cleared matrix, by an integer
Faddeev-LeVerrier pass at each integer node z = 0..r·deg and Newton
interpolation from forward differences, in plain Python integers, so the
exact cross-check of ``ds verify --hitchin`` never loads sympy.
Membership in the admissible coefficient space means p_j vanishes at x_i
to order at least eps_j(x_i); the order at x = a/b comes from repeated
exact integer division of the denominator-cleared p_j by (b z - a).

The spectral polynomial lambda^r + sum_j p_j lambda^{r-j} is a small exact
value (``SpectralPolynomial``), the only input ``is_integral`` takes.  Its
integrality is certified in integers at a few specializations z = z0: an
irreducible p(lambda, z0), shown by the factor degrees modulo small
primes, or a discriminant in lambda that vanishes more often than its
degree allows.  sympy's bivariate factorization runs only when neither
decides, and sympy is imported only then, so the exact spectral checks of
the CLI do not load it.

Levels whose coefficient space has negative degree carry the zero
polynomial identically (the level-1 trace is the universal example); the
exactness bookkeeping treats those levels as forced-zero rather than as
witnesses.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from . import linalg_exact as ex
from .arith import ops
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


def _zx_charpoly(a):
    """(c_1..c_r) of det(lambda I - a) for a square matrix over Z[z], each
    a trimmed integer list, by evaluation and interpolation.

    With N = r·deg(a), every c_k has degree at most N, so its values at
    t = 0..N fix it; each value comes from the integer Faddeev-LeVerrier
    of a(t).  The forward differences of those values give the
    falling-factorial coefficients b_j = Δ^j c_k(0) / j!, integers because
    c_k has integer coefficients, and c_k = b_0 + z (b_1 + (z - 1)(b_2 + ...)).
    """
    r = len(a)
    a = [[ex.ptrim(list(e)) for e in row] for row in a]
    top = r * max(max((len(e) for row in a for e in row), default=0) - 1, 0)
    values = [_int_charpoly([[ex.peval(e, t) for e in row] for row in a]) for t in range(top + 1)]
    coeffs = []
    for v in zip(*values):
        b = []
        for j in range(top + 1):
            b.append(v[0] // factorial(j))
            v = [y - x for x, y in zip(v, v[1:])]
        p = []
        for j in range(top, -1, -1):  # p <- b_j + (z - j) p
            p = [0] + p
            for i in range(len(p) - 1):
                p[i] -= j * p[i + 1]
            p[0] += b[j]
        coeffs.append(ex.ptrim(p))
    return coeffs


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

    Exact tuples are computed directly over Z[z]: with D the lcm of the
    entry denominators and E the lcm of the point denominators,
    s M(z) = sum_i (D A_i) prod_{k != i} (E z - E x_k) for s = D E^{n-1}
    is an integer polynomial matrix, and p_j = c_j(s M) / s^j.  A level
    whose degree exceeds j(n-2), or a float tuple, raises
    ``ExactnessRequired``.

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
    factors = [[-x, e] for x in ints]
    zm = [[[] for _ in range(r)] for _ in range(r)]
    for i in range(n):
        weight = [1]
        for k, f in enumerate(factors):
            if k != i:
                weight = ex.paddmul([], weight, f)
        for row, zrow in zip(rows[i * r : (i + 1) * r], zm):
            for x, entry in zip(row, zrow):
                if x:
                    ex.paddmul(entry, [x], weight)
    scale = d * e ** (n - 1)
    coeffs = []
    for j, c in enumerate(_zx_charpoly(zm), start=1):
        p = ex.ptrim([Fraction(x, scale**j) for x in c])
        bound = j * (n - 2)
        if p and len(p) - 1 > bound:
            raise ExactnessRequired(f"level {j} coefficient has degree {len(p) - 1} > {bound}; "
                                    "the residues do not sum to zero exactly")
        coeffs.append(p)
    return HitchinPoint(rank=r, points=points, coeffs=coeffs)


def rank_profile(matrices, mode="float", tol=None):
    """Per matrix: ranks of its successive powers, stopping at zero.

    Returns tuples shaped like class rank sequences (strictly positive
    prefix); a nonnilpotent matrix yields a full-length tuple.  In float
    mode the threshold for the j-th power is ``tol`` (relative, default
    max-dimension times machine epsilon) times the j-th power of the base
    matrix's largest singular value: a near-nilpotent power must be
    compared against the base scale, not against its own vanishing norm.
    """
    o = ops(mode)
    out = []
    for a in matrices:
        a = o.coerce(a)
        scale = o.singular_scale(a)
        ranks = []
        for j, power in enumerate(o.powers(a, o.shape(a)[0]), start=1):
            rk = o.rank(power, tol, scale**j)
            if rk == 0:
                break
            ranks.append(rk)
        out.append(tuple(ranks))
    return out


@dataclass
class VanishingOrderReport:
    """Root orders against their minima; compare ``orders`` with ``required`` for where they meet."""

    orders: list  # orders[j-1][i]: int, or None for an identically zero p_j
    required: list  # required[j-1][i] = eps_j(x_i)
    degrees: list  # coefficient space degree per level
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
        degrees=degrees,
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

# the integers z0 at which the certificates specialize p(lambda, z): off the
# marked points 0..n-1 of the default types, where the fibre degenerates;
# seven of them, so the discriminant certificate decides every
# non-squarefree p whose discriminant degree bound is at most six
SPECIALIZATION_POOL = (-1, -2, -3, -4, -5, -6, -7)
# the degree analysis runs modulo the primes below this cap: a few primes
# usually decide (Musser 1978), and every instance of the acceptance batch
# is certified below 60
PRIME_CAP = 100
_PRIMES = tuple(q for q in range(2, PRIME_CAP) if all(q % d for d in range(2, int(q**0.5) + 1)))


@dataclass(frozen=True)
class SpectralPolynomial:
    """The plane model lambda^r + sum_j p_j(z) lambda^{r-j}: ``coeffs[j-1]``
    is the trimmed ascending tuple of Fraction coefficients of p_j, and
    r = len(coeffs)."""

    coeffs: tuple

    def _poly(self):
        import sympy

        r = len(self.coeffs)
        terms = {(r, 0): sympy.Integer(1)}
        for j, p in enumerate(self.coeffs, start=1):
            for k, c in enumerate(p):
                if c:
                    terms[(r - j, k)] = sympy.Rational(c.numerator, c.denominator)
        return sympy.Poly.from_dict(terms, *sympy.symbols("lam z"), domain="QQ")


def spectral_poly(hp: HitchinPoint) -> SpectralPolynomial:
    """The plane model lambda^r + sum_j p_j(z) lambda^{r-j}, exactly the
    characteristic polynomial of the pole-cleared matrix, as exact
    coefficient lists."""
    return SpectralPolynomial(tuple(map(tuple, hp.coeffs)))


def is_integral(p: SpectralPolynomial):
    """Whether the plane spectral polynomial is squarefree and irreducible
    over the rationals: (verdict, certificate).

    The verdict is 'integral', 'not_integral', or 'undetermined' when the
    fallback factorization fails.  The certificate names what decided:

    - ``(z0, l)``: p(lambda, z0) is irreducible over Q, because its
      factor-degree patterns modulo the primes up to l leave only the
      trivial subset sums {0, r} (Musser's degree analysis, with
      distinct-degree factorization over F_l).  A factorization of p into
      factors monic in lambda would specialize, so p is irreducible in
      Q[lambda, z], and squarefree.
    - ``'discriminant'``: disc_lambda(p) vanishes at more pool points than
      its z-degree bound, so it is zero and p is not squarefree.
    - ``'fallback'``: sympy's bivariate ``factor_list`` decided.
    - ``'degree'``: p has no positive degree in lambda.
    - ``None`` with 'undetermined'.

    The certificates read the coefficients of ``p`` and run on
    s^r p(lambda/s, z) = lambda^r + sum_j c_j(z) lambda^{r-j}, monic over
    Z[z] for s the lcm of the denominators, in plain integers; sympy is
    imported only by the fallback.  Rational irreducibility is the
    desk-scale proxy here: absolute irreducibility is not certified.
    """
    if not p.coeffs:
        return "not_integral", "degree"
    return _certify(_integer_form(p.coeffs)) or _factor_verdict(p._poly())


def _integer_form(coeffs):
    """c_1..c_r of s^r p(lambda/s, z) = lambda^r + sum_j c_j(z) lambda^{r-j}
    for s the lcm of the denominators: integer lists, since s^j clears p_j."""
    s = lcm(*(c.denominator for q in coeffs for c in q))
    out = []
    for j, q in enumerate(coeffs, start=1):
        sj = s**j
        out.append([c.numerator * (sj // c.denominator) for c in q])
    return out


def _certify(c):
    """(verdict, certificate) for lambda^r + sum_j c_j(z) lambda^{r-j}, r >= 1,
    from its specializations at the pool points; None when none decides."""
    r = len(c)
    # disc_lambda is isobaric of weight r(r-1) in the c_j (c_j of weight j),
    # so its z-degree is at most r(r-1) max_j deg(c_j)/j
    bound = max((r * (r - 1) * (len(q) - 1) // j for j, q in enumerate(c, start=1) if q), default=0)
    trivial = 1 | 1 << r
    vanishing = 0
    for z0 in SPECIALIZATION_POOL:
        f = [ex.peval(q, z0) for q in reversed(c)] + [1]
        common = -1  # bit k: some factor of f over Q may have degree k
        squarefree = False
        for q in _PRIMES:
            degrees = _factor_degrees(f, q)
            if degrees is None:
                continue
            squarefree = True  # f mod q is, so disc(f) != 0
            sums = 1
            for d in degrees:
                sums |= sums << d
            common &= sums
            if common == trivial:
                return "integral", (z0, q)
        if not squarefree and _discriminant_vanishes(f):
            vanishing += 1
            if vanishing > bound:
                return "not_integral", "discriminant"
    return None


def _factor_verdict(poly):
    """sympy's bivariate factorization decides: integral exactly when p is
    one irreducible factor to the first power."""
    from sympy.polys.polyerrors import BasePolynomialError

    try:
        _, factors = poly.factor_list()
    except (BasePolynomialError, NotImplementedError):  # factorization unsupported or failed
        return "undetermined", None
    nontrivial = [m for f, m in factors if f.total_degree() > 0]
    return ("integral" if nontrivial == [1] else "not_integral"), "fallback"


def _discriminant_vanishes(f):
    """Whether the monic integer polynomial f (ascending) has a repeated
    root: exactly when its Sylvester matrix with f' is singular."""
    r = len(f) - 1
    down, ddown = f[::-1], [k * c for k, c in enumerate(f)][:0:-1]
    rows = [[0] * k + down + [0] * (r - 2 - k) for k in range(r - 1)]
    rows += [[0] * k + ddown + [0] * (r - 1 - k) for k in range(r)]
    return len(ex.echelon(rows)[1]) < 2 * r - 1


def _factor_degrees(f, q):
    """Degrees of the irreducible factors of the monic integer polynomial f
    modulo the prime q, by distinct-degree factorization; None when f mod q
    is not squarefree."""
    f = [c % q for c in f]
    if len(_fp_gcd(f, ex.ptrim([k * c % q for k, c in enumerate(f)][1:]), q)) > 1:
        return None
    degrees = []
    h = [0, 1]  # lambda^(q^d) mod f
    d = 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _fp_powmod(h, q, f, q)
        moved = h + [0] * (2 - len(h))
        moved[1] -= 1
        g = _fp_gcd(f, ex.ptrim([c % q for c in moved]), q)
        if len(g) > 1:
            # g is the product of the factors of degree d
            degrees += [d] * ((len(g) - 1) // d)
            f = _fp_divmod(f, g, q)[0]
            h = _fp_divmod(h, f, q)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


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

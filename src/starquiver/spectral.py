"""Characteristic data of residue tuples: coefficient polynomials,
vanishing orders, spectral polynomials, and an integrality test.

With marked points x_1..x_n and residues A_i, write
``M(z) = sum_i A_i prod_{k != i} (z - x_k)``, the pole-cleared matrix.
The coefficient of lambda^{r-j} in det(lambda I - M(z)) is the numerator
polynomial p_j; residues summing to zero kill the z^{n-1} terms of M, so
deg p_j <= j(n-2).  Only exact tuples have a characteristic point: their
p_j come from one Faddeev-LeVerrier pass over Z[z] on the
denominator-cleared matrix, in plain Python integers, so the exact
cross-check of ``ds verify --hitchin`` never loads sympy.  Membership in
the admissible coefficient space means p_j vanishes at x_i to order at
least eps_j(x_i); the orders are computed by repeated exact division.
The integrality test runs on one sympy ``Poly``; sympy is imported on
first use, so importing the package does not pay for it.

Levels whose coefficient space has negative degree carry the zero
polynomial identically (the level-1 trace is the universal example); the
exactness bookkeeping treats those levels as forced-zero rather than as
witnesses.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import linalg_exact as ex
from .arith import ops
from .combinat import ParabolicType, condition_spectral_top, mu_eps, spectral_degrees
from .higgs import HiggsTuple


class ExactnessRequired(ValueError):
    pass


class SpectralPreconditionError(ValueError):
    pass


@dataclass
class HitchinPoint:
    """Numerator polynomials p_1..p_r over the marked line.

    ``coeffs[j-1]`` is the ascending coefficient list of p_j (empty list =
    zero polynomial), with Fraction entries.
    """

    rank: int
    points: tuple
    coeffs: list

    def __post_init__(self):
        self.points = tuple(self.points)
        n = len(self.points)
        if len(self.coeffs) != self.rank:
            raise ValueError("need one coefficient polynomial per level")
        for j, p in enumerate(self.coeffs, start=1):
            bound = j * (n - 2)
            if p and len(p) - 1 > bound:
                raise ValueError(
                    f"level {j}: degree {len(p) - 1} exceeds the bound {bound}"
                )


def _zx_mul_acc(acc, p, q):
    """acc += p * q for integer polynomials (ascending coefficient lists)."""
    acc.extend([0] * (len(p) + len(q) - 1 - len(acc)))
    for u, x in enumerate(p):
        if x:
            for v, y in enumerate(q):
                acc[u + v] += x * y
    return acc


def _zx_charpoly(a):
    """(c_1..c_r) of det(lambda I - a) for a square matrix over Z[z], by
    Faddeev-LeVerrier: M_1 = a, c_k = -tr(M_k) / k, M_{k+1} = a M_k + c_k a.
    Every c_k lies in Z[z], so the division by k is exact."""
    r = len(a)
    coeffs = []
    m = a
    for k in range(1, r + 1):
        tr = []
        for i in range(r):
            _zx_mul_acc(tr, m[i][i], [1])
        ck = [-x // k for x in tr]
        coeffs.append(ck)
        if k < r:
            prev, m = m, [[_zx_mul_acc([], ck, a[i][j]) for j in range(r)] for i in range(r)]
            for i in range(r):
                for t in range(r):
                    if a[i][t]:
                        # the last product only feeds a trace
                        for j in range(r) if k < r - 1 else (i,):
                            _zx_mul_acc(m[i][j], a[i][t], prev[t][j])
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
    e = lcm(*(x.denominator for x in points))
    d = lcm(*(x.denominator for m in h.matrices for row in m for x in row))
    factors = [[-x.numerator * (e // x.denominator), e] for x in points]
    zm = [[[] for _ in range(r)] for _ in range(r)]
    for i, a in enumerate(h.matrices):
        weight = [1]
        for k, f in enumerate(factors):
            if k != i:
                weight = _zx_mul_acc([], weight, f)
        for row, zrow in zip(a, zm):
            for x, entry in zip(row, zrow):
                if x:
                    _zx_mul_acc(entry, [x.numerator * (d // x.denominator)], weight)
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
        power = a
        for j in range(1, o.shape(a)[0] + 1):
            rk = o.relative_rank(power, tol, scale**j)
            if rk == 0:
                break
            ranks.append(rk)
            power = o.mul(power, a)
        out.append(tuple(ranks))
    return out


@dataclass
class VanishingOrderReport:
    orders: list  # orders[j-1][i]: int, or None for an identically zero p_j
    required: list  # required[j-1][i] = eps_j(x_i)
    degrees: list  # coefficient space degree per level
    member: bool
    exact: list  # exact[j-1][i]: order == eps (False when p_j = 0)
    all_exact: bool  # exact everywhere it is achievable, zero where forced

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
    membership verdict (order >= eps everywhere), and where the order is
    exactly eps (the full-rank locus)."""
    me = mu_eps(sigma)
    degrees, _ = spectral_degrees(sigma)
    orders, required, exact = [], [], []
    member = True
    all_exact = True
    for j in range(1, hp.rank + 1):
        p = hp.coeffs[j - 1]
        row, req_row, ex_row = [], [], []
        for i, x in enumerate(sigma.line.points):
            eps = me[i][1][j - 1]
            order = ex.root_order(p, x)
            row.append(order)
            req_row.append(eps)
            ok = order is None or order >= eps
            member = member and ok
            is_exact = order is not None and order == eps
            ex_row.append(is_exact)
            if degrees[j - 1] >= 0:
                all_exact = all_exact and is_exact
            else:
                all_exact = all_exact and order is None
        orders.append(row)
        required.append(req_row)
        exact.append(ex_row)
    return VanishingOrderReport(
        orders=orders,
        required=required,
        degrees=degrees,
        member=member,
        exact=exact,
        all_exact=all_exact,
    )


# ---------------------------------------------------------------------------
# spectral polynomial and integrality


def spectral_poly(hp: HitchinPoint):
    """The plane model lambda^r + sum_j p_j(z) lambda^{r-j} as a sympy
    expression in (lam, z); exactly the characteristic polynomial of the
    pole-cleared matrix."""
    import sympy

    terms = {(hp.rank, 0): sympy.Integer(1)}
    for j, p in enumerate(hp.coeffs, start=1):
        for k, c in enumerate(p):
            if c:
                terms[(hp.rank - j, k)] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly.from_dict(terms, *sympy.symbols("lam z"), domain="QQ").as_expr()


def is_integral(p):
    """'integral' when the plane spectral polynomial is squarefree and
    irreducible over the rationals; 'not_integral' with an explicit
    factorization witness otherwise; 'undetermined' only if every check is
    inconclusive.

    ``p`` is a sympy expression or ``Poly`` in (lam, z); it is converted
    once to a ``Poly`` over QQ and every check runs on that.
    Rational irreducibility is the desk-scale proxy here: absolute
    irreducibility over the algebraic closure is not certified.
    Specializing z to a rational and finding a full-degree irreducible
    univariate polynomial certifies integrality (the polynomial is monic
    in lambda); otherwise an exact bivariate factorization decides.
    """
    import sympy
    from sympy.polys.polyerrors import BasePolynomialError

    lam, z = sympy.symbols("lam z")
    poly = sympy.Poly(p, lam, z, domain="QQ")
    r = poly.degree(lam)
    if r <= 0:
        return "not_integral", poly.as_expr()
    if poly.gcd(poly.diff(lam)).total_degree() > 0:
        return "not_integral", sympy.factor(poly.as_expr())
    for z0 in (0, 1, -1, 2, -2, 3, sympy.Rational(1, 2)):
        spec = poly.eval(z, z0)
        if spec.degree() == r and spec.is_irreducible:
            return "integral", None
    try:
        _, factors = poly.factor_list()
    except (BasePolynomialError, NotImplementedError):  # factorization unsupported or failed
        return "undetermined", None
    nontrivial = [m for f, m in factors if f.total_degree() > 0]
    if nontrivial == [1]:
        return "integral", None
    return "not_integral", sympy.factor(poly.as_expr())


def sample_hitchin_point(sigma: ParabolicType, seed=0, max_retries=50):
    """Random admissible coefficient point with exact orders and an
    integral spectral polynomial, by rejection.

    Levels with negative coefficient-space degree are identically zero;
    each other level draws p_j as the forced vanishing factor times a
    random integer polynomial of the residual degree, rejected until no
    extra vanishing occurs at the marked points and the spectral
    polynomial is integral.  Returns (point, retries).
    """
    if not condition_spectral_top(sigma):
        raise SpectralPreconditionError(
            "top spectral degree is negative: the admissible space has no "
            "sections at the top level"
        )
    me = mu_eps(sigma)
    degrees, _ = spectral_degrees(sigma)
    pts = sigma.line.points
    rng = np.random.default_rng(seed)
    for attempt in range(max_retries):
        coeffs = []
        ok = True
        for j in range(1, sigma.rank + 1):
            dj = degrees[j - 1]
            if dj < 0:
                coeffs.append([])
                continue
            forced = ex.poly_from_roots(
                [(x, me[i][1][j - 1]) for i, x in enumerate(pts)]
            )
            for _ in range(20):
                q = [Fraction(int(rng.integers(-9, 10))) for _ in range(dj + 1)]
                q = ex.ptrim(q)
                if q and all(ex.peval(q, x) != 0 for x in pts):
                    break
            else:
                ok = False
                break
            coeffs.append(ex.pmul(forced, q))
        if not ok:
            continue
        hp = HitchinPoint(rank=sigma.rank, points=pts, coeffs=coeffs)
        verdict, _ = is_integral(spectral_poly(hp))
        if verdict == "integral":
            report = vanishing_orders(hp, sigma)
            if report.all_exact and report.member:
                return hp, attempt
    raise SpectralPreconditionError(
        f"no integral point with exact orders found in {max_retries} attempts"
    )

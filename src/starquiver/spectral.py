"""Characteristic data of residue tuples: coefficient polynomials,
vanishing orders, spectral polynomials, and an integrality test.

With marked points x_1..x_n and residues A_i, write
``M(z) = sum_i A_i prod_{k != i} (z - x_k)``, the pole-cleared matrix.
The coefficient of lambda^{r-j} in det(lambda I - M(z)) is the numerator
polynomial p_j; residues summing to zero kill the z^{n-1} terms of M, so
deg p_j <= j(n-2).  Membership in the admissible coefficient space means
p_j vanishes at x_i to order at least eps_j(x_i); the orders are computed
by repeated exact division, so certified answers require exact entries.

Levels whose coefficient space has negative degree carry the zero
polynomial identically (the level-1 trace is the universal example); the
exactness bookkeeping treats those levels as forced-zero rather than as
witnesses.
"""

from dataclasses import dataclass
from fractions import Fraction

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
    zero polynomial); exact entries are Fractions, floating entries are
    complex and carry no certificates.
    """

    rank: int
    points: tuple
    coeffs: list
    mode: str = "exact"

    def __post_init__(self):
        self.points = tuple(self.points)
        n = len(self.points)
        if len(self.coeffs) != self.rank:
            raise ValueError("need one coefficient polynomial per level")
        for j, p in enumerate(self.coeffs, start=1):
            bound = j * (n - 2)
            if len(p) - 1 > bound:
                raise ValueError(
                    f"level {j}: degree {len(p) - 1} exceeds the bound {bound}"
                )

    def degree_bounds(self):
        n = len(self.points)
        return [j * (n - 2) for j in range(1, self.rank + 1)]


def _sample_pool(points, count, seed=0):
    """Deterministic small-height rationals avoiding the marked points."""
    out = []
    k = 0
    taken = set(points)
    denominators = (1, 2, 3, 5, 7)
    idx = int(seed) % len(denominators)
    while len(out) < count:
        for den in denominators[idx:] + denominators[:idx]:
            for num in (k, -k) if k else (0,):
                z = Fraction(num + (1 if den > 1 else 0), den)
                if z not in taken:
                    taken.add(z)
                    out.append(z)
                    if len(out) == count:
                        return out
        k += 1
    return out


def pole_cleared_matrix(h: HiggsTuple, z):
    """M(z) = sum_i A_i prod_{k != i} (z - x_k), in the tuple's entry format."""
    o = h.ops
    gaps = [o.scalar(z) - o.scalar(x) for x in h.sigma.line.points]
    out = o.zeros(h.rank, h.rank)
    for i, a in enumerate(h.matrices):
        c = o.scalar(1)
        for k, d in enumerate(gaps):
            if k != i:
                c *= d
        out = o.add(out, o.scale(c, a))
    return out


def char_poly(h: HiggsTuple, seed=0) -> HitchinPoint:
    """Coefficient polynomials of det(lambda I - M(z)) by evaluation at
    small-height rational points followed by interpolation.

    The sign convention: p_j is (-1)^j times the j-th elementary symmetric
    function of the eigenvalues of M(z), so lambda^r + sum_j p_j
    lambda^{r-j} is the characteristic polynomial.
    """
    r = h.rank
    n = h.sigma.n_points
    top = r * max(n - 1, 1) + 1  # evaluation count covers degree n-1 slack
    samples = _sample_pool(h.sigma.line.points, top, seed)
    if h.mode == "exact":
        values = []
        for z in samples:
            m = pole_cleared_matrix(h, z)
            values.append(ex.charpoly(m))
        coeffs = []
        for j in range(1, r + 1):
            ys = [v[j - 1] for v in values]
            p = ex.lagrange_interpolate(samples, ys)
            bound = j * (n - 2)
            if len(p) - 1 > bound:
                raise ExactnessRequired(
                    f"level {j} interpolant has degree {len(p) - 1} > {bound}; "
                    "the residues do not sum to zero exactly"
                )
            coeffs.append(p)
        return HitchinPoint(rank=r, points=h.sigma.line.points, coeffs=coeffs)
    # floating screening mode: non-certifying
    zs = np.array([complex(z) for z in samples])
    vals = np.zeros((len(zs), r), dtype=complex)
    for s, z in enumerate(zs):
        m = pole_cleared_matrix(h, z)
        cp = np.poly(m)  # leading 1, then c_1..c_r
        vals[s, :] = cp[1:]
    coeffs = []
    v = np.vander(zs, len(zs), increasing=True)
    for j in range(1, r + 1):
        sol = np.linalg.solve(v, vals[:, j - 1])
        bound = j * (n - 2)
        coeffs.append(list(sol[: bound + 1]))
    return HitchinPoint(rank=r, points=h.sigma.line.points, coeffs=coeffs, mode="float")


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
    if hp.mode != "exact":
        raise ExactnessRequired("vanishing orders are only certified in exact mode")
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


def _symbols():
    """The plane coordinates (lam, z); sympy is imported on first use, so
    importing the package does not pay for it."""
    import sympy

    return sympy.symbols("lam z")


def _poly_to_sympy(p):
    import sympy

    _, z = _symbols()
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * z**k for k, c in enumerate(p)),
        sympy.Integer(0),
    )


def spectral_poly(hp: HitchinPoint):
    """The plane model lambda^r + sum_j p_j(z) lambda^{r-j} as a sympy
    expression in (lam, z); exactly the characteristic polynomial of the
    pole-cleared matrix."""
    import sympy

    if hp.mode != "exact":
        raise ExactnessRequired("spectral polynomials are only built in exact mode")
    lam, _ = _symbols()
    expr = lam**hp.rank
    for j in range(1, hp.rank + 1):
        expr = expr + _poly_to_sympy(hp.coeffs[j - 1]) * lam ** (hp.rank - j)
    return sympy.expand(expr)


def is_integral(p_expr):
    """'integral' when the plane spectral polynomial is squarefree and
    irreducible over the rationals; 'not_integral' with an explicit
    factorization witness otherwise; 'undetermined' only if every check is
    inconclusive.

    Rational irreducibility is the desk-scale proxy here: absolute
    irreducibility over the algebraic closure is not certified.
    Specializing z to a rational and finding a full-degree irreducible
    univariate polynomial certifies integrality (the polynomial is monic
    in lambda); otherwise an exact bivariate factorization decides.
    """
    import sympy

    lam, z = _symbols()
    poly = sympy.Poly(p_expr, lam, z, domain="QQ")
    r = poly.degree(lam)
    if r <= 0:
        return "not_integral", p_expr
    dlam = sympy.Poly(sympy.diff(p_expr, lam), lam, z, domain="QQ")
    g = sympy.gcd(poly, dlam)
    if sympy.total_degree(g.as_expr()) > 0:
        return "not_integral", sympy.factor(p_expr)
    for z0 in (0, 1, -1, 2, -2, 3, sympy.Rational(1, 2)):
        spec = sympy.Poly(p_expr.subs(z, z0), lam, domain="QQ")
        if spec.degree() == r and spec.is_irreducible:
            return "integral", None
    try:
        _, factors = sympy.factor_list(p_expr, lam, z, domain="QQ")
    except Exception:
        return "undetermined", None
    nontrivial = [f for f, m in factors if sympy.total_degree(f) > 0]
    total_mult = sum(m for f, m in factors if sympy.total_degree(f) > 0)
    if len(nontrivial) == 1 and total_mult == 1:
        return "integral", None
    return "not_integral", sympy.factor(p_expr)


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

"""Reference integrality test for differential tests.

``is_integral`` is the library's former ``is_integral``, which ran every
check in sympy: a squarefree ``gcd`` with the lambda-derivative,
irreducibility of p(lambda, z0) at seven rational z0, then the bivariate
``factor_list``.  ``starquiver.spectral`` now decides in integers alone.
The oracle's specialization check assumes p monic in lambda (a factor in z
alone escapes it), so the differential tests feed it monic polynomials.
It returns the verdict alone.  ``factor_verdict`` is the bare
``factor_list`` rule, and ``check_certificate`` checks that a factor
certificate of the library divides its polynomial exactly.

``spectral_of`` turns a monic expression into the ``SpectralPolynomial``
that the library's ``is_integral`` takes, and ``as_expr`` turns one back
into an expression.
"""

from fractions import Fraction

import sympy
from sympy.polys.polyerrors import BasePolynomialError

from starquiver import linalg_exact as ex
from starquiver.spectral import SpectralPolynomial

LAM, Z = sympy.symbols("lam z")


def spectral_of(expr):
    """The ``SpectralPolynomial`` of an expression in (lam, z) that is monic
    in lam."""
    poly = sympy.Poly(expr, LAM, Z, domain="QQ")
    r = poly.degree(LAM)
    terms = dict(poly.terms())
    assert {m: c for m, c in terms.items() if m[0] == r} == {(r, 0): 1}, f"{expr} is not monic in lam"
    coeffs = [[Fraction(0)] * (poly.degree(Z) + 1) for _ in range(r)]
    for (a, b), c in terms.items():
        if a < r:
            coeffs[r - a - 1][b] = Fraction(int(c.p), int(c.q))
    return SpectralPolynomial(tuple(tuple(ex.ptrim(q)) for q in coeffs))


def as_expr(p):
    """The ``SpectralPolynomial`` p as a sympy expression in (lam, z)."""
    r = len(p.coeffs)
    levels = [sum(sympy.Rational(c.numerator, c.denominator) * Z**k for k, c in enumerate(q)) for q in p.coeffs]
    return LAM**r + sum(c * LAM ** (r - j) for j, c in enumerate(levels, start=1))


def factor_verdict(expr):
    """'integral' exactly when sympy's ``factor_list`` of the expression in
    (lam, z) has one nonconstant factor, of multiplicity 1."""
    _, factors = sympy.Poly(expr, LAM, Z, domain="QQ").factor_list()
    return "integral" if [m for f, m in factors if f.total_degree() > 0] == [1] else "not_integral"


def check_certificate(expr, verdict, certificate):
    """A ``('factor', g)`` certificate comes with 'not_integral', and g
    divides the expression exactly, with a degree in lam strictly between
    0 and the expression's."""
    if not (isinstance(certificate, tuple) and certificate[0] == "factor"):
        return
    assert verdict == "not_integral"
    poly, g = sympy.Poly(expr, LAM, Z, domain="QQ"), sympy.Poly(as_expr(certificate[1]), LAM, Z, domain="QQ")
    assert 0 < g.degree(LAM) < poly.degree(LAM)
    assert poly.rem(g).is_zero


def is_integral(p):
    """'integral', 'not_integral' or 'undetermined' for a sympy expression
    or ``Poly`` in (lam, z)."""
    poly = sympy.Poly(p, LAM, Z, domain="QQ")
    r = poly.degree(LAM)
    if r <= 0:
        return "not_integral"
    if poly.gcd(poly.diff(LAM)).total_degree() > 0:
        return "not_integral"
    for z0 in (0, 1, -1, 2, -2, 3, sympy.Rational(1, 2)):
        spec = poly.eval(Z, z0)
        if spec.degree() == r and spec.is_irreducible:
            return "integral"
    try:
        _, factors = poly.factor_list()
    except (BasePolynomialError, NotImplementedError):
        return "undetermined"
    nontrivial = [m for f, m in factors if f.total_degree() > 0]
    return "integral" if nontrivial == [1] else "not_integral"

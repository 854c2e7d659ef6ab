"""The integer integrality certificates, the integer factorization behind
them and vanishing orders against their oracles: the former sympy
``is_integral`` and sympy's ``factor_list`` in ``integral_oracle``, and the
former Fraction ``root_order`` in ``linalg_oracle``."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import integral_oracle as oracle
from common import GOLDEN, pmul, poly_from_roots
from linalg_oracle import root_order
from starquiver import jsonio
from starquiver import linalg_exact as ex
from starquiver import spectral
from starquiver.spectral import char_poly, is_integral, spectral_poly, vanishing_orders

LAM, Z = oracle.LAM, oracle.Z


def test_certificates_match_oracle_on_certified_batch(refined_batch):
    for inst, _, _, h in refined_batch:
        sigma = inst.parabolic_type()
        hp = char_poly(h)
        sp = spectral_poly(hp)
        verdict, certificate = is_integral(sp)
        assert verdict == oracle.is_integral(oracle.as_expr(sp)) == "integral"
        assert certificate[0] in spectral.SPECIALIZATION_POOL  # a specialization decides every batch instance
        rep = vanishing_orders(hp, sigma)
        assert rep.orders == [[root_order(p, x) for x in sigma.line.points] for p in hp.coeffs]


@pytest.mark.parametrize("name,verdict", [("closed_form_higgs.json", "integral"), ("heavy_top_higgs.json", "not_integral")])
def test_certificates_match_oracle_on_golden_tuples(name, verdict):
    h = jsonio.higgs_from_json(jsonio.load(GOLDEN / name))
    hp = char_poly(h)
    sp = spectral_poly(hp)
    assert is_integral(sp)[0] == oracle.is_integral(oracle.as_expr(sp)) == verdict
    rep = vanishing_orders(hp, h.sigma)
    assert rep.orders == [[root_order(p, x) for x in h.sigma.line.points] for p in hp.coeffs]


def _expr(coeffs):
    """lam^r + sum_j c_j(z) lam^{r-j} for integer lists c_j."""
    r = len(coeffs)
    return LAM**r + sum(sum(c * Z**k for k, c in enumerate(q)) * LAM ** (r - j) for j, q in enumerate(coeffs, start=1))


_MONIC = st.lists(st.lists(st.integers(-4, 4), max_size=3), min_size=1, max_size=3).map(_expr)


@st.composite
def monic_bivariates(draw):
    """Monic integer polynomials in lam over Z[z]: one random factor, a
    product of two, a square times a factor, or a power of lam."""
    kind = draw(st.sampled_from(["single", "product", "square", "power"]))
    if kind == "power":
        return LAM ** draw(st.integers(1, 5))
    f = draw(_MONIC)
    if kind == "single":
        return f
    g = draw(_MONIC)
    return f * g if kind == "product" else f**2 * g


@settings(max_examples=80, derandomize=True, deadline=None)
@given(expr=monic_bivariates())
def test_is_integral_matches_oracle_on_monic_bivariates(expr):
    expr = sympy.expand(expr)
    assert is_integral(oracle.spectral_of(expr))[0] == oracle.is_integral(expr)


# the polynomials that the former sympy factorization received from the
# spectral, oracle, acceptance, golden and CLI tests, which had
# factor_list decide them: not squarefree, reducible and squarefree, or
# irreducible without a specialization certificate;
# (lam^2 - z)(lam^2 - z - 1) is the seventh
_RECORDED = [
    "lam**2 - z**2",
    "lam**2 - z**7 - 28*z**6 - 322*z**5 - 1960*z**4 - 6769*z**3 - 13133*z**2 - 13068*z - 5040",
    "lam**2 - z**4 + 6*z**3 - 11*z**2 + 6*z",
    "lam**4 + 8*lam**2 + 12",
    "lam**4 - 10*lam**2 + 1",
    "lam**4 + 1",
    "lam**4 - 2*lam**2*z - lam**2 + z**2 + z",
    "lam**2 - z**7 - 28*z**6 - 322*z**5 - 1960*z**4 - 6769*z**3 - 13132*z**2 - 13068*z - 5040",
    (
        "lam**5 - 4*lam**4*z**2 + lam**4*z - 4*lam**4 - 16*lam**3*z**3 + 12*lam**3*z**2 + 12*lam**3*z"
        " - 3*lam**3 + 48*lam**2*z**3 + 14*lam**2*z**2 - 49*lam**2*z + 18*lam**2 + 32*lam*z**5 - 4*lam*z**4"
        " - 60*lam*z**3 - lam*z**2 + 12*lam*z - 16*z**6 - 28*z**5 - 8*z**4 + 5*z**3 + 2*z**2"
    ),
    (
        "lam**5 + 4*lam**4*z**2 + 4*lam**4*z - 4*lam**4 - lam**3*z**2 - 4*lam**3*z + 3*lam**3 + 3*lam**2*z**2"
        " - 4*lam**2*z - 4*lam**2 + 12*lam*z**4 - 4*lam*z**3 - 44*lam*z**2 + 16*lam - 3*z**4 - 8*z**3"
        " + 29*z**2 + 4*z - 12"
    ),
    (
        "lam**3 - 2*lam**2*z**2 + 2*lam**2*z - 4*lam**2 + lam*z**4 - 2*lam*z**3 + 5*lam*z**2 - 4*lam*z"
        " + 4*lam"
    ),
    "lam**3 - lam**2*z**2 + 2*lam**2*z + 2*lam**2 - 4*lam*z - 2*lam",
    (
        "lam**8 - 3*lam**7*z - 3*lam**7 - 6*lam**6*z + 3*lam**6 + 18*lam**5*z**2 - 18*lam**5 + 9*lam**4*z**2"
        " - 9*lam**4 - 27*lam**3*z**3 + 27*lam**3*z**2 + 27*lam**3*z - 27*lam**3 - 27*lam**2*z**2"
        " + 54*lam**2*z - 27*lam**2"
    ),
    (
        "lam**8 - 3*lam**7*z - 3*lam**7 - 6*lam**6*z + 3*lam**6 + 18*lam**5*z**2 - 6*lam**5*z - 24*lam**5"
        " + 27*lam**4*z**2 + 36*lam**4*z + 9*lam**4 - 27*lam**3*z**3 + 45*lam**3*z**2 + 45*lam**3*z"
        " - 27*lam**3 - 54*lam**2*z**3 - 72*lam**2*z**2 + 126*lam**2*z + 36*lam**2 - 27*lam*z**3"
        " - 135*lam*z**2 - 81*lam*z + 27*lam - 27*z**2 - 54*z - 27"
    ),
    (
        "lam**6 - 9*lam**5*z - 9*lam**5 + 27*lam**4*z**2 + 54*lam**4*z + 18*lam**4 - 27*lam**3*z**3"
        " - 81*lam**3*z**2 - 27*lam**3*z + 27*lam**3 - 81*lam**2*z**2 - 162*lam**2*z - 54*lam**2 - 81*lam*z"
        " - 81*lam - 27"
    ),
    "lam**6 - 6*lam**5*z - 6*lam**5 + 9*lam**4*z**2 + 18*lam**4*z + 9*lam**4",
    (
        "lam**4 + lam**3*z**2 - 4*lam**3*z - 2*lam**2*z**2 - 11*lam**2*z - 4*lam**2 - 8*lam*z**2 - 6*lam*z"
        " + 4*lam + 8"
    ),
    (
        "lam**5 + 3*lam**4*z**2 - 4*lam**4*z - 9*lam**4 - 24*lam**3*z**2 + 26*lam**3*z + 26*lam**3"
        " - 18*lam**2*z**3 + 78*lam**2*z**2 - 42*lam**2*z - 26*lam**2 + 72*lam*z**3 - 111*lam*z**2 + 2*lam*z"
        " + 9*lam + 27*z**4 - 54*z**3 + 18*z**2 + 2*z - 1"
    ),
    (
        "lam**5 + 3*lam**4*z**2 - 4*lam**4*z - 9*lam**4 - 24*lam**3*z**2 + 32*lam**3*z + 16*lam**3"
        " + 24*lam**2*z**2 - 32*lam**2*z + 24*lam**2 + 96*lam*z**2 - 128*lam*z - 16*lam + 48*z**2 - 64*z - 16"
    ),
    (
        "lam**6 - 4*lam**5*z**2 - 9*lam**5 + 32*lam**4*z**2 + 12*lam**4 - 32*lam**3*z**2 + 56*lam**3"
        " - 128*lam**2*z**2 - 48*lam**2 - 64*lam*z**2 - 144*lam - 64"
    ),
    (
        "lam**6 - 12*lam**5*z**2 - 3*lam**5 + 48*lam**4*z**4 + 24*lam**4*z**2 - 9*lam**4 - 64*lam**3*z**6"
        " - 48*lam**3*z**4 + 84*lam**3*z**2 + 23*lam**3 - 192*lam**2*z**4 - 96*lam**2*z**2 + 36*lam**2"
        " - 192*lam*z**2 - 48*lam - 64"
    ),
    (
        "lam**6 - 12*lam**5*z**2 - 3*lam**5 + 48*lam**4*z**4 + 16*lam**4*z**2 - 3*lam**4 - 64*lam**3*z**6"
        " + 16*lam**3*z**4 + 52*lam**3*z**2 + 11*lam**3 - 128*lam**2*z**6 - 144*lam**2*z**4 - 16*lam**2*z**2"
        " + 3*lam**2 - 64*lam*z**6 - 176*lam*z**4 - 76*lam*z**2 - 9*lam - 64*z**4 - 32*z**2 - 4"
    ),
    "lam**5 - 2*lam**4*z + lam**3*z**2",
    "lam**3 - 4*lam**2*z**2 - lam**2*z - lam**2",
    (
        "lam**5 + lam**4*z + 3*lam**4 - 12*lam**3*z**2 + 17*lam**3*z - 2*lam**3 - 8*lam**2*z**2 + 13*lam**2*z"
        " - 3*lam**2 - 9*lam*z**2 + 15*lam*z - 4*lam - 6*z**2 + 8*z - 2"
    ),
    (
        "lam**5 + lam**4*z + 3*lam**4 - 12*lam**3*z**2 + 17*lam**3*z - 2*lam**3 - 8*lam**2*z**2 + 10*lam**2*z"
        " - 2*lam**2"
    ),
    "lam**6 + 8*lam**5*z - 2*lam**5 + 16*lam**4*z**2 - 8*lam**4*z + lam**4",
    "lam**4 + 4*lam**3*z - lam**3",
    (
        "lam**4 - 2*lam**3*z**2 + 4*lam**3*z + 6*lam**3 - 8*lam**2*z**2 + 20*lam**2*z + 12*lam**2"
        " - 8*lam*z**3 + 8*lam*z**2 + 24*lam*z + 8*lam"
    ),
    (
        "lam**4 - 2*lam**3*z**2 + 4*lam**3*z + 2*lam**3 + 4*lam**2*z + 4*lam**2 - 8*lam*z**3 + 8*lam*z**2"
        " + 24*lam*z + 8*lam"
    ),
    "lam**6 + 8*lam**4*z + 8*lam**4 + 16*lam**2*z**2 + 32*lam**2*z + 16*lam**2",
    "lam**2 + 2*lam*z**2 - lam*z - 3*lam - 3*z**4 - 7*z**3 - 11*z**2 - 3*z",
    "lam**2 + 3*lam*z**2 + 2*lam*z + 3*z**3 + z**2",
    "lam**3 + lam**2 + 4*lam*z**2 + 3*lam*z + lam + 4*z**2 + 3*z + 1",
    "lam**3 + 3*lam**2*z + lam**2 + 3*lam*z + lam",
    "lam**2 + 4*lam*z**2 + 4*lam*z",
    "lam**3 + lam**2*z - 4*lam*z**2 - lam*z - 2*lam - 4*z**3 - z**2 - 2*z",
    "lam**4 - 8*lam**2*z**2 - 2*lam**2*z - 4*lam**2 + 16*z**4 + 8*z**3 + 17*z**2 + 4*z + 4",
    "lam**4 - 8*lam**2*z**2 - 2*lam**2*z - 2*lam**2 + 16*z**4 + 8*z**3 + 9*z**2 + 2*z",
    "lam**4 - 8*lam**2*z**2 - 5*lam**2*z - 4*lam**2 + 16*z**4 + 20*z**3 + 20*z**2 + 10*z + 4",
    "lam**4 - 4*lam**2*z**2 - 4*lam**2*z - 2*lam**2",
    "lam**4 - 8*lam**2*z**2 - 8*lam**2*z - 4*lam**2 + 16*z**4 + 32*z**3 + 32*z**2 + 16*z + 4",
    "lam**4 - 6*lam**2*z**2 - 8*lam**2*z - 4*lam**2 + 8*z**4 + 24*z**3 + 28*z**2 + 16*z + 4",
    (
        "lam**9 - lam**8*z + 5*lam**8 - lam**7*z**2 - 6*lam**7*z - 8*lam**7 - 7*lam**6*z**2 + 12*lam**6*z"
        " - 33*lam**6 - 14*lam**5*z**2 + 56*lam**5*z + 33*lam**5 - 8*lam**4*z**3 + 2*lam**4*z**2"
        " - 85*lam**4*z - 105*lam**4 - 24*lam**3*z**3 + 83*lam**3*z**2 + 110*lam**3*z + 62*lam**3"
        " + 24*lam**2*z**3 + 5*lam**2*z**2 - 138*lam**2*z - 71*lam**2 - 16*lam*z**4 + 8*lam*z**3"
        " + 40*lam*z**2 + 56*lam*z + 20*lam + 16*z**4 + 48*z**3 - 12*z**2 - 40*z - 12"
    ),
    (
        "lam**9 - 3*lam**8*z - 9*lam**8 + 24*lam**7*z + 33*lam**7 + 5*lam**6*z**3 - 69*lam**6*z - 72*lam**6"
        " - 30*lam**5*z**3 - 15*lam**5*z**2 + 96*lam**5*z + 120*lam**5 - 3*lam**4*z**5 + 60*lam**4*z**3"
        " + 84*lam**4*z**2 - 96*lam**4*z - 153*lam**4 - lam**3*z**6 + 12*lam**3*z**5 + 15*lam**3*z**4"
        " - 58*lam**3*z**3 - 144*lam**3*z**2 + 60*lam**3*z + 143*lam**3 + 3*lam**2*z**6 - 9*lam**2*z**5"
        " - 54*lam**2*z**4 + 30*lam**2*z**3 + 114*lam**2*z**2 + 33*lam**2*z - 117*lam**2 - 3*lam*z**6"
        " - 6*lam*z**5 + 36*lam*z**4 + 48*lam*z**3 - 111*lam*z**2 - 18*lam*z + 54*lam + z**6 + 6*z**5"
        " + 3*z**4 - 28*z**3 - 9*z**2 + 54*z - 27"
    ),
    (
        "lam**7 - 2*lam**6*z - 5*lam**6 - lam**5*z**2 + 8*lam**5*z + 7*lam**5 + 2*lam**4*z**3 + lam**4*z**2"
        " - 2*lam**4*z - 5*lam**4 + lam**3*z**4 - 2*lam**3*z**3 - 2*lam**3*z**2 - 10*lam**3*z + 4*lam**3"
        " + lam**2*z**4 - 8*lam**2*z**3 + 10*lam**2*z**2 - 2*lam**2*z + 10*lam**2 - 4*lam*z**3 + 18*lam*z**2"
        " - 16*lam*z - 3*lam + 4*z**2 - 12*z + 9"
    ),
    (
        "lam**7 - 2*lam**6*z - 5*lam**6 + lam**5*z**2 + 8*lam**5*z - 3*lam**5 - 3*lam**4*z**2 + 8*lam**4*z"
        " + 15*lam**4 - 4*lam**3*z**2 - 20*lam**3*z + 39*lam**3 + 8*lam**2*z**2 - 42*lam**2*z + 45*lam**2"
        " + 12*lam*z**2 - 36*lam*z + 27*lam + 4*z**2 - 12*z + 9"
    ),
]


def _kernel(expr):
    """The factorization's verdict on a monic expression in (lam, z), with
    its certificate checked; the specializations are left out."""
    s, c = spectral._integer_form(oracle.spectral_of(expr).coeffs)
    verdict, certificate = spectral._factor(c, s)
    oracle.check_certificate(expr, verdict, certificate)
    return verdict


@pytest.mark.parametrize("text", _RECORDED, ids=[f"recorded{k}" for k in range(len(_RECORDED))])
def test_factorization_matches_factor_list_on_recorded_inputs(text):
    expr = sympy.sympify(text, locals={"lam": LAM, "z": Z})
    assert _kernel(expr) == oracle.factor_verdict(expr)


def test_an_integer_lift_is_no_factor_unless_it_divides():
    # lam^2 - lam - (z + 1) is lam (lam - 1) at z0 = -1, and that splitting
    # lifts to the roots (1 +- sqrt(1 + 4y))/2, y = z + 1, power series with
    # integer (Catalan) coefficients: only the product check refuses them
    assert _kernel(LAM**2 - LAM - Z - 1) == oracle.factor_verdict(LAM**2 - LAM - Z - 1) == "integral"


@st.composite
def products_and_irreducibles(draw):
    """Monic integer polynomials of lam-degree at most 5 and z-degree at
    most 6: one random factor, a product of two, a product of two plus
    z + 1 times a random rest, or a square times a factor."""
    def factor(degree, z_degree):
        return _expr(draw(st.lists(st.lists(st.integers(-4, 4), max_size=z_degree + 1), min_size=degree, max_size=degree)))

    degree = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["single", "product", "split at -1", "square"]))
    if kind == "single" or degree == 1:
        return factor(degree, 6)
    if kind != "square":
        d = draw(st.integers(1, degree - 1))
        if kind == "product":
            return factor(d, 3) * factor(degree - d, 3)
        # reducible at z = -1, the first specialization point, and as a
        # rule irreducible, so the splitting there fails to lift
        return factor(d, 0) * factor(degree - d, 0) + (Z + 1) * (factor(degree, 5) - LAM**degree)
    d = draw(st.integers(1, degree // 2))
    return factor(d, 2) ** 2 * factor(degree - 2 * d, 2)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(expr=products_and_irreducibles())
def test_factorization_matches_factor_list(expr):
    expr = sympy.expand(expr)
    assert _kernel(expr) == oracle.factor_verdict(expr)


_POINTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=100, derandomize=True)
@given(
    cofactor=st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)), max_size=4),
    roots=st.lists(st.tuples(_POINTS, st.integers(1, 3)), max_size=3),
    extra=st.lists(_POINTS, max_size=3),
)
def test_orders_match_oracle(cofactor, roots, extra):
    # forced roots of known multiplicity times a random cofactor, which may
    # add to them; the orders are read at the roots and at further points
    p = pmul(poly_from_roots(roots), ex.ptrim(cofactor))
    points = list(dict.fromkeys([x for x, _ in roots] + extra))
    assert spectral._orders(p, points) == [root_order(p, x) for x in points]

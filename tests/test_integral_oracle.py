"""The integer integrality certificates and vanishing orders against their
oracles: the former sympy ``is_integral`` in ``integral_oracle`` and the
former Fraction ``root_order`` in ``linalg_oracle``."""

from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import integral_oracle as oracle
from common import pmul, poly_from_roots
from linalg_oracle import root_order
from starquiver import jsonio
from starquiver import linalg_exact as ex
from starquiver import spectral
from starquiver.spectral import char_poly, is_integral, spectral_poly, vanishing_orders

LAM, Z = oracle.LAM, oracle.Z
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_certificates_match_oracle_on_certified_batch(refined_batch):
    for inst, _, _, h in refined_batch:
        sigma = inst.parabolic_type()
        hp = char_poly(h)
        sp = spectral_poly(hp)
        verdict, certificate = is_integral(sp)
        assert verdict == oracle.is_integral(oracle.as_expr(sp)) == "integral"
        assert isinstance(certificate, tuple)  # no batch instance needs sympy
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

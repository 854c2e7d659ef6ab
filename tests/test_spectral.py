from fractions import Fraction

import numpy as np
import pytest
import sympy

from charpoly_oracle import pole_cleared_matrix
from common import closed_form_flags, closed_form_matrices, inverse, poly_from_roots, sample_hitchin_point
from integral_oracle import as_expr, check_certificate, factor_verdict, spectral_of
from starquiver import linalg_exact as ex
from starquiver import spectral
from starquiver.combinat import MarkedLine, NilpotentClass, ParabolicType
from starquiver.dsolve import DSInstance, SolverConfig, flags_from_solution, rank_profile, solve
from starquiver.higgs import HiggsTuple
from starquiver.spectral import (
    SPECIALIZATION_POOL,
    ExactnessRequired,
    HitchinPoint,
    char_poly,
    is_integral,
    spectral_poly,
    vanishing_orders,
)

F = Fraction
LAM, Z = sympy.symbols("lam z")


@pytest.fixture()
def closed_form_tuple(full_flag_type):
    return HiggsTuple(
        sigma=full_flag_type,
        matrices=closed_form_matrices(),
        flags=closed_form_flags(),
        mode="exact",
    )


def _zero_tuple(full_flag_type):
    e1 = [[F(1)], [F(0)]]
    return HiggsTuple(full_flag_type, [ex.mzeros(2, 2)] * 4, [[e1]] * 4, mode="exact")


def test_char_poly_zero_tuple(full_flag_type):
    hp = char_poly(_zero_tuple(full_flag_type))
    assert hp.coeffs == [[], []]


def test_char_poly_against_symbolic_determinant(closed_form_tuple):
    hp = char_poly(closed_form_tuple)
    assert hp.coeffs[0] == []  # traces vanish identically
    # frozen oracle value computed by expanding det(lam - M(z)) symbolically:
    # the level-2 coefficient is -z(z-1)(z-2)(z-3)
    assert hp.coeffs[1] == [F(0), F(6), F(-11), F(6), F(-1)]
    # independent oracle at runtime
    pts = [0, 1, 2, 3]
    m = sympy.zeros(2, 2)
    for i, (a, x) in enumerate(zip(closed_form_tuple.matrices, pts)):
        c = sympy.prod([Z - xx for k, xx in enumerate(pts) if k != i])
        m += sympy.Matrix([[sympy.Rational(str(v)) for v in row] for row in a]) * c
    det = sympy.expand((LAM * sympy.eye(2) - m).det())
    assert sympy.simplify(as_expr(spectral_poly(hp)) - det) == 0


def test_char_poly_conjugation_invariant(closed_form_tuple):
    p = [[F(1), F(2)], [F(1), F(3)]]
    pinv = inverse(p)
    mats = [ex.mmul(ex.mmul(p, a), pinv) for a in closed_form_tuple.matrices]
    flags = [[ex.mmul(p, b) for b in fl] for fl in closed_form_tuple.flags]
    conj = HiggsTuple(closed_form_tuple.sigma, mats, flags, mode="exact")
    assert char_poly(conj).coeffs == char_poly(closed_form_tuple).coeffs


def test_char_poly_newton_identities(closed_form_tuple):
    # power sums p_k = Tr(M^k) satisfy p_k + c_1 p_{k-1} + ... + k c_k = 0
    hp = char_poly(closed_form_tuple)
    for z0 in (F(9, 2), F(-3, 7)):
        m = pole_cleared_matrix(closed_form_tuple, z0)
        c = [ex.peval(p, z0) for p in hp.coeffs]
        power = ex.meye(2)
        psums = []
        for _ in range(2):
            power = ex.mmul(power, m)
            psums.append(ex.mtrace(power))
        for k in range(1, 3):
            acc = psums[k - 1] + sum(c[j - 1] * psums[k - j - 1] for j in range(1, k))
            acc += k * c[k - 1]
            assert acc == 0


def test_char_poly_rejects_float_tuple(closed_form_tuple):
    hf = HiggsTuple(
        sigma=closed_form_tuple.sigma,
        matrices=[np.array([[float(x) for x in row] for row in mm]) for mm in closed_form_tuple.matrices],
        flags=[[np.array([[float(x) for x in row] for row in b]) for b in fl] for fl in closed_form_tuple.flags],
        mode="float",
    )
    with pytest.raises(ExactnessRequired):
        char_poly(hf)


def test_char_poly_single_zero_residue():
    # one marked point: the bound j(n-2) = -j is met only by zero levels
    sigma = ParabolicType(MarkedLine((F(1, 2),)), 2, 1, ((2,),), ((0,),))
    h = HiggsTuple(sigma, [ex.mzeros(2, 2)], [[]], mode="exact")
    assert char_poly(h).coeffs == [[], []]


def test_degree_bound_enforced(full_flag_type):
    # residues that do not sum to zero break the degree bound and are caught
    e11 = [[F(1), F(0)], [F(0), F(0)]]
    h = HiggsTuple(
        full_flag_type,
        [e11, e11, e11, e11],
        closed_form_flags(),
        mode="exact",
        check=False,
    )
    with pytest.raises(ExactnessRequired):
        char_poly(h)


def test_vanishing_orders_zero_point(full_flag_type):
    hp = HitchinPoint(rank=2, points=full_flag_type.line.points, coeffs=[[], []])
    rep = vanishing_orders(hp, full_flag_type)
    assert rep.member is True
    assert all(o is None for row in rep.orders for o in row)
    assert rep.all_exact is False  # the informative level is forced zero


def test_vanishing_orders_closed_form(closed_form_tuple):
    rep = vanishing_orders(char_poly(closed_form_tuple), closed_form_tuple.sigma)
    assert rep.member and rep.all_exact
    assert rep.orders[1] == [1, 1, 1, 1]
    assert rep.required[1] == [1, 1, 1, 1]


def test_vanishing_orders_insufficient(full_flag_type):
    # level-2 polynomial missing the root at the first point
    p2 = poly_from_roots([(F(1), 1), (F(2), 1), (F(3), 1)])
    hp = HitchinPoint(rank=2, points=full_flag_type.line.points, coeffs=[[], p2])
    rep = vanishing_orders(hp, full_flag_type)
    assert rep.member is False
    assert rep.orders[1][0] == 0


def test_rank_profile_basics():
    zero = [ex.mzeros(3, 3)]
    assert rank_profile(zero, "exact") == [()]
    jordan = ex.jordan_nilpotent((4,), 4)
    assert rank_profile([jordan], "exact") == [(3, 2, 1)]
    jf = np.array([[float(x) for x in row] for row in jordan])
    assert rank_profile([jf], "float") == [(3, 2, 1)]


def test_rank_profile_matches_prescribed_classes(rank2_instance):
    out = solve(rank2_instance, SolverConfig(seed=2))
    prof = rank_profile(out.solution.matrices, "float", tol=1e-6)
    assert prof == [(1,), (1,), (1,), (1,)]


def test_spectral_poly_shapes(full_flag_type):
    hp = HitchinPoint(rank=2, points=full_flag_type.line.points, coeffs=[[], []])
    assert as_expr(spectral_poly(hp)) == LAM**2
    hp1 = HitchinPoint(rank=1, points=full_flag_type.line.points, coeffs=[[F(1), F(2), F(0)]])
    assert spectral_poly(hp1).coeffs == ((F(1), F(2)),)  # trimmed
    assert sympy.expand(as_expr(spectral_poly(hp1)) - (LAM + 1 + 2 * Z)) == 0


def test_is_integral_verdicts():
    assert is_integral(spectral_of(LAM**2 - Z))[0] == "integral"
    assert is_integral(spectral_of(LAM**2 - Z**2))[0] == "not_integral"
    assert is_integral(spectral_of((LAM - Z) ** 2))[0] == "not_integral"  # not squarefree
    # squarefree odd-degree radicand stays irreducible
    assert is_integral(spectral_of(LAM**2 - (Z**3 - Z)))[0] == "integral"
    # no positive degree in lambda
    assert is_integral(spectral_of(sympy.Integer(1))) == ("not_integral", "degree")


# every z0 that is_integral specializes at is a root of this factor
_SPECIALIZATION_ROOTS = sympy.prod([Z - z0 for z0 in SPECIALIZATION_POOL])


def _forbid_factorization(monkeypatch):
    def boom(c, s):
        raise AssertionError("spectral._factor should not be reached")

    monkeypatch.setattr(spectral, "_factor", boom)


def _decided(expr):
    """is_integral of a monic expression, its factor certificate checked."""
    verdict, certificate = is_integral(spectral_of(expr))
    check_certificate(expr, verdict, certificate)
    return verdict, certificate


def test_is_integral_decided_by_specialization(monkeypatch):
    # at z0 = -1: lam^2 + 1 is not squarefree mod 2 and irreducible mod 3
    _forbid_factorization(monkeypatch)
    assert is_integral(spectral_of(LAM**2 - Z)) == ("integral", (-1, 3))


def test_is_integral_decided_by_bivariate_factorization(monkeypatch):
    # lam^2 - z^2 - g(z) with g vanishing at every specialization point:
    # each specialization is lam^2 - z0^2, reducible, but z^2 + g(z) has odd
    # degree, so it is no square and the plane curve is irreducible; the
    # discriminant 4(z^2 + g) vanishes at no pool point.  At z0 = -1 the one
    # splitting (lam - 1)(lam + 1) does not lift (z + 1)-adically
    irreducible = LAM**2 - Z**2 - _SPECIALIZATION_ROOTS
    for z0 in SPECIALIZATION_POOL:
        spec = sympy.Poly(irreducible.subs(Z, z0), LAM)
        assert not spec.is_irreducible and spec.discriminant() != 0
    calls = []
    factor = spectral._factor
    monkeypatch.setattr(spectral, "_factor", lambda c, s: calls.append(c) or factor(c, s))
    assert _decided(irreducible) == ("integral", ("hensel", -1, 1))
    assert len(calls) == 1
    verdict, (kind, g) = _decided(LAM**2 - Z**2)
    assert (verdict, kind, as_expr(g)) == ("not_integral", "factor", LAM - Z)


def test_is_integral_rejects_non_squarefree():
    # the discriminant has z-degree at most 6, and the squarefree walk sees
    # it vanish at -1, ..., -7
    expr = sympy.expand((LAM - Z) ** 2 * (LAM + 1))
    assert is_integral(spectral_of(expr)) == ("not_integral", "discriminant")


@pytest.mark.parametrize("expr", [(LAM - Z**4) ** 2, (LAM - Z**5) ** 2, (LAM - Z**4) ** 2 * (LAM + Z)])
def test_non_squarefree_walk_evaluates_bound_plus_one_discriminants(monkeypatch, expr):
    # the walk of _factor is the one squarefree test: a non-squarefree p
    # whose bound is past the seven pool points costs bound + 1
    # discriminants, and _certify spends none; (lam - z^4)^2 has bound 8
    sp = spectral_of(sympy.expand(expr))
    bound = spectral._discriminant_bound(spectral._integer_form(sp.coeffs)[1])
    assert bound >= len(SPECIALIZATION_POOL)
    calls = []
    vanishes = spectral._discriminant_vanishes
    monkeypatch.setattr(spectral, "_discriminant_vanishes", lambda f: calls.append(f) or vanishes(f))
    assert is_integral(sp) == ("not_integral", "discriminant")
    assert len(calls) == bound + 1


def test_is_integral_closed_form(closed_form_tuple, monkeypatch):
    # lam^2 - z(z-1)(z-2)(z-3) is lam^2 - 24 at z0 = -1, irreducible mod 7
    _forbid_factorization(monkeypatch)
    assert is_integral(spectral_poly(char_poly(closed_form_tuple))) == ("integral", (-1, 7))


@pytest.mark.parametrize("fallback,verdict", [(True, ("integral", ("hensel", -1, 0))), (False, ("integral", (-1, 7)))])
def test_closed_form_integrality_by_the_sympy_fallback(monkeypatch, closed_form_tuple, fallback, verdict):
    # a _certify that decides nothing hands the closed form to the
    # factorization over Z, which finds lam^2 - 24 irreducible over Q at
    # z0 = -1; with or without the certificate, sympy's factor_list agrees
    if fallback:
        monkeypatch.setattr(spectral, "_certify", lambda c: None)
    sp = spectral_poly(char_poly(closed_form_tuple))
    assert is_integral(sp) == verdict
    assert factor_verdict(as_expr(sp)) == verdict[0]


def test_is_integral_heavy_top_by_discriminant():
    # p = lam^2: the discriminant bound is 0, and the walk's first point exceeds it
    hp = HitchinPoint(rank=2, points=(0, 1, 2, 3), coeffs=[[], []])
    assert is_integral(spectral_poly(hp)) == ("not_integral", "discriminant")


def test_is_integral_needs_the_intersection(monkeypatch):
    # lam^4 - 6 lam + 1 is not squarefree mod 2 and splits as 2 + 2 mod 3 and
    # as 1 + 3 mod 5: no prime alone certifies, the intersection {0, 4} of
    # the subset sums {0, 2, 4} and {0, 1, 3, 4} does
    expr = LAM**4 - 6 * LAM + 1
    for q, degrees in ((3, [2, 2]), (5, [1, 3])):
        assert sorted(f.degree() for f, _ in sympy.Poly(expr, LAM, modulus=q).factor_list()[1]) == degrees
    _forbid_factorization(monkeypatch)
    assert is_integral(spectral_of(expr)) == ("integral", (-1, 5))


def test_is_integral_skips_primes_where_the_reduction_is_not_squarefree():
    # (lam^2 + 2)(lam^2 + 6) is lam^4 mod 2; read as a linear and a cubic
    # factor, that reduction would meet the 2 + 2 split mod 13 in {0, 4}
    verdict, (kind, g) = _decided((LAM**2 + 2) * (LAM**2 + 6))
    assert (verdict, kind, as_expr(g)) == ("not_integral", "factor", LAM**2 + 6)


@pytest.mark.parametrize("expr", [LAM**4 - 10 * LAM**2 + 1, LAM**4 + 1])
def test_is_integral_split_mod_every_prime_reaches_the_fallback(expr):
    # irreducible over Q with no 4-cycle in the Galois group: every
    # reduction splits, so no specialization certifies, and the
    # factorization over Z finds no factor at z0 = -1
    assert is_integral(spectral_of(expr)) == ("integral", ("hensel", -1, 0))


def test_is_integral_never_certifies_a_product():
    verdict, (kind, g) = _decided((LAM**2 - Z) * (LAM**2 - Z - 1))
    assert (verdict, kind) == ("not_integral", "factor")
    assert as_expr(g) in (LAM**2 - Z, LAM**2 - Z - 1)


def test_discriminant_bound_is_tight():
    # lam^2 - q(z), q vanishing once at each pool point: the discriminant 4q
    # has degree 7, exactly the bound 2 * 1 * 7/2, and vanishes at all 7
    # pool points without being zero, so the factorization moves on to
    # z0 = -8, where lam^2 - q(-8) is irreducible; p is irreducible
    assert len(SPECIALIZATION_POOL) == 7
    assert is_integral(spectral_of(LAM**2 - _SPECIALIZATION_ROOTS)) == ("integral", ("hensel", -8, 0))
    # (lam - s)^2 with deg s = 3: the bound is 6, one below the 7 vanishing points
    s = Z**3 + Z + 1
    assert is_integral(spectral_of(sympy.expand((LAM - s) ** 2))) == ("not_integral", "discriminant")


def test_sampler_full_flag(full_flag_type):
    hp, retries = sample_hitchin_point(full_flag_type, seed=5)
    assert retries < 50
    rep = vanishing_orders(hp, full_flag_type)
    assert rep.member and rep.all_exact
    assert is_integral(spectral_poly(hp))[0] == "integral"
    # level 1 has negative degree: forced zero
    assert hp.coeffs[0] == []


def test_solver_outputs_are_members():
    rng = np.random.default_rng(99)
    from starquiver.dsolve import exact_refine, random_feasible_instance

    for k in range(5):
        inst = random_feasible_instance(rng, max_rank=3, max_points=5)
        out = solve(inst, SolverConfig(seed=300 + k))
        assert out.success
        exact = exact_refine(out.solution, inst)
        sigma = inst.parabolic_type()
        h = flags_from_solution(exact, sigma)
        rep = vanishing_orders(char_poly(h), sigma)
        assert rep.member


def test_exact_orders_iff_rank_profile(line4):
    # degrading one class below its prescribed ranks shifts the orders up
    c = NilpotentClass(rank=2, rank_sequence=(1,))
    inst = DSInstance(rank=2, classes=(c, c, c, c))
    out = solve(inst, SolverConfig(seed=4))
    from starquiver.dsolve import exact_refine

    exact = exact_refine(out.solution, inst)
    sigma = inst.parabolic_type()
    h = flags_from_solution(exact, sigma)
    assert vanishing_orders(char_poly(h), sigma).all_exact
    # merge the last two residues (sum unchanged): the last residue becomes
    # zero, its ranks drop, and the order at its point rises above required
    mats = [m for m in exact.matrices]
    mats[2] = ex.madd(mats[2], mats[3])
    mats[3] = ex.mzeros(2, 2)
    h2 = HiggsTuple(sigma, mats, h.flags, mode="exact", check=False)
    rep2 = vanishing_orders(char_poly(h2), sigma)
    assert rank_profile(mats, "exact")[3] == ()
    assert not rep2.all_exact

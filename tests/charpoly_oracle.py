"""Reference characteristic polynomial for differential tests.

This is the library's former exact ``char_poly``: a Fraction
Faddeev-LeVerrier characteristic polynomial of the pole-cleared matrix at
r(n-1)+1 small-height rational sample points, then exact Lagrange
interpolation of every level.  It is slow and shares no arithmetic with
the integer kernel in ``starquiver.spectral``, which is what makes it a
useful oracle.  One fix rides along: the zero polynomial passes every
degree bound, which matters only for single-point tuples (bound -j).
Its sample points and the pole-cleared matrix M(z) live here too, since
no library code evaluates M(z) over the rationals.
"""

from fractions import Fraction

from common import mscale, pmul
from starquiver import linalg_exact as ex
from starquiver.spectral import ExactnessRequired


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


def pole_cleared_matrix(h, z):
    """M(z) = sum_i A_i prod_{k != i} (z - x_k) of an exact tuple."""
    gaps = [Fraction(z) - x for x in h.sigma.line.points]
    out = ex.mzeros(h.rank, h.rank)
    for i, a in enumerate(h.matrices):
        c = Fraction(1)
        for k, d in enumerate(gaps):
            if k != i:
                c *= d
        out = ex.madd(out, mscale(c, a))
    return out


def charpoly(a):
    """Coefficients (c_1..c_n) with det(tI - a) = t^n + c_1 t^{n-1} + ... + c_n."""
    n = len(a)
    coeffs = []
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        ck = -ex.mtrace(mk) / k
        coeffs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] += ck
            mk = ex.mmul(a, mk)
    return coeffs


def lagrange_interpolate(xs, ys):
    """Exact interpolation through (xs[i], ys[i]); ascending coefficients."""
    result = [Fraction(0)] * len(xs)
    for i, xi in enumerate(xs):
        li = [Fraction(1)]  # the Lagrange basis polynomial, up to 1 / denom
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                li = pmul(li, [-xj, Fraction(1)])
                denom *= xi - xj
        weight = ys[i] / denom
        result = [a + weight * c for a, c in zip(result, li)]
    return ex.ptrim(result)


def char_poly(h, seed=0):
    """Coefficient lists p_1..p_r of det(lambda I - M(z)) for an exact tuple,
    raising ``ExactnessRequired`` where a level exceeds degree j(n-2)."""
    r = h.rank
    n = h.sigma.n_points
    samples = _sample_pool(h.sigma.line.points, r * max(n - 1, 1) + 1, seed)
    values = [charpoly(pole_cleared_matrix(h, z)) for z in samples]
    coeffs = []
    for j in range(1, r + 1):
        p = lagrange_interpolate(samples, [v[j - 1] for v in values])
        if p and len(p) - 1 > j * (n - 2):
            raise ExactnessRequired(f"level {j} interpolant has degree {len(p) - 1} > {j * (n - 2)}")
        coeffs.append(p)
    return coeffs

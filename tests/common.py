"""Data and helpers shared by the test modules: the fixture and golden
directories, an integer beyond the largest float, four marked points, the
exact scalar multiple and inverse of a matrix, the closed-form rank-2
residue tuple, a rank-3 tuple whose flags are not nested,
a valid float rank-3 tuple with flag bases of any scale,
a random parabolic type generator, the dimension in which two column
spaces meet and whether they are one, the stability character paired with
a subspace of a residue tuple, the slope of a subbundle whose fibers vary,
a strategy of star quivers, the quarter steps that ``poisson check`` draws
from, a copy of a float representation, the base change of a
representation by a group element, JSON encoders of nilpotent classes and
solver instances (the CLI only decodes them), and a rejection sampler of
integral coefficient points with the Fraction polynomial products it
builds them from.

A plain module rather than ``conftest.py``, so that test modules can import
it by name in a session that also collects another directory's conftest."""

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import linalg_oracle
from starquiver import arith
from starquiver import linalg_exact as ex
from starquiver.combinat import MarkedLine, ParabolicType, mu_eps, spectral_degrees
from starquiver.higgs import HiggsTuple
from starquiver.spectral import HitchinPoint, is_integral, spectral_poly, vanishing_orders
from starquiver.starrep import StarQuiver, StarRep, build_character

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
HUGE = 2**2000  # a JSON integer, and a rational, of about 2000 bits: beyond the largest float
PTS4 = [0.0, 1.0, 2.0, 3.0]

F = Fraction


def mscale(c, a):
    """The exact matrix c a."""
    return [[c * x for x in row] for row in a]


def inverse(a):
    """a^-1 of an exact square matrix, as ``linalg_exact.solve`` of a x = I;
    ValueError when a is singular."""
    return ex.solve(a, ex.meye(len(a)))


def closed_form_matrices():
    """E12, -E12, E21, -E21: nilpotent rank-1 matrices summing to zero."""
    e12 = [[F(0), F(1)], [F(0), F(0)]]
    e21 = [[F(0), F(0)], [F(1), F(0)]]
    return [e12, mscale(F(-1), e12), e21, mscale(F(-1), e21)]


def closed_form_flags():
    e1 = [[F(1)], [F(0)]]
    e2 = [[F(0)], [F(1)]]
    return [[e1], [e1], [e2], [e2]]


def unnested_tuple(mode, check=True):
    """Zero rank-3 residues at four points with full coordinate flags, except
    that at point 0 the second step e3 lies outside the first, span(e1, e2)."""
    sigma = ParabolicType(line=MarkedLine((0, 1, 2, 3)), rank=3, K=72, multiplicities=((1, 1, 1),) * 4, weights=((0, 1, 2),) * 4)
    eye = ex.meye(3)
    e12, e1, e3 = [row[:2] for row in eye], [row[:1] for row in eye], [row[2:] for row in eye]
    flags = [[e12, e3]] + [[e12, e1]] * 3
    o = arith.ops(mode)
    return HiggsTuple(sigma, [o.zeros(3, 3)] * 4, [[o.from_exact(b) for b in fl] for fl in flags], mode=mode, check=check)


def scaled_flag_tuple(scale):
    """A = [[0, 1e-4, 0], [1e-9, 0, 1e-4], [0, 0, 0]] at point 0 and -A at
    point 1, with full flags spanned by scale * (e1, e2) and scale * e1.
    Validation accepts it at every scale: A pushes span(e1, e2) into span(e1)
    only up to its 1e-9 entry, inside ``BRIDGE_TOL``."""
    sigma = ParabolicType(line=MarkedLine((0, 1)), rank=3, K=72, multiplicities=((1, 1, 1),) * 2, weights=((0, 1, 2),) * 2)
    a = np.array([[0, 1e-4, 0], [1e-9, 0, 1e-4], [0, 0, 0]], dtype=complex)
    e = scale * np.eye(3, dtype=complex)
    return HiggsTuple(sigma, [a, -a], [[e[:, :2], e[:, :1]]] * 2)


def meet_dim(o, a, b):
    """dim(col a meet col b) = rk a + rk b - rk [a b] in the backend ``o``."""
    return o.rank(a) + o.rank(b) - o.rank(o.from_columns(o.columns(a) + o.columns(b)))


def column_space(w, o=arith.EXACT):
    """A canonical form of the column space of ``w``: the oracle's reduced
    row echelon form of the transpose (exact) or the orthogonal projector
    (float)."""
    if o is arith.EXACT:
        rr, piv = linalg_oracle.rref([[Fraction(x) for x in row] for row in ex.mtrans(w)])
        return rr[: len(piv)]
    q, _ = np.linalg.qr(w)
    return q @ q.conj().T


def same_column_space(a, b, o=arith.EXACT):
    """Whether the columns of ``a`` and ``b`` span one space (to 1e-12 in
    floats); None, no subspace, is the same as None only."""
    if a is None or b is None:
        return a is None and b is None
    if o is arith.EXACT:
        return column_space(a, o) == column_space(b, o)
    return np.allclose(column_space(a, o), column_space(b, o), atol=1e-12)


def theta(h, w):
    """``build_character``'s theta paired with the sub-dimension vector
    (dim W; dim W meet F_ij) of the subspace W spanned by the columns of
    ``w`` in the residue tuple ``h``, read against every flag step."""
    o = h.ops
    arms = [[meet_dim(o, step, w) for step in fl] for fl in h.flags]
    return build_character(h.sigma).pairing(o.shape(w)[1], arms)


def twisted_slope(h, degree, fibers):
    """Weighted slope of a subbundle of degree ``degree`` whose fiber at
    marked point i is spanned by the columns of ``fibers[i]``: a subobject
    that is not constant, which ``parabolic_slope`` does not take."""
    o, sig = h.ops, h.sigma
    k = o.shape(fibers[0])[1]
    total = Fraction(0)
    for flags, fiber, weights in zip(h.flags, fibers, sig.weights, strict=True):
        inter = [k] + [meet_dim(o, step, fiber) for step in flags] + [0]
        total += sum(a * (inter[j] - inter[j + 1]) for j, a in enumerate(weights))
    return (degree + total / sig.K) / k


def assert_witness_pairing(h, report):
    """A stability verdict's witness pairs to theta > 0 when the tuple is
    unstable and to 0 when it is only semistable."""
    if report.verdict == "unstable":
        assert theta(h, report.witness_subspace) > 0
    elif report.verdict == "semistable_only":
        assert theta(h, report.witness_subspace) == 0


def partitions_of(r, largest=None):
    """Every partition of r, parts largest first."""
    if r == 0:
        yield ()
        return
    for p in range(min(r, largest or r), 0, -1):
        for rest in partitions_of(r - p, p):
            yield (p,) + rest


def random_parabolic_type(rng, max_rank=6, max_points=8):
    r = int(rng.integers(1, max_rank + 1))
    n = int(rng.integers(4, max_points + 1))
    pts = list(range(n))
    mults, weights = [], []
    for _ in range(n):
        left, m = r, []
        while left > 0:
            p = int(rng.integers(1, left + 1))
            m.append(p)
            left -= p
        mults.append(tuple(m))
    kk = 1
    for m in mults:
        kk = max(kk, len(m) * 3 + 1)
    K = kk + int(rng.integers(0, 10))
    for m in mults:
        w = sorted(rng.choice(K, size=len(m), replace=False).tolist())
        weights.append(tuple(int(x) for x in w))
    return ParabolicType(
        line=MarkedLine(tuple(pts)),
        rank=r,
        K=K,
        multiplicities=tuple(mults),
        weights=tuple(weights),
    )


@st.composite
def quivers(draw, ranks=(2, 4), max_arms=4, max_steps=3, armless=False):
    """Star quivers of central rank in ``ranks`` with one to ``max_arms``
    arms, each a strictly decreasing chain of at most ``max_steps``
    dimensions up to the rank, possibly empty, and the first one not empty.
    With ``armless``, zero to ``max_arms`` arms, all of which may be empty."""
    r = draw(st.integers(*ranks))

    def chains(min_size=0):
        dims = st.sets(st.integers(1, r), min_size=min_size, max_size=max_steps)
        return dims.map(lambda s: tuple(sorted(s, reverse=True)))

    if armless:
        return StarQuiver(rank=r, arms=tuple(draw(chains()) for _ in range(draw(st.integers(0, max_arms)))))
    return StarQuiver(rank=r, arms=(draw(chains(1)), *draw(st.lists(chains(), max_size=max_arms - 1))))


def quarter_steps(points):
    """The quarter steps ``poisson check`` draws z and w from: at least 0.25
    from every marked point."""
    return [k / 4 for k in range(-20, 8 * len(points) + 20) if all(abs(k / 4 - x) >= 0.25 for x in points)]


def copy_rep(rep):
    """A float representation with its own copy of every matrix."""
    return StarRep(rep.quiver, [[m.copy() for m in arm] for arm in rep.f], [[m.copy() for m in arm] for arm in rep.g])


@dataclass
class GroupElement:
    center: object
    arms: list  # arms[j][i]: block at arm j, vertex i+1


def random_group_element(quiver, rng):
    def draw(n):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return a + 2.0 * n * np.eye(n)  # comfortably invertible

    return GroupElement(
        center=draw(quiver.rank),
        arms=[[draw(d) for d in quiver.arms[j]] for j in range(quiver.n_arms)],
    )


def group_act(rep, h):
    """Base change at every vertex: each map is conjugated by the blocks
    at its head and tail."""
    o = rep.ops
    f, g = [], []
    for j in range(rep.quiver.n_arms):
        fj, gj = [], []
        blocks = [h.center] + list(h.arms[j])
        inv_blocks = [np.linalg.inv(b) for b in blocks]
        for i in range(len(rep.f[j])):
            fj.append(o.mul(o.mul(blocks[i + 1], rep.f[j][i]), inv_blocks[i]))
            gj.append(o.mul(o.mul(blocks[i], rep.g[j][i]), inv_blocks[i + 1]))
        f.append(fj)
        g.append(gj)
    return StarRep(rep.quiver, f, g, rep.mode)


def class_to_json(c):
    return {
        "rank": c.rank,
        "rank_sequence": list(c.rank_sequence),
        "partition": list(c.to_partition()),
    }


def instance_to_json(inst):
    return {
        "rank": inst.rank,
        "classes": [class_to_json(c) for c in inst.classes],
        "points": [str(p) for p in inst.points],
    }


def pmul(p, q):
    return ex.ptrim(ex.paddmul([Fraction(0)] * (len(p) + len(q) - 1), p, q))


def poly_from_roots(roots_with_mult):
    p = [Fraction(1)]
    for root, mult in roots_with_mult:
        for _ in range(mult):
            p = pmul(p, [-root, Fraction(1)])
    return p


def sample_hitchin_point(sigma, seed, max_retries=50):
    """Random admissible coefficient point with exact orders and an
    integral spectral polynomial, by rejection.

    Levels with negative coefficient-space degree are identically zero;
    each other level draws p_j as the forced vanishing factor times a
    random integer polynomial of the residual degree, rejected until no
    extra vanishing occurs at the marked points and the spectral
    polynomial is integral.  Returns (point, retries).
    """
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
            forced = poly_from_roots([(x, me[i][1][j - 1]) for i, x in enumerate(pts)])
            for _ in range(20):
                q = [Fraction(int(rng.integers(-9, 10))) for _ in range(dj + 1)]
                q = ex.ptrim(q)
                if q and all(ex.peval(q, x) != 0 for x in pts):
                    break
            else:
                ok = False
                break
            coeffs.append(pmul(forced, q))
        if not ok:
            continue
        hp = HitchinPoint(rank=sigma.rank, points=pts, coeffs=coeffs)
        verdict, _ = is_integral(spectral_poly(hp))
        if verdict == "integral":
            report = vanishing_orders(hp, sigma)
            if report.all_exact and report.member:
                return hp, attempt
    raise AssertionError(f"no integral point with exact orders found in {max_retries} attempts")

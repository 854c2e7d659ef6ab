"""Data and helpers shared by the test modules: the fixture directory, the
exact scalar multiple of a matrix, the closed-form rank-2 residue tuple, a rank-3 tuple whose flags are not nested,
a random parabolic type generator and the stability character paired with a
subspace of a residue tuple.

A plain module rather than ``conftest.py``, so that test modules can import
it by name in a session that also collects another directory's conftest."""

from fractions import Fraction
from pathlib import Path

from starquiver import arith
from starquiver import linalg_exact as ex
from starquiver.combinat import MarkedLine, ParabolicType
from starquiver.higgs import HiggsTuple
from starquiver.starrep import build_character

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

F = Fraction


def mscale(c, a):
    """The exact matrix c a."""
    return [[c * x for x in row] for row in a]


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


def theta(h, w):
    """``build_character``'s theta paired with the sub-dimension vector
    (dim W; dim W meet F_ij) of the subspace W spanned by the columns of
    ``w`` in the residue tuple ``h``, read against every flag step."""
    o = h.ops
    arms = [[o.intersection_dim(step, w) for step in fl] for fl in h.flags]
    return build_character(h.sigma).pairing(o.shape(w)[1], arms)


def assert_witness_pairing(h, report):
    """A stability verdict's witness pairs to theta > 0 when the tuple is
    unstable and to 0 when it is only semistable."""
    if report.verdict == "unstable":
        assert theta(h, report.witness_subspace) > 0
    elif report.verdict == "semistable_only":
        assert theta(h, report.witness_subspace) == 0


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

"""Parabolic types, nilpotent classes, and their combinatorial predicates.

A parabolic type fixes marked points on the affine line, a rank, a weight
denominator K, and at every point a partition of the rank into flag step
sizes together with strictly increasing integer weights below K.  All
quantities here are exact: weights are integers and slopes are rationals,
because the predicates in this module are sharp inequalities.

Derived data:

- ``gamma_i(x) = n_{i+1}(x) + ... + n_{sigma_x}(x)`` for i < sigma_x are
  the dimensions of the proper flag steps (strictly decreasing and
  positive); they are the arm of x in the star-shaped quiver.
- ``mu_j(x)`` counts multiplicities >= j; ``eps_j(x)`` is the index of the
  cumulative-mu window containing j.  ``eps_r(x) = max_i n_i(x)`` always.
- the spectral degree of level j is ``-2j + sum_x (j - eps_j(x))``; level
  r has nonnegative degree exactly when ``2r <= sum_x gamma_1(x)``.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


class EnumerationBoundExceeded(RuntimeError):
    """Raised when an exhaustive search would exceed its fixed cap."""


def _to_fraction(x):
    """A Fraction, an int or a rational string as a Fraction; TypeError for
    anything else, a float or a bool included."""
    if isinstance(x, bool) or not isinstance(x, (Fraction, int, str)):
        raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class MarkedLine:
    """Pairwise distinct exact rational coordinates on the affine chart.

    The point at infinity is reserved as the trivializing direction and is
    never marked.  Fewer than four points is a degenerate situation,
    flagged by downstream reports.
    """

    points: tuple

    def __post_init__(self):
        pts = tuple(_to_fraction(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts):
            raise ValueError("marked points must be pairwise distinct")

    @property
    def n(self):
        return len(self.points)


@dataclass(frozen=True)
class ParabolicType:
    """Marked line, rank, weight denominator and per-point flag data.

    ``multiplicities[i]`` and ``weights[i]`` belong to ``line.points[i]``;
    multiplicities at each point sum to the rank, weights are strictly
    increasing integers in [0, K).
    """

    line: MarkedLine
    rank: int
    K: int
    multiplicities: tuple
    weights: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "multiplicities", tuple(tuple(m) for m in self.multiplicities)
        )
        object.__setattr__(self, "weights", tuple(tuple(w) for w in self.weights))
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.K < 1:
            raise ValueError("K must be positive")
        n = self.line.n
        if len(self.multiplicities) != n or len(self.weights) != n:
            raise ValueError("need multiplicities and weights for every marked point")
        for mult, wts in zip(self.multiplicities, self.weights):
            if len(mult) != len(wts):
                raise ValueError("one weight per flag step required")
            if any(m < 1 for m in mult):
                raise ValueError("flag step multiplicities must be positive")
            if sum(mult) != self.rank:
                raise ValueError("multiplicities at each point must sum to the rank")
            if any(w != int(w) for w in wts):
                raise ValueError("weights must be integers")
            if not all(0 <= a < self.K for a in wts):
                raise ValueError("weights must lie in [0, K)")
            if any(a >= b for a, b in zip(wts, wts[1:])):
                raise ValueError("weights must be strictly increasing at each point")

    @property
    def n_points(self):
        return self.line.n

    def gamma(self, i):
        """(gamma_1, ..., gamma_{sigma-1}) at point index i: the dimensions
        of the proper flag steps, empty for a one-step flag."""
        mult = self.multiplicities[i]
        return tuple(sum(mult[j:]) for j in range(1, len(mult)))

    def full_slope(self):
        """Weighted slope of the full degree-zero object."""
        total = sum(
            a * m
            for mult, wts in zip(self.multiplicities, self.weights)
            for m, a in zip(mult, wts)
        )
        return Fraction(total, self.K * self.rank)


@dataclass(frozen=True)
class NilpotentClass:
    """Nilpotent conjugacy class encoded by the ranks of its powers.

    ``rank_sequence[j-1]`` is the rank of the j-th power of any class
    representative, and ``chain_simple`` is the one rule (which makes the
    sequence strictly decreasing, positive and below the rank).  The zero
    class has an empty sequence.
    """

    rank: int
    rank_sequence: tuple

    def __post_init__(self):
        seq = tuple(int(g) for g in self.rank_sequence)
        object.__setattr__(self, "rank_sequence", seq)
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if not chain_simple(self.rank, seq):
            raise ValueError("power ranks must satisfy r - g_1 >= g_1 - g_2 >= ... >= g_s > 0")

    def to_partition(self):
        """Jordan block sizes, largest first, summing to the rank (rank
        ones for the zero class).

        The flag step n_j counts blocks of size >= j; the partition is the
        conjugate of the flag multiplicities.
        """
        mult = self.flag_multiplicities()
        return tuple(sum(1 for m in mult if m >= k) for k in range(1, mult[0] + 1))

    @classmethod
    def from_partition(cls, partition, rank=None):
        partition = tuple(sorted((int(p) for p in partition), reverse=True))
        if any(p < 1 for p in partition):
            raise ValueError("partition parts must be positive")
        r = sum(partition)
        if rank is not None and rank != r:
            raise ValueError("partition must sum to the rank")
        seq = []
        j = 1
        while True:
            g = sum(max(0, p - j) for p in partition)
            if g == 0:
                break
            seq.append(g)
            j += 1
        return cls(rank=r, rank_sequence=tuple(seq))

    def flag_multiplicities(self):
        """Flag step sizes n_j = rank(N^{j-1}) - rank(N^j), nonincreasing."""
        seq = (self.rank,) + self.rank_sequence + (0,)
        return tuple(seq[j] - seq[j + 1] for j in range(len(seq) - 1))


# ---------------------------------------------------------------------------
# predicates and derived quantities


def check_small_weights(sigma: ParabolicType) -> bool:
    """Exact test of (1/K) * sum over points of the top weight < 1/rank."""
    top = sum(wts[-1] for wts in sigma.weights)
    return Fraction(top, sigma.K) < Fraction(1, sigma.rank)


def mu_eps(sigma: ParabolicType):
    """Per point: (mu_1..mu_r) and (eps_1..eps_r).

    mu_j counts flag steps of multiplicity >= j; eps_j is the step index l
    whose cumulative mu window contains j.  The identities
    sum_j mu_j = rank and eps_r = max multiplicity hold by construction
    and are re-checked here.
    """
    r = sigma.rank
    out = []
    for mult in sigma.multiplicities:
        mu = tuple(sum(1 for m in mult if m >= j) for j in range(1, r + 1))
        cum = list(itertools.accumulate(mu))
        eps = []
        for j in range(1, r + 1):
            l = next(i for i, c in enumerate(cum, start=1) if j <= c)
            eps.append(l)
        eps = tuple(eps)
        assert sum(mu) == r
        assert eps[-1] == max(mult)
        out.append((mu, eps))
    return out


def spectral_degrees(sigma: ParabolicType):
    """Per level j: degree -2j + sum_x (j - eps_j(x)); and the dimension of
    the coefficient space (sum over j of max(0, degree + 1))."""
    me = mu_eps(sigma)
    degrees = []
    for j in range(1, sigma.rank + 1):
        d = -2 * j + sum(j - eps[j - 1] for _, eps in me)
        degrees.append(d)
    dim = sum(max(0, d + 1) for d in degrees)
    return degrees, dim


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    sum_gamma1: int
    two_r: int
    n_at_least_4: bool
    r_at_least_4: bool
    in_sigma0: bool  # an irreducible tuple with these classes exists


def _isotropic_multiple(r, arms):
    """m when the star's vector (center r, arms outward), taken in the
    fundamental region, is m delta, m >= 2: q = 0 and gcd m.  Else 0."""
    tits = r * r + sum(b * b - a * b for arm in arms for a, b in zip((r,) + arm, arm))
    m = math.gcd(r, *itertools.chain(*arms))
    return m if m >= 2 and tits == 0 else 0


def ds_feasible(sigma: ParabolicType) -> FeasibilityReport:
    """Residue-sum inequality, 2r <= sum over the points of gamma_1 =
    r - n_1, and Crawley-Boevey's existence verdict.

    The inequality, (alpha, e_0) <= 0 at the center of the star quiver, is
    necessary for an irreducible tuple, not sufficient.  One with sum zero
    exists exactly when alpha is in Sigma_0: alpha = e_0 (rank 1), or alpha
    in the fundamental region (the inequality and ``simpleness_condition``)
    but neither of the two exceptions there of a quiver without loops, for
    m >= 2 and delta the root of an extended Dynkin star: m delta, and
    m delta + e_v, v a leaf where delta is 1.  Four (2, 2) classes at rank 4
    give 2 delta of affine D4, three and a (3, 1) give 2 delta + e_v.
    Whether n >= 4 and r >= 4 hold is reported as separate flags.
    """
    r = sigma.rank
    s = sum(r - mult[0] for mult in sigma.multiplicities)
    feasible = 2 * r <= s
    arms = [sigma.gamma(i) for i in range(sigma.n_points)]
    # m delta + e_v: an arm ends (..., m, 1), and without its 1 alpha is m delta
    exception = _isotropic_multiple(r, arms) or any(
        arm[-1:] == (1,) and ((r,) + arm)[-2] == _isotropic_multiple(r, arms[:i] + [arm[:-1]] + arms[i + 1 :])
        for i, arm in enumerate(arms)
    )
    return FeasibilityReport(
        feasible=feasible,
        sum_gamma1=s,
        two_r=2 * r,
        n_at_least_4=sigma.n_points >= 4,
        r_at_least_4=r >= 4,
        in_sigma0=r == 1 or (feasible and simpleness_condition(sigma) and not exception),
    )


def chain_simple(r: int, chain) -> bool:
    """r - g_1 >= g_1 - g_2 >= ... >= g_{s-1} - g_s >= g_s > 0 for a
    nonempty chain; vacuously true for an empty chain."""
    chain = list(chain)
    if not chain:
        return True
    diffs = [r - chain[0]] + [a - b for a, b in zip(chain, chain[1:])] + [chain[-1]]
    return all(a >= b for a, b in zip(diffs, diffs[1:])) and chain[-1] > 0


def simpleness_condition(sigma: ParabolicType) -> bool:
    """Arm chain condition: (alpha, e_i) <= 0 at every arm vertex.

    With the residue-sum inequality it places alpha in the fundamental
    region, which ``ds_feasible`` needs for its Sigma_0 verdict."""
    return all(chain_simple(sigma.rank, sigma.gamma(i)) for i in range(sigma.n_points))


# weights_generic gives up past this many weight sums
_MAX_CASES = 5_000_000


def weights_generic(sigma: ParabolicType) -> bool:
    """No proper sub-rank s, per-point intersection profile bounded by the
    multiplicities, and integer degree d in [-r, 0] gives a sub-object
    slope exactly equal to the full slope.

    Each point's achievable weight sums come from the reachable (dimension,
    weight sum) pairs of its flag steps, and the points' sums are combined
    by a sumset dynamic program, so the search is exhaustive without
    enumerating any product of profiles.  Raises EnumerationBoundExceeded
    when the sumset outgrows ``_MAX_CASES``.
    """
    r = sigma.rank
    full = sigma.full_slope()
    for s in range(1, r):
        sums = {0}
        for mult, wts in zip(sigma.multiplicities, sigma.weights):
            # (sum m_i, sum a_i m_i) over 0 <= m_i <= n_i with sum m_i <= s
            pairs = {(0, 0)}
            for n, a in zip(mult, wts):
                pairs = {(k + m, t + a * m) for k, t in pairs for m in range(min(n, s - k) + 1)}
            point_vals = {t for k, t in pairs if k == s}
            new_sums = {t + v for t in sums for v in point_vals}
            if len(new_sums) > _MAX_CASES:
                raise EnumerationBoundExceeded("weight sumset grew past the cap")
            sums = new_sums
        for d in range(-r, 1):
            # slope equality: (d + T/K)/s == full  <=>  T == K*(s*full - d)
            target = sigma.K * (s * full - d)
            if target.denominator == 1 and int(target) in sums:
                return False
    return True


def type_from_classes(classes, points=None):
    """Parabolic type whose flag dimensions at point i match the power
    ranks of classes[i], with small weights.

    Default points are 0, 1, 2, ...; the weights are 0, 1, ..., with K
    just large enough that the small-weights inequality holds strictly.
    """
    if not classes:
        raise ValueError("need at least one class")
    r = classes[0].rank
    n = len(classes)
    if points is None:
        points = [Fraction(i) for i in range(n)]
    if len(points) != n:
        raise ValueError("one marked point per class required")
    mults = [c.flag_multiplicities() for c in classes]
    weights = [tuple(range(len(m))) for m in mults]
    K = r * sum(w[-1] for w in weights) + 1
    return ParabolicType(
        line=MarkedLine(tuple(points)), rank=r, K=K, multiplicities=tuple(mults), weights=tuple(weights)
    )

"""Residue tuples with flags, and the dictionary to moment-zero quiver data.

A ``HiggsTuple`` packages n square residue matrices summing to zero with a
flag of subspaces at every marked point, each matrix pushing every flag
step strictly deeper.  Such tuples are exactly the matrix form of twisted
endomorphisms on a trivialized bundle with simple poles at the marked
points, written in the local frames dz/(z - x).

The two conversions:

- a moment-zero representation with injective inward maps yields residues
  ``g_1 f_1`` and image flags ``Im(g_1 ... g_j)``;
- a tuple satisfying the invariants yields inward inclusions and outward
  corestrictions of the residues, landing back on the moment-zero locus.

Both directions work for either entry format of ``arith``: each value
resolves its backend once and runs the same code on floats and exact
rationals.

``irreducible`` certifies from the closed word basis alone; the stability
verdict alone searches invariant subspaces, closing vectors under it.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import islice

from . import arith
from .combinat import ParabolicType, check_small_weights
from .starrep import (
    BRIDGE_TOL,
    StarRep,
    arm_semistable,
    build_star_quiver,
    moment_is_zero,
    moment_residual,
)


class BridgeError(ValueError):
    pass


class WeightsNotSmallError(ValueError):
    """The weight bound fails, so subspace slope tests do not certify
    semistability (a heavy top weight lets a twisted sub-line-bundle beat
    every constant subspace)."""


@dataclass
class HiggsTuple:
    """Residue matrices A_1..A_n with per-point flags and inherited weights.

    ``flags[i]`` lists full-column-rank basis matrices for the proper flag
    steps at point i (the full space and the zero space are implicit), so
    the list has sigma_x - 1 entries of widths gamma_1 > ... > gamma_{s-1}.
    """

    sigma: ParabolicType
    matrices: list
    flags: list
    mode: str = "float"
    tol: float = BRIDGE_TOL
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        self.ops = arith.ops(self.mode)
        self.matrices = [self.ops.coerce(m) for m in self.matrices]
        self.flags = [[self.ops.coerce(b) for b in fl] for fl in self.flags]
        if self.check:
            problems = self.validate()
            if problems:
                raise BridgeError("; ".join(problems))

    @property
    def rank(self):
        return self.sigma.rank

    @property
    def n(self):
        return self.sigma.n_points

    def validate(self):
        """List of violated invariants (empty when valid)."""
        r = self.rank
        o = self.ops
        if len(self.matrices) != self.n or len(self.flags) != self.n:
            return ["need one residue matrix and one flag list per marked point"]
        # the sum and the products below need square residues of the rank
        out = [
            f"point {i}: residue should be {r}x{r}"
            for i, m in enumerate(self.matrices)
            if o.shape(m) != (r, r)
        ]
        if out:
            return out
        total = reduce(o.add, self.matrices, o.zeros(r, r))
        if not o.is_zero(total, self.tol):
            out.append(f"residues do not sum to zero (norm {o.norm(total):.2e})")
        for i in range(self.n):
            gam = self.sigma.gamma(i)
            fl = self.flags[i]
            if len(fl) != len(gam):
                out.append(f"point {i}: expected {len(gam)} flag steps")
                continue
            shapes_ok = True
            for j, (b, gj) in enumerate(zip(fl, gam), start=1):
                if o.shape(b) != (r, gj):
                    out.append(f"point {i}: flag step {j} should be {r}x{gj}")
                    shapes_ok = False
                elif o.rank(b) != gj:
                    out.append(f"point {i}: flag step {j} basis is rank deficient")
            if not shapes_ok:
                continue
            # flag steps are column spaces: unit columns make the float
            # containment cut relative to each column's own scale
            fl = [o.from_columns([o.unit(v) for v in o.columns(b)]) for b in fl]
            out += [
                f"point {i}: flag step {j + 1} is not inside step {j}"
                for j in range(1, len(fl))
                if not o.contains(fl[j - 1], fl[j], self.tol)
            ]
            # strong preservation through the full chain, zero space last
            chain = [None] + list(fl) + [None]  # None = full space / zero space
            a = self.matrices[i]
            for j in range(len(chain) - 1):
                src, dst = chain[j], chain[j + 1]
                image = a if src is None else o.mul(a, src)
                if dst is None:  # zero space
                    okay = o.is_zero(image, self.tol)
                else:
                    okay = o.contains(dst, image, self.tol)
                if not okay:
                    step = f"step {j}" if j else "the full space"
                    out.append(f"point {i}: residue does not push {step} deeper")
                    break
        return out


# ---------------------------------------------------------------------------
# conversions


def quiver_to_higgs(rep: StarRep, sigma: ParabolicType, tol=BRIDGE_TOL) -> HiggsTuple:
    """Residues g_1 f_1 and image flags Im(g_1 ... g_j).

    Requires all moment components to vanish and every inward map to have
    full rank (otherwise the image flags would be too small).
    """
    quiver = build_star_quiver(sigma)
    if rep.quiver != quiver:
        raise BridgeError("representation does not live on the type's quiver")
    if not moment_is_zero(rep, tol):
        raise BridgeError(
            f"moment map does not vanish (residual {moment_residual(rep):.2e})"
        )
    for j in range(quiver.n_arms):
        if not arm_semistable(rep, j):
            raise BridgeError(f"arm {j} has a rank-deficient inward map")
    mats = [rep.residue(j) for j in range(quiver.n_arms)]
    flags = []
    for j in range(quiver.n_arms):
        fl = []
        acc = None
        for gm in rep.g[j]:
            acc = gm if acc is None else rep.ops.mul(acc, gm)
            fl.append(acc)
        flags.append(fl)
    return HiggsTuple(sigma=sigma, matrices=mats, flags=flags, mode=rep.mode, tol=tol)


def higgs_to_quiver(h: HiggsTuple) -> StarRep:
    """Inward maps are basis inclusions of consecutive flag steps; outward
    maps are the residues written from one step's basis to the next.

    Expects a tuple that ``HiggsTuple.validate`` accepted, the one test of
    strong preservation: the corestrictions g_j = solve(F_(j-1), F_j) and
    f_j = solve(F_j, A F_(j-1)) are read with no second check.
    """
    quiver = build_star_quiver(h.sigma)
    o = h.ops
    f, g = [], []
    for i in range(h.n):
        chain = [o.eye(h.rank)] + list(h.flags[i])
        fj, gj = [], []
        a = h.matrices[i]
        for prev, cur in zip(chain, chain[1:]):
            gj.append(o.solve(prev, cur))
            fj.append(o.solve(cur, o.mul(a, prev)))
        f.append(fj)
        g.append(gj)
    return StarRep(quiver, f, g, h.mode)


# ---------------------------------------------------------------------------
# slopes


def parabolic_slope(h: HiggsTuple, w=None):
    """Weighted slope of the constant subobject spanned by the columns of
    ``w`` (the full object when ``w`` is None), as an exact rational: a
    subspace of the trivialized bundle, of degree 0, with the same fiber at
    every marked point.  It meets the flag step F_j, of the type's (and
    validated) dimension gamma_j, in dimension gamma_j + k - rk [F_j w], k
    the number of columns of ``w``, which must be independent."""
    sig = h.sigma
    if w is None:
        return sig.full_slope()
    o = h.ops
    k = o.shape(w)[1]
    if k == 0:
        raise BridgeError("subobject must be nonzero")
    if o.rank(w) != k:
        raise BridgeError("subobject basis is rank deficient")
    total = Fraction(0)
    for i in range(sig.n_points):
        # the full space, the proper flag steps, the zero space
        inter = [k] + [g + k - o.rank(o.from_columns(o.columns(step) + o.columns(w))) for step, g in zip(h.flags[i], sig.gamma(i))] + [0]
        for j, a in enumerate(sig.weights[i], start=1):
            total += a * (inter[j - 1] - inter[j])
    return total / sig.K / k


# ---------------------------------------------------------------------------
# irreducibility (full matrix algebra test)


@dataclass
class IrreducibilityCertificate:
    """The closed word basis of the residues' algebra, of dimension ``len(words)``."""

    irreducible: bool
    words: list  # index words spanning the algebra (0-based, () = identity)
    # the product of each word of the matrices scaled together to unit norm,
    # in the order of ``words``
    elements: list = field(repr=False, compare=False)


# a word of the residues, scaled together to unit norm, spans a new direction
# of their algebra only when its norm and its part orthogonal to the span both
# exceed this fraction of the largest word norm and of its own norm: roundoff
# in the word products stays orders of magnitude below it.  The closures that
# give invariant subspaces count their dimension by the same rule.
IRREDUCIBLE_RTOL = 1e-9


def irreducible(mats, mode="float"):
    """Do the matrices generate the full matrix algebra?

    Closes a word basis of the matrices, scaled together to unit norm (the
    same algebra at any scale), under left multiplication, breadth first,
    until the span stabilizes; the tuple has no common proper invariant
    subspace exactly when the closed span has dimension rank squared.
    ``stability_verdict`` searches invariant subspaces from the word
    products the certificate carries.
    """
    if not mats:
        raise ValueError("need at least one matrix")
    o = arith.ops(mode)
    r = o.shape(mats[0])[0]
    eye = o.eye(r)
    tracker = o.span_tracker(IRREDUCIBLE_RTOL)
    tracker.add(o.flatten(eye))
    words = [()]
    elements = [eye]
    units = o.unit(mats)
    idx = 0
    while idx < len(elements) and len(tracker) < r * r:
        for a_idx, a in enumerate(units):
            prod = o.mul(a, elements[idx])
            if tracker.add(o.flatten(prod)):
                words.append((a_idx,) + words[idx])
                elements.append(prod)
                if len(tracker) == r * r:
                    break
        idx += 1
    return IrreducibilityCertificate(len(tracker) == r * r, words, elements)


def _proper_closures(elements, seeds, o):
    """For each seed (a list of vectors) in turn, the column space of
    {m v : m in the span of ``elements``, v in the seed} when it is proper
    and nonzero; invariant by closure.  Unit-norm vectors meet the words of
    the residues scaled to unit norm, and the dimension counts as the
    algebra's does, so the closure does not depend on the residues' scale.
    The basis is the rows the span tracker keeps: primitive integer vectors
    (exact) or orthonormal Gram-Schmidt vectors (float)."""
    for seed in seeds:
        images = [o.apply(m, o.unit(v)) for v in seed for m in elements]
        tracker = o.span_tracker(IRREDUCIBLE_RTOL)
        rk = sum(tracker.add(x) for x in images)
        if 0 < rk < len(images[0]):
            yield o.from_columns(tracker.rows)


def _witness_candidates(mats, mode):
    """Vectors whose closures may give an invariant subspace."""
    o = arith.ops(mode)
    r = o.shape(mats[0])[0]
    candidates = o.columns(o.eye(r))
    for m in mats:
        candidates.extend(o.nullspace(m))
    if mode == "exact":
        for t in range(1, 6):
            v = [Fraction((t * i * i + 3 * i + t) % 7 - 3) for i in range(r)]
            if any(x != 0 for x in v):
                candidates.append(v)
    else:
        import numpy as np
        rng = np.random.default_rng(20240 + r)
        combo = sum(rng.standard_normal() * np.asarray(m, dtype=complex) for m in mats)
        candidates.extend(np.linalg.eig(combo)[1].T)  # the eigenvectors
    return candidates


# ---------------------------------------------------------------------------
# stability verdict


@dataclass
class StabilityReport:
    verdict: str  # stable | semistable_only | unstable | inconclusive
    full_slope: Fraction
    witness_subspace: object = None
    witness_slope: Fraction = None
    exhaustive: bool = False


def stability_verdict(h: HiggsTuple) -> StabilityReport:
    """Stable when the residues act irreducibly; otherwise compares the
    slopes of the invariant subspaces its candidate search finds.

    Requires the small-weights bound: without it, constant-subspace slope
    comparisons cannot certify semistability (a twisted sub-line-bundle
    with a heavy top weight defeats them), so the call refuses.
    The reducible branch is not an exhaustive search and may be
    inconclusive.
    """
    if not check_small_weights(h.sigma):
        raise WeightsNotSmallError(
            "weights are too large for subspace slope testing: "
            "the reduction to constant subspaces requires the small-weights bound"
        )
    full = parabolic_slope(h)
    cert = irreducible(_residues(h), h.mode)
    if cert.irreducible:
        return StabilityReport(verdict="stable", full_slope=full, exhaustive=True)
    # reducible: every subobject test happens on invariant subspaces
    best = None
    for basis in _invariant_subspace_candidates(h, cert):
        slope = parabolic_slope(h, basis)
        if slope > full:
            return StabilityReport(
                verdict="unstable",
                full_slope=full,
                witness_subspace=basis,
                witness_slope=slope,
            )
        if slope == full:
            best = basis
    if best is not None:
        return StabilityReport(
            verdict="semistable_only",
            full_slope=full,
            witness_subspace=best,
            witness_slope=full,
        )
    return StabilityReport(verdict="inconclusive", full_slope=full)


def _residues(h: HiggsTuple):
    """The residues, or the zero matrix, which generates the scalars as no residues do."""
    return h.matrices or [h.ops.zeros(h.rank, h.rank)]


def _invariant_subspace_candidates(h: HiggsTuple, cert):
    """Invariant subspaces to test: the first proper algebra closure of a
    witness candidate vector, then those of every flag column and flag step
    (an invariant step is its own closure).  No later witness closure: a
    float eigenvector of a nilpotent combination is off by a fractional
    power of roundoff, so its closure need not be invariant."""
    o = h.ops
    steps = [o.columns(b) for fl in h.flags for b in fl]
    seeds = [[v] for cols in steps for v in cols] + steps
    witness = _proper_closures(cert.elements, ([v] for v in _witness_candidates(_residues(h), h.mode)), o)
    return list(islice(witness, 1)) + list(_proper_closures(cert.elements, seeds, o))

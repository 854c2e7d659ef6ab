"""Reference algebra closures and Jordan chains for differential tests.

These are the library's former implementations, kept verbatim where they
could be:

- ``nilpotent_jordan_basis`` decided each candidate top vector by
  eliminating the whole span again (``rank(span + [v])``);
  ``starquiver.linalg_exact`` now keeps one incremental ``Span`` per level.
- ``irreducible`` closed the word basis frontier by frontier, tracked
  independence over Fraction in exact mode (``FractionSpan``), and searched
  for a witness with its own closure loop; here it returns that witness
  beside the certificate, which used to carry it.  ``starquiver.higgs`` now
  walks one element index, tracks exact independence in integers, and
  leaves the search to the stability verdict, whose first candidate
  (``witness``) is the witness its certificate carried.
- ``invariant_subspace_candidates`` put the certificate's witness first,
  rebuilt the word products from the certificate's words, took every
  nonzero seed line directly when all residues were zero, seeded closures
  with coordinate and random vectors besides the flag columns, and added
  the flag steps that passed a containment test.  Its closures cut float
  ranks at the absolute value ``IRREDUCIBLE_RTOL``; the library's closures
  now work at unit scale and count as the algebra's span does.
"""

from fractions import Fraction

import numpy as np

from starquiver import arith, higgs
from starquiver import linalg_exact as ex
from starquiver.higgs import IRREDUCIBLE_RTOL, IrreducibilityCertificate
from starquiver.starrep import BRIDGE_TOL


def nilpotent_jordan_basis(a):
    n = len(a)
    k, den = ex.clear(a)
    kernels = [[]]
    power = k
    while len(kernels[-1]) < n:
        if len(kernels) > n:
            raise ValueError("matrix is not nilpotent")
        kernels.append(ex.int_kernel(power))
        power = ex.imul(k, power)
    chains = []
    for s in range(len(kernels) - 1, 0, -1):
        span = kernels[s - 1] + [c[len(c) - s] for c in chains]
        found = ex.rank(span)
        for v in kernels[s]:
            if ex.rank(span + [v]) > found:
                span.append(v)
                found += 1
                chain = [v]
                for _ in range(s - 1):
                    chain.append([sum(x * y for x, y in zip(row, chain[-1])) for row in k])
                chains.append(chain)
    cols = [[Fraction(x, den**t) for x in v] for c in chains for t, v in enumerate(c)]
    return ex.mtrans(cols)


class FractionSpan:
    """Incremental linear independence of exact vectors: reduced Fraction
    rows with their pivot indices."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    def add(self, vec):
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c != 0:
                v = [x - c * y for x, y in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is None:
            return False
        inv = Fraction(1) / v[piv]
        self.rows.append([x * inv for x in v])
        self.pivots.append(piv)
        return True

    def __len__(self):
        return len(self.rows)


def _tracker(o):
    return FractionSpan() if o is arith.EXACT else o.span_tracker(IRREDUCIBLE_RTOL)


def witness(elements, mats, mode):
    """The first proper closure of a witness candidate vector of ``mats``
    under the word products ``elements``: the invariant subspace that the
    certificate of ``starquiver.higgs.irreducible`` used to carry."""
    seeds = ([v] for v in higgs._witness_candidates(mats, mode))
    return next(higgs._proper_closures(elements, seeds, arith.ops(mode)), None)


def irreducible(mats, mode="float"):
    """The former certificate, and its witness (None when irreducible)."""
    o = arith.ops(mode)
    r = o.shape(mats[0])[0]
    eye = o.eye(r)
    tracker = _tracker(o)
    tracker.add(o.flatten(eye))
    words = [()]
    elements = [eye]
    frontier = list(range(len(elements)))
    while frontier and len(tracker) < r * r:
        next_frontier = []
        for idx in frontier:
            for a_idx, a in enumerate(mats):
                prod = o.mul(a, elements[idx])
                if tracker.add(o.flatten(prod)):
                    words.append((a_idx,) + words[idx])
                    elements.append(prod)
                    next_frontier.append(len(elements) - 1)
                    if len(tracker) == r * r:
                        break
            if len(tracker) == r * r:
                break
        frontier = next_frontier
    if len(tracker) == r * r:
        return IrreducibilityCertificate(True, words, elements), None
    return IrreducibilityCertificate(False, words, elements), _find_invariant_subspace(mats, elements, mode)


def _column(o, v):
    return [[x] for x in v] if o is arith.EXACT else np.asarray(v).reshape(-1, 1)


def _algebra_closure_of_vector(elements, v, o):
    stacked = o.from_columns([o.apply(m, v) for m in elements])
    # the former float cut: singular values above IRREDUCIBLE_RTOL, absolute
    rk = o.rank(stacked) if o is arith.EXACT else int(np.sum(np.linalg.svd(stacked, compute_uv=False) > IRREDUCIBLE_RTOL))
    if rk == 0 or rk == o.shape(stacked)[0]:
        return None
    return o.basis(stacked, rk)


def _find_invariant_subspace(mats, elements, mode):
    o = arith.ops(mode)
    r = o.shape(mats[0])[0]
    candidates = o.columns(o.eye(r))
    for m in mats:
        candidates.extend(o.nullspace(m))
    if o is arith.EXACT:
        for t in range(1, 6):
            v = [Fraction((t * i * i + 3 * i + t) % 7 - 3) for i in range(r)]
            if any(x != 0 for x in v):
                candidates.append(v)
    else:
        rng = np.random.default_rng(20240 + r)
        combo = sum(rng.standard_normal() * np.asarray(m, dtype=complex) for m in mats)
        vals, vecs = np.linalg.eig(combo)
        for col in range(vecs.shape[1]):
            candidates.append(vecs[:, col])
    for v in candidates:
        basis = _algebra_closure_of_vector(elements, v, o)
        if basis is not None:
            return basis
    return None


def invariant_subspace_candidates(h, cert):
    r = h.rank
    o = h.ops
    mats = h.matrices
    all_zero = all(o.is_zero(m) for m in mats)
    eye = o.eye(r)
    elements = [eye]
    for word in cert.words:
        m = eye
        for idx in word:
            m = o.mul(mats[idx], m)
        elements.append(m)
    first = witness(cert.elements, mats or [o.zeros(r, r)], h.mode)
    out = [] if first is None else [first]
    seeds = [v for fl in h.flags for b in fl for v in o.columns(b)]
    seeds += o.columns(eye)
    rng = np.random.default_rng(0)
    for _ in range(4):
        if o is arith.EXACT:
            seeds.append([Fraction(int(rng.integers(-5, 6))) for _ in range(r)])
        else:
            seeds.append(rng.standard_normal(r) + 1j * rng.standard_normal(r))
    for v in seeds:
        basis = _column(o, v)
        if o.is_zero(basis):
            continue
        if all_zero:
            if o.rank(basis) == 1:
                out.append(basis)
            continue
        basis = _algebra_closure_of_vector(elements, v, o)
        if basis is not None:
            out.append(basis)
    for i in range(h.n):
        for b in h.flags[i]:
            invariant = all(o.contains(b, o.mul(m, b), BRIDGE_TOL) for m in mats)
            if invariant:
                out.append(b)
    return out

"""Differential tests of the incremental exact span, the Jordan chains and
the algebra closures against the former implementations in
``closure_oracle``, and properties of every invariant subspace the
closures return."""

from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closure_oracle as oracle
from common import assert_witness_pairing, same_column_space, twisted_slope
import linalg_oracle
from starquiver import arith, floatarith, higgs
from starquiver import linalg_exact as ex
from starquiver.combinat import MarkedLine, NilpotentClass, ParabolicType
from starquiver.dsolve import DSInstance, DSSolution, exact_refine, flags_from_solution, rank_profile
from starquiver.higgs import HiggsTuple, irreducible, parabolic_slope, stability_verdict
from starquiver.starrep import BRIDGE_TOL

F = Fraction


# ---------------------------------------------------------------------------
# the incremental span


def _oracle_rank(vectors):
    return len(linalg_oracle.rref([[F(x) for x in v] for v in vectors])[1])


@st.composite
def vector_streams(draw):
    """Vectors of one length, int or Fraction entries, with zero vectors,
    repeats and combinations of earlier vectors mixed in."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-9, 9), st.integers(1, 7)))
    fresh = st.lists(entry, min_size=n, max_size=n)
    stream = [draw(fresh)]
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            stream.append([draw(st.sampled_from([0, F(0)]))] * n)
        elif kind == 1:
            stream.append(list(draw(st.sampled_from(stream))))
        elif kind == 2:
            c = draw(st.lists(st.integers(-2, 2), min_size=len(stream), max_size=len(stream)))
            stream.append([sum((ck * v[j] for ck, v in zip(c, stream)), F(0)) for j in range(n)])
        else:
            stream.append(draw(fresh))
    return stream


@settings(derandomize=True, max_examples=300, deadline=None)
@given(vector_streams())
def test_span_adds_exactly_when_the_oracle_rank_grows(stream):
    span = ex.Span()
    for k, v in enumerate(stream):
        assert span.add(v) == (_oracle_rank(stream[: k + 1]) > _oracle_rank(stream[:k]))
    assert len(span) == _oracle_rank(stream)
    for k, (row, piv) in enumerate(zip(span.rows, span.pivots)):
        assert all(isinstance(x, int) for x in row)
        assert np.gcd.reduce(row) == 1 and row[piv] != 0 and not any(row[:piv])
        assert all(row[p] == 0 for p in span.pivots[:k])


def test_span_of_the_zero_vector_stays_empty():
    span = ex.Span()
    assert not span.add([0, F(0), 0]) and len(span) == 0
    assert span.add([F(1, 2), 0, F(-3, 4)]) and span.rows == [[2, 0, -3]]
    assert not span.add([2, 0, -3])


# ---------------------------------------------------------------------------
# Jordan chains


def test_jordan_conjugators_match_oracle_on_certified_batch(certified_batch, monkeypatch):
    # every nilpotent the refinement puts in Jordan form, through both
    # implementations; the power ranks read off the kernel chain are the
    # exact rank profile
    seen = []
    jordan = ex.nilpotent_jordan_basis
    monkeypatch.setattr(ex, "nilpotent_jordan_basis", lambda n: seen.append(n) or jordan(n))
    for inst, out in certified_batch:
        if out.success:
            exact_refine(out.solution, inst)
    assert len(seen) >= 80
    for n in seen:
        p, ranks = jordan(n)
        assert p == oracle.nilpotent_jordan_basis(n)
        assert ranks == rank_profile([n], "exact")[0]


# ---------------------------------------------------------------------------
# algebra closures


def _unimodular(rng, r):
    low = np.tril(rng.integers(-2, 3, size=(r, r)), -1) + np.eye(r, dtype=int)
    up = np.triu(rng.integers(-2, 3, size=(r, r)), 1) + np.eye(r, dtype=int)
    p = low @ up
    return p, np.rint(np.linalg.inv(p)).astype(int)


def _as_mode(mats, mode):
    if mode == "exact":
        return [[[F(int(x)) for x in row] for row in m] for m in mats]
    return [m.astype(complex) for m in mats]


def block_triangular_tuple(seed):
    """One to three integer matrices of rank 2 to 4 with a zero lower-left
    block, conjugated by a unimodular integer matrix: reducible, with an
    invariant subspace of the upper block's size."""
    rng = np.random.default_rng([7, seed])
    r = int(rng.integers(2, 5))
    k = int(rng.integers(1, r))
    mats = []
    for _ in range(int(rng.integers(1, 4))):
        m = rng.integers(-3, 4, size=(r, r))
        m[k:, :k] = 0
        mats.append(m)
    p, pinv = _unimodular(rng, r)
    return [p @ m @ pinv for m in mats]


def _proper_and_invariant(w, mats, o):
    k = o.shape(w)[1]
    r = o.shape(mats[0])[0]
    return 0 < k < r and o.rank(w) == k and all(o.contains(w, o.mul(m, w), BRIDGE_TOL) for m in mats)


# factors that rescale the float tuples: the closures work at unit scale, so
# neither witnesses nor verdicts depend on the size of the residues
SCALES = (1e-6, 1e-3, 1e3, 1e6)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_irreducible_matches_oracle_on_reducible_tuples(mode):
    # the first closure of a witness candidate (the verdict's first
    # candidate, which the certificate used to carry) agrees with the
    # oracle's witness as a column space: the closures keep their span
    # trackers' rows (primitive integer rows, or Gram-Schmidt rows of
    # unit-scale inputs), not the oracle's columns
    o = arith.ops(mode)
    witnesses = 0
    for seed in range(60):
        mats = _as_mode(block_triangular_tuple(seed), mode)
        new, (old, old_witness) = irreducible(mats, mode), oracle.irreducible(mats, mode)
        assert (new.irreducible, new.words) == (old.irreducible, old.words)
        assert not new.irreducible
        witness = oracle.witness(new.elements, mats, mode)
        assert same_column_space(witness, old_witness, o)
        if o is floatarith.FLOAT:
            for c in SCALES:
                scaled = [c * m for m in mats]
                w = oracle.witness(irreducible(scaled, mode).elements, scaled, mode)
                assert w is not None and _proper_and_invariant(w, mats, o)
        if witness is not None:
            assert _proper_and_invariant(witness, mats, o)
            witnesses += 1
    # the witness candidates are heuristic: about half of the exact tuples
    # get no witness
    assert witnesses >= 25


def test_certificate_carries_the_word_products():
    # and nothing else: a reducible tuple's certificate holds no invariant
    # subspace, which stability_verdict alone searches
    mats = _as_mode(block_triangular_tuple(3), "exact")
    cert = irreducible(mats, "exact")
    assert not cert.irreducible
    assert [f.name for f in fields(cert)] == ["irreducible", "words", "elements"]
    for word, m in zip(cert.words, cert.elements, strict=True):
        product = ex.meye(len(mats[0]))
        for idx in reversed(word):
            product = ex.mmul(mats[idx], product)
        assert m == product


def nilpotent_tuple(seed, mode, stream=11, ranks=(2, 5), n=4):
    """n strictly upper triangular integer residues summing to zero,
    conjugated by a unimodular matrix, with their image flags: reducible
    residue tuples whose flag steps need not be invariant.  The rank is
    drawn from ``range(*ranks)`` of the random stream (stream, seed)."""
    rng = np.random.default_rng([stream, seed])
    r = int(rng.integers(*ranks))
    mats = [np.triu(rng.integers(-2, 3, size=(r, r)), 1) for _ in range(n - 1)]
    mats.append(-sum(mats))
    p, pinv = _unimodular(rng, r)
    mats = [p @ m @ pinv for m in mats]
    classes = [NilpotentClass(rank=r, rank_sequence=s) for s in rank_profile(_as_mode(mats, "exact"), "exact")]
    sigma = DSInstance(rank=r, classes=classes).parabolic_type()
    entries = _as_mode(mats, "exact") if mode == "exact" else [m.astype(float) for m in mats]
    return flags_from_solution(DSSolution(entries, [ex.meye(r)] * n, 0.0, mode=mode), sigma)


def _former_verdict(h, monkeypatch):
    """The verdict with the former candidate list in place of the closures."""
    with monkeypatch.context() as m:
        m.setattr(higgs, "_invariant_subspace_candidates", oracle.invariant_subspace_candidates)
        return stability_verdict(h)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_every_candidate_and_witness_is_proper_and_invariant(mode, monkeypatch):
    # the former candidates multiplied each word's letters in reverse
    # order, which on some of these tuples gave a subspace that is not
    # invariant; the closures now use the certificate's own word products.
    # The closures of the flags alone reach the former verdicts, and a
    # rescaled float tuple (its tolerance scaled with it) keeps its verdict
    o = arith.ops(mode)
    former_misses = 0
    for seed in range(60):
        h = nilpotent_tuple(seed, mode)
        cert = irreducible(h.matrices, mode)
        candidates = higgs._invariant_subspace_candidates(h, cert)
        assert candidates and all(_proper_and_invariant(w, h.matrices, o) for w in candidates)
        former = oracle.invariant_subspace_candidates(h, cert)
        former_misses += not all(_proper_and_invariant(w, h.matrices, o) for w in former)
        rep = stability_verdict(h)
        if rep.witness_subspace is not None:
            assert _proper_and_invariant(rep.witness_subspace, h.matrices, o)
        assert_witness_pairing(h, rep)
        old = _former_verdict(h, monkeypatch)
        assert (rep.verdict, rep.full_slope) == (old.verdict, old.full_slope)
        if o is floatarith.FLOAT:
            for c in SCALES:
                scaled = replace(h, matrices=[c * m for m in h.matrices], tol=h.tol * max(1.0, c))
                assert stability_verdict(scaled).verdict == rep.verdict
    assert former_misses >= 1


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_five_point_verdicts_match_the_former_ones(mode, monkeypatch):
    # ranks 3 to 5 at five points: the search, first witness closure first,
    # reaches the verdicts and full slopes of the former candidates, and
    # every witness is proper, invariant and paired as its verdict says
    o = arith.ops(mode)
    verdicts = set()
    for seed in range(40):
        h = nilpotent_tuple(seed, mode, stream=13, ranks=(3, 6), n=5)
        rep = stability_verdict(h)
        if rep.witness_subspace is not None:
            assert _proper_and_invariant(rep.witness_subspace, h.matrices, o)
        assert_witness_pairing(h, rep)
        old = _former_verdict(h, monkeypatch)
        assert (rep.verdict, rep.full_slope) == (old.verdict, old.full_slope)
        verdicts.add(rep.verdict)
    assert "unstable" in verdicts


def zero_residue_tuple(rng, r, mode):
    """Zero residues at four points with random full flags (nested integer
    bases with small entries, so that lines often coincide) and small
    weights."""
    flags = []
    for _ in range(4):
        while True:
            b = rng.integers(-1, 2, size=(r, r - 1))
            if np.linalg.matrix_rank(b) == r - 1:
                break
        flags.append([b[:, : r - 1 - j] for j in range(r - 1)])
    weights = tuple(tuple(sorted(int(w) for w in rng.choice(4, size=r, replace=False))) for _ in range(4))
    sigma = ParabolicType(line=MarkedLine((0, 1, 2, 3)), rank=r, K=8 * r * r, multiplicities=((1,) * r,) * 4, weights=weights)
    o = arith.ops(mode)
    flags = [[o.from_exact([[F(int(x)) for x in row] for row in b]) for b in fl] for fl in flags]
    return HiggsTuple(sigma, [o.zeros(r, r)] * 4, flags, mode=mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("r", [2, 3])
def test_zero_residues_test_the_former_subspaces(r, mode, monkeypatch):
    # with every residue zero the algebra is the scalars, so the closure of
    # a flag column is its line and that of a flag step the step: the
    # verdicts are those of the former branch, which also took coordinate
    # and random lines (a different destabilizing subspace may come first)
    o = arith.ops(mode)
    rng = np.random.default_rng([5, r, mode == "exact"])
    verdicts = set()
    for _ in range(25):
        h = zero_residue_tuple(rng, r, mode)
        cert = irreducible(h.matrices, mode)
        assert all(_proper_and_invariant(w, h.matrices, o) for w in higgs._invariant_subspace_candidates(h, cert))
        rep = stability_verdict(h)
        former = _former_verdict(h, monkeypatch)
        assert (rep.verdict, rep.full_slope) == (former.verdict, former.full_slope)
        assert_witness_pairing(h, rep)
        verdicts.add(rep.verdict)
    assert {"unstable", "inconclusive"} <= verdicts


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_closure_bases_have_full_rank_and_slopes_keep_the_three_rank_rule(mode):
    # every closure basis is its span tracker's rows, so of full column
    # rank; parabolic_slope meets a flag step F as rk F + k - rk [F W],
    # which on every candidate is the former rule rk F + rk W - rk [F W]
    o = arith.ops(mode)
    for seed in range(60):
        mats = _as_mode(block_triangular_tuple(seed), mode)
        seeds = ([v] for v in higgs._witness_candidates(mats, mode))
        for w in higgs._proper_closures(irreducible(mats, mode).elements, seeds, o):
            assert _proper_and_invariant(w, mats, o)
    tuples = [nilpotent_tuple(seed, mode) for seed in range(60)]
    for r in (2, 3):
        rng = np.random.default_rng([5, r, mode == "exact"])
        tuples += [zero_residue_tuple(rng, r, mode) for _ in range(25)]
    for h in tuples:
        for w in higgs._invariant_subspace_candidates(h, irreducible(h.matrices, mode)):
            assert o.rank(w) == o.shape(w)[1]
            assert parabolic_slope(h, w) == twisted_slope(h, 0, [w] * h.n)

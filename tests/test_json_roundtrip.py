"""JSON round trips of every value type the CLI reads and writes, in both
entry formats, through the text ``jsonio.dumps`` writes: exact entries of
up to about 2000 bits (the size ``certify`` writes) and complex float
entries (derandomized property tests).  The CLI only reads nilpotent
classes and instances, so their encoders live in ``common``; it only
writes coefficient points, so theirs are parsed back field by field."""

import json
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from common import HUGE, class_to_json, instance_to_json
from starquiver import jsonio
from starquiver.combinat import MarkedLine, NilpotentClass, ParabolicType
from starquiver.dsolve import DSInstance, DSSolution
from starquiver.higgs import HiggsTuple
from starquiver.spectral import HitchinPoint
from starquiver.starrep import StarQuiver, StarRep

_MODES = st.sampled_from(["exact", "float"])

_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)) | st.builds(
    Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)
)
_complexes = st.complex_numbers(allow_nan=False, allow_infinity=False)


def _through_text(payload):
    return json.loads(jsonio.dumps(payload))


def _matrices(mode, m, n):
    """An m x n matrix: Fraction row lists, or a complex array."""
    entries = _fractions if mode == "exact" else _complexes
    grid = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)
    return grid if mode == "exact" else grid.map(lambda g: np.array(g, dtype=complex).reshape(m, n))


def _same(a, b, mode):
    """Equal entries in the same format."""
    if mode == "exact":
        return a == b and all(type(x) is Fraction for row in b for x in row)
    return isinstance(b, np.ndarray) and b.dtype == complex and b.shape == a.shape and np.array_equal(a, b)


def _compositions(total):
    """Ordered positive parts summing to ``total``."""
    return st.lists(st.booleans(), min_size=total - 1, max_size=total - 1).map(
        lambda cuts: [len(p) + 1 for p in "".join("|" if c else "." for c in cuts).split("|")]
    )


def _partitions(rank):
    return _compositions(rank).map(lambda p: sorted(p, reverse=True))


@st.composite
def parabolic_types(draw, rank=None):
    """1 to 5 distinct points (some of about 2000 bits), flag steps at each
    point, and strictly increasing weights below K."""
    rank = draw(st.integers(1, 5)) if rank is None else rank
    points = draw(st.lists(_fractions, min_size=1, max_size=5, unique=True))
    mults = [draw(_compositions(rank)) for _ in points]
    k = draw(st.integers(max(map(len, mults)), 12))
    weights = [sorted(draw(st.lists(st.integers(0, k - 1), min_size=len(m), max_size=len(m), unique=True))) for m in mults]
    return ParabolicType(MarkedLine(tuple(points)), rank, k, mults, weights)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_MODES.flatmap(lambda mode: st.tuples(st.just(mode), st.integers(1, 4), st.integers(0, 4))).flatmap(
    lambda c: st.tuples(st.just(c[0]), _matrices(*c))))
def test_matrix_round_trip(case):
    mode, a = case
    back = jsonio.matrix_from_json(_through_text(jsonio.matrix_to_json(a, mode)), mode)
    assert _same(a, back, mode)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(parabolic_types())
def test_type_round_trip(sigma):
    assert jsonio.type_from_json(_through_text(jsonio.type_to_json(sigma))) == sigma


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(_partitions))
@example([3, 2])
def test_class_round_trip(partition):
    c = NilpotentClass.from_partition(partition)
    assert jsonio.class_from_json(_through_text(class_to_json(c))) == c
    # a partition alone decodes to the same class
    assert jsonio.class_from_json({"rank": c.rank, "partition": partition}) == c


@st.composite
def instances(draw):
    rank = draw(st.integers(1, 5))
    classes = draw(st.lists(_partitions(rank).map(NilpotentClass.from_partition), min_size=1, max_size=6))
    points = draw(st.none() | st.lists(_fractions, min_size=len(classes), max_size=len(classes), unique=True))
    return DSInstance(rank, classes, points)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(instances())
def test_instance_round_trip(inst):
    assert jsonio.instance_from_json(_through_text(instance_to_json(inst))) == inst


@st.composite
def representations(draw):
    mode = draw(_MODES)
    rank = draw(st.integers(1, 4))
    arms = draw(st.lists(st.lists(st.integers(1, rank), max_size=rank, unique=True).map(
        lambda a: sorted(a, reverse=True)), min_size=1, max_size=3))
    q = StarQuiver(rank, arms)
    f, g = [], []
    for j in range(q.n_arms):
        dims = q.dims(j)
        f.append([draw(_matrices(mode, b, a)) for a, b in zip(dims, dims[1:])])
        g.append([draw(_matrices(mode, a, b)) for a, b in zip(dims, dims[1:])])
    return StarRep(q, f, g, mode)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(representations())
def test_rep_round_trip(rep):
    back = jsonio.rep_from_json(_through_text(jsonio.rep_to_json(rep)))
    assert back.quiver == rep.quiver and back.mode == rep.mode
    for maps, back_maps in ((rep.f, back.f), (rep.g, back.g)):
        for arm, back_arm in zip(maps, back_maps, strict=True):
            assert all(_same(a, b, rep.mode) for a, b in zip(arm, back_arm, strict=True))


@st.composite
def unchecked_residue_tuples(draw):
    """Unchecked residue tuples: any matrices, flag bases of the step widths."""
    mode = draw(_MODES)
    sigma = draw(st.integers(1, 4).flatmap(parabolic_types))
    r = sigma.rank
    mats = [draw(_matrices(mode, r, r)) for _ in range(sigma.n_points)]
    flags = [[draw(_matrices(mode, r, g)) for g in sigma.gamma(i)] for i in range(sigma.n_points)]
    return HiggsTuple(sigma, mats, flags, mode=mode, check=False)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(unchecked_residue_tuples())
def test_higgs_round_trip(h):
    back = jsonio.higgs_from_json(_through_text(jsonio.higgs_to_json(h)), check=False)
    assert back.sigma == h.sigma and back.mode == h.mode
    assert all(_same(a, b, h.mode) for a, b in zip(h.matrices, back.matrices, strict=True))
    for fl, back_fl in zip(h.flags, back.flags, strict=True):
        assert all(_same(a, b, h.mode) for a, b in zip(fl, back_fl, strict=True))


@st.composite
def hitchin_points(draw):
    rank = draw(st.integers(1, 5))
    points = draw(st.lists(_fractions, min_size=2, max_size=5, unique=True))
    coeffs = [draw(st.lists(_fractions, max_size=j * (len(points) - 2) + 1)) for j in range(1, rank + 1)]
    return HitchinPoint(rank, points, coeffs)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(hitchin_points())
def test_hitchin_round_trip(hp):
    # no subcommand reads a coefficient point back; the text that the
    # --hitchin appendix writes parses to the same exact values
    data = _through_text(jsonio.hitchin_to_json(hp))
    assert data["rank"] == hp.rank
    assert tuple(map(jsonio.parse_frac, data["points"])) == hp.points
    assert [[jsonio.parse_frac(c) for c in p] for p in data["coefficients"]] == hp.coeffs


@st.composite
def solutions(draw):
    mode = draw(_MODES)
    r, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    return DSSolution(
        matrices=[draw(_matrices(mode, r, r)) for _ in range(n)],
        conjugators=[draw(_matrices(mode, r, r)) for _ in range(n)],
        residual=draw(st.floats(0, 1e300)),
        mode=mode,
        restart_index=draw(st.integers(-1, 10**6)),
        iterations=draw(st.integers(0, 10**6)),
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(solutions())
def test_solution_round_trip(sol):
    back = jsonio.solution_from_json(_through_text(jsonio.solution_to_json(sol)))
    assert (back.mode, back.residual, back.restart_index, back.iterations) == (
        sol.mode, sol.residual, sol.restart_index, sol.iterations)
    for mats, back_mats in ((sol.matrices, back.matrices), (sol.conjugators, back.conjugators)):
        assert all(_same(a, b, sol.mode) for a, b in zip(mats, back_mats, strict=True))

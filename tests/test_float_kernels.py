"""Differential and property tests of the float kernels behind the bridge
round trip: the broadcast Kronecker product ``floatarith.kron`` against
``np.kron``, ``orbit_jacobian`` against its per-block ``np.kron`` formula,
cycle traces against an identity-started product and bit for bit against
``np.trace``, center cycles against a step-by-step enumeration, the cut
of ``floatarith.singular_rank``, and the batched level-1 Hamiltonian rows
and count against the per-(t, z) trace-power gradients."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poisson_oracle
from starquiver import poisson
from starquiver.combinat import spectral_degrees
from starquiver.dsolve import SolverConfig, flags_from_solution, orbit_jacobian, random_feasible_instance, solve
from starquiver.floatarith import kron, singular_rank
from starquiver.higgs import higgs_to_quiver
from starquiver.poisson import (
    HAMILTONIAN_RANK_RTOL,
    MOMENT_RANK_RTOL,
    independent_hamiltonian_count,
    moment_zero_tangent,
    pack_rep,
    phi_value,
    trace_power_observable,
)
from starquiver.starrep import InvalidCycle, StarQuiver, StarRep, center_cycles, random_rep, trace_along_cycle

# ---------------------------------------------------------------------------
# the Kronecker product


def _draw(rng, shape, complex_entries):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if complex_entries else x


@st.composite
def kron_operands(draw):
    """Two arrays of 0x0 to 4x4 matrices, real or complex, either, both or
    neither with leading stack axes that broadcast against each other."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n, p, q = draw(st.tuples(*[st.integers(0, 4)] * 4))
    stack_a, stack_b = draw(st.sampled_from([((), ()), ((3,), ()), ((), (3,)), ((2, 3), (3,)), ((2, 1), (1, 4))]))
    a = _draw(rng, stack_a + (m, n), draw(st.booleans()))
    b = _draw(rng, stack_b + (p, q), draw(st.booleans()))
    return a, b


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kron_operands())
def test_kron_equals_numpy_kron_matrix_by_matrix(operands):
    a, b = operands
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    count = int(np.prod(lead))
    pairs = zip(
        np.broadcast_to(a, lead + a.shape[-2:]).reshape((count,) + a.shape[-2:]),
        np.broadcast_to(b, lead + b.shape[-2:]).reshape((count,) + b.shape[-2:]),
    )
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    expected = np.array([np.kron(x, y) for x, y in pairs]).reshape(lead + (rows, cols))
    out = kron(a, b)
    assert out.shape == expected.shape and out.dtype == expected.dtype
    assert np.array_equal(out, expected)


# ---------------------------------------------------------------------------
# the orbit Jacobian


def kron_orbit_jacobian(mats):
    """Block i is I (x) A_i^T - A_i (x) I, each from two ``np.kron`` calls."""
    eye = np.eye(mats[0].shape[0])
    return np.hstack([np.kron(eye, a.T) - np.kron(a, eye) for a in mats])


def _tuples(rng, r, n):
    """Random, nilpotent, all-zero and partly zero tuples of n r x r matrices."""
    nil = np.diag(np.ones(r - 1), 1)
    ps = rng.standard_normal((n, r, r))
    conj = ps @ nil @ np.linalg.inv(ps)
    partly = rng.standard_normal((n, r, r))
    partly[::2] = 0.0
    return [rng.standard_normal((n, r, r)), conj, np.zeros((n, r, r)), partly]


@pytest.mark.parametrize("r", range(1, 6))
@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_jacobian_equals_the_kron_formula(r, n):
    rng = np.random.default_rng([r, n])
    for mats in _tuples(rng, r, n):
        expected = kron_orbit_jacobian(mats)
        for arg in (mats, list(mats)):  # the solver's stacked array, or a list
            out = orbit_jacobian(arg)
            assert out.shape == (r * r, n * r * r)
            assert np.array_equal(out, expected)


# ---------------------------------------------------------------------------
# cycle traces

QUIVER = StarQuiver(rank=3, arms=((2, 1), (1,), (2,), ()))


def identity_started_trace(rep, cycle):
    """The trace of the walk's product started from the identity."""
    o = rep.ops
    acc = o.eye(rep.quiver.rank)
    for kind, j, level in cycle:
        acc = o.mul((rep.f if kind == "f" else rep.g)[j][level - 1], acc)
    return o.trace(acc)


def exact_rep(quiver, rng):
    def draw(m, n):
        return [[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(n)] for _ in range(m)]

    dims = [quiver.dims(j) for j in range(quiver.n_arms)]
    f = [[draw(d[i + 1], d[i]) for i in range(len(d) - 1)] for d in dims]
    g = [[draw(d[i], d[i + 1]) for i in range(len(d) - 1)] for d in dims]
    return StarRep(quiver, f, g, "exact")


@pytest.fixture(params=["float", "exact"])
def cycle_rep(request):
    rng = np.random.default_rng(5)
    return random_rep(QUIVER, rng) if request.param == "float" else exact_rep(QUIVER, rng)


def test_trace_along_cycle_equals_the_identity_started_product(cycle_rep):
    cycles = center_cycles(QUIVER, 6)
    assert len(cycles) > 20 and max(map(len, cycles)) == 6
    for cyc in [()] + cycles:
        assert trace_along_cycle(cycle_rep, cyc) == identity_started_trace(cycle_rep, cyc)
    assert trace_along_cycle(cycle_rep, []) == QUIVER.rank


def test_float_cycle_traces_keep_the_bits_of_np_trace():
    # FLOAT.trace is the ndarray method that np.trace forwards to: every
    # trace keeps its bits, on the walk's product from its first factor on
    rep = random_rep(QUIVER, np.random.default_rng(7))
    for cyc in center_cycles(QUIVER, 6):
        factors = [(rep.f if kind == "f" else rep.g)[j][level - 1] for kind, j, level in cyc]
        expected = np.trace(functools.reduce(lambda acc, factor: factor @ acc, factors))
        got = trace_along_cycle(rep, cyc)
        assert (type(got), got.tobytes()) == (type(expected), expected.tobytes())


def step_by_step_cycles(quiver, max_len):
    """Every closed center-based walk of length <= max_len, one step per
    recursion: the enumeration ``center_cycles`` used before it was built
    from excursions."""
    out = []

    def extend(path, at, remaining):
        if at is None and path:
            out.append(tuple(path))
        if remaining <= 0:
            return
        if at is None:
            for j in range(quiver.n_arms):
                if quiver.arms[j]:
                    extend(path + [("f", j, 1)], (j, 1), remaining - 1)
        else:
            j, level = at
            if level < len(quiver.arms[j]):
                extend(path + [("f", j, level + 1)], (j, level + 1), remaining - 1)
            extend(path + [("g", j, level)], (j, level - 1) if level > 1 else None, remaining - 1)

    extend([], None, max_len)
    return out


@st.composite
def quivers(draw):
    """Rank 1-4, 0-5 arms, each possibly empty."""
    r = draw(st.integers(1, 4))
    arms = tuple(tuple(sorted(draw(st.sets(st.integers(1, r))), reverse=True)) for _ in range(draw(st.integers(0, 5))))
    return StarQuiver(rank=r, arms=arms)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(quivers(), st.integers(-3, 8))
def test_center_cycles_equal_the_step_by_step_enumeration(quiver, max_len):
    assert center_cycles(quiver, max_len) == step_by_step_cycles(quiver, max_len)


@pytest.mark.parametrize(
    "cycle, message",
    [
        ([("f", 4, 1)], "no vertex at arm 4 level 1"),
        ([("f", 0, 3)], "no vertex at arm 0 level 3"),
        ([("g", 3, 1)], "no vertex at arm 3 level 1"),
        ([("f", 0, 2)], "outward step .* does not start at None"),
        ([("f", 0, 1), ("f", 1, 1)], r"outward step .* does not start at \(0, 1\)"),
        ([("g", 0, 1)], "inward step .* does not start at None"),
        ([("f", 0, 1), ("f", 0, 2), ("g", 0, 1)], r"inward step .* does not start at \(0, 2\)"),
        ([("f", 0, 1), ("h", 0, 1)], "unknown step kind 'h'"),
        ([("f", 0, 1)], "walk does not return to the central vertex"),
        ([("f", 0, 1), ("f", 0, 2), ("g", 0, 2)], "walk does not return to the central vertex"),
    ],
)
def test_trace_along_cycle_rejects_each_invalid_walk(cycle_rep, cycle, message):
    with pytest.raises(InvalidCycle, match=message):
        trace_along_cycle(cycle_rep, cycle)


# ---------------------------------------------------------------------------
# the singular-value count


@pytest.mark.parametrize("rtol", [MOMENT_RANK_RTOL, HAMILTONIAN_RANK_RTOL])
def test_singular_rank_cut(rtol):
    assert (MOMENT_RANK_RTOL, HAMILTONIAN_RANK_RTOL) == (1e-8, 1e-6)
    for top in (1.0, 3e5):
        assert singular_rank(np.array([top, 1.01 * rtol * top, 0.0]), rtol) == 2
        assert singular_rank(np.array([top, 0.99 * rtol * top, 0.0]), rtol) == 1
    assert singular_rank(np.zeros(3), rtol) == 0
    assert singular_rank(np.zeros(0), rtol) == 0
    # a floor above the largest value anchors the cut there, one below it
    # changes nothing; an empty spectrum still counts 0
    s = np.array([2 * rtol, 1.01 * rtol, 0.99 * rtol])
    assert singular_rank(s, rtol) == 3
    assert singular_rank(s, rtol, floor=1.0) == 2
    assert singular_rank(s, rtol, floor=rtol) == 3
    assert singular_rank(np.zeros(0), rtol, floor=1.0) == 0


# ---------------------------------------------------------------------------
# Hamiltonian rows


def per_observable_count(rep, points, ts, zs):
    """The count from one trace-power observable's gradient per (t, z)."""
    tangent = moment_zero_tangent(rep)
    rows = [
        pack_rep(trace_power_observable(rep.quiver, points, t, z, selfcheck=False).grad(rep)) @ tangent
        for t in ts
        for z in zs
    ]
    return singular_rank(np.linalg.svd(np.stack(rows), compute_uv=False), HAMILTONIAN_RANK_RTOL)


def test_hamiltonian_counts_on_the_bridge_batch():
    # the first 50 draws of the bridge stream with solver seeds 500 + k, as
    # the bridge benchmark and the acceptance round trip use them
    rng = np.random.default_rng(9)
    for k in range(50):
        inst = random_feasible_instance(rng, max_rank=3, max_points=6)
        out = solve(inst, SolverConfig(seed=500 + k))
        assert out.success
        sigma = inst.parabolic_type()
        rep = higgs_to_quiver(flags_from_solution(out.solution, sigma))
        r, n = inst.rank, inst.n
        zs = [i - 0.5 for i in range(r * (n - 2) + 2)]
        points, ts = [float(x) for x in inst.points], list(range(1, r + 1))
        count = independent_hamiltonian_count(rep, points, ts, zs)
        assert count == per_observable_count(rep, points, ts, zs) == spectral_degrees(sigma)[1]


@pytest.mark.parametrize(
    "quiver",
    [
        StarQuiver(rank=2, arms=((1,),) * 4),
        StarQuiver(rank=3, arms=((2, 1),) * 4),
        StarQuiver(rank=5, arms=((4, 3, 2, 1),) * 4),
        StarQuiver(rank=3, arms=((), (2, 1), ())),
        StarQuiver(rank=2, arms=((), ())),
    ],
    ids=["d16", "d64", "d320", "one-arm", "d0"],
)
def test_moment_zero_tangent_is_the_identity_at_a_zero_rep(quiver):
    # the Jacobian is zero: its right singular vectors are the identity
    # that the former rank-0 branch returned
    rep = random_rep(quiver, np.random.default_rng(0), scale=0.0)
    tangent = moment_zero_tangent(rep)
    assert tangent.shape == (quiver.phase_dim(),) * 2 and tangent.dtype == complex
    assert np.array_equal(tangent, poisson_oracle.moment_zero_tangent(rep))
    points = [0.0, 1.0, 2.0, 3.0][: quiver.n_arms]
    assert independent_hamiltonian_count(rep, points, [1, 2], [0.5, 1.5]) == 0


def test_moment_zero_tangent_keeps_its_bits_on_bridge_reps():
    rng = np.random.default_rng(9)
    for k in range(10):
        inst = random_feasible_instance(rng, max_rank=3, max_points=6)
        rep = higgs_to_quiver(flags_from_solution(solve(inst, SolverConfig(seed=500 + k)).solution, inst.parabolic_type()))
        assert moment_zero_tangent(rep).tobytes() == poisson_oracle.moment_zero_tangent(rep).tobytes()


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_hamiltonian_rows_match_the_trace_power_gradients(r):
    # powers up to phi^(r+1), past the products that matrix_power and the
    # stacked running product form alike
    rng = np.random.default_rng(r)
    points = [0.0, 1.0, 2.0, 3.0]
    quiver = StarQuiver(rank=r, arms=(tuple(range(r - 1, 0, -1)),) * 4)
    rep = random_rep(quiver, rng, scale=0.5)
    ts, zs = list(range(1, r + 3)), [-0.75, 0.5, 1.25, 2.5, 3.75]
    level1 = poisson._level1_coordinates(quiver)
    batched = poisson._hamiltonian_rows(rep, points, ts, zs)
    assert batched.shape == (len(ts) * len(zs), level1.size)
    for row, (t, z) in zip(batched, [(t, z) for t in ts for z in zs], strict=True):  # t-major rows
        # the rows hold the level-1 slots only; put them back among zeros
        packed = np.zeros(quiver.phase_dim(), dtype=complex)
        packed[level1] = row
        expected = pack_rep(trace_power_observable(quiver, points, t, z, selfcheck=False).grad(rep))
        assert np.linalg.norm(packed - expected) <= 1e-12 * np.linalg.norm(expected)
    assert independent_hamiltonian_count(rep, points, ts, zs) == per_observable_count(rep, points, ts, zs)


def _rows_from_phi_value(rep, points, ts, zs):
    """``poisson._hamiltonian_rows`` with phi stacked from ``phi_value`` at
    each sample point, which forms every arm's residue once per point."""
    r, zc = rep.quiver.rank, np.array([complex(z) for z in zs])
    phi = np.stack([phi_value(rep, points, z) for z in zs])
    powers = np.empty((max(ts),) + phi.shape, dtype=complex)
    powers[0] = np.eye(r)
    for k in range(1, max(ts)):
        powers[k] = powers[k - 1] @ phi
    t = np.array(ts)
    fs, gs = poisson._trace_power_slots(rep, points, t[:, None], zc, powers[t - 1])
    n_rows = t.size * zc.size
    return np.concatenate([np.zeros((n_rows, 0), dtype=complex), *(x.reshape(n_rows, -1) for x in fs + gs)], axis=1)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_hamiltonian_rows_form_each_residue_once(r, monkeypatch):
    # six arms, one of them empty, and the bridge workload's r(n - 2) + 2
    # midpoints: the rows are bit for bit those of the per-point phi_value
    # stack, from one residue product per arm
    arms = tuple(tuple(range(r - 1, 0, -k)) for k in (1, 2, 1, 3, 1)) + ((),)
    quiver = StarQuiver(rank=r, arms=arms)
    rep = random_rep(quiver, np.random.default_rng(30 + r), scale=0.5)
    points = [float(m) for m in range(6)]
    ts, zs = list(range(1, r + 3)), [i - 0.5 for i in range(r * 4 + 2)]
    expected = _rows_from_phi_value(rep, points, ts, zs)
    calls = []
    residue = StarRep.residue
    monkeypatch.setattr(StarRep, "residue", lambda self, j: calls.append(j) or residue(self, j))
    rows = poisson._hamiltonian_rows(rep, points, ts, zs)
    assert rows.tobytes() == expected.tobytes() and rows.shape == expected.shape
    assert calls == list(range(6))


@st.composite
def count_cases(draw):
    """A random representation of one of ``quivers``, trace powers up to
    r + 2 and 1-6 sample points at quarter steps off the poles 0, 1, 2, ..."""
    quiver = draw(quivers())
    r, arms = quiver.rank, quiver.arms
    rep = random_rep(quiver, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    ts = sorted(draw(st.sets(st.integers(1, r + 2), min_size=1)))
    pool = [k / 4 for k in range(-8, 4 * len(arms) + 8) if k % 4]
    zs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    return rep, [float(x) for x in range(len(arms))], ts, zs


@settings(derandomize=True, max_examples=150, deadline=None)
@given(count_cases())
def test_batched_count_equals_the_per_observable_count(case):
    rep, points, ts, zs = case
    assert independent_hamiltonian_count(rep, points, ts, zs) == per_observable_count(rep, points, ts, zs)


def per_matrix_slots(rep, points, t, zc, pw):
    """The level-1 slots as formed one (r, r) power at a time."""
    fs, gs = [], []
    for m in range(rep.quiver.n_arms):
        if rep.f[m]:
            c = t / (zc - complex(points[m]))
            fs.append(c * (pw @ rep.g[m][0]).T)
            gs.append(c * (rep.f[m][0] @ pw).T)
    return fs, gs


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_trace_power_slots_keep_the_bits_of_one_power(r):
    rng = np.random.default_rng(40 + r)
    points = [0.0, 1.0, 2.0, 3.0]
    rep = random_rep(StarQuiver(rank=r, arms=(tuple(range(r - 1, 0, -1)), (), (1,), (r,))), rng)
    zs, ts = [-0.75, 0.5, 2.25], [1, 2, 3]
    stack = np.stack([rng.standard_normal((len(zs), r, r)) + 1j * rng.standard_normal((len(zs), r, r)) for _ in ts])
    batched = poisson._trace_power_slots(rep, points, np.array(ts)[:, None], np.array(zs, dtype=complex), stack)
    for a, t in enumerate(ts):
        for b, z in enumerate(zs):
            single = poisson._trace_power_slots(rep, points, t, complex(z), stack[a, b])
            expected = per_matrix_slots(rep, points, t, complex(z), stack[a, b])
            slots = zip(single[0] + single[1], expected[0] + expected[1], batched[0] + batched[1], strict=True)
            for got, want, stacked in slots:
                assert np.array_equal(got, want)
                assert np.allclose(stacked[a, b], want, rtol=1e-14, atol=0)


def test_hamiltonian_count_of_a_quiver_with_only_empty_arms_is_zero():
    rep = random_rep(StarQuiver(rank=3, arms=((), (), ())), np.random.default_rng(0))
    assert independent_hamiltonian_count(rep, [0.0, 1.0, 2.0], [1, 2, 3], [0.5, 1.5]) == 0


@pytest.mark.parametrize("ts, zs, name", [([], [0.5], "ts"), ([1, 2], [], "zs"), ([], [], "ts")])
def test_hamiltonian_count_refuses_empty_samples(ts, zs, name):
    rep = random_rep(StarQuiver(rank=2, arms=((1,),) * 4), np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"^{name}: no "):
        independent_hamiltonian_count(rep, [0.0, 1.0, 2.0, 3.0], ts, zs)


def test_hamiltonian_count_refuses_a_power_below_one():
    rep = random_rep(StarQuiver(rank=2, arms=((1,),) * 4), np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least 1"):
        independent_hamiltonian_count(rep, [0.0, 1.0, 2.0, 3.0], [0, 1], [0.5])

import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import copy_rep, group_act, random_group_element
from poisson_oracle import gradient_from_vector, to_observable
from starquiver import poisson
from starquiver.combinat import NilpotentClass
from starquiver.dsolve import DSInstance, SolverConfig, flags_from_solution, solve
from starquiver.higgs import higgs_to_quiver
from starquiver.poisson import (
    SELFCHECK_RTOL,
    Gradient,
    GradientOracleError,
    Observable,
    QuadraticObservable,
    bracket,
    check_commutativity,
    check_entry_bracket,
    delta,
    entry_bracket_residuals,
    entry_observable,
    fd_gradient,
    independent_hamiltonian_count,
    moment_entry_gradients,
    pack_rep,
    phi_value,
    poisson_tensor,
    trace_power_observable,
    zero_gradient,
)
from starquiver.starrep import StarQuiver, StarRep, moment_map, moment_residual, random_rep

PTS4 = [0.0, 1.0, 2.0, 3.0]


def _coordinate_observable(q, kind, j, i, a, b):
    def value(rep):
        slot = rep.f if kind == "f" else rep.g
        return slot[j][i][..., a, b]

    def grad(rep):
        out = zero_gradient(q)
        (out.f if kind == "f" else out.g)[j][i][a, b] = 1.0
        return out

    return Observable(q, value, grad, f"{kind}[{j}][{i}][{a},{b}]")


@pytest.fixture(scope="module")
def quiver4():
    return StarQuiver(rank=2, arms=((1,),) * 4)


@pytest.fixture(scope="module")
def moment_zero_rep(rank2_instance):
    sol = solve(rank2_instance, SolverConfig(seed=7)).solution
    h = flags_from_solution(sol, rank2_instance.parabolic_type())
    return higgs_to_quiver(h)


def test_canonical_pair(quiver4):
    rng = np.random.default_rng(0)
    rep = random_rep(quiver4, rng)
    f = _coordinate_observable(quiver4, "f", 0, 0, 0, 1)
    g = _coordinate_observable(quiver4, "g", 0, 0, 1, 0)
    assert bracket(f, g, rep) == pytest.approx(1.0)
    assert bracket(g, f, rep) == pytest.approx(-1.0)
    assert bracket(f, f, rep) == 0


def test_nonconjugate_slots_commute(quiver4):
    rng = np.random.default_rng(1)
    rep = random_rep(quiver4, rng)
    f = _coordinate_observable(quiver4, "f", 0, 0, 0, 1)
    g = _coordinate_observable(quiver4, "g", 1, 0, 1, 0)  # different arm
    assert bracket(f, g, rep) == 0


def test_trace_power_zero_rep(quiver4):
    rep = random_rep(quiver4, np.random.default_rng(0), 0.0)
    for t in (1, 2, 3):
        obs = trace_power_observable(quiver4, PTS4, t, 0.37)
        assert obs.value(rep) == 0


def test_trace_power_t1_vanishes_on_moment_zero(quiver4, moment_zero_rep):
    obs = trace_power_observable(quiver4, PTS4, 1, 0.52)
    assert abs(obs.value(moment_zero_rep)) < 1e-9


def test_trace_power_gradient_full_fd(quiver4):
    rng = np.random.default_rng(2)
    rep = random_rep(quiver4, rng, scale=0.7)
    for t in (1, 2, 4):
        obs = trace_power_observable(quiver4, PTS4, t, 0.45 + 0.2j)
        analytic = obs.grad(rep)
        fd = fd_gradient(obs, rep)
        for j in range(4):
            assert np.allclose(analytic.f[j][0], fd.f[j][0], atol=1e-6)
            assert np.allclose(analytic.g[j][0], fd.g[j][0], atol=1e-6)


def test_entry_gradient_full_fd(quiver4):
    rng = np.random.default_rng(3)
    rep = random_rep(quiver4, rng, scale=0.7)
    obs = entry_observable(quiver4, PTS4, -0.61, 1, 0)
    analytic = obs.grad(rep)
    fd = fd_gradient(obs, rep)
    for j in range(4):
        assert np.allclose(analytic.f[j][0], fd.f[j][0], atol=1e-6)
        assert np.allclose(analytic.g[j][0], fd.g[j][0], atol=1e-6)


def test_selfcheck_flags_bad_oracle(quiver4):
    def value(rep):
        return np.trace(phi_value(rep, PTS4, 0.4), axis1=-2, axis2=-1)

    def grad(rep):
        return zero_gradient(quiver4)  # wrong on purpose

    with pytest.raises(GradientOracleError):
        from starquiver.poisson import _selfcheck

        _selfcheck(Observable(quiver4, value, grad, "broken"))


@pytest.mark.parametrize("error, flagged", [(2e-4, True), (5e-5, False)])
def test_selfcheck_bound_is_relative(quiver4, error, flagged):
    # an oracle off by a fixed factor 1 + error; at the self-check's
    # representation every slot of this quadratic's gradient has an entry
    # above 1, so the bound is relative to the slot
    from starquiver.poisson import _selfcheck

    assert SELFCHECK_RTOL == 1e-4
    quad = QuadraticObservable.random(quiver4, np.random.default_rng(14), 1.0)
    obs = Observable(
        quiver4,
        to_observable(quad).value,
        lambda rep: gradient_from_vector(quiver4, (1 + error) * quad.gradient_at(pack_rep(rep))),
        "scaled",
    )
    if flagged:
        with pytest.raises(GradientOracleError):
            _selfcheck(obs)
    else:
        _selfcheck(obs)


def _first_entries_observable(quiver, coeffs, offsets):
    """The sum of c f_1^j[0, 0] over ``coeffs`` {j: c}, with an oracle
    whose entry (0, 0) of slot f_1^j is off by ``offsets[j]``."""

    def value(rep):
        return sum(c * rep.f[j][0][..., 0, 0] for j, c in coeffs.items())

    def grad(rep):
        out = zero_gradient(quiver)
        for j, c in coeffs.items():
            out.f[j][0][0, 0] = c + offsets.get(j, 0.0)
        return out

    return Observable(quiver, value, grad, "first entries")


@pytest.mark.parametrize("offset, flagged", [(2e-4, True), (5e-5, False)])
def test_selfcheck_floors_a_small_slot_at_one(quiver4, offset, flagged):
    # the slot's largest entry is 0.01, so its bound is SELFCHECK_RTOL
    # itself: 5e-5 passes, though it is 0.5% of every entry of the slot
    from starquiver.poisson import _selfcheck

    obs = _first_entries_observable(quiver4, {0: 0.01}, {0: offset})
    if flagged:
        with pytest.raises(GradientOracleError):
            _selfcheck(obs)
    else:
        _selfcheck(obs)


def test_selfcheck_bounds_each_slot_by_its_own_scale(quiver4):
    # 0.05 off passes in a slot of scale 1000; 5e-3 off fails in a slot of
    # scale 0.5, though it is within SELFCHECK_RTOL of the other slot's scale
    from starquiver.poisson import _selfcheck

    _selfcheck(_first_entries_observable(quiver4, {0: 1000.0, 1: 0.5}, {0: 0.05}))
    with pytest.raises(GradientOracleError):
        _selfcheck(_first_entries_observable(quiver4, {0: 1000.0, 1: 0.5}, {1: 5e-3}))


def test_delta_identities(quiver4):
    rng = np.random.default_rng(4)
    rep = random_rep(quiver4, rng)
    z, w = 0.41 + 0.13j, -0.72 - 0.4j
    dm = delta(rep, PTS4, z, w)
    lhs = (w - z) * dm
    rhs = phi_value(rep, PTS4, z) - phi_value(rep, PTS4, w)
    assert np.linalg.norm(lhs - rhs) < 1e-12
    # partial fraction form
    pf = sum(
        np.asarray(rep.residue(m)) / ((z - x) * (w - x)) for m, x in enumerate(PTS4)
    )
    assert np.linalg.norm(dm - pf) < 1e-10
    # the coincident limit -phi'(w) is not delta's value: delta refuses z = w
    with pytest.raises(ValueError, match="delta needs z != w"):
        delta(rep, PTS4, w, w)


@pytest.mark.parametrize("pole", PTS4)
def test_sample_point_on_a_marked_point_is_refused(quiver4, pole):
    # phi has a pole at every marked point: each evaluator names it
    rep = random_rep(quiver4, np.random.default_rng(4))
    calls = [
        lambda: phi_value(rep, PTS4, pole),
        lambda: delta(rep, PTS4, pole, 0.5),
        lambda: delta(rep, PTS4, 0.5, pole),
        lambda: independent_hamiltonian_count(rep, PTS4, [1, 2], [0.5, pole]),
        lambda: check_commutativity(rep, PTS4, 2, 3, pole, 0.5),
        lambda: check_commutativity(rep, PTS4, 2, 3, 0.5, pole),
        lambda: trace_power_observable(quiver4, PTS4, 2, pole, selfcheck=False).value(rep),
        lambda: trace_power_observable(quiver4, PTS4, 2, pole, selfcheck=False).grad(rep),
        # the entry gradients divided by zero here (ZeroDivisionError)
        lambda: entry_observable(quiver4, PTS4, pole, 0, 1, selfcheck=False).grad(rep),
        lambda: entry_bracket_residuals(rep, PTS4, pole, 0.5),
        lambda: entry_bracket_residuals(rep, PTS4, 0.5, pole),
        lambda: check_entry_bracket(rep, PTS4, pole, 0.5, 0, 0, 0, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"evaluation at the pole {pole}"


def test_entry_bracket_all_indices(quiver4):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        rep = random_rep(quiver4, rng, scale=0.6)
        z, w = rng.standard_normal(2) * 0.3 + np.array([0.45, -0.55])
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        worst = max(
                            worst, check_entry_bracket(rep, PTS4, z, w, i, j, k, l)
                        )
    assert worst < 1e-9


def test_entry_bracket_offdiagonal_zero(quiver4):
    rng = np.random.default_rng(6)
    rep = random_rep(quiver4, rng, scale=0.6)
    # j != k and l != i: both delta terms die, bracket must vanish
    fij = entry_observable(quiver4, PTS4, 0.4, 0, 0)
    fkl = entry_observable(quiver4, PTS4, -0.6, 1, 1)
    assert abs(bracket(fij, fkl, rep)) < 1e-10
    assert check_entry_bracket(rep, PTS4, 0.4, -0.6, 0, 0, 1, 1) < 1e-10


# ---------------------------------------------------------------------------
# the entry-bracket sweep against the per-call bracket


def _entry_oracle(rep, points, z, w, i, j, k, l):
    """The per-call check: one bracket of two entry observables, minus the
    closed form delta_jk Delta_il - delta_li Delta_kj."""
    q = rep.quiver
    fij = entry_observable(q, points, z, i, j, selfcheck=False)
    fkl = entry_observable(q, points, w, k, l, selfcheck=False)
    lhs = bracket(fij, fkl, rep)
    dm = delta(rep, points, z, w)
    return abs(lhs - ((1.0 if j == k else 0.0) * dm[i, l] - (1.0 if l == i else 0.0) * dm[k, j]))


def _entry_oracle_array(rep, points, z, w):
    shape = (rep.quiver.rank,) * 4
    return np.array([_entry_oracle(rep, points, z, w, *idx) for idx in np.ndindex(shape)]).reshape(shape)


def _sweep_tolerance(rep, points, z, w):
    """1e-15 times the size of the bracket's terms g_1 f_1 / ((z - x)(w - x)),
    and never below 1e-15.  The sweep and the per-call bracket add the same
    terms in different orders, so they differ by a few ulps of the terms:
    next to a pole those reach 10-40, and 1e-15 absolute is below one ulp."""
    terms = sum(
        np.abs(g[0]) @ np.abs(f[0]) / abs((z - x) * (w - x)) for f, g, x in zip(rep.f, rep.g, points) if f
    )
    return 1e-15 * max(1.0, float(np.max(terms)))


def _quarter_steps(points):
    """The quarter steps `poisson check` draws z and w from."""
    return [k / 4 for k in range(-20, 8 * len(points) + 20) if min(abs(k / 4 - x) for x in points) >= 0.25]


SWEEP_QUIVERS = [
    *(StarQuiver(rank=r, arms=(tuple(range(r - 1, 0, -1)),) * 4) for r in (2, 3, 4, 5)),
    StarQuiver(rank=5, arms=((4, 3, 2, 1), (2,), (3, 1), (4, 2))),  # arms of unequal length
    StarQuiver(rank=4, arms=((3, 1), (), (2,), (3, 2, 1))),  # an empty arm
]


@pytest.mark.parametrize("q", SWEEP_QUIVERS, ids=lambda q: f"r{q.rank}-" + "-".join(map(str, map(len, q.arms))))
def test_sweep_matches_the_per_call_bracket(q):
    rng = np.random.default_rng(q.rank + 10 * sum(map(len, q.arms)))
    pool = _quarter_steps(PTS4)
    for _ in range(3):
        rep = random_rep(q, rng, scale=0.5)
        z, w = (float(x) for x in rng.choice(pool, size=2, replace=False))
        sweep = entry_bracket_residuals(rep, PTS4, z, w)
        assert sweep.shape == (q.rank,) * 4
        assert np.max(np.abs(sweep - _entry_oracle_array(rep, PTS4, z, w))) <= _sweep_tolerance(rep, PTS4, z, w)
        for idx in np.ndindex(sweep.shape):
            assert check_entry_bracket(rep, PTS4, z, w, *idx) == sweep[idx]


@st.composite
def sweep_cases(draw):
    """A random quiver of rank 2-5 with 1-4 arms (possibly empty, possibly
    of unequal length), a rep at scale 0.3-1, distinct half-integer marked
    points, and two distinct quarter steps z, w at least 0.25 from them."""
    r = draw(st.integers(2, 5))
    chains = st.lists(st.integers(1, r - 1), unique=True, max_size=r - 1).map(lambda c: tuple(sorted(c, reverse=True)))
    arms = draw(st.lists(chains, min_size=1, max_size=4))
    points = draw(st.lists(st.integers(-4, 8), min_size=len(arms), max_size=len(arms), unique=True))
    points = [p / 2 for p in points]
    pool = _quarter_steps(points)
    z = draw(st.sampled_from(pool))
    w = draw(st.sampled_from([x for x in pool if x != z]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rep = random_rep(StarQuiver(rank=r, arms=arms), rng, scale=draw(st.sampled_from([0.3, 0.5, 1.0])))
    return rep, points, z, w


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sweep_cases())
def test_sweep_matches_the_per_call_bracket_on_random_cases(case):
    rep, points, z, w = case
    sweep = entry_bracket_residuals(rep, points, z, w)
    assert np.max(np.abs(sweep - _entry_oracle_array(rep, points, z, w))) <= _sweep_tolerance(rep, points, z, w)
    assert sweep.max() < 1e-9


@pytest.fixture
def counted_sweeps(monkeypatch):
    """An empty memo, and the list of the (z, w) of every sweep that
    ``check_entry_bracket`` runs from here on."""
    monkeypatch.setattr(poisson, "_last_sweep", None)
    runs, sweep = [], poisson.entry_bracket_residuals

    def counted(rep, points, z, w):
        runs.append((z, w))
        return sweep(rep, points, z, w)

    monkeypatch.setattr(poisson, "entry_bracket_residuals", counted)
    return runs


def _check_all(rep, points, z, w):
    shape = (rep.quiver.rank,) * 4
    return np.array([check_entry_bracket(rep, points, z, w, *idx) for idx in np.ndindex(shape)]).reshape(shape)


def test_sweep_memo_recomputes_on_every_content_change(counted_sweeps):
    q = StarQuiver(rank=3, arms=((2, 1),) * 4)
    rep = random_rep(q, np.random.default_rng(12), scale=0.5)
    z, w = 0.5, -0.75

    def agrees(points, z, w):
        got = _check_all(rep, points, z, w)
        return np.max(np.abs(got - _entry_oracle_array(rep, points, z, w))) <= _sweep_tolerance(rep, points, z, w)

    assert agrees(PTS4, z, w) and len(counted_sweeps) == 1  # r^4 calls, one sweep
    _check_all(copy_rep(rep), list(PTS4), z, w)  # same content, another object
    assert len(counted_sweeps) == 1
    rep.f[1][0][0, 1] += 0.25  # an in-place edit, as fd_gradient makes
    assert agrees(PTS4, z, w) and len(counted_sweeps) == 2
    rep.g[3][0][2, 0] -= 0.5j
    assert agrees(PTS4, z, w) and len(counted_sweeps) == 3
    assert agrees([0.0, 1.0, 2.0, 3.5], z, w) and len(counted_sweeps) == 4
    assert agrees(PTS4, w, z) and counted_sweeps[-1] == (w, z)
    assert len(counted_sweeps) == 5
    # The key holds level 1 only, and that is complete: entry observables
    # have levels=1, so neither their gradients nor Delta (through the
    # residues g_1 f_1) read a deeper slot.  A level-2 edit keeps the sweep.
    assert entry_observable(q, PTS4, z, 0, 0, selfcheck=False).levels == 1
    rep.f[0][1][0, 0] += 1.0
    assert agrees(PTS4, w, z)
    assert len(counted_sweeps) == 5


def _raised(call):
    try:
        call()
    except Exception as exc:  # the type is compared, whatever it is
        return type(exc)
    raise AssertionError("no exception raised")


@pytest.mark.parametrize(
    "z, w, idx",
    [
        (0.5, 0.5, (0, 1, 1, 0)),  # z == w: Delta needs its limit
        (1.0, 0.5, (0, 0, 0, 0)),  # z at the marked point of a nonempty arm
        (0.5, 1.0, (1, 0, 0, 1)),  # w at one
        (2.0, 0.5, (0, 0, 0, 0)),  # z at the marked point of the empty arm
        (0.5, -0.75, (0, 0, 3, 0)),  # an index past the rank
        (0.5, -0.75, (0, -1, 0, 0)),  # a negative index
    ],
)
def test_sweep_memo_errors_match_the_per_call_check(counted_sweeps, z, w, idx):
    q = StarQuiver(rank=3, arms=((2, 1), (1,), (), (2,)))
    rep = random_rep(q, np.random.default_rng(13), scale=0.5)
    check_entry_bracket(rep, PTS4, 0.25, -0.5, 0, 0, 0, 0)
    memo = poisson._last_sweep
    expected = _raised(lambda: _entry_oracle(rep, PTS4, z, w, *idx))
    assert _raised(lambda: check_entry_bracket(rep, PTS4, z, w, *idx)) is expected
    assert poisson._last_sweep is memo


def test_sweep_fails_a_transposed_entry_gradient(monkeypatch):
    # the sweep checks the closed form that entry_observable exposes and the
    # pairing, not the closed form against itself: f-gradients of the
    # entries (col, row) in place of (row, col) must show
    q = StarQuiver(rank=3, arms=((2, 1),) * 4)
    rep = random_rep(q, np.random.default_rng(14), scale=0.5)
    z, w = 0.5, -0.75
    assert entry_bracket_residuals(rep, PTS4, z, w).max() <= _sweep_tolerance(rep, PTS4, z, w)
    honest = poisson._entry_slots

    def swapped(rep, points, z):
        return [(m, fs.swapaxes(0, 1), gs) for m, fs, gs in honest(rep, points, z)]

    monkeypatch.setattr(poisson, "_entry_slots", swapped)
    assert np.array_equal(entry_observable(q, PTS4, z, 0, 1, selfcheck=False).grad(rep).f[0][0], honest(rep, PTS4, z)[0][1][1, 0])
    assert entry_bracket_residuals(rep, PTS4, z, w).max() > 1e-3


def test_commutativity_t1(quiver4):
    rng = np.random.default_rng(7)
    rep = random_rep(quiver4, rng)
    assert check_commutativity(rep, PTS4, 1, 1, 0.42, -0.77) < 1e-12


def test_commutativity_grid():
    rng = np.random.default_rng(8)
    arms = tuple(tuple(range(r, 0, -1)) for r in (3, 2, 1, 3))
    q = StarQuiver(rank=4, arms=arms)
    worst = 0.0
    for _ in range(30):
        rep = random_rep(q, rng, scale=0.4)
        z, w = 0.45 + 0.2 * rng.standard_normal(), -0.6 + 0.2 * rng.standard_normal()
        t, t2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        worst = max(worst, check_commutativity(rep, PTS4, t, t2, z, w))
    assert worst < 1e-8


def test_commutativity_closed_form(moment_zero_rep):
    assert check_commutativity(moment_zero_rep, PTS4, 2, 3, 0.37, -0.81) < 1e-10


@pytest.mark.parametrize(
    "mutation",
    [
        ("total -= terms[m][1]", "total += terms[m][1]"),  # the sign of the g-slot term Tr(F_g G_f)
        ("gs[::-1] @ fs", "gs @ fs"),  # each g-slot paired with its own observable's f-slot
    ],
)
def test_a_mutated_commutativity_kernel_fails(mutation):
    # the check sees a wrong bracket: the kernel's source, mutated once and
    # run in the module's namespace, exceeds 1e-3 where the kernel is ~1e-15
    source = textwrap.dedent(inspect.getsource(check_commutativity))
    assert source.count(mutation[0]) == 1
    namespace = dict(vars(poisson))
    exec(source.replace(*mutation), namespace)
    rep = random_rep(StarQuiver(rank=3, arms=((2, 1),) * 4), np.random.default_rng(15), scale=0.5)
    assert check_commutativity(rep, PTS4, 2, 3, 0.5, -0.75) < 1e-12
    assert namespace["check_commutativity"](rep, PTS4, 2, 3, 0.5, -0.75) > 1e-3


def hamiltonian_vector_field(f_obs, rep):
    """The flow of F as a ``Gradient`` shaped like the representation's
    slots: dF/dp on the position (f) slots and -dF/dq on the momentum (g)
    slots."""
    gr = f_obs.grad(rep)
    xf = [[m.T.copy() for m in arm] for arm in gr.g]
    return Gradient(f=xf, g=[[-m.T.copy() for m in arm] for arm in gr.f])


def euler_step(rep, field, h):
    out = copy_rep(rep)
    for arms, steps in ((out.f, field.f), (out.g, field.g)):
        for arm, step in zip(arms, steps):
            for m, x in zip(arm, step):
                m += h * x
    return out


def test_hamiltonian_field_of_coordinate(quiver4):
    rng = np.random.default_rng(9)
    rep = random_rep(quiver4, rng)
    fobs = _coordinate_observable(quiver4, "f", 2, 0, 0, 1)
    field = hamiltonian_vector_field(fobs, rep)
    # -dF/dq lands on the conjugate momentum slot only
    assert field.g[2][0][1, 0] == -1.0
    assert np.linalg.norm(field.f[2][0]) == 0.0
    field.g[2][0][1, 0] = 0.0
    total = sum(np.linalg.norm(m) for arm in (field.f + field.g) for m in arm)
    assert total == 0.0


def test_flow_preserves_commuting_hamiltonian(moment_zero_rep):
    # normalize the scale so the second-order term is small
    rep = copy_rep(moment_zero_rep)
    for j in range(rep.quiver.n_arms):
        rep.f[j][0] *= 0.4
        rep.g[j][0] *= 0.4
    q = rep.quiver
    i2 = trace_power_observable(q, PTS4, 2, 0.42)
    i2w = trace_power_observable(q, PTS4, 2, -0.81)
    x = hamiltonian_vector_field(i2, rep)
    before = i2w.value(rep)
    after = i2w.value(euler_step(rep, x, 1e-4))
    assert abs(after - before) < 1e-9


def test_flow_moment_drift_second_order(moment_zero_rep):
    q = moment_zero_rep.quiver
    i2 = trace_power_observable(q, PTS4, 2, 0.42)
    x = hamiltonian_vector_field(i2, moment_zero_rep)
    drifts = []
    for h in (1e-3, 1e-4):
        drifts.append(moment_residual(euler_step(moment_zero_rep, x, h)))
    slope = np.log10(drifts[0] / drifts[1])
    assert slope == pytest.approx(2.0, abs=0.1)


def test_trace_powers_group_invariant(quiver4):
    rng = np.random.default_rng(10)
    rep = random_rep(quiver4, rng)
    h = random_group_element(quiver4, rng)
    acted = group_act(rep, h)
    for t in (1, 2, 3):
        obs = trace_power_observable(quiver4, PTS4, t, 0.61)
        v1, v2 = obs.value(rep), obs.value(acted)
        assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))


def test_quadratic_bracket_matches_generic(quiver4):
    rng = np.random.default_rng(11)
    rep = random_rep(quiver4, rng, scale=0.5)
    jmat = poisson_tensor(quiver4)
    a = QuadraticObservable.random(quiver4, rng, 0.5)
    b = QuadraticObservable.random(quiver4, rng, 0.5)
    direct = bracket(to_observable(a), to_observable(b), rep)
    structural = a.bracket_with(b, jmat).value_at(pack_rep(rep))
    assert abs(direct - structural) < 1e-10 * max(1.0, abs(direct))


def test_jacobi_identity_quadratics(quiver4):
    rng = np.random.default_rng(12)
    jmat = poisson_tensor(quiver4)
    rep = random_rep(quiver4, rng, scale=0.5)
    v = pack_rep(rep)
    worst = 0.0
    for _ in range(10):
        a = QuadraticObservable.random(quiver4, rng, 0.5)
        b = QuadraticObservable.random(quiver4, rng, 0.5)
        c = QuadraticObservable.random(quiver4, rng, 0.5)
        lhs = a.bracket_with(b.bracket_with(c, jmat), jmat).value_at(v)
        rhs = (
            a.bracket_with(b, jmat).bracket_with(c, jmat).value_at(v)
            + b.bracket_with(a.bracket_with(c, jmat), jmat).value_at(v)
        )
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9


def test_leibniz_property(quiver4):
    # {F, GH} = {F, G} H + G {F, H} on coordinate products
    rng = np.random.default_rng(13)
    rep = random_rep(quiver4, rng, scale=0.7)
    q = quiver4
    f = _coordinate_observable(q, "g", 0, 0, 0, 0)
    g = _coordinate_observable(q, "f", 0, 0, 0, 0)
    h = _coordinate_observable(q, "f", 0, 0, 0, 1)

    def product(p1, p2):
        def value(rep):
            return p1.value(rep) * p2.value(rep)

        def grad(rep):
            g1, g2 = p1.grad(rep), p2.grad(rep)
            v1, v2 = p1.value(rep), p2.value(rep)
            out = zero_gradient(q)
            for j in range(q.n_arms):
                for i in range(len(out.f[j])):
                    out.f[j][i] = g1.f[j][i] * v2 + g2.f[j][i] * v1
                    out.g[j][i] = g1.g[j][i] * v2 + g2.g[j][i] * v1
            return out

        return Observable(q, value, grad, "product")

    lhs = bracket(f, product(g, h), rep)
    rhs = bracket(f, g, rep) * h.value(rep) + g.value(rep) * bracket(f, h, rep)
    assert abs(lhs - rhs) < 1e-12


def _packed_moment(q, vec):
    """Every moment component's entries, in the row order of
    ``moment_entry_gradients``, at the packed coordinates ``vec``."""
    x = gradient_from_vector(q, vec)
    return np.concatenate([m.reshape(-1) for _, m in moment_map(StarRep(q, x.f, x.g)).components()])


@pytest.mark.parametrize("rank,arms", [
    (2, ((1,),) * 4),
    (3, ((2, 1), (1,), (), (2,))),
    (4, ((3, 2, 1), (2,), (3, 1))),
])
def test_moment_entry_gradients_match_central_differences(rank, arms):
    # the moment map is quadratic, so central differences are exact up to
    # rounding (about 1e-16 * |moment| / step)
    q = StarQuiver(rank=rank, arms=arms)
    rep = random_rep(q, np.random.default_rng(rank))
    v, step = pack_rep(rep), 1e-4
    fd = np.stack(
        [(_packed_moment(q, v + step * e) - _packed_moment(q, v - step * e)) / (2 * step) for e in np.eye(v.size)],
        axis=1,
    )
    jac = moment_entry_gradients(rep)
    assert jac.shape == fd.shape
    assert np.max(np.abs(jac - fd)) < 1e-8


@pytest.mark.parametrize("grid", [0, -1])
def test_check_refuses_a_grid_below_one(quiver4, grid):
    # a grid below 1 would run no commutativity check and report residual 0
    with pytest.raises(ValueError, match=f"grid must be at least 1, got {grid}"):
        poisson.check(random_rep(quiver4, np.random.default_rng(0)), PTS4, np.random.default_rng(3), grid)


def test_hamiltonian_count_rank2_four_points(rank2_instance):
    # coefficient space dimension is 1 for this type
    for seed in (1, 2, 3):
        sol = solve(rank2_instance, SolverConfig(seed=seed)).solution
        h = flags_from_solution(sol, rank2_instance.parabolic_type())
        rep = higgs_to_quiver(h)
        count = independent_hamiltonian_count(
            rep, PTS4, [1, 2, 3, 4], [0.31, -0.77, 1.43, 2.61]
        )
        assert count == 1


def test_hamiltonian_count_five_points():
    # five marked points give a two-dimensional coefficient space
    c = NilpotentClass(rank=2, rank_sequence=(1,))
    inst = DSInstance(rank=2, classes=(c,) * 5)
    pts5 = [0.0, 1.0, 2.0, 3.0, 4.0]
    from starquiver.combinat import spectral_degrees

    sigma = inst.parabolic_type()
    assert spectral_degrees(sigma)[1] == 2
    sol = solve(inst, SolverConfig(seed=6)).solution
    h = flags_from_solution(sol, sigma)
    rep = higgs_to_quiver(h)
    count = independent_hamiltonian_count(
        rep, pts5, [1, 2, 3, 4], [0.31, -0.77, 1.43, 2.61, 3.55]
    )
    assert count == 2

from fractions import Fraction

import numpy as np
import pytest

from starquiver.combinat import NilpotentClass
from starquiver.dsolve import DSInstance, SolverConfig, flags_from_solution, solve
from starquiver.higgs import higgs_to_quiver
from starquiver.poisson import (
    HAMILTONIAN_RANK_RTOL,
    MOMENT_RANK_RTOL,
    SELFCHECK_RTOL,
    GradientOracleError,
    Observable,
    QuadraticObservable,
    bracket,
    check_commutativity,
    check_entry_bracket,
    delta,
    entry_observable,
    euler_step,
    fd_gradient,
    gradient_from_vector,
    hamiltonian_vector_field,
    independent_hamiltonian_count,
    moment_entry_gradients,
    pack_rep,
    phi_derivative,
    phi_value,
    poisson_tensor,
    singular_rank,
    trace_power_observable,
    zero_gradient,
)
from starquiver.starrep import (
    StarQuiver,
    StarRep,
    group_act,
    moment_map,
    moment_residual,
    random_group_element,
    random_rep,
    zero_rep,
)

PTS4 = [0.0, 1.0, 2.0, 3.0]


def _coordinate_observable(q, kind, j, i, a, b):
    def value(rep):
        slot = rep.f if kind == "f" else rep.g
        return complex(slot[j][i][a, b])

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
    rep = zero_rep(quiver4)
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
        return complex(np.trace(phi_value(rep, PTS4, 0.4)))

    def grad(rep):
        return zero_gradient(quiver4)  # wrong on purpose

    with pytest.raises(GradientOracleError):
        from starquiver.poisson import _selfcheck

        _selfcheck(Observable(quiver4, value, grad, "broken"))


@pytest.mark.parametrize("error, flagged", [(2e-4, True), (5e-5, False)])
def test_selfcheck_bound_is_relative(quiver4, error, flagged):
    # an oracle off by a fixed factor 1 + error; the probed directional
    # derivatives of this quadratic exceed 10, so the gap is relative
    from starquiver.poisson import _selfcheck

    assert SELFCHECK_RTOL == 1e-4
    quad = QuadraticObservable.random(quiver4, np.random.default_rng(14), 1.0)
    obs = Observable(
        quiver4,
        lambda rep: quad.value_at(pack_rep(rep)),
        lambda rep: gradient_from_vector(quiver4, (1 + error) * quad.gradient_at(pack_rep(rep))),
        "scaled",
    )
    if flagged:
        with pytest.raises(GradientOracleError):
            _selfcheck(obs)
    else:
        _selfcheck(obs)


@pytest.mark.parametrize("rtol", [MOMENT_RANK_RTOL, HAMILTONIAN_RANK_RTOL])
def test_singular_rank_cut(rtol):
    assert (MOMENT_RANK_RTOL, HAMILTONIAN_RANK_RTOL) == (1e-8, 1e-6)
    for top in (1.0, 3e5):
        assert singular_rank(np.array([top, 1.01 * rtol * top, 0.0]), rtol) == 2
        assert singular_rank(np.array([top, 0.99 * rtol * top, 0.0]), rtol) == 1
    assert singular_rank(np.zeros(3), rtol) == 0
    assert singular_rank(np.zeros(0), rtol) == 0


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
    # coincident limit equals minus the derivative
    lim = delta(rep, PTS4, w, w, at_equal=True)
    h = 1e-6
    fd = (phi_value(rep, PTS4, w + h) - phi_value(rep, PTS4, w - h)) / (2 * h)
    assert np.linalg.norm(lim + fd) < 1e-5
    with pytest.raises(ValueError):
        delta(rep, PTS4, w, w)


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
    rep = moment_zero_rep.copy()
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
    direct = bracket(a.to_observable(), b.to_observable(), rep)
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

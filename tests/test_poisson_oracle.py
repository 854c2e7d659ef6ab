"""Differential tests of the matrix-free quadratic brackets, the signed
permutation pairing, the quadratic draw, the slot-stacked finite
differences, the level-skipping bracket and the stacked commutativity
check and entry sweep against the dense, copy-based and per-observable
references in ``poisson_oracle``."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poisson_oracle as oracle
from common import PTS4, quarter_steps, quivers
from starquiver.poisson import (
    FD_STEP,
    Observable,
    QuadraticObservable,
    _matrices,
    bracket,
    check_commutativity,
    entry_bracket_residuals,
    entry_observable,
    fd_gradient,
    pack_rep,
    poisson_tensor,
    trace_power_observable,
)
from starquiver.starrep import StarQuiver, random_rep


def _close(x, ref, rtol=1e-12):
    return np.linalg.norm(np.atleast_1d(x - ref)) <= rtol * np.linalg.norm(np.atleast_1d(ref))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(q=quivers(), seed=st.integers(0, 2**32 - 1))
def test_nested_brackets_match_dense_oracle(q, seed):
    rng = np.random.default_rng(seed)
    jmat = poisson_tensor(q)
    v = pack_rep(random_rep(q, rng, scale=0.5))
    a, b, c = (QuadraticObservable.random(q, rng, 0.5) for _ in range(3))
    dense = lambda x, y: oracle.bracket_with(x, y, oracle.dense_tensor(q))  # noqa: E731
    pairs = [
        (a.bracket_with(b, jmat), dense(a, b)),
        (a.bracket_with(b.bracket_with(c, jmat), jmat), dense(a, dense(b, c))),
        (a.bracket_with(b, jmat).bracket_with(c, jmat), dense(dense(a, b), c)),
    ]
    for fast, ref in pairs:
        assert _close(fast.value_at(v), ref.value_at(v))
        assert _close(fast.gradient_at(v), ref.gradient_at(v))
        assert _close(fast.b, ref.b) and _close(fast.c, ref.c)


RANK5 = StarQuiver(rank=5, arms=((4, 3, 2, 1),) * 4)  # phase dimension 320


def _normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(q=quivers(ranks=(1, 5), armless=True), seed=st.integers(0, 2**32 - 1))
@example(q=StarQuiver(rank=1, arms=()), seed=0)
@example(q=StarQuiver(rank=3, arms=((), (2, 1), ())), seed=1)
@example(q=RANK5, seed=2)
def test_pairing_products_equal_the_dense_ones(q, seed):
    rng = np.random.default_rng(seed)
    j, dense, d = poisson_tensor(q), oracle.dense_tensor(q), q.phase_dim()
    x, y = _normal(rng, d), _normal(rng, d)
    products = [
        (j @ x, dense @ x),
        (j @ x.real, dense @ x.real),
        (x @ j, x @ dense),
        (x @ j @ y, x @ dense @ y),
    ]
    for got, want in products:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    # the columns J @ e_k, as a matrix: the dense J, with J^2 = -I and J^T = -J
    cols = np.array([j @ e for e in np.eye(d)]).T.reshape(d, d)
    assert np.array_equal(cols, dense)
    assert np.array_equal(np.array([j @ c for c in cols.T]).T.reshape(d, d), -np.eye(d))
    assert np.array_equal(cols.T, -cols)


def test_pairing_refuses_a_mismatched_operand():
    # the pairing takes vectors of its dimension only, on either side
    j = poisson_tensor(StarQuiver(rank=2, arms=((1,),) * 4))
    for bad in (np.ones(15), np.ones((16, 16)), np.ones((16, 3)), np.ones((3, 16)), np.ones((2, 16, 16)), np.complex128(1.0)):
        with pytest.raises(ValueError):
            j @ bad
        with pytest.raises(ValueError):
            bad @ j


def _jacobi_residuals(q, rng, jmat, checks):
    """The residuals of ``test_jacobi_identity_quadratics``' loop."""
    v = pack_rep(random_rep(q, rng, scale=0.5))
    out = []
    for _ in range(checks):
        a, b, c = (QuadraticObservable.random(q, rng, 0.5) for _ in range(3))
        lhs = a.bracket_with(b.bracket_with(c, jmat), jmat).value_at(v)
        rhs = (
            a.bracket_with(b, jmat).bracket_with(c, jmat).value_at(v)
            + b.bracket_with(a.bracket_with(c, jmat), jmat).value_at(v)
        )
        out.append(abs(lhs - rhs))
    return out


@pytest.mark.parametrize("q,seed,checks", [(StarQuiver(rank=2, arms=((1,),) * 4), 12, 10), (RANK5, 3, 2)])
def test_jacobi_residuals_bit_identical_with_the_dense_pairing(q, seed, checks):
    got = _jacobi_residuals(q, np.random.default_rng(seed), poisson_tensor(q), checks)
    assert got == _jacobi_residuals(q, np.random.default_rng(seed), oracle.dense_tensor(q), checks)


def test_a_jacobi_triple_makes_fifteen_dense_hessian_products(monkeypatch):
    # a bracket forms nothing when it is built, and its gradient takes one
    # Hessian product per operand and gradient: lhs and both rhs terms call
    # the quadratics' dense products 5 times each
    q, calls = StarQuiver(rank=2, arms=((1,),) * 4), []
    dense = QuadraticObservable.hessian_product
    monkeypatch.setattr(QuadraticObservable, "hessian_product", lambda self, u: calls.append(1) or dense(self, u))
    (residual,) = _jacobi_residuals(q, np.random.default_rng(4), poisson_tensor(q), 1)
    assert (len(calls), residual < 1e-12) == (15, True)


@pytest.mark.parametrize(
    "q",
    [
        StarQuiver(rank=2, arms=((), ())),
        StarQuiver(rank=2, arms=((1,),) * 4),
        StarQuiver(rank=4, arms=((3, 2, 1),) * 4),
        RANK5,
    ],
    ids=["d0", "d16", "d160", "d320"],
)
def test_quadratic_draw_keeps_its_numbers_and_stream(q):
    fresh, former = np.random.default_rng(21), np.random.default_rng(21)
    quad = QuadraticObservable.random(q, fresh, 0.5)
    s, b, c = oracle.quadratic_draw(q, former, 0.5)
    assert quad.s.shape == s.shape == (q.phase_dim(),) * 2
    assert np.array_equal(quad.s, s) and np.array_equal(quad.b, b) and quad.c == c
    assert fresh.standard_normal() == former.standard_normal()


def test_pairing_is_no_dense_matrix():
    # one d x d complex array at d = 320 is 16 d^2 bytes, 1.6 MB
    x = np.ones(RANK5.phase_dim(), dtype=complex)
    tracemalloc.start()
    try:
        jx = poisson_tensor(RANK5) @ x
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert jx.shape == x.shape
    assert peak < 200_000, f"building and applying the pairing peaked at {peak} bytes"


def _observables(q, rng):
    pts = [float(k) for k in range(q.n_arms)]
    z = 0.45 + 0.3j * rng.standard_normal()
    i, j = (int(x) for x in rng.integers(q.rank, size=2))
    return [
        trace_power_observable(q, pts, int(rng.integers(1, 4)), z, selfcheck=False),
        entry_observable(q, pts, z, i, j, selfcheck=False),
        oracle.to_observable(QuadraticObservable.random(q, rng, 0.5)),
    ]


@settings(derandomize=True, max_examples=15, deadline=None)
@given(q=quivers(), seed=st.integers(0, 2**32 - 1))
def test_fd_gradient_bit_identical_to_copying_oracle(q, seed):
    rng = np.random.default_rng(seed)
    rep = random_rep(q, rng, scale=0.6)
    for obs in _observables(q, rng):
        assert np.array_equal(pack_rep(fd_gradient(obs, rep)), pack_rep(oracle.fd_gradient(obs, rep)))


def test_fd_gradient_quotient_rounds_as_python_complex_division():
    # a linear observable on a representation of entries near FD_STEP: each
    # difference carries full-width mantissas, where numpy's complex division
    # (a multiplication by 1 / (2 FD_STEP)) and Python's differ in the last bit
    q = StarQuiver(rank=3, arms=((2, 1), (1,), (2,)))
    rng = np.random.default_rng(8)
    rep = random_rep(q, rng, scale=FD_STEP)
    w = rng.standard_normal(q.phase_dim()) + 1j * rng.standard_normal(q.phase_dim())

    def value(r):
        v = np.sum(pack_rep(r) * w, axis=-1)  # row by row, as unstacked
        return v if v.ndim else complex(v)

    obs = Observable(q, value, None, "linear")
    assert np.array_equal(pack_rep(fd_gradient(obs, rep)), pack_rep(oracle.fd_gradient(obs, rep)))


def test_fd_gradient_restores_the_representation():
    q = StarQuiver(rank=3, arms=((2, 1), (1,), (2,), ()))
    rng = np.random.default_rng(1)
    rep = random_rep(q, rng)
    before, slots = pack_rep(rep), [id(m) for m in _matrices(rep)]
    for obs in _observables(q, rng):
        fd_gradient(obs, rep)
        assert np.array_equal(pack_rep(rep), before)
        assert [id(m) for m in _matrices(rep)] == slots


# the quiver has 30 slot matrices: a raise at the first, second, a middle and the last slot call
@pytest.mark.parametrize("fail_at", [1, 2, 7, 30])
def test_fd_gradient_restores_the_representation_when_value_raises(fail_at):
    q = StarQuiver(rank=3, arms=((2, 1), (1,), (2,)) * 3 + ((2, 1), (1,)))
    rep = random_rep(q, np.random.default_rng(2))
    assert len(_matrices(rep)) == 30
    before = pack_rep(rep)
    calls = []

    def value(r):
        calls.append(None)
        if len(calls) == fail_at:
            raise ZeroDivisionError("value failed")
        return np.sum(pack_rep(r), axis=-1)

    obs = Observable(q, value, None, "raises")
    with pytest.raises(ZeroDivisionError):
        fd_gradient(obs, rep)
    assert len(calls) == fail_at
    assert np.array_equal(pack_rep(rep), before)


def test_fd_gradient_calls_value_once_per_slot_with_one_entry_moved_per_row():
    q = StarQuiver(rank=3, arms=((2, 1), (1,), (2,), ()))
    rep = random_rep(q, np.random.default_rng(5))
    mats = _matrices(rep)
    seen = []

    def value(r):
        (slot,) = [k for k, m in enumerate(_matrices(r)) if m.ndim == 3]
        seen.append((slot, _matrices(r)[slot].copy()))
        return np.sum(pack_rep(r), axis=-1)

    fd_gradient(Observable(q, value, None, "recording"), rep)
    assert [slot for slot, _ in seen] == list(range(len(mats)))
    for slot, stack in seen:
        x, k = mats[slot].reshape(-1), mats[slot].size
        assert stack.shape == (2 * k, *mats[slot].shape)
        rows = stack.reshape(2 * k, k)
        for e in range(k):
            for row, moved in ((rows[e], x[e] + FD_STEP), (rows[k + e], x[e] - FD_STEP)):
                assert np.array_equal(np.delete(row, e), np.delete(x, e))
                assert row[e] == moved != x[e]


def test_fd_gradient_evaluates_levels_past_the_claimed_ones():
    # an observable that claims levels=1 but reads the level-2 slot f[0][1]
    q = StarQuiver(rank=3, arms=((2, 1), (1,)))
    rep = random_rep(q, np.random.default_rng(6))
    obs = Observable(q, lambda r: np.sum(r.f[0][1], axis=(-2, -1)), None, "level 2", levels=1)
    fd = fd_gradient(obs, rep)
    assert np.allclose(fd.f[0][1], 1.0)
    assert not any(np.any(m) for k, m in enumerate(_matrices(fd)) if k != 1)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(q=quivers(), seed=st.integers(0, 2**32 - 1))
def test_level_skipping_bracket_bit_identical_to_full_sum(q, seed):
    rng = np.random.default_rng(seed)
    rep = random_rep(q, rng, scale=0.6)
    first, second = _observables(q, rng)[:2], _observables(q, rng)[:2]
    assert all(obs.levels == 1 for obs in first + second)
    for f_obs in first:
        for g_obs in second:
            full = [dataclasses.replace(obs, levels=math.inf) for obs in (f_obs, g_obs)]
            assert bracket(f_obs, g_obs, rep) == bracket(*full, rep)


# ---------------------------------------------------------------------------
# the stacked bracket kernels against the per-observable ones

STACKED_QUIVERS = [
    *(StarQuiver(rank=r, arms=(tuple(range(r - 1, 0, -1)),) * 4) for r in (2, 3, 4, 5)),
    StarQuiver(rank=4, arms=((3, 1), (), (2,), (3, 2, 1))),  # mixed level-1 shapes and an empty arm
    StarQuiver(rank=5, arms=((4, 3, 2, 1), (2,), (3, 1), (4, 2))),
]


@pytest.mark.parametrize("q", STACKED_QUIVERS, ids=lambda q: f"r{q.rank}-" + "-".join(map(str, map(len, q.arms))))
def test_stacked_kernels_keep_the_per_observable_bits(q):
    rng = np.random.default_rng(31 + q.rank)
    for _ in range(3):
        rep = random_rep(q, rng, scale=0.5)
        z, w = rng.choice(quarter_steps(PTS4), size=2, replace=False).tolist()
        for t in range(1, 5):
            for t_prime in range(1, 5):
                assert check_commutativity(rep, PTS4, t, t_prime, z, w) == oracle.check_commutativity(rep, PTS4, t, t_prime, z, w)
        assert np.array_equal(entry_bracket_residuals(rep, PTS4, z, w), oracle.entry_bracket_residuals(rep, PTS4, z, w))
        for i, j in np.ndindex(q.rank, q.rank):
            got, want = entry_observable(q, PTS4, z, i, j, selfcheck=False).grad(rep), oracle.entry_gradient(rep, PTS4, z, i, j)
            assert all(np.array_equal(a, b) for a, b in zip(_matrices(got), _matrices(want)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(q=quivers(ranks=(1, 5), armless=True), seed=st.integers(0, 2**32 - 1), complex_points=st.booleans())
def test_stacked_kernels_keep_the_per_observable_bits_on_random_cases(q, seed, complex_points):
    rng = np.random.default_rng(seed)
    rep = random_rep(q, rng, scale=float(rng.choice([0.3, 0.5, 1.0])))
    points = [float(x) for x in range(q.n_arms)]
    for _ in range(4):
        if complex_points:
            z, w = (complex(*rng.standard_normal(2)) for _ in range(2))
        else:
            z, w = rng.choice(quarter_steps(points), size=2, replace=False).tolist()
        t, t_prime = (int(x) for x in rng.integers(1, 5, size=2))
        assert check_commutativity(rep, points, t, t_prime, z, w) == oracle.check_commutativity(rep, points, t, t_prime, z, w)
        assert np.array_equal(entry_bracket_residuals(rep, points, z, w), oracle.entry_bracket_residuals(rep, points, z, w))

"""Differential tests of the matrix-free quadratic brackets, the slot-stacked
finite differences and the level-skipping bracket against the dense and
copy-based references in ``poisson_oracle``."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poisson_oracle as oracle
from starquiver.poisson import (
    FD_STEP,
    Observable,
    QuadraticObservable,
    _matrices,
    bracket,
    entry_observable,
    fd_gradient,
    pack_rep,
    poisson_tensor,
    trace_power_observable,
)
from starquiver.starrep import StarQuiver, random_rep


@st.composite
def quivers(draw, ranks=(2, 4)):
    """Star quivers of central rank 2 to 4 with one to four arms; each arm a
    strictly decreasing chain of dimensions up to the rank, possibly empty,
    and at least one arm not empty."""
    r = draw(st.integers(*ranks))

    def chains(min_size=0):
        dims = st.sets(st.integers(1, r), min_size=min_size, max_size=3)
        return dims.map(lambda s: tuple(sorted(s, reverse=True)))

    return StarQuiver(rank=r, arms=(draw(chains(1)), *draw(st.lists(chains(), max_size=3))))


def _close(x, ref, rtol=1e-12):
    return np.linalg.norm(np.atleast_1d(x - ref)) <= rtol * np.linalg.norm(np.atleast_1d(ref))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(q=quivers(), seed=st.integers(0, 2**32 - 1))
def test_nested_brackets_match_dense_oracle(q, seed):
    rng = np.random.default_rng(seed)
    jmat = poisson_tensor(q)
    v = pack_rep(random_rep(q, rng, scale=0.5))
    a, b, c = (QuadraticObservable.random(q, rng, 0.5) for _ in range(3))
    dense = lambda x, y: oracle.bracket_with(x, y, jmat)  # noqa: E731
    pairs = [
        (a.bracket_with(b, jmat), dense(a, b)),
        (a.bracket_with(b.bracket_with(c, jmat), jmat), dense(a, dense(b, c))),
        (a.bracket_with(b, jmat).bracket_with(c, jmat), dense(dense(a, b), c)),
    ]
    for fast, ref in pairs:
        assert _close(fast.value_at(v), ref.value_at(v))
        assert _close(fast.gradient_at(v), ref.gradient_at(v))
        assert _close(fast.b, ref.b) and _close(fast.c, ref.c)


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

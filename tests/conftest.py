import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from starquiver import linalg_exact as ex
from starquiver.combinat import MarkedLine, NilpotentClass, ParabolicType
from starquiver.dsolve import DSInstance, SolverConfig, random_feasible_instance, solve

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

F = Fraction


@pytest.fixture(scope="session")
def line4():
    return MarkedLine((0, 1, 2, 3))


@pytest.fixture(scope="session")
def full_flag_type(line4):
    """Rank 2, four points, one-dimensional flag steps, small weights."""
    return ParabolicType(
        line=line4, rank=2, K=16, multiplicities=((1, 1),) * 4, weights=((0, 1),) * 4
    )


@pytest.fixture(scope="session")
def tight_weight_type(line4):
    """Same flags but K = 2, violating the small-weights bound."""
    return ParabolicType(
        line=line4, rank=2, K=2, multiplicities=((1, 1),) * 4, weights=((0, 1),) * 4
    )


@pytest.fixture(scope="session")
def heavy_top_type(line4):
    """K = 4 with top weight 3 at each point (fails the weight bound)."""
    return ParabolicType(
        line=line4, rank=2, K=4, multiplicities=((1, 1),) * 4, weights=((0, 3),) * 4
    )


def closed_form_matrices():
    """E12, -E12, E21, -E21: nilpotent rank-1 matrices summing to zero."""
    e12 = [[F(0), F(1)], [F(0), F(0)]]
    e21 = [[F(0), F(0)], [F(1), F(0)]]
    return [e12, ex.mscale(F(-1), e12), e21, ex.mscale(F(-1), e21)]


def closed_form_flags():
    e1 = [[F(1)], [F(0)]]
    e2 = [[F(0)], [F(1)]]
    return [[e1], [e1], [e2], [e2]]


@pytest.fixture(scope="session")
def rank2_instance():
    c = NilpotentClass(rank=2, rank_sequence=(1,))
    return DSInstance(rank=2, classes=(c, c, c, c))


@pytest.fixture(scope="session")
def certified_batch(rank2_instance):
    """The boundary instance plus twenty random feasible instances, solved
    once for the acceptance criteria and the differential tests."""
    batch = []
    out = solve(rank2_instance, SolverConfig(seed=7, restarts=20, tolerance=1e-10))
    assert out.success
    batch.append((rank2_instance, out))
    rng = np.random.default_rng(42)
    for k in range(20):
        inst = random_feasible_instance(rng, max_rank=5, max_points=6)
        batch.append((inst, solve(inst, SolverConfig(seed=100 + k))))
    return batch


def random_parabolic_type(rng, max_rank=6, max_points=8):
    r = int(rng.integers(1, max_rank + 1))
    n = int(rng.integers(4, max_points + 1))
    pts = list(range(n))
    mults, weights = [], []
    for _ in range(n):
        left, m = r, []
        while left > 0:
            p = int(rng.integers(1, left + 1))
            m.append(p)
            left -= p
        mults.append(tuple(m))
    kk = 1
    for m in mults:
        kk = max(kk, len(m) * 3 + 1)
    K = kk + int(rng.integers(0, 10))
    for m in mults:
        w = sorted(rng.choice(K, size=len(m), replace=False).tolist())
        weights.append(tuple(int(x) for x in w))
    return ParabolicType(
        line=MarkedLine(tuple(pts)),
        rank=r,
        K=K,
        multiplicities=tuple(mults),
        weights=tuple(weights),
    )

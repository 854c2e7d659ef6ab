import numpy as np
import pytest

from starquiver.combinat import MarkedLine, NilpotentClass, ParabolicType
from starquiver.dsolve import DSInstance, SolverConfig, exact_refine, flags_from_solution, random_feasible_instance, solve


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


@pytest.fixture(scope="session")
def refined_batch(certified_batch):
    """(instance, outcome, exact refinement, its ``flags_from_solution``
    tuple) for every solved instance of the certified batch, refined once
    for the session; tests read them and change nothing."""
    out = []
    for inst, o in certified_batch:
        if o.success:
            exact = exact_refine(o.solution, inst)
            out.append((inst, o, exact, flags_from_solution(exact, inst.parabolic_type())))
    return out

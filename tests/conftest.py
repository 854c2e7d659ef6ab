"""Session fixtures: the inputs that several test modules read, each built
once.  Tests read them and change nothing."""

import numpy as np
import pytest

from common import closed_form_flags, closed_form_matrices
from starquiver.combinat import MarkedLine, NilpotentClass, ParabolicType
from starquiver.dsolve import DSInstance, SolverConfig, exact_refine, flags_from_solution, random_feasible_instance, solve
from starquiver.higgs import HiggsTuple, higgs_to_quiver


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
def closed_form_tuple(full_flag_type):
    """E12, -E12, E21, -E21 at 0, 1, 2, 3 with coordinate flags: an exact
    irreducible tuple with an integral spectral curve."""
    return HiggsTuple(full_flag_type, closed_form_matrices(), closed_form_flags(), mode="exact")


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
    tuple) for every solved instance of the certified batch."""
    out = []
    for inst, o in certified_batch:
        if o.success:
            exact = exact_refine(o.solution, inst)
            out.append((inst, o, exact, flags_from_solution(exact, inst.parabolic_type())))
    return out


@pytest.fixture(scope="session")
def float_tuples(certified_batch):
    """The float ``flags_from_solution`` tuple of every solved instance of
    the certified batch, in the order of ``refined_batch``."""
    return [flags_from_solution(out.solution, inst.parabolic_type()) for inst, out in certified_batch if out.success]


@pytest.fixture(scope="session")
def bridge_batch():
    """The first 50 draws of the bridge stream, as the bridge benchmark
    draws them, solved with seeds 500 + k: (instance, float residue tuple,
    its representation).  Every one converges."""
    rng = np.random.default_rng(9)
    batch = []
    for k in range(50):
        inst = random_feasible_instance(rng, max_rank=3, max_points=6)
        out = solve(inst, SolverConfig(seed=500 + k))
        assert out.success, k
        h = flags_from_solution(out.solution, inst.parabolic_type())
        batch.append((inst, h, higgs_to_quiver(h)))
    return batch

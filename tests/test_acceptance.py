"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line with its measured runtime; a failure keeps
the assertion message close to the violated bound.  Criteria that share
expensive artifacts (the certified-solution batch) reuse a session
fixture.
"""

import time
from fractions import Fraction

import numpy as np

from common import FIXTURES, PTS4, random_parabolic_type, sample_hitchin_point, twisted_slope
from poisson_oracle import to_observable
from starquiver import linalg_exact as ex
from starquiver.cli import main
from starquiver.combinat import mu_eps, spectral_degrees
from starquiver.dsolve import (
    SolverConfig,
    flags_from_solution,
    orbit_jacobian,
    solve,
    verify,
)
from starquiver.higgs import HiggsTuple, higgs_to_quiver, parabolic_slope, quiver_to_higgs
from starquiver.poisson import (
    QuadraticObservable,
    check_commutativity,
    check_entry_bracket,
    entry_observable,
    fd_gradient,
    independent_hamiltonian_count,
    pack_rep,
    poisson_tensor,
    trace_power_observable,
)
from starquiver.spectral import char_poly, vanishing_orders
from starquiver.starrep import (
    StarQuiver,
    center_cycles,
    moment_residual,
    random_rep,
    trace_along_cycle,
)

F = Fraction


def _report(name, t0, limit):
    elapsed = time.time() - t0
    print(f"PASS  {name}  ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert elapsed < limit, f"{name}: {elapsed:.1f}s exceeded the {limit:.0f}s budget"


def test_fixture_slopes(tight_weight_type, heavy_top_type):
    t0 = time.time()
    e1 = [[F(1)], [F(0)]]
    h_dec = HiggsTuple(
        tight_weight_type, [ex.mzeros(2, 2)] * 4, [[e1]] * 4, mode="exact"
    )
    assert parabolic_slope(h_dec) == F(1)
    lines = [
        [[F(1)], [F(0)]],
        [[F(0)], [F(1)]],
        [[F(1)], [F(1)]],
        [[F(1)], [F(-1)]],
    ]
    h_heavy = HiggsTuple(
        heavy_top_type, [ex.mzeros(2, 2)] * 4, [[l] for l in lines], mode="exact"
    )
    assert parabolic_slope(h_heavy) == F(3, 2)
    assert twisted_slope(h_heavy, -1, lines) == F(2)
    _report("fixture slopes are exact rationals", t0, 1.0)


def test_combinatorial_identities():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        t = random_parabolic_type(rng, max_rank=6, max_points=8)
        for (mu, eps), mult in zip(mu_eps(t), t.multiplicities):
            assert sum(mu) == t.rank
            assert eps[-1] == max(mult)
    _report("mu/eps identities on 1000 random types", t0, 5.0)


def test_bridge_round_trip(bridge_batch):
    t0 = time.time()
    for _, h, rep in bridge_batch:
        rep2 = higgs_to_quiver(quiver_to_higgs(rep, h.sigma))
        assert moment_residual(rep2) < 1e-8
        for cyc in center_cycles(rep.quiver, 6):
            t1 = trace_along_cycle(rep, cyc)
            t2 = trace_along_cycle(rep2, cyc)
            assert abs(t1 - t2) < 1e-9
    _report("bridge round trip on 50 moment-zero representations", t0, 60.0)


def test_residue_sum_solver(certified_batch, refined_batch):
    t0 = time.time()
    inst0, out0 = certified_batch[0]
    assert out0.success and out0.solution.restart_index < 20
    assert out0.solution.residual < 1e-10
    rep0 = verify(out0.solution, inst0)
    assert rep0.profile_ok, "rank profile must match the prescribed classes"
    assert rep0.irreducible, "a valid full-algebra certificate is required"
    exact0 = refined_batch[0][2]
    assert exact0.profile() == [c.rank_sequence for c in inst0.classes]
    certified = 0
    for inst, out in certified_batch[1:]:
        if not out.success:
            continue
        rep = verify(out.solution, inst)
        if rep.profile_ok and rep.irreducible:
            certified += 1
    assert certified >= 18, f"only {certified}/20 random instances certified"
    _report(
        f"residue-sum solver ({certified}/20 random instances certified)", t0, 600.0
    )


def test_spectral_membership_exact_orders(refined_batch):
    t0 = time.time()
    checked = 0
    for inst, out, exact, h in refined_batch:
        rep = verify(out.solution, inst)
        if not (rep.profile_ok and rep.irreducible):
            continue
        total = exact.matrices[0]
        for m in exact.matrices[1:]:
            total = ex.madd(total, m)
        assert ex.is_zero(total)
        sigma = inst.parabolic_type()
        report = vanishing_orders(char_poly(h), sigma)
        assert report.member, "certified solutions map into the admissible space"
        assert report.all_exact, (
            "orders must be exactly the required minima at every level with "
            "sections (levels with negative degree are identically zero)"
        )
        checked += 1
    assert checked >= 19
    _report(f"exact vanishing orders on {checked} certified solutions", t0, 120.0)


def test_integrality_sampler(full_flag_type):
    t0 = time.time()
    for seed in range(100):
        hp, retries = sample_hitchin_point(full_flag_type, seed=seed, max_retries=50)
        assert retries < 50
    _report("integral spectral sampler over 100 seeds", t0, 120.0)


def test_poisson_identities():
    t0 = time.time()
    rng = np.random.default_rng(31)
    # entry bracket over the full index range for ranks 2 and 3
    entry_worst = 0.0
    for r in (2, 3):
        arms = tuple(tuple(range(r - 1, 0, -1)) for _ in range(4))
        q = StarQuiver(rank=r, arms=arms)
        for rep_i in range(5):
            rep = random_rep(q, rng, scale=0.5)
            for _ in range(5):
                z = 0.45 + 0.2 * rng.standard_normal()
                w = -0.6 + 0.2 * rng.standard_normal()
                for i in range(r):
                    for j in range(r):
                        for k in range(r):
                            for l in range(r):
                                entry_worst = max(
                                    entry_worst,
                                    check_entry_bracket(rep, PTS4, z, w, i, j, k, l),
                                )
    assert entry_worst < 1e-9, f"entry-bracket residual {entry_worst:.2e}"
    # commutativity of the trace powers
    comm_worst = 0.0
    for _ in range(100):
        r = int(rng.integers(2, 5))
        arms = tuple(tuple(range(r - 1, 0, -1)) for _ in range(4))
        q = StarQuiver(rank=r, arms=arms)
        rep = random_rep(q, rng, scale=0.4)
        z = 0.45 + 0.2 * rng.standard_normal()
        w = -0.6 + 0.2 * rng.standard_normal()
        t, t2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        comm_worst = max(comm_worst, check_commutativity(rep, PTS4, t, t2, z, w))
    assert comm_worst < 1e-8, f"commutativity residual {comm_worst:.2e}"
    # Jacobi identity on quadratic observables
    q = StarQuiver(rank=2, arms=((1,),) * 4)
    jmat = poisson_tensor(q)
    jacobi_worst = 0.0
    for _ in range(20):
        rep = random_rep(q, rng, scale=0.5)
        v = pack_rep(rep)
        a = QuadraticObservable.random(q, rng, 0.5)
        b = QuadraticObservable.random(q, rng, 0.5)
        c = QuadraticObservable.random(q, rng, 0.5)
        lhs = a.bracket_with(b.bracket_with(c, jmat), jmat).value_at(v)
        rhs = (
            a.bracket_with(b, jmat).bracket_with(c, jmat).value_at(v)
            + b.bracket_with(a.bracket_with(c, jmat), jmat).value_at(v)
        )
        jacobi_worst = max(jacobi_worst, abs(lhs - rhs))
    assert jacobi_worst < 1e-9, f"jacobi residual {jacobi_worst:.2e}"
    _report(
        "bracket identities (entry "
        f"{entry_worst:.1e}, commuting {comm_worst:.1e}, jacobi {jacobi_worst:.1e})",
        t0,
        300.0,
    )


def test_gradient_oracles():
    t0 = time.time()
    rng = np.random.default_rng(17)
    q = StarQuiver(rank=2, arms=((1,),) * 4)

    def rel_err(analytic, fd):
        worst = 0.0
        for j in range(q.n_arms):
            for arrs in ((analytic.f[j], fd.f[j]), (analytic.g[j], fd.g[j])):
                a, b = arrs
                for m1, m2 in zip(a, b):
                    scale = max(1.0, float(np.max(np.abs(m2))))
                    worst = max(worst, float(np.max(np.abs(m1 - m2))) / scale)
        return worst

    # trace powers
    worst = 0.0
    for _ in range(100):
        rep = random_rep(q, rng, scale=0.7)
        t = int(rng.integers(1, 5))
        z = 0.45 + 0.25 * rng.standard_normal()
        obs = trace_power_observable(q, PTS4, t, z)
        worst = max(worst, rel_err(obs.grad(rep), fd_gradient(obs, rep)))
    assert worst < 1e-6, f"trace-power gradient error {worst:.2e}"
    # entry observables
    worst_e = 0.0
    for _ in range(100):
        rep = random_rep(q, rng, scale=0.7)
        z = -0.6 + 0.25 * rng.standard_normal()
        obs = entry_observable(q, PTS4, z, int(rng.integers(2)), int(rng.integers(2)))
        worst_e = max(worst_e, rel_err(obs.grad(rep), fd_gradient(obs, rep)))
    assert worst_e < 1e-6, f"entry gradient error {worst_e:.2e}"
    # Gauss-Newton Jacobian of the solver: J vec(X) is the derivative of
    # sum_i (I + eps X_i) A_i (I + eps X_i)^-1
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    worst_s = 0.0
    for _ in range(100):
        ps = [np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(4)]
        mats = [p @ jordan @ np.linalg.inv(p) for p in ps]
        xs = [rng.standard_normal((2, 2)) for _ in range(4)]
        analytic = orbit_jacobian(mats) @ np.concatenate([x.reshape(-1) for x in xs])
        h = 1e-6

        def total(eps):
            return sum(
                (np.eye(2) + eps * x) @ a @ np.linalg.inv(np.eye(2) + eps * x)
                for x, a in zip(xs, mats)
            )

        fd = ((total(h) - total(-h)) / (2 * h)).reshape(-1)
        worst_s = max(worst_s, float(np.linalg.norm(fd - analytic)) / max(1.0, float(np.linalg.norm(fd))))
    assert worst_s < 1e-6, f"orbit Jacobian error {worst_s:.2e}"
    # quadratic observables
    worst_q = 0.0
    for _ in range(100):
        rep = random_rep(q, rng, scale=0.6)
        quad = to_observable(QuadraticObservable.random(q, rng, 0.5))
        worst_q = max(worst_q, rel_err(quad.grad(rep), fd_gradient(quad, rep)))
    assert worst_q < 1e-6, f"quadratic gradient error {worst_q:.2e}"
    _report(
        f"gradient oracles vs central differences (worst {max(worst, worst_e, worst_s, worst_q):.1e})",
        t0,
        60.0,
    )


def test_hamiltonian_count(rank2_instance, full_flag_type):
    t0 = time.time()
    expected = spectral_degrees(full_flag_type)[1]
    assert expected == 1
    for seed in range(10):
        out = solve(rank2_instance, SolverConfig(seed=seed))
        assert out.success
        h = flags_from_solution(out.solution, rank2_instance.parabolic_type())
        rep = higgs_to_quiver(h)
        count = independent_hamiltonian_count(
            rep, PTS4, [1, 2, 3, 4], [0.31, -0.77, 1.43, 2.61]
        )
        assert count == expected
    _report("independent Hamiltonians match the coefficient space dimension", t0, 60.0)


def test_cli_determinism(tmp_path):
    # each subcommand, run twice with the same configuration and seed,
    # exits 0 and writes the same bytes
    t0 = time.time()
    instance = str(FIXTURES / "ds_rank2_four_rank1.json")
    names = ("tc.json", "sol.json", "solve.json", "verify.json", "rep.json", "bridge.json", "poisson.json")
    runs = {}
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        tc, sol, solve_report, verify_report, rep, bridge, poisson_report = (str(d / name) for name in names)
        for argv in (
            ["type-check", "--type", str(FIXTURES / "type_rank2_full_flags.json"), "--report", tc],
            ["ds", "solve", "--instance", instance, "--seed", "11", "--out", sol, "--report", solve_report],
            ["ds", "verify", "--solution", sol, "--instance", instance, "--hitchin", "--report", verify_report],
            ["bridge", "to-quiver", "--higgs", str(FIXTURES / "higgs_rank2_heavy_top.json"), "--out", rep, "--report", bridge],
            ["poisson", "check", "--rep", rep, "--grid", "25", "--seed", "3", "--report", poisson_report],
        ):
            assert main(argv) == 0, argv
        runs[tag] = [(d / name).read_bytes() for name in names]
    assert runs["first"] == runs["second"]
    _report("byte-identical reports for identical config and seed", t0, 120.0)

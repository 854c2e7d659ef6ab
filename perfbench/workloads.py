"""The benchmark's four workloads and the correctness gates of their items.

Each workload is a closed loop with one client.  A run is a whole number of
rounds; ``inputs(round)`` builds one round's items from the seed (outside
the timed region) and ``run(item, tracer)`` executes one item, returning an
``Outcome``.  An item fails when a gate breaks or a call raises; it is
never re-drawn, skipped or resized.

Why each workload exists and which layers it exercises or bypasses is
written down in NOTES.md next to this file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from starquiver import dsolve, higgs, jsonio, poisson, spectral, starrep
from starquiver import linalg_exact as ex
from starquiver.combinat import NilpotentClass, spectral_degrees

from measure import Outcome, max_bits

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
RESULTS = Path(__file__).resolve().parent / "results"

# the `poisson check` defaults
ENTRY_TOL, COMM_TOL, JACOBI_TOL = 1e-9, 1e-8, 1e-9
GRADIENT_TOL = 1e-6
MOMENT_TOL, TRACE_TOL = 1e-8, 1e-9


def derived_seed(*key):
    """A `--seed` value for a CLI invocation, drawn from the workload seed."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _gate(tr, layer, ok, reason, counters):
    """Record a broken gate against ``layer``; None when the gate holds."""
    if ok:
        return None
    tr.fail(layer)
    return Outcome(False, reason, counters)


# ---------------------------------------------------------------------------
# certify: solve, certify and exactly refine the acceptance batch


def seeded_order(items, seed, rnd):
    """The round's items in an order drawn from the seed."""
    order = np.random.default_rng([seed, rnd]).permutation(len(items))
    return [items[i] for i in order]


class Certify:
    """The acceptance batch: the boundary rank-2 instance (four rank-1
    classes) with solver seed 7, then the twenty random feasible instances
    of the suite's stream with seeds 100 + k."""

    round_seconds = 14.5  # one round on a 2-core machine, one BLAS thread

    def __init__(self, seed):
        self.seed = seed
        c = NilpotentClass(rank=2, rank_sequence=(1,))
        boundary = dsolve.DSInstance(rank=2, classes=(c, c, c, c))
        self.items = [(boundary, dsolve.SolverConfig(seed=7, restarts=20, tolerance=1e-10))]
        rng = np.random.default_rng(42)
        for k in range(20):
            inst = dsolve.random_feasible_instance(rng, max_rank=5, max_points=6)
            self.items.append((inst, dsolve.SolverConfig(seed=100 + k)))

    def inputs(self, rnd):
        return seeded_order(self.items, self.seed, rnd)

    def run(self, item, tr):
        inst, config = item
        c = {}
        with tr.span("dsolve.solve"):
            out = dsolve.solve(inst, config)
        c["dsolve.solve.restarts"] = len(out.best_residuals)
        if fail := _gate(tr, "dsolve.solve", out.success, "solver budget exhausted", c):
            return fail
        c["dsolve.solve.iterations"] = out.solution.iterations
        with tr.span("dsolve.verify"):
            vrep = dsolve.verify(out.solution, inst)
        c["dsolve.verify.words"] = len(vrep.words)
        if fail := _gate(tr, "dsolve.verify", vrep.passed(), "verify did not certify", c):
            return fail
        with tr.span("dsolve.exact_refine"):
            exact = dsolve.exact_refine(out.solution, inst)
        c["dsolve.exact_refine.max_bits"] = max_bits(
            x for m in exact.matrices for row in m for x in row
        )
        total = exact.matrices[0]
        for m in exact.matrices[1:]:
            total = ex.madd(total, m)
        expected = [cl.rank_sequence for cl in inst.classes]
        exact_ok = exact.mode == "exact" and ex.is_zero(total)
        if fail := _gate(tr, "dsolve.exact_refine", exact_ok, "exact sum is not zero", c):
            return fail
        profile_ok = exact.profile() == expected
        if fail := _gate(tr, "dsolve.exact_refine", profile_ok, "exact profile mismatch", c):
            return fail
        sigma = inst.parabolic_type()
        with tr.span("dsolve.flags_from_solution"):
            h = dsolve.flags_from_solution(exact, sigma)
        with tr.span("spectral.char_poly"):
            hp = spectral.char_poly(h)
        c["spectral.char_poly.max_bits"] = max_bits(x for p in hp.coeffs for x in p)
        with tr.span("spectral.vanishing_orders"):
            vo = spectral.vanishing_orders(hp, sigma)
        orders_ok = vo.member and vo.all_exact
        if fail := _gate(tr, "spectral.vanishing_orders", orders_ok, "orders not exact", c):
            return fail
        with tr.span("spectral.is_integral"):
            verdict, _ = spectral.is_integral(spectral.spectral_poly(hp))
        c["spectral.is_integral.integral"] = int(verdict == "integral")
        decided = verdict != "undetermined"
        if fail := _gate(tr, "spectral.is_integral", decided, "integrality undetermined", c):
            return fail
        with tr.span("jsonio.solution_roundtrip"):
            back = jsonio.solution_from_json(json.loads(jsonio.dumps(jsonio.solution_to_json(exact))))
        same = back.mode == "exact" and back.matrices == exact.matrices
        if fail := _gate(tr, "jsonio.solution_roundtrip", same, "JSON round trip changed the solution", c):
            return fail
        return Outcome(True, counters=c)


# ---------------------------------------------------------------------------
# bridge: float solve, then residue tuple <-> quiver round trip


class Bridge:
    """The acceptance suite's bridge round trip: the first 50 instance draws
    of its stream with solver seeds 500 + k."""

    round_seconds = 8.0

    def __init__(self, seed):
        self.seed = seed
        rng = np.random.default_rng(9)
        self.items = [
            (dsolve.random_feasible_instance(rng, max_rank=3, max_points=6), dsolve.SolverConfig(seed=500 + k))
            for k in range(50)
        ]

    def inputs(self, rnd):
        return seeded_order(self.items, self.seed, rnd)

    def run(self, item, tr):
        inst, config = item
        c = {}
        with tr.span("dsolve.solve"):
            out = dsolve.solve(inst, config)
        c["dsolve.solve.restarts"] = len(out.best_residuals)
        if fail := _gate(tr, "dsolve.solve", out.success, "solver budget exhausted", c):
            return fail
        c["dsolve.solve.iterations"] = out.solution.iterations
        sigma = inst.parabolic_type()
        with tr.span("dsolve.flags_from_solution"):
            h = dsolve.flags_from_solution(out.solution, sigma)
        with tr.span("higgs.higgs_to_quiver"):
            rep = higgs.higgs_to_quiver(h)
        with tr.span("higgs.quiver_to_higgs"):
            h2 = higgs.quiver_to_higgs(rep, sigma)
        with tr.span("higgs.higgs_to_quiver"):
            rep2 = higgs.higgs_to_quiver(h2)
        with tr.span("starrep.moment_residual"):
            resid = starrep.moment_residual(rep2)
        if fail := _gate(tr, "starrep.moment_residual", resid < MOMENT_TOL, f"moment residual {resid:.1e}", c):
            return fail
        for cyc in starrep.center_cycles(rep.quiver, 6):
            with tr.span("starrep.trace_along_cycle"):
                t1 = starrep.trace_along_cycle(rep, cyc)
            with tr.span("starrep.trace_along_cycle"):
                t2 = starrep.trace_along_cycle(rep2, cyc)
            gap = abs(t1 - t2)
            if fail := _gate(tr, "starrep.trace_along_cycle", gap < TRACE_TOL, f"trace gap {gap:.1e}", c):
                return fail
        # midpoints between the marked points 0..n-1 sample every level's
        # coefficient polynomial (degree at most r(n - 2)) away from the poles
        r, n = inst.rank, inst.n
        zs = [i - 0.5 for i in range(r * (n - 2) + 2)]
        points = [float(x) for x in inst.points]
        with tr.span("poisson.independent_hamiltonian_count"):
            count = poisson.independent_hamiltonian_count(rep, points, list(range(1, r + 1)), zs)
        want = spectral_degrees(sigma)[1]
        if fail := _gate(
            tr, "poisson.independent_hamiltonian_count", count == want, f"{count} Hamiltonians, want {want}", c
        ):
            return fail
        return Outcome(True, counters=c)


# ---------------------------------------------------------------------------
# poisson: bracket identities on random representations


class Poisson:
    """One random representation per item, ranks 2, 3, 4, 5 and 5 in turn,
    four full-flag arms over the points 0, 1, 2, 3.  Each rank costs about
    three times the one below it; with rank 5 twice the median falls in the
    middle of the rank-4 items and the tail in the middle of the rank-5
    items, not on the gap between two ranks."""

    round_seconds = 1.85
    ranks = (2, 3, 4, 5, 5)
    points = (0.0, 1.0, 2.0, 3.0)
    comm_grid = 20
    jacobi_checks = 2

    def __init__(self, seed):
        self.seed = seed
        # evaluation points as `poisson check` draws them: quarter steps at
        # least 0.25 away from every marked point
        self.pool = [
            k / 4 for k in range(-20, 8 * len(self.points) + 20)
            if min(abs(k / 4 - x) for x in self.points) >= 0.25
        ]

    def inputs(self, rnd):
        return [(r, (self.seed, rnd, k)) for k, r in enumerate(self.ranks)]

    def run(self, item, tr):
        r, key = item
        rng = np.random.default_rng(list(key))
        pts = list(self.points)
        q = starrep.StarQuiver(rank=r, arms=(tuple(range(r - 1, 0, -1)),) * len(pts))

        def draw_zw():
            z, w = rng.choice(self.pool, size=2, replace=False)
            return float(z), float(w)

        with tr.span("starrep.random_rep"):
            rep = starrep.random_rep(q, rng, scale=0.5)
        z, w = draw_zw()
        worst = 0.0
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    for l in range(r):
                        with tr.span("poisson.check_entry_bracket"):
                            res = poisson.check_entry_bracket(rep, pts, z, w, i, j, k, l)
                        worst = max(worst, res)
        if fail := _gate(tr, "poisson.check_entry_bracket", worst < ENTRY_TOL, f"entry residual {worst:.1e}", {}):
            return fail
        worst = 0.0
        for _ in range(self.comm_grid):
            z, w = draw_zw()
            t, t2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            with tr.span("poisson.check_commutativity"):
                res = poisson.check_commutativity(rep, pts, t, t2, z, w)
            worst = max(worst, res)
        if fail := _gate(tr, "poisson.check_commutativity", worst < COMM_TOL, f"commutativity residual {worst:.1e}", {}):
            return fail
        worst = 0.0
        for _ in range(self.jacobi_checks):
            with tr.span("poisson.jacobi"):
                jmat = poisson.poisson_tensor(q)
                v = poisson.pack_rep(rep)
                a, b, cc = (poisson.QuadraticObservable.random(q, rng, 0.5) for _ in range(3))
                lhs = a.bracket_with(b.bracket_with(cc, jmat), jmat).value_at(v)
                rhs = (
                    a.bracket_with(b, jmat).bracket_with(cc, jmat).value_at(v)
                    + b.bracket_with(a.bracket_with(cc, jmat), jmat).value_at(v)
                )
            worst = max(worst, abs(lhs - rhs))
        if fail := _gate(tr, "poisson.jacobi", worst < JACOBI_TOL, f"jacobi residual {worst:.1e}", {}):
            return fail
        z, _ = draw_zw()
        observables = (
            poisson.trace_power_observable(q, pts, int(rng.integers(1, 5)), z, selfcheck=False),
            poisson.entry_observable(q, pts, z, int(rng.integers(r)), int(rng.integers(r)), selfcheck=False),
        )
        for obs in observables:
            with tr.span("poisson.fd_gradient"):
                fd = poisson.fd_gradient(obs, rep)
            err = _gradient_error(obs.grad(rep), fd)
            if fail := _gate(tr, "poisson.fd_gradient", err < GRADIENT_TOL, f"gradient error {err:.1e}", {}):
                return fail
        return Outcome(True)


def _gradient_error(analytic, fd):
    """Largest entry error of a closed-form gradient against finite
    differences, relative to max(1, the largest finite-difference entry)."""
    worst = 0.0
    for a_arms, b_arms in ((analytic.f, fd.f), (analytic.g, fd.g)):
        for a_arm, b_arm in zip(a_arms, b_arms):
            for m1, m2 in zip(a_arm, b_arm):
                scale = max(1.0, float(np.max(np.abs(m2))))
                worst = max(worst, float(np.max(np.abs(m1 - m2))) / scale)
    return worst


# ---------------------------------------------------------------------------
# cli: one subcommand per item, each in a fresh process


def child_env():
    """Environment of every child process: the checkout's sources and one
    BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _solve_exit_ok(code, report):
    """`ds solve` on the infeasible fixture: 0 with an uncertified
    solution when it converges, 2 when the budget runs out."""
    if report.get("converged"):
        return code == 0 and report["verification"]["certified"] is False
    return code == 2


class Cli:
    """Each round runs every invocation below once, in order; later
    invocations read files earlier ones wrote.  Every report must match
    the one the first round wrote byte for byte."""

    round_seconds = 7.0

    def __init__(self, seed, workdir=RESULTS / "cli-work"):
        self.seed = seed
        self.work = Path(workdir)
        self.work.mkdir(parents=True, exist_ok=True)
        self.first_bytes = {}
        self.max_child_rss_kb = 0
        w, f = self.work, FIXTURES
        # the solver seeds are the test suite's: the rank-2 solve took 0.67 s
        # to 1.8 s across seeds, which swamped the run-to-run comparison
        check_seed = str(derived_seed(seed, 1) % 100_000)
        solve_rank2 = ["--instance", str(f / "ds_rank2_four_rank1.json")]
        # name -> (arguments, files it writes, exit code check)
        self.invocations = {
            "type-check": (
                ["type-check", "--type", str(f / "type_rank2_full_flags.json"), "--report", str(w / "tc.json")],
                ["tc.json"],
                lambda code, _: code == 0,
            ),
            "type-check-tight": (
                ["type-check", "--type", str(f / "type_rank2_tight_weights.json"), "--report", str(w / "tct.json")],
                ["tct.json"],
                lambda code, _: code == 0,
            ),
            "ds-solve": (
                ["ds", "solve", *solve_rank2, "--seed", "7", "--out", str(w / "sol.json"), "--report", str(w / "solve.json")],
                ["sol.json", "solve.json"],
                lambda code, _: code == 0,
            ),
            "ds-verify": (
                ["ds", "verify", "--solution", str(w / "sol.json"), *solve_rank2, "--hitchin", "--report", str(w / "verify.json")],
                ["verify.json"],
                lambda code, _: code == 0,
            ),
            "bridge-to-quiver": (
                ["bridge", "to-quiver", "--higgs", str(f / "higgs_rank2_heavy_top.json"), "--hitchin",
                 "--out", str(w / "rep.json"), "--report", str(w / "b2q.json")],
                ["rep.json", "b2q.json"],
                lambda code, _: code == 0,
            ),
            "bridge-to-higgs": (
                ["bridge", "to-higgs", "--rep", str(w / "rep.json"), "--type", str(f / "type_rank2_full_flags.json"),
                 "--hitchin", "--out", str(w / "h.json"), "--report", str(w / "b2h.json")],
                ["h.json", "b2h.json"],
                lambda code, _: code == 0,
            ),
            "poisson-check": (
                ["poisson", "check", "--rep", str(w / "rep.json"), "--seed", check_seed, "--report", str(w / "poisson.json")],
                ["poisson.json"],
                lambda code, _: code == 0,
            ),
            "ds-solve-infeasible": (
                ["ds", "solve", "--instance", str(f / "ds_rank5_infeasible.json"), "--seed", "1", "--restarts", "3",
                 "--report", str(w / "solve5.json")],
                ["solve5.json"],
                lambda code, files: _solve_exit_ok(code, json.loads(files["solve5.json"])),
            ),
            "bridge-to-quiver-split": (
                ["bridge", "to-quiver", "--higgs", str(f / "higgs_rank2_split_bundle.json")],
                [],
                lambda code, _: code == 1,
            ),
        }

    def inputs(self, rnd):
        return list(self.invocations)

    def run(self, name, tr):
        args, outputs, exit_ok = self.invocations[name]
        for out in outputs:
            (self.work / out).unlink(missing_ok=True)
        with tr.span(f"cli.{name}"):
            code, rss_kb = run_child([sys.executable, "-m", "starquiver.cli", *args], self.work / "child.log")
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss_kb)
        files = {out: (self.work / out).read_bytes() for out in outputs if (self.work / out).exists()}
        c = {"cli.exit_mismatch": 0}
        if len(files) != len(outputs) or not exit_ok(code, files):
            c["cli.exit_mismatch"] = 1
            tr.fail(f"cli.{name}")
            return Outcome(False, f"exit code {code}", c)
        first = self.first_bytes.setdefault(name, files)
        if fail := _gate(tr, f"cli.{name}", first == files, "report differs from the first run", c):
            return fail
        return Outcome(True, counters=c)


def run_child(argv, log_path):
    """Run a child process to completion; returns (exit code, peak RSS in KB)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


WORKLOADS = {"certify": Certify, "bridge": Bridge, "poisson": Poisson, "cli": Cli}

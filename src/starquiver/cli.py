"""Command line front end.

Subcommands:

- ``type-check``: combinatorial report for a parabolic type (weight bound,
  residue-sum inequality, spectral top degree, arm chain condition,
  gamma/mu/eps tables, coefficient space dimension).
- ``ds solve`` / ``ds verify``: run and certify the residue-sum solver.
- ``bridge to-quiver`` / ``bridge to-higgs``: convert between residue
  tuples and doubled-quiver representations, with invariant reports and an
  optional spectral appendix.
- ``poisson check``: bracket identity residuals on a representation.

Exit codes: 0 success / all checks pass, 1 input error (a usage error that
argparse rejects included), 2 budget exhausted or undetermined, 3 violated
invariant; ``EXIT_CODES`` maps the exceptions that end a command to 1, 2
or 3.  Identical configuration and seed produce byte-identical reports (no
timestamps, sorted keys).

Each handler decodes its input and then imports the layers it runs, so
``type-check`` loads no numpy, no subcommand loads a layer it does not
call, and input that fails to decode loads none beyond what its decoder
needed.  An option left unset takes the library's own default.
"""

import argparse
import sys
from fractions import Fraction

from . import jsonio
from .combinat import (
    EnumerationBoundExceeded,
    check_small_weights,
    condition_spectral_top,
    mu_eps,
    simpleness_condition,
    spectral_degrees,
    weights_generic,
)
from .jsonio import InputFormatError

OK, INPUT_ERROR, BUDGET, INVARIANT_VIOLATION = 0, 1, 2, 3

# ``poisson check`` counts independent Hamiltonians only on a representation
# whose moment residual is below this: the count is a statement about the
# moment-zero locus
HAMILTONIAN_MOMENT_TOL = 1e-6

# first match wins: a failed rational refinement leaves the answer
# undetermined, an exact-mode invariant breaking inside the pipeline is an
# internal violation, and every other ValueError is bad input.  A row names
# its exception by module so that reading the table imports no layer: an
# exception whose module was never imported cannot have been raised
EXIT_CODES = (
    ("starquiver.dsolve", "RefinementError", BUDGET),
    ("starquiver.spectral", "ExactnessRequired", INVARIANT_VIOLATION),
    ("builtins", "ValueError", INPUT_ERROR),
)


def _exit_code(error):
    """The code of the first row of ``EXIT_CODES`` that ``error`` is an
    instance of, or None."""
    for module, name, code in EXIT_CODES:
        if module in sys.modules and isinstance(error, getattr(sys.modules[module], name)):
            return code
    return None


def _write_report(path, payload):
    if path:
        jsonio.dump(path, payload)


def _fmt_bool(b):
    return "PASS" if b else "FAIL"


# ---------------------------------------------------------------------------
# type-check


def cmd_type_check(args):
    sigma = jsonio.type_from_json(jsonio.load(args.type))
    me = mu_eps(sigma)
    degrees, dim = spectral_degrees(sigma)
    small = check_small_weights(sigma)
    gamma1_sum = sum(sigma.gamma(i)[0] for i in range(sigma.n_points))
    feasible = 2 * sigma.rank <= gamma1_sum
    top = condition_spectral_top(sigma)
    chains_ok = simpleness_condition(sigma)
    try:
        generic = weights_generic(sigma)
        generic_str = "yes" if generic else "no"
    except EnumerationBoundExceeded:
        generic = None
        generic_str = "undetermined"
    lines = []
    lines.append(f"rank {sigma.rank}, {sigma.n_points} marked points, K = {sigma.K}")
    lines.append(f"small-weights bound      : {_fmt_bool(small)}")
    lines.append(
        f"residue-sum inequality   : {_fmt_bool(feasible)}"
        f"  (2r = {2 * sigma.rank} vs sum of first flag dims = {gamma1_sum})"
    )
    lines.append(f"spectral top degree >= 0 : {_fmt_bool(top)}")
    lines.append(f"arm chain condition      : {_fmt_bool(chains_ok)}")
    lines.append(f"weights generic          : {generic_str}")
    lines.append("")
    lines.append("point      multiplicities   weights          gamma            mu               eps")
    for i, x in enumerate(sigma.line.points):
        mu, eps = me[i]
        gam = sigma.gamma(i)[:-1]
        lines.append(
            f"{str(x):<10} {str(list(sigma.multiplicities[i])):<16} "
            f"{str(list(sigma.weights[i])):<16} {str(list(gam)):<16} "
            f"{str(list(mu)):<16} {str(list(eps))}"
        )
    lines.append("")
    lines.append(f"coefficient space degrees: {degrees}")
    lines.append(f"coefficient space dim    : {dim}")
    text = "\n".join(lines)
    print(text)
    _write_report(
        args.report,
        {
            "conditions": {
                "small_weights": small,
                "residue_sum_inequality": feasible,
                "spectral_top_degree": top,
                "arm_chains": chains_ok,
                "weights_generic": generic_str,
            },
            "degrees": degrees,
            "dimension": dim,
            "per_point": [
                {
                    "point": str(x),
                    "multiplicities": list(sigma.multiplicities[i]),
                    "weights": list(sigma.weights[i]),
                    "gamma": list(sigma.gamma(i)[:-1]),
                    "mu": list(me[i][0]),
                    "eps": list(me[i][1]),
                }
                for i, x in enumerate(sigma.line.points)
            ],
            "type": jsonio.type_to_json(sigma),
        },
    )
    return OK


# ---------------------------------------------------------------------------
# ds solve / verify


def _verify_payload(rep):
    payload = {
        "residual": rep.residual,
        "profile_ok": rep.profile_ok,
        "profiles": [list(p) for p in rep.profiles],
        "expected": [list(e) for e in rep.expected],
        "irreducible": rep.irreducible,
        "irreducibility_words": [list(w) for w in rep.words],
        "conjugator_error": rep.conjugator_error,
        "certified": rep.passed(),
    }
    if rep.hitchin is not None:
        payload["spectral"] = {
            "member": rep.hitchin.member,
            "all_orders_exact": rep.hitchin.all_exact,
            "orders": [
                [("inf" if o is None else o) for o in row] for row in rep.hitchin.orders
            ],
            "required": rep.hitchin.required,
            "degrees": rep.hitchin.degrees,
        }
    return payload


def cmd_ds_solve(args):
    inst = jsonio.instance_from_json(jsonio.load(args.instance))

    from .dsolve import SolverConfig, solve, verify

    given = {"tolerance": args.tol, "max_iters": args.max_iters, "restarts": args.restarts, "seed": args.seed}
    config = SolverConfig(**{k: v for k, v in given.items() if v is not None})
    outcome = solve(inst, config)
    feas = outcome.feasibility
    report = {
        "config": {
            "tolerance": config.tolerance,
            "max_iters": config.max_iters,
            "restarts": config.restarts,
            "seed": config.seed,
        },
        "feasibility": {
            "inequality": feas.feasible,
            "sum_gamma1": feas.sum_gamma1,
            "two_r": feas.two_r,
            "n_at_least_4": feas.n_at_least_4,
            "r_at_least_4": feas.r_at_least_4,
        },
        "best_residual_per_restart": outcome.best_residuals,
        "converged": outcome.success,
    }
    if not outcome.success:
        report["message"] = outcome.message
        print(f"no solution within budget: {outcome.message}")
        print(f"best residuals: {', '.join(f'{r:.2e}' for r in outcome.best_residuals)}")
        _write_report(args.report, report)
        return BUDGET
    sol = outcome.solution
    vrep = verify(sol, inst)
    report["verification"] = _verify_payload(vrep)
    print(
        f"converged at restart {sol.restart_index} after {sol.iterations} iterations; "
        f"residual {sol.residual:.3e}"
    )
    print(
        f"rank profile {_fmt_bool(vrep.profile_ok)}, "
        f"irreducible {_fmt_bool(vrep.irreducible)}"
        + ("" if vrep.passed() else " (solution delivered without full certificate)")
    )
    if args.out:
        jsonio.dump(args.out, jsonio.solution_to_json(sol, report=report))
    _write_report(args.report, report)
    # the residue-sum problem is solved once the sum vanishes inside the
    # prescribed classes; irreducibility is reported, not gating
    return OK if vrep.profile_ok else BUDGET


def cmd_ds_verify(args):
    inst = jsonio.instance_from_json(jsonio.load(args.instance))
    sol = jsonio.solution_from_json(jsonio.load(args.solution))

    from .dsolve import verify

    vrep = verify(sol, inst, hitchin=args.hitchin)
    payload = _verify_payload(vrep)
    print(f"residual            : {vrep.residual:.3e}")
    print(f"rank profile        : {_fmt_bool(vrep.profile_ok)}")
    print(f"irreducible         : {_fmt_bool(vrep.irreducible)}")
    if vrep.hitchin is not None:
        print(f"spectral membership : {_fmt_bool(vrep.hitchin.member)}")
        print(f"orders all exact    : {_fmt_bool(vrep.hitchin.all_exact)}")
        print(vrep.hitchin.order_table())
    _write_report(args.report, payload)
    ok = vrep.passed() and (
        vrep.hitchin is None or (vrep.hitchin.member and vrep.hitchin.all_exact)
    )
    return OK if ok else BUDGET


# ---------------------------------------------------------------------------
# bridge


def _spectral_appendix(h):
    """Report entries for the exact spectral appendix; none for floats."""
    if h.mode != "exact":
        print("spectral appendix skipped: requires exact mode", file=sys.stderr)
        return {}
    from .spectral import char_poly, is_integral, spectral_poly, vanishing_orders

    hp = char_poly(h)
    report = vanishing_orders(hp, h.sigma)
    verdict, _ = is_integral(spectral_poly(hp))
    print("vanishing orders (found/required):")
    print(report.order_table())
    print(f"membership        : {_fmt_bool(report.member)}")
    print(f"orders all exact  : {_fmt_bool(report.all_exact)}")
    print(f"spectral polynomial integral: {verdict}")
    return {
        "spectral": {
            "point": jsonio.hitchin_to_json(hp),
            "member": report.member,
            "all_orders_exact": report.all_exact,
            "orders": [[("inf" if o is None else o) for o in row] for row in report.orders],
            "required": report.required,
            "integral": verdict,
        }
    }


def cmd_bridge_to_quiver(args):
    h = jsonio.higgs_from_json(jsonio.load(args.higgs))

    from .higgs import higgs_to_quiver
    from .starrep import moment_residual

    rep = higgs_to_quiver(h)
    resid = moment_residual(rep)
    print(f"moment residual after conversion: {resid:.3e}")
    payload = {"moment_residual": resid, "invariants": "all residue-tuple invariants hold"}
    if args.hitchin:
        payload.update(_spectral_appendix(h))
    if args.out:
        jsonio.dump(args.out, jsonio.rep_to_json(rep))
    _write_report(args.report, payload)
    return OK


def cmd_bridge_to_higgs(args):
    rep = jsonio.rep_from_json(jsonio.load(args.rep))
    sigma = jsonio.type_from_json(jsonio.load(args.type))

    from .higgs import WeightsNotSmallError, quiver_to_higgs, stability_verdict

    # the conversion validates the tuple and raises BridgeError on a violation
    h = quiver_to_higgs(rep, sigma, **({} if args.tol is None else {"tol": args.tol}))
    print("conversion produced a valid residue tuple: PASS")
    payload = {"invariant_violations": []}
    try:
        srep = stability_verdict(h)
        print(f"stability verdict : {srep.verdict} (full slope {srep.full_slope})")
        payload["stability"] = {
            "verdict": srep.verdict,
            "full_slope": str(srep.full_slope),
        }
    except WeightsNotSmallError as e:
        payload["stability"] = {"verdict": "refused", "reason": str(e)}
        print(f"stability verdict : refused ({e})")
    if args.hitchin:
        payload.update(_spectral_appendix(h))
    if args.out:
        jsonio.dump(args.out, jsonio.higgs_to_json(h))
    _write_report(args.report, payload)
    return OK


# ---------------------------------------------------------------------------
# poisson check


def cmd_poisson_check(args):
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    rep = jsonio.rep_from_json(jsonio.load(args.rep)).to_float()

    import numpy as np

    from .poisson import (
        GradientOracleError,
        QuadraticObservable,
        check_commutativity,
        entry_bracket_residuals,
        entry_observable,
        independent_hamiltonian_count,
        pack_rep,
        poisson_tensor,
        trace_power_observable,
    )
    from .starrep import moment_residual

    n = rep.quiver.n_arms
    if args.points:
        points = [float(jsonio.parse_frac(p)) for p in args.points.split(",")]
        if len(points) != n:
            raise InputFormatError("need one point per arm")
    else:
        points = [float(i) for i in range(n)]
    rng = np.random.default_rng(args.seed)
    r = rep.quiver.rank
    pool = [
        float(Fraction(k, 4))
        for k in range(-20, 8 * n + 20)
        if min(abs(k / 4 - x) for x in points) >= 0.25
    ]

    def draw_zw():
        z, w = rng.choice(pool, size=2, replace=False)
        return float(z), float(w)

    # gradient oracles against finite differences along random directions
    oracle_ok = True
    try:
        trace_power_observable(rep.quiver, points, 3, draw_zw()[0], selfcheck=True)
        entry_observable(rep.quiver, points, draw_zw()[0], 0, r - 1, selfcheck=True)
    except GradientOracleError:
        oracle_ok = False
    # entry bracket sweep
    entry_worst = 0.0
    for _ in range(max(1, args.grid // 20)):
        z, w = draw_zw()
        entry_worst = max(entry_worst, entry_bracket_residuals(rep, points, z, w).max())
    # commutativity grid
    comm_worst = 0.0
    for _ in range(args.grid):
        z, w = draw_zw()
        t = int(rng.integers(1, 5))
        t2 = int(rng.integers(1, 5))
        comm_worst = max(comm_worst, check_commutativity(rep, points, t, t2, z, w))
    # Jacobi residuals on random quadratics
    jmat = poisson_tensor(rep.quiver)
    v = pack_rep(rep)
    jacobi_worst = 0.0
    for _ in range(max(1, args.grid // 10)):
        a = QuadraticObservable.random(rep.quiver, rng, 0.5)
        b = QuadraticObservable.random(rep.quiver, rng, 0.5)
        c = QuadraticObservable.random(rep.quiver, rng, 0.5)
        lhs = a.bracket_with(b.bracket_with(c, jmat), jmat).value_at(v)
        rhs = (
            a.bracket_with(b, jmat).bracket_with(c, jmat).value_at(v)
            + b.bracket_with(a.bracket_with(c, jmat), jmat).value_at(v)
        )
        jacobi_worst = max(jacobi_worst, abs(lhs - rhs))
    payload = {
        "config": {"grid": args.grid, "seed": args.seed, "points": [str(p) for p in points]},
        "gradient_oracles_ok": oracle_ok,
        "entry_bracket_max_residual": entry_worst,
        "commutativity_max_residual": comm_worst,
        "jacobi_max_residual": jacobi_worst,
    }
    resid = moment_residual(rep)
    payload["moment_residual"] = resid
    if resid < HAMILTONIAN_MOMENT_TOL:
        zs = [float(z) for z in pool[: max(4, r)]]
        payload["independent_hamiltonians"] = independent_hamiltonian_count(
            rep, points, list(range(1, r + 3)), zs
        )
    print(f"gradient oracles        : {_fmt_bool(oracle_ok)}")
    print(f"entry-bracket residual  : {entry_worst:.3e}")
    print(f"commutativity residual  : {comm_worst:.3e}")
    print(f"jacobi residual         : {jacobi_worst:.3e}")
    if "independent_hamiltonians" in payload:
        print(f"independent hamiltonians: {payload['independent_hamiltonians']}")
    _write_report(args.report, payload)
    ok = (
        oracle_ok
        and entry_worst < args.entry_tol
        and comm_worst < args.comm_tol
        and jacobi_worst < args.jacobi_tol
    )
    return OK if ok else INVARIANT_VIOLATION


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = argparse.ArgumentParser(
        prog="starquiver",
        description="star quiver representations, residue tuples, and their checks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    tc = sub.add_parser("type-check", help="combinatorial report for a parabolic type")
    tc.add_argument("--type", required=True, help="parabolic type JSON")
    tc.add_argument("--report", help="write a JSON report here")
    tc.set_defaults(func=cmd_type_check)

    ds = sub.add_parser("ds", help="residue-sum solver")
    dssub = ds.add_subparsers(dest="ds_command", required=True)
    dsv = dssub.add_parser("solve", help="search for a certified solution")
    dsv.add_argument("--instance", required=True)
    # unset solver options take SolverConfig's defaults
    dsv.add_argument("--tol", type=float)
    dsv.add_argument("--restarts", type=int)
    dsv.add_argument("--max-iters", type=int)
    dsv.add_argument("--seed", type=int)
    dsv.add_argument("--out", help="write the solution JSON here")
    dsv.add_argument("--report", help="write a JSON report here")
    dsv.set_defaults(func=cmd_ds_solve)
    dsw = dssub.add_parser("verify", help="re-certify a stored solution")
    dsw.add_argument("--solution", required=True)
    dsw.add_argument("--instance", required=True)
    dsw.add_argument("--hitchin", action="store_true", help="exact spectral cross-check")
    dsw.add_argument("--report")
    dsw.set_defaults(func=cmd_ds_verify)

    br = sub.add_parser("bridge", help="residue tuples <-> quiver representations")
    brsub = br.add_subparsers(dest="bridge_command", required=True)
    b2q = brsub.add_parser("to-quiver", help="residue tuple to representation")
    b2q.add_argument("--higgs", required=True)
    b2q.add_argument("--out")
    b2q.add_argument("--report")
    b2q.add_argument("--hitchin", action="store_true")
    b2q.set_defaults(func=cmd_bridge_to_quiver)
    b2h = brsub.add_parser("to-higgs", help="representation to residue tuple")
    b2h.add_argument("--rep", required=True)
    b2h.add_argument("--type", required=True)
    b2h.add_argument("--tol", type=float, help="moment tolerance (default: the library's BRIDGE_TOL)")
    b2h.add_argument("--out")
    b2h.add_argument("--report")
    b2h.add_argument("--hitchin", action="store_true")
    b2h.set_defaults(func=cmd_bridge_to_higgs)

    po = sub.add_parser("poisson", help="bracket identity checks")
    posub = po.add_subparsers(dest="poisson_command", required=True)
    pc = posub.add_parser("check", help="residual report on a representation")
    pc.add_argument("--rep", required=True)
    pc.add_argument("--points", help="comma separated marked points (default 0,1,...)")
    pc.add_argument("--grid", type=int, default=100)
    pc.add_argument("--seed", type=int, default=3)
    pc.add_argument("--entry-tol", type=float, default=1e-9)
    pc.add_argument("--comm-tol", type=float, default=1e-8)
    pc.add_argument("--jacobi-tol", type=float, default=1e-9)
    pc.add_argument("--report")
    pc.set_defaults(func=cmd_poisson_check)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which is bad input here; 0 on --help
        return INPUT_ERROR if e.code == 2 else e.code
    try:
        return args.func(args)
    except Exception as e:
        code = _exit_code(e)
        if code is None:
            raise
        print(f"error: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands:

- ``type-check``: combinatorial report for a parabolic type (weight bound,
  residue-sum inequality, spectral top degree, arm chains, Sigma_0 verdict,
  gamma/mu/eps tables, coefficient space dimension).
- ``ds solve`` / ``ds verify``: run and certify the residue-sum solver;
  ``ds verify --hitchin`` adds the bridge's spectral appendix.
- ``bridge to-quiver`` / ``bridge to-higgs``: convert between residue
  tuples and doubled-quiver representations, with invariant reports and an
  optional spectral appendix.
- ``poisson check``: bracket identity residuals on a representation.

Exit codes: 0 success / all checks pass, 1 input error (a usage error that
argparse rejects included, as one ``error:`` line), 2 budget exhausted or
undetermined, 3 violated
invariant; ``EXIT_CODES`` maps the exceptions that end a command to 1, 2
or 3.  Identical configuration and seed produce byte-identical reports (no
timestamps, sorted keys).

Each handler decodes its input and then imports the layers it runs, so
``type-check`` and exact ``bridge`` load no numpy, no subcommand loads a
layer it does not call, and input that fails to decode loads none beyond
what its decoder needed.  An option left unset takes the library's default.
"""

import argparse
import dataclasses
import math
import sys

from . import jsonio
from .combinat import (
    EnumerationBoundExceeded,
    check_small_weights,
    ds_feasible,
    mu_eps,
    simpleness_condition,
    spectral_degrees,
    weights_generic,
)
from .jsonio import InputFormatError

OK, INPUT_ERROR, BUDGET, INVARIANT_VIOLATION = 0, 1, 2, 3

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


def _refuse_tolerances(*flags):
    """Refuse each (flag, value) that no check passes (<= 0, NaN) or that switches a gate off (inf); None is unset."""
    for flag, value in flags:
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{flag} must be a positive finite number, got {value}")


def _fmt_bool(b):
    return "PASS" if b else "FAIL"


# ---------------------------------------------------------------------------
# type-check


def cmd_type_check(args):
    sigma = jsonio.type_from_json(jsonio.load(args.type))
    me = mu_eps(sigma)
    degrees, dim = spectral_degrees(sigma)
    small = check_small_weights(sigma)
    feas = ds_feasible(sigma)
    top = degrees[-1] >= 0
    chains_ok = simpleness_condition(sigma)
    try:
        generic_str = "yes" if weights_generic(sigma) else "no"
    except EnumerationBoundExceeded:
        generic_str = "undetermined"
    lines = []
    lines.append(f"rank {sigma.rank}, {sigma.n_points} marked points, K = {sigma.K}")
    lines.append(f"small-weights bound      : {_fmt_bool(small)}")
    lines.append(
        f"residue-sum inequality   : {_fmt_bool(feas.feasible)}"
        f"  (2r = {feas.two_r} vs sum of first flag dims = {feas.sum_gamma1})"
    )
    lines.append(f"spectral top degree >= 0 : {_fmt_bool(top)}")
    lines.append(f"arm chain condition      : {_fmt_bool(chains_ok)}")
    lines.append(f"irreducible tuple exists : {_fmt_bool(feas.in_sigma0)}  (dimension vector in Sigma_0)")
    lines.append(f"weights generic          : {generic_str}")
    lines.append("")
    lines.append("point      multiplicities   weights          gamma            mu               eps")
    for i, x in enumerate(sigma.line.points):
        mu, eps = me[i]
        gam = sigma.gamma(i)
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
                "residue_sum_inequality": feas.feasible,
                "spectral_top_degree": top,
                "arm_chains": chains_ok,
                "in_sigma0": feas.in_sigma0,
                "weights_generic": generic_str,
            },
            "degrees": degrees,
            "dimension": dim,
            "per_point": [
                {
                    "point": str(x),
                    "multiplicities": list(sigma.multiplicities[i]),
                    "weights": list(sigma.weights[i]),
                    "gamma": list(sigma.gamma(i)),
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
    return {
        "residual": rep.residual,
        "sum_ok": rep.sum_ok,
        "profile_ok": rep.profile_ok,
        "profiles": [list(p) for p in rep.profiles],
        "expected": [list(e) for e in rep.expected],
        "irreducible": rep.irreducible,
        "irreducibility_words": [list(w) for w in rep.words],
        "conjugator_error": rep.conjugator_error,
        "conjugators_ok": rep.conjugators_ok,
        "certified": rep.passed(),
    }


def cmd_ds_solve(args):
    from .dsolve import SolverConfig, solve, verify

    # the budget is refused before the instance is read
    given = {"tolerance": args.tol, "max_iters": args.max_iters, "restarts": args.restarts, "seed": args.seed}
    config = SolverConfig(**{k: v for k, v in given.items() if v is not None})
    inst = jsonio.instance_from_json(jsonio.load(args.instance))
    outcome = solve(inst, config)
    feas = outcome.feasibility
    report = {
        "config": dataclasses.asdict(config),
        "feasibility": {
            "inequality": feas.feasible,
            "sum_gamma1": feas.sum_gamma1,
            "two_r": feas.two_r,
            "n_at_least_4": feas.n_at_least_4,
            "r_at_least_4": feas.r_at_least_4,
            "in_sigma0": feas.in_sigma0,
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
        + ("" if feas.in_sigma0 else "; no irreducible tuple exists (dimension vector not in Sigma_0)")
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

    from .dsolve import RefinementError, exact_refine, flags_from_solution, verify

    vrep = verify(sol, inst)
    payload = _verify_payload(vrep)
    print(f"residual            : {vrep.residual:.3e}")
    print(f"zero sum            : {_fmt_bool(vrep.sum_ok)}")
    print(f"rank profile        : {_fmt_bool(vrep.profile_ok)}")
    print(f"irreducible         : {_fmt_bool(vrep.irreducible)}")
    print(f"conjugators         : {_fmt_bool(vrep.conjugators_ok)} (error {vrep.conjugator_error:.3e})")
    ok = vrep.passed()
    # the exact cross-check needs a tuple in its classes with a zero sum
    if args.hitchin and vrep.sum_ok and vrep.profile_ok:
        try:
            exact = exact_refine(sol, inst)
        except RefinementError as e:
            _write_report(args.report, {**payload, "message": str(e)})
            raise
        payload.update(_spectral_appendix(flags_from_solution(exact, inst.parabolic_type())))
        ok = ok and payload["spectral"]["member"] and payload["spectral"]["all_orders_exact"]
    _write_report(args.report, payload)
    return OK if ok else BUDGET


# ---------------------------------------------------------------------------
# bridge


def _spectral_appendix(h):
    """The exact spectral appendix of ``bridge`` and ``ds verify`` under ``--hitchin``: the coefficient point,
    vanishing orders against their minima (``"inf"`` for an infinite one), membership, exact orders and
    integrality, printed and returned as the report's ``spectral`` entry; none for floats."""
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
    orders = [[("inf" if o is None else o) for o in row] for row in report.orders]
    entries = {"member": report.member, "all_orders_exact": report.all_exact, "orders": orders, "required": report.required}
    return {"spectral": {"point": jsonio.hitchin_to_json(hp), **entries, "integral": verdict}}


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
    _refuse_tolerances(("--tol", args.tol))
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
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    _refuse_tolerances(("--entry-tol", args.entry_tol), ("--comm-tol", args.comm_tol), ("--jacobi-tol", args.jacobi_tol))
    rep = jsonio.rep_from_json(jsonio.load(args.rep)).to_float()

    import numpy as np

    from .arith import exact_float
    from .poisson import check

    if args.points:
        points = [exact_float(jsonio.parse_frac(p)) for p in args.points.split(",")]
        if len(set(points)) != len(points):  # as floats: distinct rationals may round to one
            raise InputFormatError("marked points must be pairwise distinct")
        if len(points) != rep.quiver.n_arms:
            raise InputFormatError("need one point per arm")
    else:
        points = [float(i) for i in range(rep.quiver.n_arms)]
    report = check(rep, points, np.random.default_rng(args.seed), args.grid)
    payload = {
        "config": {"grid": args.grid, "seed": args.seed, "points": [str(p) for p in points]},
        "gradient_oracles_ok": report.gradient_oracles_ok,
        "entry_bracket_max_residual": report.entry_bracket_max_residual,
        "commutativity_max_residual": report.commutativity_max_residual,
        "jacobi_max_residual": report.jacobi_max_residual,
        "moment_residual": report.moment_residual,
    }
    print(f"gradient oracles        : {_fmt_bool(report.gradient_oracles_ok)}")
    print(f"entry-bracket residual  : {report.entry_bracket_max_residual:.3e}")
    print(f"commutativity residual  : {report.commutativity_max_residual:.3e}")
    print(f"jacobi residual         : {report.jacobi_max_residual:.3e}")
    if report.independent_hamiltonians is not None:
        payload["independent_hamiltonians"] = report.independent_hamiltonians
        print(f"independent hamiltonians: {report.independent_hamiltonians}")
    _write_report(args.report, payload)
    ok = (
        report.gradient_oracles_ok
        and report.entry_bracket_max_residual < args.entry_tol
        and report.commutativity_max_residual < args.comm_tol
        and report.jacobi_max_residual < args.jacobi_tol
    )
    return OK if ok else INVARIANT_VIOLATION


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error, reported in one ``error:`` line like
    any other; ``add_subparsers`` builds the subcommands from this class."""

    def error(self, message):
        raise InputFormatError(message)


def build_parser():
    p = _Parser(
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
    dsw.add_argument("--hitchin", action="store_true", help="spectral appendix of the exact refinement")
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
    b2h.add_argument("--tol", type=float, help="moment tolerance, and the residue tuple's validation tolerance (default: the library's BRIDGE_TOL)")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help prints the usage and exits 0
        return e.code
    except Exception as e:
        code = _exit_code(e)
        if code is None:
            raise
        print(f"error: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark harness for starquiver.

    python3 perfbench/run.py --workload {certify,bridge,poisson,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout, never from an installed copy.  With ``--trace 0`` the run is
untraced and the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same rounds run once untraced and
once traced, and the JSON object carries the per-layer metrics.  Spans, the
environment and every failure reason go to ``perfbench/results/``.  Every
reported time is scaled to a reference speed of the host, which a bare
interpreter start timed between items measures (``measure.HostSpeed``).  The
exit code is 1 when the run is not correct (its self-check fails or no item
passes) and 2 when the checkout has no sources.  NOTES.md explains the
workloads and metrics.
"""

import os

# one BLAS thread, pinned before numpy loads; child processes inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBES = 3  # fresh processes per run for setup_s; the median is reported
MIN_ITEMS = 21  # puts the tail percentile at or above the (high) median
OVERRUN = 3  # stop starting rounds after this many times --seconds

# per layer: its stats (see NOTES.md for the workload each one moves on)
LAYERS = {
    "dsolve.solve": ("calls", "busy_s", "share", "failed", "restarts", "iterations"),
    "dsolve.verify": ("busy_s", "failed", "words"),
    "dsolve.flags_from_solution": ("busy_s",),
    "dsolve.exact_refine": ("busy_s", "share", "failed", "max_bits"),
    "spectral.char_poly": ("busy_s", "share", "max_bits"),
    "spectral.vanishing_orders": ("busy_s", "failed"),
    "spectral.is_integral": ("busy_s", "share", "integral", "failed"),
    "jsonio.solution_roundtrip": ("busy_s",),
    "higgs.higgs_to_quiver": ("busy_s",),
    "higgs.quiver_to_higgs": ("busy_s",),
    "starrep.moment_residual": ("busy_s",),
    "starrep.trace_along_cycle": ("busy_s",),
    "poisson.independent_hamiltonian_count": ("calls", "busy_s"),
    "poisson.check_entry_bracket": ("calls", "busy_s"),
    "poisson.check_commutativity": ("calls", "busy_s"),
    "poisson.jacobi": ("busy_s",),
    "poisson.fd_gradient": ("busy_s",),
    "starrep.random_rep": ("busy_s",),
}
CLI_INVOCATIONS = (
    "type-check",
    "type-check-tight",
    "ds-solve",
    "ds-verify",
    "bridge-to-quiver",
    "bridge-to-higgs",
    "poisson-check",
    "ds-solve-infeasible",
    "bridge-to-quiver-split",
)
UNITS = {
    "calls": "count",
    "busy_s": "s",
    "share": "frac",
    "failed": "count",
    "restarts": "count",
    "iterations": "count",
    "words": "count",
    "integral": "count",
    "max_bits": "bits",
}
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, stats in LAYERS.items():
        for stat in stats:
            out[f"{layer}.{stat}"] = UNITS[stat]
    out["cli.import_s"] = "s"
    for name in CLI_INVOCATIONS:
        out[f"cli.{name}.wall_s"] = "s"
    out["cli.exit_mismatch"] = "count"
    out["trace.overhead_frac"] = "frac"
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("certify", "bridge", "poisson", "cli"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# set-up probes and the environment


def probe_setup(workload, seed, env, host):
    """Start PROBES fresh interpreters, timing the host's reference task
    after each; returns (median seconds until the first item is ready,
    median in-process import time of starquiver.cli), unscaled.  For cli
    set-up is a fresh `import starquiver.cli`."""
    if workload == "cli":
        argv = [
            sys.executable,
            "-c",
            "import time; t = time.perf_counter(); import starquiver.cli; "
            "print(time.perf_counter() - t, flush=True)",
        ]
    else:
        argv = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload, "--seed", str(seed)]
    walls, imports = [], []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        walls.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or not line.strip():
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        if workload == "cli":
            imports.append(float(line))
        host.sample()
    return statistics.median(walls), (statistics.median(imports) if imports else 0.0)


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def git_revision():
    """The checkout's commit when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]


def environment():
    import numpy
    import sympy

    digest = hashlib.sha256()
    for path in sorted((SRC / "starquiver").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# the timed loop


def rounds_for(wl, seconds):
    """Rounds for a run of about ``seconds`` on the reference machine, and
    at least MIN_ITEMS items; a fixed count keeps percentiles comparable."""
    per_round = len(wl.inputs(0))
    return max(math.ceil(seconds / wl.round_seconds), math.ceil(MIN_ITEMS / per_round))


def run_pass(wl, rounds, tracer, limit_s, host):
    """Run ``rounds`` whole rounds (fewer once MIN_ITEMS items and
    ``limit_s`` of item time are done), timing the host's reference task
    after each item; returns per-item latencies (unscaled) and
    (item id, Outcome) pairs."""
    import sympy

    latencies, outcomes = [], []
    for rnd in range(rounds):
        sympy.core.cache.clear_cache()  # a replayed item must not hit the cache
        for k, item in enumerate(wl.inputs(rnd)):
            tracer.item = f"{rnd}.{k}"
            t0 = time.perf_counter()
            try:
                with tracer.span("item"):
                    out = wl.run(item, tracer)
            except Exception as e:  # an item that raises is a failed item
                out = measure.Outcome(False, f"{type(e).__name__}: {e}")
            latencies.append(time.perf_counter() - t0)
            outcomes.append((tracer.item, out))
            host.sample()
        if sum(latencies) > limit_s and len(latencies) >= MIN_ITEMS:
            break
    return latencies, outcomes


def latency_ranking(latencies, outcomes):
    """Item latencies in ascending order, failed items last: a failed item
    misses any latency limit, so it ranks above every item that passed."""
    order = sorted(zip(latencies, outcomes), key=lambda p: (not p[1][1].ok, p[0]))
    return [lat for lat, _ in order]


def aggregate_counters(outcomes):
    """Sum each deterministic counter over the items; bit sizes take the max."""
    total = {}
    for _, out in outcomes:
        for name, value in out.counters.items():
            if name.endswith(".max_bits"):
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def layer_metrics(tracer, outcomes, latencies, overhead, import_s, scale):
    """Per-layer metrics of the traced pass; times are multiplied by ``scale``."""
    busy = {name: s * scale for name, s in tracer.self_times().items()}
    timed = sum(latencies) * scale
    counters = aggregate_counters(outcomes)
    values = {}
    for name in per_layer_units():
        layer, _, stat = name.rpartition(".")
        if stat == "busy_s":
            values[name] = busy.get(layer, 0.0)
        elif stat == "share":
            values[name] = busy.get(layer, 0.0) / timed
        elif stat == "calls":
            values[name] = tracer.calls.get(layer, 0)
        elif stat == "failed":
            values[name] = tracer.failed.get(layer, 0)
        elif stat == "wall_s":
            walls = [end - start for _, n, start, end, _, _ in tracer.spans if n == layer]
            values[name] = statistics.median(walls) * scale if walls else 0.0
        elif name == "cli.import_s":
            values[name] = import_s * scale
        elif name == "trace.overhead_frac":
            values[name] = overhead
        else:
            values[name] = counters.get(name, 0)
    return values


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "starquiver" / "__init__.py").is_file():
        print(f"error: no starquiver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import starquiver
    import workloads

    if Path(starquiver.__file__).resolve().parent != SRC / "starquiver":
        print(f"error: starquiver was imported from {starquiver.__file__}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.probe:
        wl.inputs(0)  # the first round, ready for its first item
        print("ready", flush=True)
        return 0

    workloads.RESULTS.mkdir(parents=True, exist_ok=True)
    env = workloads.child_env()
    host = measure.HostSpeed()
    setup_s, import_s = probe_setup(args.workload, args.seed, env, host)
    limit = OVERRUN * args.seconds

    self_check = []
    if args.trace:
        rounds = rounds_for(wl, args.seconds / 2)
        untraced = measure.Tracer(record=False)
        lat_a, out_a = run_pass(wl, rounds, untraced, limit / 2, host)
        tracer = measure.Tracer(record=True)
        latencies, outcomes = run_pass(wl, len(out_a) // len(wl.inputs(0)), tracer, math.inf, host)
        for (item, a), (_, b) in zip(out_a, outcomes):
            if (a.ok, a.counters) != (b.ok, b.counters):
                self_check.append(f"item {item}: {a.ok} {a.counters} then {b.ok} {b.counters}")
        for name in sorted(set(untraced.calls) | set(tracer.calls)):
            pair = [(t.calls.get(name, 0), t.failed.get(name, 0)) for t in (untraced, tracer)]
            if pair[0] != pair[1]:
                self_check.append(f"{name}: (calls, failed) {pair[0]} then {pair[1]}")
        overhead = sum(latencies) / sum(lat_a) - 1.0
        metrics = layer_metrics(tracer, outcomes, latencies, overhead, import_s, host.factor())
        units = per_layer_units()
        spans_path = workloads.RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
    else:
        rounds = rounds_for(wl, args.seconds)
        latencies, outcomes = run_pass(wl, rounds, measure.Tracer(record=False), limit, host)
        if args.workload == "cli":
            rss_kb = wl.max_child_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ranked = latency_ranking(latencies, outcomes)
        f = host.factor()
        metrics = {
            "setup_s": setup_s * f,
            "items_per_s": sum(o.ok for _, o in outcomes) / (sum(latencies) * f),
            "item_p50_s": ranked[len(ranked) // 2] * f,
            "item_tail_s": measure.tail_percentile(ranked)[1] * f,
            "peak_rss_mb": rss_kb / 1024,
        }
        units = END_TO_END

    attempted = len(outcomes)
    failed = sum(not o.ok for _, o in outcomes)
    pct, _ = measure.tail_percentile(sorted(latencies))
    correct = not self_check and failed < attempted
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "host_reference_s": statistics.median(host.samples),
        "host_factor": host.factor(),
        "items": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "item_tail_percentile": pct,
        "item_tail_samples": attempted,
        "failures": {item: o.reason for item, o in outcomes if not o.ok},
        "latencies": latencies,
        "self_check": self_check,
        "metrics": metrics,
    }
    out_path = workloads.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"environment: {json.dumps(summary['environment'], sort_keys=True)}")
    print(
        f"{args.workload}: {attempted} items, {failed} failed (failed_frac {failed / attempted:.4f}); "
        f"item_tail_s is p{pct:.1f} over {attempted} samples (10 beyond)"
    )
    print(
        f"host: reference task median {summary['host_reference_s'] * 1e3:.2f} ms over {len(host.samples)} samples; "
        f"times are scaled by {summary['host_factor']:.4f} to the {measure.HostSpeed.REFERENCE_S * 1e3:g} ms reference"
    )
    for reason in sorted(set(summary["failures"].values())):
        print(f"failure: {reason}")
    for line in self_check:
        print(f"self-check: {line}")
    for name, value in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

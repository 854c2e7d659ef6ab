"""Tests of the benchmark itself: its statistics, its gates and its
agreement with BENCHMARK.json.  Run with ``python3 -m pytest perfbench``."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import measure
import run
import workloads
from starquiver import dsolve


@pytest.mark.parametrize(
    "n, percentile, rank",
    [(11, 100 / 11, 1), (20, 50.0, 10), (21, 100 * 11 / 21, 11), (100, 90.0, 90), (1010, 100 * 1000 / 1010, 1000)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, percentile, rank):
    samples = [float(k) for k in range(1, n + 1)]
    pct, value = measure.tail_percentile(samples)
    assert pct == pytest.approx(percentile)
    assert value == float(rank)
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        measure.tail_percentile([1.0] * 10)


def test_failed_items_rank_above_every_passed_item():
    outcomes = [("a", measure.Outcome(True)), ("b", measure.Outcome(False)), ("c", measure.Outcome(True))]
    assert run.latency_ranking([3.0, 1.0, 2.0], outcomes) == [2.0, 3.0, 1.0]


def test_self_time_subtracts_child_spans():
    tr = measure.Tracer(record=True)
    with tr.span("item"):
        with tr.span("child"):
            time.sleep(0.02)
        time.sleep(0.01)
    own = tr.self_times()
    assert own["child"] >= 0.02
    assert 0.01 <= own["item"] < 0.02
    assert tr.spans[1][4] == 0  # the child's parent is the item span


def test_corrupted_exact_entry_fails_the_item(monkeypatch):
    wl = workloads.Certify(seed=0)
    boundary = wl.items[0]
    assert wl.run(boundary, measure.Tracer(record=False)).ok

    real = dsolve.exact_refine

    def corrupted(solution, instance):
        exact = real(solution, instance)
        exact.matrices[0][0][0] += Fraction(1, 3)
        return exact

    monkeypatch.setattr(dsolve, "exact_refine", corrupted)
    tr = measure.Tracer(record=False)
    out = wl.run(boundary, tr)
    assert not out.ok
    assert out.reason == "exact sum is not zero"
    assert tr.failed == {"dsolve.exact_refine": 1}


def test_wrong_cli_exit_code_fails_the_item(tmp_path):
    wl = workloads.Cli(seed=0, workdir=tmp_path)
    assert wl.run("bridge-to-quiver-split", measure.Tracer(record=False)).ok  # exit 1 is documented
    args, outputs, exit_ok = wl.invocations["type-check"]
    missing = [str(tmp_path / "missing.json") if a.endswith("type_rank2_full_flags.json") else a for a in args]
    wl.invocations["type-check"] = (missing, outputs, exit_ok)  # exits 1 where 0 is documented
    tr = measure.Tracer(record=False)
    out = wl.run("type-check", tr)
    assert not out.ok
    assert out.counters["cli.exit_mismatch"] == 1
    assert tr.failed == {"cli.type-check": 1}


def test_benchmark_json_matches_the_harness(tmp_path):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert tuple(workloads.Cli(seed=0, workdir=tmp_path).invocations) == run.CLI_INVOCATIONS


def test_host_factor_maps_the_median_reference_time_to_the_nominal_one():
    host = measure.HostSpeed()
    host.samples = [0.010, 0.030, 0.020]
    assert host.factor() == pytest.approx(measure.HostSpeed.REFERENCE_S / 0.020)
    host.sample()
    assert len(host.samples) == 4 and host.samples[-1] > 0

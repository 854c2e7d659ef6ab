"""Spans, item outcomes and latency statistics for the benchmark.

The benchmark times the library from outside: its own code opens a span
around each call into a layer.  A ``Tracer`` always counts calls and
failures per span name, because those counts must repeat exactly for a
seed; only a recording tracer also keeps timestamps.  Spans stay in memory
until the run ends.
"""

import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """One item's verdict, why it failed, and its deterministic counters."""

    ok: bool
    reason: str = ""
    counters: dict = field(default_factory=dict)


class Tracer:
    """Counts calls and failures per span name; with ``record`` it also
    keeps one span per call: (id, name, start, end, parent id, item id)."""

    def __init__(self, record):
        self.record = record
        self.calls = {}
        self.failed = {}
        self.spans = []
        self._stack = []
        self.item = None

    @contextmanager
    def span(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.record:
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in when the span ends
            self._stack.append(sid)
            start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.fail(name)
            raise
        finally:
            if self.record:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, name, start, end, parent, self.item)

    def fail(self, name):
        """Count a failed call of ``name`` (a raised error or a broken gate)."""
        self.failed[name] = self.failed.get(name, 0) + 1

    def self_times(self):
        """Per span name: the summed self time, i.e. each span's duration
        minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, item in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "item": item,
                        }
                    )
                    + "\n"
                )


class HostSpeed:
    """The host's speed during a run, from a reference task timed between
    items: the start of a bare interpreter, which runs none of the
    library's code.

    The shared machines this benchmark runs on change speed by up to a
    third over minutes, for everything that runs on them alike.  Every time
    the benchmark reports is multiplied by ``factor()``, which maps the
    run's median reference time to REFERENCE_S: a run on a slow stretch of
    the host and one on a fast stretch then read alike, while a change to
    the library moves its times in full.
    """

    REFERENCE_S = 0.015  # median reference time on the 2-core host of NOTES.md
    ARGV = (sys.executable, "-I", "-S", "-c", "pass")

    def __init__(self):
        self.samples = []

    def sample(self):
        """Time one reference task."""
        t0 = time.perf_counter()
        subprocess.run(self.ARGV, stdin=subprocess.DEVNULL, check=True)
        self.samples.append(time.perf_counter() - t0)

    def factor(self):
        """REFERENCE_S over the median reference time of the run."""
        return self.REFERENCE_S / statistics.median(self.samples)


def tail_percentile(ranked, beyond=10):
    """The highest percentile with at least ``beyond`` samples above it.

    ``ranked`` holds the samples in ascending rank order; the answer is the
    sample of rank n - beyond (1-based), returned as (percentile, value).
    Fewer than beyond + 1 samples have no such percentile.
    """
    n = len(ranked)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    rank = n - beyond
    return 100.0 * rank / n, ranked[rank - 1]


def max_bits(fractions):
    """Largest numerator or denominator bit length among Fractions."""
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in fractions),
        default=0,
    )

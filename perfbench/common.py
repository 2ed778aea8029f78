"""Shared pieces of the workloads: inputs, models, the RelErr reference,
result record, statistics and the publish listener."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.awm_sketch import AWMSketch
from repro.core.wm_sketch import WMSketch
from repro.data.datasets import rcv1_like
from repro.learning.ogd import UncompressedClassifier
from repro.telemetry import MetricsRegistry

#: Fig. 7 stream: ``rcv1_like(scale=0.08)`` (d = 3776), batch 256.
RCV1_SCALE = 0.08
BATCH = 256
#: Examples per training pass over the rcv1-like stream.
STREAM_EXAMPLES = 8192


def rcv1_stream():
    """The rcv1-like generative model.  Its parameters are fixed (the
    preset's own seed); the benchmark seed picks the examples drawn."""
    return rcv1_like(scale=RCV1_SCALE).stream


def make_wm() -> WMSketch:
    """WM-Sketch with heap: 2^13 x 3, top-128 heap."""
    return WMSketch(2**13, 3, heap_capacity=128)


def make_awm() -> AWMSketch:
    """AWM-Sketch at the Sec. 7.3 half budget: 2^12 x 1, active set 2^11."""
    return AWMSketch(2**12, 1, heap_capacity=2**11)


def lr_reference(d: int, batches) -> np.ndarray:
    """Dense weights of the uncompressed logistic-regression reference
    (the models' own lambda and learning rate) trained on ``batches``:
    the w* of the paper's RelErr."""
    reference = UncompressedClassifier(d, lambda_=1e-6, learning_rate=0.1)
    for window in batches:
        reference.fit_batch(window)
    return reference.dense_weights()


def pin_to_one_cpu() -> int:
    """Run this process, and every thread it starts from now on, on one
    CPU (the highest-numbered one it may use); return that CPU.

    The serving workload's trainer, coalescer and generator threads
    share one GIL, so two CPUs cannot run them faster; but on a small
    virtual machine, handing the GIL between CPUs makes latency jump
    between two levels from one process to the next.  One CPU gives
    figures that repeat.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class Result:
    """One run's outcome: metrics, operation counts and check results."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # name -> passed
    detail: dict = field(default_factory=dict)  # JSON-able raw vectors
    notes: list = field(default_factory=list)  # printed before the result
    spans: object = None  # the traced run's SpanSink

    def check(self, name: str, passed: bool) -> None:
        """Record a correctness check; a failed check is a failed op."""
        self.checks[name] = bool(passed)
        self.attempted += 1
        if not passed:
            self.failed += 1

    def figure(self, name: str, value: float, unit: str) -> None:
        """A workload's own figure: printed and recorded, not gated
        (every gated metric is one that all workloads report)."""
        self.detail.setdefault("figures", {})[name] = [float(value), unit]

    def put(self, name: str, value: float, unit: str) -> None:
        value = float(value)
        if not math.isfinite(value):
            # A percentile that lands on failed requests is infinitely
            # late; JSON has no infinity, so report the largest float.
            value = sys.float_info.max
        self.metrics[name] = (value, unit)


def timed_setup(build, repeats: int):
    """Run ``build`` ``repeats`` times; return its last value and the
    median seconds.  Every call builds from scratch, so the median is
    the set-up time one run pays."""
    seconds = []
    value = None
    for _ in range(repeats):
        value = None  # free the previous build before the next
        t0 = time.perf_counter()
        value = build()
        seconds.append(time.perf_counter() - t0)
    # Set-up objects live for the whole run; keep the cyclic collector
    # from rescanning them during measurement.
    gc.collect()
    gc.freeze()
    return value, statistics.median(seconds), seconds


def quartiles(values) -> dict:
    """Median and quartiles of a raw vector, with the vector itself."""
    vals = [float(v) for v in values]
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"values": vals, "median": statistics.median(vals),
            "q1": q1, "q3": q3}


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hit_rate(hashers) -> float:
    """Summed cache hits / lookups over trainer-side batch hashers."""
    hits = sum(h.hits for h in hashers)
    total = hits + sum(h.misses for h in hashers)
    return hits / total if total else 0.0


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile; +inf entries (failed requests) sort last."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        return float("nan")
    k = max(0, int(np.ceil(q / 100.0 * arr.size)) - 1)
    return float(arr[k])


def merged_percentile(snapshot: dict, name: str, q: float) -> float:
    """Percentile ``q`` of histogram ``name`` summed over its labels
    (e.g. every op of ``serve.flush_seconds``); 0.0 when empty."""
    merged = MetricsRegistry()
    layout = None
    for key, hist in snapshot["histograms"].items():
        if key.partition("{")[0] == name:
            merged.merge_snapshot({"histograms": {name: hist}})
            layout = hist
    if layout is None or not merged.snapshot()["histograms"][name]["count"]:
        return 0.0
    return merged.histogram(
        name, lo=layout["lo"], hi=layout["hi"],
        buckets_per_decade=layout["buckets_per_decade"],
    ).percentile(q)


def digest(model) -> str:
    """Short hash of a model's table, lazy scale and clock: two runs
    that must end in the same state must print the same digest."""
    h = hashlib.sha256(np.ascontiguousarray(model.table).tobytes())
    h.update(np.float64(model._scale).tobytes())
    h.update(np.int64(model.t).tobytes())
    return h.hexdigest()[:16]


class PublishLog:
    """``hooks.on_publish`` / ``hooks.on_batch_end`` listener: publish
    time and dirty fraction per snapshot version (read from
    ``registry``, the publishing manager's), publish times in order, and
    training progress."""

    def __init__(self):
        self.registry = None
        self.published = {}
        self.times = []
        self.dirty = []
        self.batches = []  # (monotonic end time, examples)

    def on_publish(self, version, t, seconds):
        now = time.monotonic()
        self.published[version] = now
        self.times.append(now)
        if self.registry is not None:
            self.dirty.append(
                self.registry.gauge("publish.dirty_fraction").value
            )

    def on_batch_end(self, model, n, seconds):
        self.batches.append((time.monotonic(), n))

    def examples_between(self, t0, t1) -> int:
        return sum(n for t, n in self.batches if t0 <= t < t1)

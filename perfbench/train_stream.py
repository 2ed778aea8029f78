"""train_stream: the Fig. 7 stream through ``fit_batch``, no readers.

The single-threaded baseline for the job the other workloads share.
A fixed stream of :data:`~common.STREAM_EXAMPLES` rcv1-like examples
(d = 3776, inside the trainer's 1<<16-key hasher cache) is trained in
batches of 256, pass after pass, each pass on a fresh model.  Two
workloads run this module, one model each:

* ``train_stream``: WM with heap, 2^13 x 3, heap 128;
* ``train_stream_awm``: AWM at the Sec. 7.3 half budget, 2^12 x 1,
  active set 2^11.

``hashing``, ``kernels``, ``heap`` and ``core`` do the work;
``serving`` and ``parallel`` do none.  Throughput is the median over
passes; latency is that of one ``fit_batch`` call, over every call of
the run.

Checks: ``fit_batch`` is bit-identical to per-example ``update`` on a
fixed prefix, and every pass ends in the same table (the digest is in
the record).  RelErr at K = 128 compares the model's top-128 with the
uncompressed logistic-regression reference trained on the same stream.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from common import (
    BATCH,
    STREAM_EXAMPLES,
    Result,
    digest,
    hit_rate,
    lr_reference,
    make_awm,
    make_wm,
    nearest_rank,
    peak_rss_mb,
    pin_to_one_cpu,
    quartiles,
    rcv1_stream,
    timed_setup,
)
from gen import draw_batch
from repro.evaluation.metrics import relative_error
from repro.telemetry import trace
from spans import (
    SpanSink,
    layer_times,
    put_per_layer,
    share,
    wm_layer_values,
)

MODELS = {"wm": make_wm, "awm": make_awm}
#: Examples in the fit_batch-vs-update equivalence prefix.
PREFIX = 512
K = 128


def check_equivalence(res: Result, batch, make) -> None:
    """fit_batch must equal per-example update bit for bit."""
    prefix = next(batch.windows(PREFIX))
    batched, scalar = make(), make()
    for window in prefix.windows(BATCH):
        batched.fit_batch(window)
    for i in range(len(prefix)):
        scalar.update(prefix.example(i))
    res.check(
        "fit_batch_equals_update",
        np.array_equal(batched.table, scalar.table)
        and batched._scale == scalar._scale
        and sorted(batched.heap.items()) == sorted(scalar.heap.items()),
    )


def train_pass(make, batches, calls, span=None):
    """One pass on a fresh model; returns (model, seconds).  Each
    ``fit_batch`` call's seconds are appended to ``calls``."""
    model = make()
    clock = time.perf_counter
    t0 = clock()
    if span is None:
        for window in batches:
            c0 = clock()
            model.fit_batch(window)
            calls.append(clock() - c0)
    else:
        for window in batches:
            with trace.span(span):
                model.fit_batch(window)
    return model, clock() - t0


def run(seed: int, seconds: float, traced: bool, model: str = "wm") -> Result:
    res = Result()
    res.detail["cpu"] = pin_to_one_cpu()
    res.detail["model"] = model
    make = MODELS[model]

    def build():
        batch = draw_batch(rcv1_stream(), STREAM_EXAMPLES, seed)
        return batch, list(batch.windows(BATCH))

    (batch, batches), setup_s, setup_runs = timed_setup(build, 15)
    check_equivalence(res, batch, make)

    n = len(batch)
    eps = {False: [], True: []}
    calls = []
    digests = set()
    first = None
    hashers = []
    sink = SpanSink() if traced else None
    span = f"bench.{model}.fit_batch"
    deadline = time.perf_counter() + seconds
    passes = 0
    while time.perf_counter() < deadline or passes < 2:
        # Traced runs alternate untraced and traced passes.
        on = traced and passes % 2 == 1
        if on:
            with sink.enabled():
                trained, dt = train_pass(make, batches, calls, span)
            hashers.append(trained._batch_hasher)
        else:
            trained, dt = train_pass(make, batches, calls)
        eps[on].append(n / dt)
        digests.add(digest(trained))
        if first is None:
            first = trained
        res.attempted += len(batches)
        passes += 1

    res.check("passes_identical", len(digests) == 1)
    res.detail["digests"] = sorted(digests)
    res.detail["setup_s"] = quartiles(setup_runs)
    res.detail["eps"] = {("traced" if on else "untraced"): quartiles(v)
                         for on, v in eps.items() if v}

    if traced:
        times = layer_times(sink.roots)
        wall = n * sum(1 / v for v in eps[True])
        values = wm_layer_values(times) if model == "wm" else {
            "core.awm.fit_batch_us_per_ex":
                1e6 * times["busy"].get(span, 0.0) / (n * len(eps[True])),
        }
        values.update({
            "hashing.hit_rate.train": hit_rate(hashers),
            "telemetry.trace_overhead":
                statistics.median(eps[True]) / statistics.median(eps[False]),
            "unattributed_share":
                1.0 - share(sum(times["covered"].values()), wall),
        })
        put_per_layer(res, values, times, sink)
        res.spans = sink
        return res

    lat = np.array(calls) * 1e3
    res.detail["latency_samples"] = lat.size
    res.notes.append(f"fit_batch latency over {lat.size} calls of "
                     f"{BATCH} examples")
    res.put("setup_s", setup_s, "s")
    res.put("train_eps", statistics.median(eps[False]), "examples/s")
    res.put("latency_p50_ms", nearest_rank(lat, 50), "ms")
    res.put("latency_p99_ms", nearest_rank(lat, 99), "ms")
    res.put(f"relerr_at_{K}",
            relative_error(first.top_weights(K),
                           lr_reference(rcv1_stream().d, batches), K),
            "ratio")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    return res

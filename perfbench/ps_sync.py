"""ps_sync: ``PSHarness.fit`` over a wide, sparse stream.

Two workers under stale-synchronous training (staleness 1, a push every
32 examples, a snapshot published after every push) train a WM-Sketch
2^20 x 1 without heap, logistic loss on the fused path, over a stream
with d = 4 * 2^20 and avg_nnz 8.  The key space overflows the hasher
cache and its dense direct map, ``heap`` does no work, and
``parallel.ps`` / ``parallel.delta`` plus the O(dirty) snapshot publish
at a wide table carry the load.

The harness runs in-process, so throughput is wall-clock examples per
second of whole ``fit`` calls, each on a fresh harness, repeated until
the run's seconds are spent (median over fits).  Latency is that of one
synchronisation round as a reader of the published snapshots sees it:
the interval between consecutive publishes (one after every push) of a
fit.  RelErr at K = 128 ranks the features the stream holds by the PS
model's estimates and compares the top 128 with the uncompressed
logistic-regression reference trained single-stream on the same
examples.  Sync bytes per example, the exact push + pull wire bytes
over examples, are this workload's own figure: printed and recorded,
not gated.

Checks: every fit ends in the same table, and a data-linear probe
(constant-gradient loss, dyadic eta, no decay) trained through the same
harness settings is bit-identical to single-stream training.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from common import (
    PublishLog,
    Result,
    digest,
    hit_rate,
    lr_reference,
    merged_percentile,
    nearest_rank,
    peak_rss_mb,
    quartiles,
    timed_setup,
)
from gen import draw_batch
from repro.core.wm_sketch import WMSketch
from repro.data.synthetic import SyntheticStream
from repro.evaluation.metrics import relative_error
from repro.learning.schedules import ConstantSchedule
from repro.parallel.ps import PSHarness
from repro.resilience.chaos import ConstGradLoss
from repro.telemetry import MetricsRegistry, hooks, trace
from spans import (
    SpanSink,
    layer_times,
    put_per_layer,
    share,
    wm_layer_values,
)

WIDTH = 2**20
EXAMPLES = 20_000
PROBE_EXAMPLES = 2048
K = 128
HARNESS = dict(n_workers=2, staleness=1, sync_every=32, batch_size=32,
               publish_every=1)


def wide_stream() -> SyntheticStream:
    """d = 4 * 2^20, avg_nnz 8; fixed parameters, the seed picks the
    examples drawn."""
    return SyntheticStream(d=4 * WIDTH, n_signal=64, avg_nnz=8.0, seed=1)


def make_wide_wm(**kwargs) -> WMSketch:
    return WMSketch(WIDTH, 1, heap_capacity=0, **kwargs)


def fit(batch, seed, factory_kwargs=None, registry=None):
    """One ``PSHarness.fit`` on a fresh harness: (harness, model, s)."""
    harness = PSHarness(make_wide_wm, factory_kwargs, seed=seed,
                        registry=registry, **HARNESS)
    t0 = time.perf_counter()
    model = harness.fit(batch)
    return harness, model, time.perf_counter() - t0


def check_probe(res: Result, batch, seed) -> None:
    """Data-linear PS training must equal single-stream training."""
    probe = next(batch.windows(PROBE_EXAMPLES))
    kwargs = dict(loss=ConstGradLoss(), lambda_=0.0,
                  learning_rate=ConstantSchedule(0.0625))
    _, model, _ = fit(probe, seed, kwargs)
    single = make_wide_wm(**kwargs)
    for window in probe.windows(HARNESS["batch_size"]):
        single.fit_batch(window)
    res.check("ps.data_linear_equals_single_stream",
              np.array_equal(model.table, single.table)
              and model.t == single.t == len(probe))


def run(seed: int, seconds: float, traced: bool) -> Result:
    res = Result()
    batch, setup_s, setup_runs = timed_setup(
        lambda: draw_batch(wide_stream(), EXAMPLES, seed), 5
    )
    check_probe(res, batch, seed)

    eps = {False: [], True: []}
    rounds = []  # seconds between consecutive publishes, untraced fits
    top = None  # the first fit's top-K estimate
    digests = set()
    sink = SpanSink() if traced else None
    log = PublishLog()
    hooks.on_publish.append(log.on_publish)
    hashers = []  # the worker hashers of traced fits
    deadline = time.perf_counter() + seconds
    fits = 0
    try:
        while time.perf_counter() < deadline or fits < 2:
            on = traced and fits % 2 == 1
            log.registry = MetricsRegistry()
            published = len(log.times)
            if on:
                with sink.enabled(), trace.span("bench.ps.fit"):
                    harness, model, dt = fit(batch, seed,
                                             registry=log.registry)
                hashers += [w.model._batch_hasher for w in harness.workers]
            else:
                harness, model, dt = fit(batch, seed,
                                         registry=log.registry)
                rounds.extend(np.diff(log.times[published:]))
            eps[on].append(len(batch) / dt)
            digests.add(digest(model))
            snap = harness.stats()
            res.attempted += 1
            fits += 1
            if top is None:
                top = model.top_weights_from_candidates(
                    np.unique(batch.indices), K
                )
            # Free this fit's tables before the next one is built, so
            # peak memory is one fit's, whatever the collector's timing.
            harness = model = None
            gc.collect()
    finally:
        hooks.on_publish.remove(log.on_publish)
    res.check("ps.fits_identical", len(digests) == 1)
    counters = snap["counters"]
    res.detail["setup_s"] = quartiles(setup_runs)
    res.detail["eps"] = {("traced" if on else "untraced"): quartiles(v)
                         for on, v in eps.items() if v}
    res.detail["counters"] = counters

    if traced:
        times = layer_times(sink.roots)
        busy = times["busy"]
        wall = busy["bench.ps.fit"]
        pushes = counters["ps.push.count"]
        dirty_hist = snap["histograms"]["ps.push.dirty_fraction"]
        values = wm_layer_values(times)
        values.update({
            "hashing.hit_rate.train": hit_rate(hashers),
            "serving.snapshot.publish_ms.p50":
                1e3 * merged_percentile(snap, "publish.seconds", 50),
            "serving.snapshot.publish_ms.p99":
                1e3 * merged_percentile(snap, "publish.seconds", 99),
            "serving.snapshot.dirty_fraction": statistics.mean(log.dirty),
            "parallel.ps.round_share": share(busy.get("ps.round", 0.0), wall),
            "parallel.ps.apply_push_share":
                share(busy.get("ps.apply_push", 0.0), wall),
            "parallel.ps.encode_pull_share":
                share(busy.get("ps.encode_pull", 0.0), wall),
            "parallel.ps.ssp_blocked": counters["ps.ssp.blocked"],
            "parallel.delta.push_bytes_per_round":
                counters["ps.push.delta_bytes"] / pushes,
            "parallel.delta.pull_bytes_per_round":
                counters["ps.pull.bytes"] / pushes,
            "parallel.ps.dirty_fraction":
                dirty_hist["sum"] / dirty_hist["count"],
            "telemetry.trace_overhead":
                statistics.median(eps[True]) / statistics.median(eps[False]),
            "unattributed_share":
                1.0 - share(sum(times["covered"].values()), wall),
        })
        put_per_layer(res, values, times, sink)
        res.spans = sink
        return res

    lat = np.array(rounds) * 1e3
    res.detail["latency_samples"] = lat.size
    res.notes.append(f"round latency over {lat.size} publish intervals")
    res.put("setup_s", setup_s, "s")
    res.put("train_eps", statistics.median(eps[False]), "examples/s")
    res.put("latency_p50_ms", nearest_rank(lat, 50), "ms")
    res.put("latency_p99_ms", nearest_rank(lat, 99), "ms")
    res.put(f"relerr_at_{K}", relative_error(
        top,
        lr_reference(wide_stream().d, batch.windows(HARNESS["batch_size"])),
        K,
    ), "ratio")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    res.figure("ps_sync_bytes_per_example",
               (counters["ps.push.delta_bytes"] + counters["ps.pull.bytes"])
               / counters["ps.examples"], "B/example")
    return res

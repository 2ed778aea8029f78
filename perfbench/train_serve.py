"""train_serve: the train_stream WM trained and served at the same time.

``SketchServer.start_training`` replays the train_stream stream (batch
256) on a background thread for the whole serving window and publishes
a snapshot every :data:`PUBLISH_EVERY` batches.  One generator thread
sends the ``build_requests`` mix (60/30/10 query/predict/top_k, Zipf
keys, Pareto sizes) open-loop through ``submit_nowait``:

1. a short warm-up at the operating rate (not measured);
2. the operating rate :data:`OP_RATE` for :data:`OP_SHARE` of the
   run's seconds: the latency, staleness and training-throughput
   metrics;
3. the ladder: the offered rate grows from 4000 req/s until the
   server falls behind (answers fewer than :data:`SATURATED` of the
   offered requests per second).  The highest rate at which a rung was
   answered is ``serve_max_rps``: the server's capacity, a continuous
   figure, where the highest rung meeting a p99 limit would jump
   between rungs as the latency knee wanders from run to run.

``serve_max_rps`` and ``snapshot_age_ms_p99`` are this workload's own
figures, printed and recorded but not gated: every gated metric is one
that all workloads report.  The quality metric is the RelErr of the
top-128 the server publishes once it has trained one pass of the
stream.

Trainer and coalescer share the GIL and one CPU, so a layer gain that
costs the other side shows here.  Percentiles are nearest-rank
over every request of a phase (6000 at the operating rate in
a 20-second run, so the p99 has 60 samples beyond it); a failed
request counts as infinitely late.

Checks: every request is answered without error, and the black-box
snapshot checker accepts every third read answered from the first
:data:`CHECK_VERSIONS` snapshots of each of the warm-up, the operating
phase and the last ladder rung, against a sequential replay of the
stream.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

from common import (
    BATCH,
    STREAM_EXAMPLES,
    PublishLog,
    Result,
    hit_rate,
    lr_reference,
    make_wm,
    merged_percentile,
    nearest_rank,
    peak_rss_mb,
    pin_to_one_cpu,
    quartiles,
    rcv1_stream,
    timed_setup,
)
from gen import draw_batch
from openloop import run_phase
from repro.evaluation.metrics import relative_error
from repro.serving.checker import ConsistencyError, check_snapshot_consistency
from repro.serving.client import ReadRecord
from repro.serving.loadgen import build_requests
from repro.serving.server import SketchServer
from repro.telemetry import hooks
from spans import (
    SpanSink,
    layer_times,
    put_per_layer,
    share,
    wm_layer_values,
)

PUBLISH_EVERY = 2
#: Offered rate of the operating phase, in requests/s.
OP_RATE = 500.0
#: Share of the run's seconds spent at the operating rate.  The
#: snapshot-age p99 rests on the few slowest publish intervals, so the
#: operating phase gets most of the time.
OP_SHARE = 0.6
#: Offered rates of the ladder, in requests/s, a factor sqrt(2) apart;
#: each rung lasts :data:`RUNG_SHARE` of the run's seconds.  Far past
#: saturation the generator takes the GIL from the server and answers
#: collapse, so the steps are small enough that the first rung past
#: saturation is at most 1.4 times the capacity.  On a 2-vCPU virtual
#: machine the server answers 12k-32k requests/s, depending on how
#: busy the host is.
LADDER = tuple(4000.0 * 2 ** (k / 2) for k in range(12))
RUNG_SHARE = 0.05
#: A rung whose answer rate is below this share of its offered rate
#: has saturated the server; the ladder stops there.
SATURATED = 0.8
WARMUP_S = 1.0
#: Reads are re-checked against a sequential replay for this many
#: snapshots from the start of a checked phase.
CHECK_VERSIONS = 48
CHECK_EVERY = 3
HELD_OUT = 512
#: Distinct requests generated per run; phases cycle through them.
REQUEST_POOL = 4000
#: Trainer-thread program spans (the coalescer's are ``serve.flush``).
TRAINER_SPANS = ("train.batch", "publish", "fit_batch", "hash",
                 "fused_update", "heap_maintain")


def answered_rps(phase) -> float:
    """Answers per second from the first due time to the last answer:
    the offered rate while the server keeps up, its capacity once it
    falls behind."""
    answered = phase.attempted - phase.failed
    if not answered:
        return 0.0
    return answered / (np.nanmax(phase.done_at) - phase.scheduled[0])


def phase_stats(phase, log) -> dict:
    """Latency, staleness, answer rate and training rate over one phase.

    Call it only once the trainer has stopped: ``hooks.on_publish``
    runs after the snapshot is swapped in, so readers may be answered
    from a version the log does not hold yet.
    """
    lat = phase.latencies() * 1e3
    age = np.full(lat.size, np.inf)
    ok = phase.versions >= 0
    age[ok] = 1e3 * (phase.done_at[ok] - np.array(
        [log.published[v] for v in phase.versions[ok]]))
    t0, t1 = phase.scheduled[[0, -1]]
    return dict(
        rate=phase.rate,
        requests=phase.attempted,
        failed=phase.failed,
        errors=phase.errors,
        p50_ms=nearest_rank(lat, 50),
        p99_ms=nearest_rank(lat, 99),
        max_ms=nearest_rank(lat, 100),
        age_p99_ms=nearest_rank(age, 99),
        train_eps=log.examples_between(t0, t1) / (t1 - t0),
        backlog_end=phase.backlog_end,
        answered_rps=answered_rps(phase),
        lag_p99_ms=1e3 * nearest_rank(phase.lateness, 99),
    )


def check_reads(res, phases, log, batches) -> list:
    """Black-box snapshot consistency over the sampled reads answered
    from the first :data:`CHECK_VERSIONS` snapshots of each phase.

    One sequential replay of the stream serves every window: it is
    advanced to a window's first snapshot and handed to the checker,
    with the window's versions renumbered from 0, as the model the
    checker replays from.
    """
    stream = itertools.cycle(batches)
    reference = make_wm()
    reports = []
    passed = True
    v0 = 0
    for phase in phases:
        if not phase.records:
            passed = False
            continue
        v0 = max(v0, min(int(phase.versions[r[0]]) for r in phase.records))
        v1 = min(v0 + CHECK_VERSIONS, len(log) - 1)
        # One client, in the order its answers arrived: versions only
        # grow along the single flush thread's completion order.
        client = [
            ReadRecord(op, payload, result, int(phase.versions[i]) - v0)
            for _, i, op, payload, result in sorted(
                (phase.done_at[i], i, op, payload, result)
                for i, op, payload, result in phase.records
            )
            if v0 <= phase.versions[i] <= v1
        ]
        while reference.t < log[v0][1]:
            reference.fit_batch(next(stream))
        try:
            report = check_snapshot_consistency(
                lambda: reference, stream,
                [(v - v0, t) for v, t in log[v0:v1 + 1]], [client],
            )
            passed &= report["reads_checked"] > 0
        except ConsistencyError as exc:
            report = {"error": str(exc)}
            passed = False
        reports.append(dict(report, versions=[v0, v1]))
        v0 = v1 + 1
    res.check("serve.snapshot_consistency", passed)
    return reports


def run(seed: int, seconds: float, traced: bool) -> Result:
    res = Result()
    res.detail["cpu"] = pin_to_one_cpu()
    stream = rcv1_stream()

    def build():
        batch = draw_batch(stream, STREAM_EXAMPLES, seed)
        held = draw_batch(stream, HELD_OUT, seed + 1)
        requests = build_requests(
            REQUEST_POOL, key_space=stream.d,
            examples=[held.example(i) for i in range(len(held))],
            seed=seed,
        )
        return list(batch.windows(BATCH)), requests, make_wm()

    (batches, requests, model), setup_s, setup_runs = timed_setup(build, 9)

    log = PublishLog()
    one_pass = []  # the snapshot published after one pass of the stream

    def keep_one_pass(version, t, seconds):
        if t == STREAM_EXAMPLES and not one_pass:
            one_pass.append(server.snapshots.current)

    hooks.on_publish.extend((log.on_publish, keep_one_pass))
    hooks.on_batch_end.append(log.on_batch_end)
    server = SketchServer(model, publish_every=PUBLISH_EVERY)
    log.registry = server.telemetry
    sink = SpanSink() if traced else None
    phases = []
    try:
        server.start_training(itertools.cycle(batches))

        def phase(rate, secs, n, keep=None, on_tick=None):
            return run_phase(server, requests, rate, secs, seed * 7919 + n,
                             keep=keep, on_tick=on_tick)

        sample = (lambda i: i % CHECK_EVERY == 0)
        phases.append(phase(OP_RATE, WARMUP_S, 0, keep=sample))
        if traced:
            # Untraced and traced stretches alternate at the operating
            # rate; the tracer's ring buffer is drained between sends.
            parts = []
            for k in range(4):
                on = k % 2 == 1
                if on:
                    with sink.enabled():
                        p = phase(OP_RATE, seconds / 4, k + 1,
                                  on_tick=sink.drain)
                else:
                    p = phase(OP_RATE, seconds / 4, k + 1, keep=sample)
                parts.append((on, p))
            phases.extend(p for _, p in parts)
        else:
            phases.append(phase(OP_RATE, seconds * OP_SHARE, 1, keep=sample))
            # The saturated rung queues requests without bound; that
            # backlog is the generator's, so memory is read here.
            rss = peak_rss_mb()
            for k, rate in enumerate(LADDER):
                if k:
                    # Only the last rung's reads are checked.
                    phases[-1].records.clear()
                phases.append(phase(rate, seconds * RUNG_SHARE, k + 2,
                                    keep=sample))
                if answered_rps(phases[-1]) < SATURATED * rate:
                    break
        end = time.monotonic()
    finally:
        server.close()
        hooks.on_publish.remove(log.on_publish)
        hooks.on_publish.remove(keep_one_pass)
        hooks.on_batch_end.remove(log.on_batch_end)

    for p in phases:
        res.attempted += p.attempted
        res.failed += p.failed
    res.detail["setup_s"] = quartiles(setup_runs)
    res.detail["check"] = check_reads(
        res, phases[:2] if traced else phases[:2] + phases[-1:],
        server.snapshots.publish_log, batches,
    )
    stats = [phase_stats(p, log) for p in phases[1:]]
    res.detail["phases"] = stats
    for s in stats:
        res.notes.append(
            f"phase {s['rate']:.0f} req/s: {s['requests']} requests, "
            f"{s['failed']} failed, p50 {s['p50_ms']:.3f} ms, "
            f"p99 {s['p99_ms']:.3f} ms, backlog at end {s['backlog_end']}, "
            f"answered {s['answered_rps']:.0f} req/s"
        )
    res.detail["train_examples"] = server.stats()["train"]["examples"]

    if traced:
        times = layer_times(sink.roots)
        traced_eps = [s["train_eps"] for s, (on, _) in zip(stats, parts)
                      if on]
        plain_eps = [s["train_eps"] for s, (on, _) in zip(stats, parts)
                     if not on]
        wall = sum(p.seconds for on, p in parts if on)
        snap = server.telemetry.snapshot()
        co = server.stats()["coalescer"]
        flushes = sum(co["flushes"].values())
        values = wm_layer_values(times)
        values.update({
            "hashing.hit_rate.train": hit_rate([model._batch_hasher]),
            "serving.server.train_batch_ms.p99":
                1e3 * merged_percentile(snap, "train.batch_seconds", 99),
            "serving.snapshot.publish_ms.p50":
                1e3 * merged_percentile(snap, "publish.seconds", 50),
            "serving.snapshot.publish_ms.p99":
                1e3 * merged_percentile(snap, "publish.seconds", 99),
            "serving.snapshot.dirty_fraction": statistics.mean(log.dirty),
            "serving.coalescer.queue_wait_ms.p99":
                1e3 * merged_percentile(snap, "serve.queue_wait_seconds", 99),
            "serving.coalescer.flush_ms.p50":
                1e3 * merged_percentile(snap, "serve.flush_seconds", 50),
            "serving.coalescer.requests_per_flush":
                sum(co["requests"].values()) / flushes if flushes else 0.0,
            "serving.reader_hasher.hit_rate":
                server.stats()["reader_hasher"]["hit_rate"],
            "loadgen.lag_ms.p99": max(s["lag_p99_ms"] for s in stats),
            "loadgen.backlog_end": max(s["backlog_end"] for s in stats),
            "telemetry.trace_overhead":
                statistics.median(traced_eps) / statistics.median(plain_eps),
            "unattributed_share": 1.0 - share(
                sum(times["covered"].get(n, 0.0) for n in TRAINER_SPANS),
                wall,
            ),
        })
        put_per_layer(res, values, times, sink)
        res.spans = sink
        return res

    op = stats[0]
    res.check("serve.one_pass_published", bool(one_pass))
    res.put("setup_s", setup_s, "s")
    res.put("train_eps", op["train_eps"], "examples/s")
    res.put("latency_p50_ms", op["p50_ms"], "ms")
    res.put("latency_p99_ms", op["p99_ms"], "ms")
    res.put("relerr_at_128",
            relative_error(one_pass[0].model.top_weights(128),
                           lr_reference(stream.d, batches), 128)
            if one_pass else float("inf"), "ratio")
    res.put("peak_rss_mb", rss, "MB")
    res.figure("serve_max_rps", max(s["answered_rps"] for s in stats[1:]),
               "1/s")
    res.figure("snapshot_age_ms_p99", op["age_p99_ms"], "ms")
    res.detail["serving_window_s"] = end - phases[0].scheduled[0]
    return res

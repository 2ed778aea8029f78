"""Span collection and per-layer self time for the traced run.

The program's tracer keeps completed root spans in a bounded ring
buffer and counts what it drops.  :class:`SpanSink` drains that buffer
often enough that nothing is dropped, keeps every tree in memory,
checks each one with ``validate_span_tree`` and writes them all out at
the end.  :func:`layer_times` turns the trees into busy and self time
per span name and per ``src/repro`` layer.  A span's self time is its
duration minus the time its children cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from repro.telemetry import TraceError, trace, validate_span_tree

#: Program span name -> the ``src/repro`` package that emits it.
#: Benchmark-side spans are named ``bench.*`` and belong to no layer.
LAYER_OF = {
    "fit_batch": "core",
    "hash": "hashing",
    "fused_update": "kernels",
    "heap_maintain": "heap",
    "train.batch": "serving",
    "publish": "serving",
    "serve.flush": "serving",
    "ps.round": "parallel",
    "ps.apply_push": "parallel",
    "ps.encode_pull": "parallel",
}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, "bench" if name.startswith("bench.") else "other")


class SpanSink:
    """Drains the process tracer into memory; see the module docstring."""

    def __init__(self):
        self.roots = []
        self.invalid = 0
        trace.clear()

    def drain(self) -> None:
        for root in trace.drain():
            try:
                validate_span_tree(root)
            except TraceError:
                self.invalid += 1
            self.roots.append(root)

    @contextmanager
    def enabled(self):
        """Trace the enclosed block, then drain."""
        trace.enable()
        try:
            yield
        finally:
            trace.disable()
            self.drain()

    @property
    def dropped(self) -> int:
        return trace.dropped

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([r.to_dict() for r in self.roots], fh)


def layer_times(roots) -> dict:
    """Busy and self seconds per span name and per layer, plus counts.

    Returns ``{"busy": {name: s}, "self": {name: s}, "count": {name: n},
    "layer_self": {layer: s}, "covered": {name: s}, "n": {name: n}}``,
    where ``n`` sums the spans' ``n`` tags (examples per batch) and
    ``covered`` sums the outermost *program* spans of each tree (those
    with no program span above them), keyed by name: the wall time the
    program's own spans account for.
    """
    busy: dict = {}
    self_s: dict = {}
    count: dict = {}
    covered: dict = {}
    tag_n: dict = {}
    stack = []
    for root in roots:
        stack.append((root, False))
        while stack:
            span, inside = stack.pop()
            child = sum(c.seconds for c in span.children)
            busy[span.name] = busy.get(span.name, 0.0) + span.seconds
            self_s[span.name] = (
                self_s.get(span.name, 0.0) + span.seconds - child
            )
            count[span.name] = count.get(span.name, 0) + 1
            if "n" in span.tags:
                tag_n[span.name] = tag_n.get(span.name, 0) + span.tags["n"]
            program = span.name in LAYER_OF
            if program and not inside:
                covered[span.name] = (
                    covered.get(span.name, 0.0) + span.seconds
                )
            stack.extend((c, inside or program) for c in span.children)
    layer_self: dict = {}
    for name, s in self_s.items():
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + s
    return {
        "busy": busy,
        "self": self_s,
        "count": count,
        "layer_self": layer_self,
        "covered": covered,
        "n": tag_n,
    }


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


#: Every per-layer metric of the traced run, with its unit.  A layer a
#: workload does not exercise reports 0.
PER_LAYER = {
    "core.wm.fit_batch_us_per_ex": "us/example",
    "hashing.hash_share.wm": "share",
    "kernels.fused_update_share.wm": "share",
    "heap.maintain_share.wm": "share",
    "core.unattributed_share.wm": "share",
    "core.awm.fit_batch_us_per_ex": "us/example",
    "hashing.hit_rate.train": "ratio",
    "serving.server.train_batch_ms.p99": "ms",
    "serving.snapshot.publish_ms.p50": "ms",
    "serving.snapshot.publish_ms.p99": "ms",
    "serving.snapshot.dirty_fraction": "share",
    "serving.coalescer.queue_wait_ms.p99": "ms",
    "serving.coalescer.flush_ms.p50": "ms",
    "serving.coalescer.requests_per_flush": "requests/flush",
    "serving.reader_hasher.hit_rate": "ratio",
    "parallel.ps.round_share": "share",
    "parallel.ps.apply_push_share": "share",
    "parallel.ps.encode_pull_share": "share",
    "parallel.ps.ssp_blocked": "count",
    "parallel.delta.push_bytes_per_round": "B/round",
    "parallel.delta.pull_bytes_per_round": "B/round",
    "parallel.ps.dirty_fraction": "share",
    "self_share.core": "share",
    "self_share.hashing": "share",
    "self_share.kernels": "share",
    "self_share.heap": "share",
    "self_share.serving": "share",
    "self_share.parallel": "share",
    "loadgen.lag_ms.p99": "ms",
    "loadgen.backlog_end": "count",
    "telemetry.trace_overhead": "ratio",
    "telemetry.trace_dropped": "count",
    "unattributed_share": "share",
}


def wm_layer_values(times: dict) -> dict:
    """The WM ``fit_batch`` breakdown from its program spans."""
    busy = times["busy"]
    fit = busy.get("fit_batch", 0.0)
    return {
        "core.wm.fit_batch_us_per_ex":
            1e6 * share(fit, times["n"].get("fit_batch", 0)),
        "hashing.hash_share.wm": share(busy.get("hash", 0.0), fit),
        "kernels.fused_update_share.wm":
            share(busy.get("fused_update", 0.0), fit),
        "heap.maintain_share.wm": share(busy.get("heap_maintain", 0.0), fit),
        "core.unattributed_share.wm":
            share(times["self"].get("fit_batch", 0.0), fit),
    }


def put_per_layer(res, values: dict, times: dict, sink) -> None:
    """Report every :data:`PER_LAYER` metric on ``res``: ``values``
    where given, the layer self-time shares from ``times``, and 0
    elsewhere; record the sink's checks."""
    layer_self = times["layer_self"]
    total = sum(layer_self.values())
    for layer in ("core", "hashing", "kernels", "heap", "serving",
                  "parallel"):
        values[f"self_share.{layer}"] = share(
            layer_self.get(layer, 0.0), total
        )
    values["telemetry.trace_dropped"] = sink.dropped
    res.check("trace.no_spans_dropped", sink.dropped == 0)
    res.check("trace.trees_valid", sink.invalid == 0)
    for name, unit in PER_LAYER.items():
        res.put(name, values.get(name, 0.0), unit)
    res.detail["spans"] = {
        k: times[k] for k in ("busy", "self", "count", "layer_self",
                              "covered", "n")
    }

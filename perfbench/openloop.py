"""Open-loop request driver built on ``SketchServer.submit_nowait``.

One generator thread (the caller's) sends requests on a seeded Poisson
schedule at a fixed offered rate and never waits for answers, so a
stalled server receives the same load as a fast one.  Each request is
timed from when it was *due*, not from when it was sent, so the wait a
stall imposes on later requests is counted.  Per request it records the
scheduled time, the completion time, the answering snapshot version and
how late the generator sent it; per phase it records how many requests
were still in flight when the schedule ended.  A request shed with
``Overload`` at submission, failed with ``DeadlineExceeded`` or any
other error at flush, or left unanswered past the drain deadline counts
as failed.

``repro.serving.loadgen.run_open_loop`` reports a latency histogram
only; this driver keeps the per-request record the benchmark's
latency, staleness and consistency checks need.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.serving.coalescer import DeadlineExceeded, Overload
from repro.telemetry import trace

#: Seconds a phase waits for its in-flight requests after the schedule
#: ends; anything still unanswered then is failed.
DRAIN_SECONDS = 30.0


@dataclass
class PhaseResult:
    """Everything one open-loop phase observed."""

    rate: float
    seconds: float  # first due time to last due time
    scheduled: np.ndarray  # absolute monotonic due times
    done_at: np.ndarray  # completion times (nan: failed)
    versions: np.ndarray  # answering snapshot version (-1: failed)
    lateness: np.ndarray  # send time minus due time, >= 0
    backlog_end: int
    errors: dict = field(default_factory=dict)  # error type -> count
    records: list = field(default_factory=list)  # (i, op, payload, result)

    @property
    def attempted(self) -> int:
        return int(self.scheduled.size)

    @property
    def failed(self) -> int:
        return int(sum(self.errors.values()))

    def latencies(self) -> np.ndarray:
        """Seconds from due time to answer; failed requests are +inf."""
        lat = self.done_at - self.scheduled
        lat[np.isnan(lat)] = np.inf
        return lat


def run_phase(server, requests, rate: float, seconds: float, seed: int,
              *, keep=None, on_tick=None) -> PhaseResult:
    """Send Poisson(``rate``) arrivals for ``seconds``, then drain.

    ``requests`` is cycled for payloads.  ``keep(i)`` selects requests
    whose ``(i, op, payload, result)`` is retained for the consistency
    check.  ``on_tick`` runs between sends, at most every 50 ms (the
    traced run drains its span buffer there).  Answered requests are
    reaped into flat arrays as the phase runs, so the driver's own
    garbage stays O(in flight) and adds little collector work.
    """
    rng = np.random.default_rng(seed)
    n = max(1, int(round(rate * seconds)))
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    lateness = np.zeros(n)
    done_at = np.full(n, np.nan)
    versions = np.full(n, -1, dtype=np.int64)
    errors: dict = {}
    records = []
    pending: deque = deque()

    def reap(req_i, req) -> None:
        if req.error is not None:
            name = (type(req.error).__name__
                    if isinstance(req.error, (DeadlineExceeded, Overload))
                    else "Error")
            errors[name] = errors.get(name, 0) + 1
            return
        done_at[req_i] = req.done_at
        versions[req_i] = req.version
        if keep is not None and keep(req_i):
            records.append((req_i, req.op, req.payload, req.result))

    start = time.monotonic()
    scheduled = start + offsets
    next_tick = start
    for i in range(n):
        due = scheduled[i]
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        now = time.monotonic()
        lateness[i] = max(0.0, now - due)
        op, payload = requests[i % len(requests)]
        try:
            with trace.span("bench.submit"):
                pending.append((i, server.submit_nowait(op, payload)))
        except Overload:
            errors["Overload"] = errors.get("Overload", 0) + 1
        while pending and pending[0][1].event.is_set():
            reap(*pending.popleft())
        if on_tick is not None and now >= next_tick:
            on_tick()
            next_tick = now + 0.05
    backlog_end = sum(1 for _, req in pending if not req.event.is_set())
    drain_until = time.monotonic() + DRAIN_SECONDS
    for i, req in pending:
        if req.event.wait(max(0.0, drain_until - time.monotonic())):
            reap(i, req)
        else:
            errors["Unanswered"] = errors.get("Unanswered", 0) + 1
    return PhaseResult(
        rate=rate,
        seconds=float(offsets[-1]),
        scheduled=scheduled,
        done_at=done_at,
        versions=versions,
        lateness=lateness,
        backlog_end=backlog_end,
        errors=errors,
        records=records,
    )

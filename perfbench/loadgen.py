"""Seeded load generation and open-loop request senders.

Everything the workloads offer is derived here from the ``--seed`` argument
with NumPy's ``default_rng``: Zipf-ranked picks, Poisson arrival offsets,
per-request input seeds.  The program under test only ever receives the
generated requests, so a change to ``repro`` cannot change the workload.

Arrivals are a Poisson process conditioned on its count: ``round(rate *
duration)`` uniform offsets, sorted.  Latency is always timed from a
request's *due* time, so a stalled server (or a busy connection) charges
its delay to every request queued behind it; the generator's own lateness
(send time minus due time) is reported separately as lag.
"""

from __future__ import annotations

import bisect
import math
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

#: Outcome labels; everything but ``ok`` counts as an error and a miss.
OK, FAILED, REJECTED, EXPIRED, MISMATCH = "ok", "failed", "rejected", "expired", "mismatch"
OUTCOMES = (OK, FAILED, REJECTED, EXPIRED, MISMATCH)


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalised Zipf weights ``rank^-s`` for ranks ``1..n``."""
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return weights / weights.sum()


def zipf_picks(rng: np.random.Generator, n: int, s: float, count: int) -> np.ndarray:
    """``count`` zero-based ranks following a Zipf(``s``) law over ``n`` items.

    Stratified: each rank appears ``count * weight`` times (largest
    remainders rounded up) in a seeded random order, so every seed offers
    the same mix and only the order, timing and inputs vary between seeds.
    """
    quota = zipf_weights(n, s) * count
    counts = np.floor(quota).astype(int)
    short = count - int(counts.sum())
    counts[np.argsort(counts - quota, kind="stable")[:short]] += 1
    return rng.permutation(np.repeat(np.arange(n), counts))


def arrival_offsets(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Sorted Poisson arrival offsets in ``[0, duration)`` at ``rate`` req/s."""
    count = max(1, int(round(rate * duration)))
    return np.sort(rng.uniform(0.0, duration, size=count))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``inf`` entries allowed: misses sort last)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Outcome:
    """One request as the generator saw it (``perf_counter`` seconds)."""

    index: int
    due: float
    sent: float
    done: float
    status: str = OK
    nbytes: int = 0

    @property
    def latency_ms(self) -> float:
        """Due-to-completion latency; ``inf`` for any non-``ok`` outcome."""
        return (self.done - self.due) * 1e3 if self.status == OK else math.inf

    @property
    def lag_ms(self) -> float:
        """How late the generator sent the request."""
        return (self.sent - self.due) * 1e3


def backlog_profile(outcomes: list[Outcome], start: float, duration: float, points: int = 40):
    """Outstanding requests (due but not completed) sampled over one phase.

    Returns ``(samples, growth)``: ``growth`` is the rise of the mean
    backlog from the phase's third quarter to its last quarter as a multiple
    of ``max(5, 10% of the requests due in the second half)``.  Above 1 the
    queue kept growing through the second half of the step — past capacity
    — while a burst of large requests that drains within the step is not.
    """
    dues = sorted(o.due for o in outcomes)
    dones = sorted(o.done for o in outcomes)
    times = [start + duration * (i + 1) / points for i in range(points)]
    samples = [
        bisect.bisect_right(dues, t) - bisect.bisect_right(dones, t) for t in times
    ]
    quarter = points // 4
    third = samples[2 * quarter : 3 * quarter]
    last = samples[3 * quarter :]
    half_due = sum(1 for d in dues if d >= start + duration / 2)
    rise = (sum(last) / len(last)) - (sum(third) / len(third))
    return samples, max(0.0, rise) / max(5.0, 0.1 * half_due)


def summarize(outcomes: list[Outcome], start: float, duration: float, rate: float,
              slo_q: float, slo_ms: float, cells) -> dict:
    """Counts, latency percentiles, lag, backlog and the SLO verdict of a phase.

    ``cells[i]`` is the grid size (dim^2) request ``i`` asked for; answered
    cells per second and requests per second are both taken over the span
    from the phase start to the last good answer.
    """
    counts = {label: 0 for label in OUTCOMES}
    for outcome in outcomes:
        counts[outcome.status] += 1
    latencies = [o.latency_ms for o in outcomes]
    ok = [o for o in outcomes if o.status == OK]
    samples, growth = backlog_profile(outcomes, start, duration)
    span = max((o.done for o in ok), default=start) - start
    summary = {
        "rate": rate,
        "duration_s": duration,
        "attempted": len(outcomes),
        "succeeded": counts[OK],
        "failed": len(outcomes) - counts[OK],
        "outcomes": counts,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "latency_p99_ms": percentile(latencies, 99),
        "lag_p99_ms": percentile([o.lag_ms for o in outcomes], 99),
        "outstanding_max": max(samples),
        "outstanding_end": samples[-1],
        "backlog_growth": growth,
        "goodput_rps": counts[OK] / span if span > 0 else 0.0,
        "cells_per_s": sum(cells[o.index] for o in ok) / span if span > 0 else 0.0,
        "slo_ms": slo_ms,
        "slo_value_ms": percentile(latencies, slo_q),
    }
    # Both pass criteria normalised to their limits: the step passes while
    # neither the SLO percentile nor the backlog growth exceeds 1.
    summary["load_index"] = max(summary["slo_value_ms"] / slo_ms, growth)
    summary["passed"] = summary["load_index"] <= 1.0
    return summary


def _sleep_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def run_connections(offsets, send, connections: int, lead_s: float = 0.05):
    """Open loop over ``connections`` blocking senders (the HTTP client side).

    Each sender takes the next unsent request, waits for its due time and
    calls ``send(index)`` -> ``(status, nbytes, done)``, ``done`` being the
    ``perf_counter`` instant the answer arrived (so answer checking done
    afterwards is not timed).  With every connection
    busy, a due request waits for a free one and its lag grows, which is
    exactly the queueing an open loop must expose.  Returns ``(start,
    outcomes)``.
    """
    start = time.perf_counter() + lead_s
    outcomes: list[Outcome | None] = [None] * len(offsets)
    cursor = iter(range(len(offsets)))
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + float(offsets[index])
            _sleep_until(due)
            sent = time.perf_counter()
            status, nbytes, done = send(index)
            outcomes[index] = Outcome(index, due, sent, done, status, nbytes)

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, outcomes


def run_submit_collect(offsets, submit, collect, lead_s: float = 0.05):
    """Open loop of one submitting thread and one collecting thread.

    ``submit(index)`` admits the request and returns its ticket, or an
    outcome label when admission failed; ``collect(index, ticket)`` blocks
    for the answer and returns ``(status, nbytes, done)`` like the senders
    of :func:`run_connections`.  Tickets are collected in submission order, which
    matches the server's FIFO completion order.  Returns ``(start,
    outcomes)``.
    """
    start = time.perf_counter() + lead_s
    outcomes: list[Outcome | None] = [None] * len(offsets)
    pending: queue.Queue = queue.Queue()

    def collector() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            index, due, sent, ticket = item
            if isinstance(ticket, str):
                outcomes[index] = Outcome(index, due, sent, sent, ticket)
                continue
            status, nbytes, done = collect(index, ticket)
            outcomes[index] = Outcome(index, due, sent, done, status, nbytes)

    thread = threading.Thread(target=collector, daemon=True)
    thread.start()
    try:
        for index, offset in enumerate(offsets):
            due = start + float(offset)
            _sleep_until(due)
            sent = time.perf_counter()
            pending.put((index, due, sent, submit(index)))
    finally:
        pending.put(None)
        thread.join()
    return start, outcomes


def run_ladder(rates, run_step) -> list[dict]:
    """Ascending rate ladder; stops at the first step that fails its SLO.

    ``run_step(rate)`` returns a :func:`summarize` dict with ``passed``;
    returns the summaries of every step run.
    """
    steps = []
    for rate in rates:
        steps.append(run_step(rate))
        if not steps[-1]["passed"]:
            break
    return steps


def max_ok_rate(steps: list[dict]) -> float:
    """The highest offered rate meeting the SLO, refined between ladder steps.

    Starts from the highest passing step and moves toward the first failing
    step by linear interpolation of the steps' ``load_index`` (the worse of
    SLO percentile over its limit and backlog growth over its threshold) to
    1, so the figure moves smoothly with the measurements instead of
    jumping a whole step when noise pushes a step across a limit.  The
    passing rate is scaled by that step's success share.
    """
    passed = [s for s in steps if s["passed"]]
    if not passed:
        return 0.0
    best = passed[-1]
    rate = best["rate"] * best["succeeded"] / best["attempted"]
    failed = [s for s in steps if not s["passed"]]
    if failed:
        low, high = best["load_index"], min(failed[0]["load_index"], 1e12)
        rate += (failed[0]["rate"] - best["rate"]) * (1.0 - low) / (high - low)
    return rate

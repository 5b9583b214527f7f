"""``serve-cold``: unique-input serving through an in-process ``ReproServer``.

The server runs over ``Session(system="local", cache_dir=<fresh>)`` with the
default :class:`~repro.server.ServerConfig`.  One thread calls ``submit()``
on an open-loop Poisson schedule and one thread collects the tickets.
Shapes are Zipf(1.1)-ranked over eight apps at dims 64-512 (smallest dims
most popular) and every request carries a fresh input ``seed``, so each one
re-plans, builds a new problem, sweeps a grid and writes a cache entry.
Submitting in-process lets the queue grow deeper than two HTTP connections
ever could.
"""

from __future__ import annotations

import contextlib
import itertools
import time

import numpy as np

from perfbench import config, hostinfo, loadgen
from perfbench.analysis import layer_metrics
from perfbench.common import RunContext, ShmGuard, timed_setups
from perfbench.tracing import Instrumentation, Tracer
from perfbench.verify import reference_digests, result_digest

CFG = config.SERVE_COLD


def shapes() -> list[tuple]:
    """``(app, dim)`` in Zipf rank order: dims ascending, apps in turn."""
    return [(app, dim) for dim in CFG["dims"] for app in CFG["apps"]]


class Schedule:
    """All phases' requests, generated up front from the run seed."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.nominal_s = seconds * CFG["nominal_share"]
        self.step_s = (seconds - self.nominal_s) / len(CFG["ladder_rps"])
        base = int(np.random.default_rng([seed, 2]).integers(1, 2**30))
        self._inputs = itertools.count(base)
        self.phases = {"nominal": self._phase(CFG["nominal_rps"], self.nominal_s, 10)}
        for index, rate in enumerate(CFG["ladder_rps"]):
            self.phases[f"ladder@{rate:g}"] = self._phase(rate, self.step_s, 20 + index)

    def _phase(self, rate: float, duration: float, key: int) -> dict:
        rng = np.random.default_rng([self.seed, key])
        offsets = loadgen.arrival_offsets(rng, rate, duration)
        table = shapes()
        picks = loadgen.zipf_picks(rng, len(table), CFG["zipf_s"], len(offsets))
        requests = [(*table[p], next(self._inputs)) for p in picks]
        return {"rate": rate, "duration": duration, "offsets": offsets, "requests": requests}

    def all_requests(self):
        for phase in self.phases.values():
            yield from phase["requests"]


def _start_server(ctx: RunContext):
    from repro import Session
    from repro.server import ReproServer, ServerConfig

    session = Session(system="local", cache_dir=ctx.fresh_dir("cache"))
    session.tuner  # noqa: B018 - set-up ends once the tuner is built
    return ReproServer(session, ServerConfig(), own_session=True).start()


def _run_phase(ctx: RunContext, server, name: str, phase: dict, tracer: Tracer | None = None,
               requests_out: dict | None = None) -> dict:
    """Drive one phase through ``submit``/``result``; verify every answer."""
    from repro.core.exceptions import BackpressureError, DeadlineError, ReproError

    reqs = phase["requests"]
    cache_before = server.session.result_cache.info()

    def scoped(index):
        return tracer.request(f"{name}-{index}") if tracer else contextlib.nullcontext()

    def submit(index):
        app, dim, seed = reqs[index]
        try:
            with scoped(index):
                return server.submit(app, dim, seed=seed)
        except BackpressureError:
            return loadgen.REJECTED
        except ReproError:
            return loadgen.FAILED

    def collect(index, ticket):
        try:
            with scoped(index):
                result = ticket.result()
        except DeadlineError:
            return loadgen.EXPIRED, 0, time.perf_counter()
        except Exception:  # noqa: BLE001 - any failure is a counted miss
            return loadgen.FAILED, 0, time.perf_counter()
        done = time.perf_counter()
        if not ctx.checker.check(reqs[index], result_digest(result)):
            return loadgen.MISMATCH, 0, done
        return loadgen.OK, 0, done

    start, outcomes = loadgen.run_submit_collect(phase["offsets"], submit, collect)
    summary = loadgen.summarize(outcomes, start, phase["duration"], phase["rate"],
                                CFG["slo_percentile"], CFG["slo_ms"],
                                [dim**2 for _, dim, _ in reqs])
    cache_after = server.session.result_cache.info()
    lookups = cache_after["lookups"] - cache_before["lookups"]
    misses = cache_after["misses"] - cache_before["misses"]
    summary["unique_input_share"] = misses / lookups if lookups else 0.0
    if not summary["passed"] and name.startswith("ladder"):
        # Shedding (429) and expiry under a deliberately overloaded step are
        # the server working as designed: they miss the SLO, not correctness.
        counts = summary["outcomes"]
        summary["counted_failures"] = counts[loadgen.FAILED] + counts[loadgen.MISMATCH]
    if requests_out is not None:
        for o in outcomes:
            requests_out[f"{name}-{o.index}"] = {"latency_ms": (o.done - o.due) * 1e3}
    return ctx.phase(name, summary)


def _references(ctx: RunContext, schedule: Schedule) -> None:
    from repro import Session
    from repro.facade.policy import ExecutionPolicy

    policy = ExecutionPolicy(backend="vectorized")
    with Session(system="local") as session:
        ctx.checker.references.update(reference_digests(
            schedule.all_requests(),
            lambda r: session.solve(r[0], r[1], seed=r[2], policy=policy),
        ))


def run(ctx: RunContext) -> tuple[dict, dict]:
    """Run the workload; return ``(end-to-end metrics, per-layer metrics)``."""
    schedule = Schedule(ctx.seed, ctx.seconds)
    if ctx.trace:
        # Only the nominal phase runs in a traced invocation.
        schedule.phases = {"nominal": schedule.phases["nominal"]}
    _references(ctx, schedule)
    with ShmGuard(ctx):
        if ctx.trace:
            return {}, _traced(ctx, schedule)
        setup_s, server = timed_setups(config.SETUP_REPEATS_INPROC,
                                       lambda: _start_server(ctx), lambda s: s.close())
        try:
            hostinfo.reset_peak_rss()
            nominal = _run_phase(ctx, server, "nominal", schedule.phases["nominal"])
            steps = loadgen.run_ladder(
                CFG["ladder_rps"],
                lambda rate: _run_phase(ctx, server, f"ladder@{rate:g}",
                                        schedule.phases[f"ladder@{rate:g}"]),
            )
            peak = hostinfo.peak_rss_mb()
        finally:
            server.close()
    ctx.details["workload"] = {"unique_input_share": nominal["unique_input_share"]}
    return {
        "setup_s": setup_s,
        "latency_p50_ms": nominal["latency_p50_ms"],
        "latency_p95_ms": nominal["latency_p95_ms"],
        "latency_p99_ms": nominal["latency_p99_ms"],
        "max_ok_rps": loadgen.max_ok_rate(steps),
        "success_ratio": nominal["succeeded"] / nominal["attempted"],
        "cells_per_s": nominal["cells_per_s"],
        "peak_rss_mb": peak,
    }, {}


def _traced(ctx: RunContext, schedule: Schedule) -> dict:
    """The nominal phase untraced, then again on a fresh, traced server."""
    phase = schedule.phases["nominal"]
    server = _start_server(ctx)
    try:
        plain = _run_phase(ctx, server, "nominal-untraced", phase)
    finally:
        server.close()
    tracer = Tracer()
    instrumentation = Instrumentation(tracer).install()
    requests: dict = {}
    try:
        server = _start_server(ctx)
        try:
            traced = _run_phase(ctx, server, "nominal-traced", phase, tracer, requests)
            builds = server.session.host.cache_info()["builds"]
        finally:
            server.close()
    finally:
        instrumentation.uninstall()
    metrics, details = layer_metrics(tracer.spans, tracer.counters, requests)
    ctx.details["layers"] = details
    ctx.details["workload"] = {"unique_input_share": plain["unique_input_share"]}
    metrics.update({
        "runtime.pools_built": float(builds.get("pools_built", 0)),
        "trace.overhead_ratio": traced["latency_p50_ms"] / plain["latency_p50_ms"],
        "loadgen.lag_p99_ms": plain["lag_p99_ms"],
        "loadgen.outstanding_max": float(plain["outstanding_max"]),
        "workload.unique_input_share": plain["unique_input_share"],
    })
    return metrics

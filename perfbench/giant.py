"""``solve-giant``: out-of-cache closed-loop solves through ``Session.solve``.

One caller runs ``Session(system="local").solve(app, 8192, seed=k)`` for
lcs, edit-distance and sequence-comparison, back to back, with no result
cache.  Each grid is 8192^2 float64 = 512 MiB, several times the host's
last-level cache, so sweep bandwidth, peak memory and the tuner's engine
choice set the result; queue, cache and HTTP are absent.  The reference
answers — a plain single-threaded ``ExecutionPolicy(backend="vectorized")``
solve of each instance in a separate session — double as the baseline
``cells_per_s`` is read against.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from perfbench import config, hostinfo, loadgen
from perfbench.analysis import layer_metrics
from perfbench.common import RunContext, ShmGuard, timed_setups
from perfbench.tracing import Instrumentation, Tracer
from perfbench.verify import result_digest

CFG = config.SOLVE_GIANT


def instances(seed: int) -> list[tuple]:
    """``(app, dim, input seed)`` of the workload, one per app."""
    rng = np.random.default_rng([seed, 3])
    inputs = rng.choice(2**31 - 1, size=len(CFG["apps"]), replace=False) + 1
    return [(app, CFG["dim"], int(s)) for app, s in zip(CFG["apps"], inputs)]


def _references(ctx: RunContext, work: list[tuple]) -> float:
    """Reference digests; returns the vectorized baseline in cells/s."""
    from repro import Session
    from repro.facade.policy import ExecutionPolicy

    policy = ExecutionPolicy(backend="vectorized")
    cells, wall = 0, 0.0
    with Session(system="local") as session:
        for app, dim, seed in work:
            start = time.perf_counter()
            result = session.solve(app, dim, seed=seed, policy=policy)
            wall += time.perf_counter() - start
            cells += dim * dim
            ctx.checker.references[(app, dim, seed)] = result_digest(result)
            del result
            gc.collect()
    return cells / wall


def _new_session():
    from repro import Session

    session = Session(system="local")
    session.tuner  # noqa: B018 - set-up ends once the tuner is built
    return session


def _rounds(ctx: RunContext, session, work: list[tuple], name: str, budget_s: float,
            tracer: Tracer | None = None, requests_out: dict | None = None) -> dict:
    """Closed loop over whole rounds of ``work`` while the budget allows.

    A round solves every instance once; another round starts only if the
    mean round so far still fits in ``budget_s`` (at least one always runs).
    """
    outcomes: list[loadgen.Outcome] = []
    cells = 0
    start = time.perf_counter()
    rounds = 0
    while True:
        for app, dim, seed in work:
            rid = f"{name}-{len(outcomes)}"
            due = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.request(rid):
                        result = session.solve(app, dim, seed=seed)
                else:
                    result = session.solve(app, dim, seed=seed)
                done = time.perf_counter()
                status = (loadgen.OK if ctx.checker.check((app, dim, seed), result_digest(result))
                          else loadgen.MISMATCH)
                del result
            except Exception:  # noqa: BLE001 - a failed solve is a counted miss
                done, status = time.perf_counter(), loadgen.FAILED
            gc.collect()
            outcomes.append(loadgen.Outcome(len(outcomes), due, due, done, status))
            if status == loadgen.OK:
                cells += dim * dim
            if requests_out is not None:
                requests_out[rid] = {"latency_ms": (done - due) * 1e3}
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > budget_s:
            break
    latencies = [o.latency_ms for o in outcomes]
    solve_s = sum(o.done - o.due for o in outcomes)
    summary = {
        "attempted": len(outcomes),
        "succeeded": sum(o.status == loadgen.OK for o in outcomes),
        "rounds": rounds,
        "latency_p50_ms": loadgen.percentile(latencies, 50),
        "latency_p95_ms": loadgen.percentile(latencies, 95),
        "latency_p99_ms": loadgen.percentile(latencies, 99),
        "solves_per_s": len(outcomes) / solve_s,
        "cells_per_s": cells / solve_s,
    }
    summary["failed"] = summary["attempted"] - summary["succeeded"]
    return ctx.phase(name, summary)


def run(ctx: RunContext) -> tuple[dict, dict]:
    """Run the workload; return ``(end-to-end metrics, per-layer metrics)``."""
    work = instances(ctx.seed)
    l3 = hostinfo.l3_bytes()
    grid_bytes = CFG["dim"] ** 2 * 8
    ctx.details["workload"] = {
        "grid_bytes": grid_bytes, "l3_bytes": l3,
        "grid_l3_ratio": grid_bytes / l3 if l3 else None,
    }
    baseline = _references(ctx, work)
    with ShmGuard(ctx):
        if ctx.trace:
            return {}, _traced(ctx, work, baseline)
        setup_s, session = timed_setups(config.SETUP_REPEATS_INPROC, _new_session,
                                        lambda s: s.close())
        try:
            hostinfo.reset_peak_rss()
            timed = _rounds(ctx, session, work, "closed-loop", ctx.seconds)
            peak = hostinfo.peak_rss_mb()
        finally:
            session.close()
    return {
        "setup_s": setup_s,
        "latency_p50_ms": timed["latency_p50_ms"],
        "latency_p95_ms": timed["latency_p95_ms"],
        "latency_p99_ms": timed["latency_p99_ms"],
        "max_ok_rps": timed["solves_per_s"],
        "success_ratio": timed["succeeded"] / timed["attempted"],
        "cells_per_s": timed["cells_per_s"],
        "peak_rss_mb": peak,
    }, {}


def _traced(ctx: RunContext, work: list[tuple], baseline: float) -> dict:
    """One untraced round, then one round on a fresh, traced session."""
    with _new_session() as session:
        plain = _rounds(ctx, session, work, "round-untraced", 0.0)
    tracer = Tracer()
    instrumentation = Instrumentation(tracer).install()
    requests: dict = {}
    try:
        with _new_session() as session:
            traced = _rounds(ctx, session, work, "round-traced", 0.0, tracer, requests)
            builds = session.host.cache_info()["builds"]
    finally:
        instrumentation.uninstall()
    metrics, details = layer_metrics(tracer.spans, tracer.counters, requests)
    ctx.details["layers"] = details
    ratio = ctx.details["workload"]["grid_l3_ratio"]
    metrics.update({
        "runtime.pools_built": float(builds.get("pools_built", 0)),
        "runtime.vectorized_baseline_cells_per_s": baseline,
        "trace.overhead_ratio": plain["cells_per_s"] / traced["cells_per_s"],
        "workload.grid_l3_ratio": ratio or 0.0,
    })
    return metrics

"""Per-layer metrics derived from the spans of one traced run.

Every metric in :data:`PER_LAYER` is reported by every traced run; a layer
the workload does not exercise (no HTTP in ``serve-cold``, no queue in
``solve-giant``) reports 0 — zero work done in that layer.  Time
percentiles are taken over the spans of the timed requests only (spans whose
request id belongs to the measured phase), so warm-up traffic never leaks in.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from perfbench.tracing import LAYERS, self_times

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("server.http.handler_ms_p50", "ms"),
    ("server.http.response_bytes_mean", "bytes"),
    ("server.http.keepalive_ms_p50", "ms"),
    ("server.queue.wait_ms_p50", "ms"),
    ("server.queue.wait_ms_p95", "ms"),
    ("server.queue.depth_max", "count"),
    ("server.queue.rejected", "count"),
    ("server.service.batch_size_mean", "count"),
    ("server.service.coalesced_share", "ratio"),
    ("server.supervisor.dispatch_ms_p50", "ms"),
    ("adaptive.observe_us_p50", "us"),
    ("adaptive.record_run_us_p50", "us"),
    ("cache.keys.request_key_us_p50", "us"),
    ("cache.tier.lookups", "count"),
    ("cache.tier.memory_hit_ratio", "ratio"),
    ("cache.tier.disk_hit_ratio", "ratio"),
    ("cache.store.get_ms_p50", "ms"),
    ("cache.store.put_ms_p50", "ms"),
    ("cache.store.bytes_per_entry", "bytes"),
    ("cache.store.evictions", "count"),
    ("session.plan_ms_p50", "ms"),
    ("session.plan_cache_hit_ratio", "ratio"),
    ("autotuner.resolves", "count"),
    ("autotuner.resolve_ms_p50", "ms"),
    ("autotuner.build_s", "s"),
    ("apps.problem_ms_p50", "ms"),
    ("runtime.execute_ms_p50", "ms"),
    ("runtime.cells_per_s", "cells/s"),
    ("runtime.backend_share.hybrid.serial", "ratio"),
    ("runtime.backend_share.hybrid.vectorized", "ratio"),
    ("runtime.backend_share.vectorized", "ratio"),
    ("runtime.backend_share.serial", "ratio"),
    ("runtime.backend_share.mp-parallel", "ratio"),
    ("runtime.backend_share.pipelined", "ratio"),
    ("runtime.backend_share.other", "ratio"),
    ("runtime.grid_bytes", "bytes"),
    ("runtime.pools_built", "count"),
    ("runtime.vectorized_baseline_cells_per_s", "cells/s"),
) + tuple((f"{layer}.self_ms_mean", "ms") for layer in LAYERS) + (
    ("trace.path_share_p50", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.outstanding_max", "count"),
    ("workload.hit_share", "ratio"),
    ("workload.unique_input_share", "ratio"),
    ("workload.grid_l3_ratio", "ratio"),
)

_SHARED_BACKENDS = {
    name.rsplit("backend_share.", 1)[1]
    for name, _ in PER_LAYER
    if ".backend_share." in name
}


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans, counters: dict, requests: dict) -> tuple[dict, dict]:
    """Per-layer metrics plus a details dict, from one traced phase.

    ``requests`` maps each timed request id to ``{"latency_ms": ...}`` and,
    over HTTP, ``"rtt_ms"`` (client send to response) and ``"bytes"``.
    Spans without a timed request id (warm-up, set-up) only feed
    ``autotuner.build_s``, ``adaptive.record_run_us_p50`` and the
    ``cache.store`` write metrics.
    """
    selfs = self_times(spans)
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    timed = [s for s in spans if s.rid in requests]
    named = defaultdict(list)
    for span in timed:
        named[span.name].append(span)

    def durations(name, scale=1e3):
        return [s.duration * scale for s in named[name]]

    m: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    details: dict = {}

    # server.http: client round trip minus the in-server submit -> result.
    submit = {s.rid: s.start for s in named["queue.submit"]}
    result = {s.rid: s.end for s in named["queue.result"]}
    handler = [
        info["rtt_ms"] - (result[rid] - submit[rid]) * 1e3
        for rid, info in requests.items()
        if "rtt_ms" in info and rid in submit and rid in result
    ]
    m["server.http.handler_ms_p50"] = _pct(handler, 50)
    m["server.http.response_bytes_mean"] = _mean(
        [info["bytes"] for info in requests.values() if info.get("bytes")]
    )

    # server.queue / server.service / server.supervisor
    waits = durations("queue.wait")
    m["server.queue.wait_ms_p50"] = _pct(waits, 50)
    m["server.queue.wait_ms_p95"] = _pct(waits, 95)
    m["server.queue.depth_max"] = float(counters.get("server.queue.depth_max", 0))
    m["server.queue.rejected"] = float(counters.get("server.queue.rejected", 0))
    sizes = [s.tag.get("size", 1) for s in named["service.batch"]]
    m["server.service.batch_size_mean"] = _mean(sizes)
    if sizes:
        m["server.service.coalesced_share"] = (sum(sizes) - len(sizes)) / sum(sizes)
    m["server.supervisor.dispatch_ms_p50"] = _pct(
        [selfs[s.sid] * 1e3 for s in named["supervisor.execute"]], 50
    )

    # adaptive / cache
    m["adaptive.observe_us_p50"] = _pct(durations("adaptive.observe", 1e6), 50)
    m["adaptive.record_run_us_p50"] = _pct(
        [s.duration * 1e6 for s in spans if s.name == "adaptive.record_run"], 50
    )
    m["cache.keys.request_key_us_p50"] = _pct(durations("cache.request_key", 1e6), 50)
    lookups = named["cache.get_or_solve"]
    memory = disk = 0
    for span in lookups:
        kids = {k.name: k for k in children[span.sid]}
        if "store.get" in kids and kids["store.get"].tag.get("hit"):
            disk += 1
        elif "store.get" not in kids and "session.run" not in kids:
            memory += 1
    m["cache.tier.lookups"] = float(len(lookups))
    if lookups:
        m["cache.tier.memory_hit_ratio"] = memory / len(lookups)
        m["cache.tier.disk_hit_ratio"] = disk / len(lookups)
    m["cache.store.get_ms_p50"] = _pct(durations("store.get"), 50)
    # Writes and run observations count wherever they happen: serve-hot
    # only writes (and only runs grids) in its untimed warm pass.
    puts = [s for s in spans if s.name == "store.put"]
    m["cache.store.put_ms_p50"] = _pct([s.duration * 1e3 for s in puts], 50)
    m["cache.store.bytes_per_entry"] = _mean([s.tag.get("bytes", 0) for s in puts])
    m["cache.store.evictions"] = float(sum(s.tag.get("evictions", 0) for s in puts))

    # session / autotuner / apps.  Only the planning a solve does counts;
    # the adaptive layer's own plan look-ups are part of its span.
    solves = {s.sid for s in named["session.solve"]}
    plans = [s for s in named["session.plan"] if s.parent in solves]
    m["session.plan_ms_p50"] = _pct([s.duration * 1e3 for s in plans], 50)
    if plans:
        hits = sum(1 for s in plans if not children[s.sid])
        m["session.plan_cache_hit_ratio"] = hits / len(plans)
    m["autotuner.resolves"] = float(len(named["tuner.resolve"]))
    m["autotuner.resolve_ms_p50"] = _pct(durations("tuner.resolve"), 50)
    builds = [s.duration for s in spans if s.name == "tuner.build"]
    m["autotuner.build_s"] = _pct(builds, 50)
    m["apps.problem_ms_p50"] = _pct(durations("apps.problem"), 50)

    # runtime
    executes = named["runtime.execute"]
    m["runtime.execute_ms_p50"] = _pct(durations("runtime.execute"), 50)
    cells = sum(s.tag.get("dim", 0) ** 2 for s in executes)
    busy = sum(s.duration for s in executes)
    m["runtime.cells_per_s"] = cells / busy if busy > 0 else 0.0
    m["runtime.grid_bytes"] = float(max((s.tag.get("dim", 0) ** 2 * 8 for s in executes), default=0))
    runs = named["session.run"]
    plan_counts: dict[str, int] = defaultdict(int)
    plan_cells: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span in runs:
        key = span.tag.get("backend", "?")
        if span.tag.get("engine"):
            key += "." + span.tag["engine"]
        plan_counts[key] += 1
        plan_cells[key][0] += span.tag.get("dim", 0) ** 2
        plan_cells[key][1] += span.duration
    for key, count in plan_counts.items():
        slot = key if key in _SHARED_BACKENDS else "other"
        m[f"runtime.backend_share.{slot}"] += count / len(runs)
    by_class: dict[str, list] = defaultdict(list)
    for span in executes:
        by_class[f"{span.tag.get('app')}:{span.tag.get('dim')}"].append(span.duration * 1e3)
    details["runtime.execute_ms_p50_by_class"] = {
        key: _pct(values, 50) for key, values in sorted(by_class.items())
    }
    details["runtime.cells_per_s_by_plan"] = {
        key: (c / t if t > 0 else 0.0) for key, (c, t) in sorted(plan_cells.items())
    }
    details["runtime.plan_counts"] = dict(plan_counts)

    # per-request layer self times and how much of the latency they explain
    per_request: dict = defaultdict(lambda: defaultdict(float))
    for span in timed:
        if not span.wait:
            per_request[span.rid][span.layer] += selfs[span.sid] * 1e3
    for layer in LAYERS:
        m[f"{layer}.self_ms_mean"] = _mean(
            [per_request[rid][layer] for rid in requests]
        )
    shares = [
        sum(per_request[rid].values()) / info["latency_ms"]
        for rid, info in requests.items()
        if info.get("latency_ms")
    ]
    m["trace.path_share_p50"] = _pct(shares, 50)
    details["traced_requests"] = len(requests)
    return m, details

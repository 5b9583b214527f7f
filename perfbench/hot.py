"""``serve-hot``: cache-hot HTTP serving through a ``repro serve`` child.

The child is ``python -m repro serve --system local --cache-dir <fresh>``
(plus ``--port 0 --ready-file`` so the benchmark can find it; every other
flag at its default).  About 200 fixed-seed signatures of fine-grained apps
at dims 32-96 are offered Zipf(1.1)-ranked over loopback HTTP from at most
two concurrent connections, open loop.  An untimed warm pass answers every
signature once, so the timed phases are served from the result cache: the
head from the 64-entry memory tier, the tail from disk — and the tail also
misses the 128-entry plan LRU, because ``Session.solve`` plans before it
consults the result cache.

Each request opens its own connection, as ``urllib`` clients do: on a
kept-alive connection the endpoint's two writes per response (headers, then
body) meet the client's delayed ACK and stall ~40 ms, which the traced run
reports separately as ``server.http.keepalive_ms_p50``.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import config, hostinfo, loadgen
from perfbench.analysis import layer_metrics
from perfbench.common import RunContext, ShmGuard, timed_setups
from perfbench.tracing import REQUEST_ID_HEADER, Span
from perfbench.verify import payload_digest, reference_digests

CFG = config.SERVE_HOT


def signatures(seed: int) -> list[tuple]:
    """The workload's ``(app, dim, input seed)`` signatures, Zipf rank order.

    Shapes cycle over the apps, then the dims, so every seed offers the same
    shape at each rank; only the input seeds come from ``seed``.
    """
    apps, dims = CFG["apps"], CFG["dims"]
    rng = np.random.default_rng([seed, 1])
    inputs = rng.choice(2**31 - 1, size=CFG["signatures"], replace=False) + 1
    return [
        (apps[r % len(apps)], dims[(r // len(apps)) % len(dims)], int(inputs[r]))
        for r in range(CFG["signatures"])
    ]


class ServeChild:
    """One ``repro serve`` child process and a tiny HTTP client for it."""

    def __init__(self, ctx: RunContext, cache_dir: Path, spans_out: Path | None = None) -> None:
        self.ctx = ctx
        self.cache_dir = cache_dir
        self.spans_out = spans_out
        run_dir = ctx.fresh_dir("serve")
        self.ready_file = run_dir / "addr"
        self.log_path = run_dir / "serve.log"
        self.proc: subprocess.Popen | None = None
        self.host, self.port = "127.0.0.1", 0

    def start(self) -> "ServeChild":
        """Spawn and block until the ready file names the bound address."""
        args = ["--system", "local", "--cache-dir", str(self.cache_dir),
                "--port", "0", "--ready-file", str(self.ready_file)]
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            launcher = self.ctx.root / "perfbench" / "serve_child.py"
            cmd = [sys.executable, str(launcher), str(self.spans_out), *args]
        env = dict(os.environ, PYTHONPATH=str(self.ctx.root / "src"))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                         env=env, cwd=self.ctx.root)
        deadline = time.perf_counter() + config.CHILD_TIMEOUT_S
        while True:
            text = self.ready_file.read_text() if self.ready_file.exists() else ""
            if text.endswith("\n"):
                host, port = text.strip().rsplit(":", 1)
                self.host, self.port = host, int(port)
                return self
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.kill()
                raise RuntimeError(f"serve child failed to start: {self._log_tail()}")
            time.sleep(0.002)

    def _log_tail(self) -> str:
        try:
            return self.log_path.read_text()[-2000:]
        except OSError:
            return ""

    def post_solve(self, body: dict, rid: str | None = None) -> tuple[int, bytes]:
        """One ``POST /solve`` on a fresh connection; ``(status, raw body)``."""
        headers = {"Content-Type": "application/json"}
        if rid is not None:
            headers[REQUEST_ID_HEADER] = rid
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("POST", "/solve", json.dumps(body), headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def keepalive_probe(self, body: dict, count: int = 30) -> float:
        """Median ms of ``count`` sequential solves on one kept-alive connection."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        times = []
        try:
            for _ in range(count):
                start = time.perf_counter()
                conn.request("POST", "/solve", json.dumps(body),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                response.read()
                times.append((time.perf_counter() - start) * 1e3)
        finally:
            conn.close()
        return float(np.median(times))

    def shutdown(self) -> None:
        """``POST /shutdown``, then require a clean exit (kill on timeout)."""
        if self.proc is None or self.proc.poll() is not None:
            self._check_exit()
            return
        try:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
            conn.request("POST", "/shutdown")
            conn.getresponse().read()
            conn.close()
        except OSError as error:
            self.ctx.errors.append(f"serve child shutdown request failed: {error}")
        try:
            self.proc.wait(timeout=config.CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            self.ctx.errors.append("serve child did not exit after POST /shutdown; killed")
            return
        self._check_exit()

    def _check_exit(self) -> None:
        if self.proc is not None and self.proc.returncode not in (0, None):
            self.ctx.errors.append(
                f"serve child exited with {self.proc.returncode}: {self._log_tail()}"
            )

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _cache_delta(before: dict, after: dict) -> dict:
    keys = ("lookups", "memory_hits", "disk_hits", "coalesced", "misses")
    return {k: after["cache"][k] - before["cache"][k] for k in keys}


class HotRun:
    """The workload's phases against one live child."""

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx
        self.sigs = signatures(ctx.seed)
        self.requests: dict = {}

    def references(self) -> None:
        """Reference digests from a separate, cache-less in-process session."""
        from repro import Session
        from repro.facade.policy import ExecutionPolicy

        policy = ExecutionPolicy(backend="vectorized")
        with Session(system="local") as session:
            self.ctx.checker.references.update(reference_digests(
                self.sigs,
                lambda sig: session.solve(sig[0], sig[1], seed=sig[2], policy=policy),
            ))

    def send(self, child: ServeChild, sig: tuple, rid: str | None = None):
        """Send one signature; ``(status, raw answer, arrival instant)``.

        The answer is checked later by :meth:`verify`, outside the timing.
        """
        try:
            status, raw = child.post_solve({"app": sig[0], "dim": sig[1], "seed": sig[2]}, rid)
        except OSError:
            return loadgen.FAILED, b"", time.perf_counter()
        done = time.perf_counter()
        if status != 200:
            return (loadgen.REJECTED if status == 429 else
                    loadgen.EXPIRED if status == 504 else loadgen.FAILED), raw, done
        return loadgen.OK, raw, done

    def verify(self, sig: tuple, status: str, raw: bytes) -> str:
        """Check one answer against its reference; the final outcome label."""
        if status == loadgen.OK and not self.ctx.checker.check(
            sig, payload_digest(json.loads(raw))
        ):
            return loadgen.MISMATCH
        return status

    def warm(self, child: ServeChild) -> None:
        """Untimed pass answering every signature once (fills both tiers)."""
        failures = sum(
            self.verify(sig, *self.send(child, sig)[:2]) != loadgen.OK for sig in self.sigs
        )
        self.ctx.phase("warm", {"attempted": len(self.sigs),
                                "succeeded": len(self.sigs) - failures,
                                "failed": failures})

    def phase(self, child: ServeChild, name: str, rate: float, duration: float,
              rng_key: int, tag_requests: bool = False) -> dict:
        """One open-loop phase at ``rate`` for ``duration`` seconds."""
        rng = np.random.default_rng([self.ctx.seed, rng_key])
        offsets = loadgen.arrival_offsets(rng, rate, duration)
        picks = loadgen.zipf_picks(rng, len(self.sigs), CFG["zipf_s"], len(offsets))

        answers = [b""] * len(offsets)

        def send(index):
            rid = f"{name}-{index}" if tag_requests else None
            status, answers[index], done = self.send(child, self.sigs[picks[index]], rid)
            return status, len(answers[index]), done

        before = child.metrics()
        start, outcomes = loadgen.run_connections(offsets, send, CFG["connections"])
        delta = _cache_delta(before, child.metrics())
        for o in outcomes:
            o.status = self.verify(self.sigs[picks[o.index]], o.status, answers[o.index])
        summary = loadgen.summarize(outcomes, start, duration, rate,
                                    CFG["slo_percentile"], CFG["slo_ms"],
                                    [self.sigs[p][1] ** 2 for p in picks])
        summary["cache"] = delta
        summary["hit_share"] = (
            (delta["memory_hits"] + delta["disk_hits"] + delta["coalesced"]) / delta["lookups"]
            if delta["lookups"] else 0.0
        )
        if tag_requests:
            for o in outcomes:
                self.requests[f"{name}-{o.index}"] = {
                    "latency_ms": (o.done - o.due) * 1e3,
                    "rtt_ms": (o.done - o.sent) * 1e3,
                    "bytes": o.nbytes,
                }
        return self.ctx.phase(name, summary)


def _start_child(ctx: RunContext, spans_out: Path | None = None) -> ServeChild:
    return ServeChild(ctx, ctx.fresh_dir("cache"), spans_out).start()


def run(ctx: RunContext) -> tuple[dict, dict]:
    """Run the workload; return ``(end-to-end metrics, per-layer metrics)``."""
    run_ = HotRun(ctx)
    run_.references()
    nominal_s = ctx.seconds * CFG["nominal_share"]
    with ShmGuard(ctx):
        if ctx.trace:
            return {}, _traced(ctx, run_, nominal_s)
        setup_s, child = timed_setups(
            config.SETUP_REPEATS_CHILD, lambda: _start_child(ctx), ServeChild.shutdown
        )
        try:
            run_.warm(child)
            hostinfo.reset_peak_rss(child.proc.pid)
            nominal = run_.phase(child, "nominal", CFG["nominal_rps"], nominal_s, 10)
            step_s = (ctx.seconds - nominal_s) / len(CFG["ladder_rps"])
            steps = loadgen.run_ladder(
                CFG["ladder_rps"],
                lambda rate: run_.phase(child, f"ladder@{rate:g}", rate, step_s,
                                        20 + CFG["ladder_rps"].index(rate)),
            )
            peak = hostinfo.peak_rss_mb(child.proc.pid)
        finally:
            child.shutdown()
            child.kill()
    ctx.details["workload"] = {"hit_share": nominal["hit_share"]}
    e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": nominal["latency_p50_ms"],
        "latency_p95_ms": nominal["latency_p95_ms"],
        "latency_p99_ms": nominal["latency_p99_ms"],
        "max_ok_rps": loadgen.max_ok_rate(steps),
        "success_ratio": nominal["succeeded"] / nominal["attempted"],
        "cells_per_s": nominal["cells_per_s"],
        "peak_rss_mb": peak,
    }
    return e2e, {}


def _traced(ctx: RunContext, run_: HotRun, nominal_s: float) -> dict:
    """Untraced nominal phase, then the same phase through the traced launcher.

    Both children start on a fresh cache, so the traced warm pass records
    the cache writes the timed phase never makes.
    """
    child = _start_child(ctx)
    try:
        run_.warm(child)
        plain = run_.phase(child, "nominal-untraced", CFG["nominal_rps"], nominal_s, 10)
        keepalive = child.keepalive_probe(
            {"app": run_.sigs[0][0], "dim": run_.sigs[0][1], "seed": run_.sigs[0][2]}
        )
    finally:
        child.shutdown()
        child.kill()
    spans_out = ctx.work / "spans.json"
    child = _start_child(ctx, spans_out=spans_out)
    try:
        run_.warm(child)
        traced = run_.phase(child, "nominal-traced", CFG["nominal_rps"], nominal_s, 10,
                            tag_requests=True)
    finally:
        child.shutdown()
        child.kill()
    data = json.loads(spans_out.read_text())
    spans = [Span.from_json(s) for s in data["spans"]]
    metrics, details = layer_metrics(spans, data["counters"], run_.requests)
    ctx.details["layers"] = details
    metrics.update({
        "server.http.keepalive_ms_p50": keepalive,
        "trace.overhead_ratio": traced["latency_p50_ms"] / plain["latency_p50_ms"],
        "loadgen.lag_p99_ms": plain["lag_p99_ms"],
        "loadgen.outstanding_max": float(plain["outstanding_max"]),
        "workload.hit_share": plain["hit_share"],
    })
    return metrics

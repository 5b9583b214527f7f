"""In-memory span tracing around the calls into each ``repro`` layer.

The tracer lives entirely in the benchmark: :class:`Instrumentation` wraps
*class methods* of the program (never module attributes — callers import
functions by name, so patching a module would miss them) and records one
span per call.  A span carries its name, layer, start, end, parent span and
request id.  Work that crosses threads (a ticket handed from the submitting
thread to the scheduler, a shard task handed to the shard thread) takes its
request id and parent along through :meth:`Tracer.handoff` /
:meth:`Tracer.adopt`, keyed on the object that travels, not only on a
thread-local.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the part of it covered by its
child spans (children in other threads included, clipped to the parent's
interval).  "Wait" spans — a thread blocking for work another thread does —
are kept for arithmetic such as the HTTP handler's own cost but are left out
of the per-request layer sums, because that time is already covered by the
spans doing the work.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Header carrying the benchmark's request id to the traced serve child.
REQUEST_ID_HEADER = "X-Request-Id"

#: The program layers spans are attributed to (module names).
LAYERS = (
    "server.http",
    "server.queue",
    "server.service",
    "server.supervisor",
    "adaptive",
    "cache.keys",
    "cache.tier",
    "cache.store",
    "session",
    "autotuner",
    "apps",
    "runtime",
)


@dataclass
class Span:
    """One recorded interval (``perf_counter`` seconds)."""

    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None = None
    rid: object = None
    wait: bool = False
    tag: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "sid": self.sid, "name": self.name, "layer": self.layer,
            "start": self.start, "end": self.end, "parent": self.parent,
            "rid": self.rid, "wait": self.wait, "tag": self.tag,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Span":
        return cls(**data)


class Tracer:
    """Thread-safe span recorder with cross-thread request propagation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._handoffs: dict[int, tuple] = {}

    # -- context ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> tuple:
        """``(rid, parent sid)`` of the calling thread right now."""
        stack = self._stack()
        if stack:
            return stack[-1][1], stack[-1][0]
        return getattr(self._local, "rid", None), getattr(self._local, "parent", None)

    @contextmanager
    def request(self, rid, parent: int | None = None):
        """Attribute the calling thread's spans to request ``rid``."""
        saved = (getattr(self._local, "rid", None), getattr(self._local, "parent", None),
                 self._stack())
        self._local.rid, self._local.parent, self._local.stack = rid, parent, []
        try:
            yield
        finally:
            self._local.rid, self._local.parent, self._local.stack = saved

    def handoff(self, obj) -> None:
        """Attach the caller's context to ``obj`` before another thread takes it."""
        with self._lock:
            self._handoffs[id(obj)] = (obj, *self.context())

    def take(self, obj) -> tuple:
        """Detach the context handed off with ``obj`` (``(None, None)`` if none)."""
        with self._lock:
            entry = self._handoffs.pop(id(obj), None)
        return (None, None) if entry is None else entry[1:]

    @contextmanager
    def adopt(self, obj):
        """Run the block in the request context ``obj`` was handed off with."""
        rid, parent = self.take(obj)
        with self.request(rid, parent):
            yield rid

    # -- recording -------------------------------------------------------
    def add(self, name: str, layer: str, start: float, end: float, *, rid=None,
            parent: int | None = None, wait: bool = False, tag: dict | None = None) -> Span:
        """Record an already-measured interval."""
        span = Span(next(self._ids), name, layer, start, end, parent, rid, wait, tag or {})
        with self._lock:
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, layer: str, *, wait: bool = False):
        """Time the block as a child of the caller's current span.

        Yields the tag dict, which the block may fill in.
        """
        rid, parent = self.context()
        sid = next(self._ids)
        stack = self._stack()
        stack.append((sid, rid))
        tag: dict = {}
        start = time.perf_counter()
        try:
            yield tag
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, layer, start, end, parent, rid, wait, tag))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)


# ----------------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------------
def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total, cursor = 0.0, start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: duration minus the union its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - covered(span.start, span.end, children[span.sid])
        for span in spans
    }


# ----------------------------------------------------------------------------
# Instrumentation of the program's classes
# ----------------------------------------------------------------------------
class Instrumentation:
    """Installs (and removes) span wrappers on the program's classes."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple] = []

    def _patch(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def _plain(self, cls, attr: str, name: str, layer: str, *, wait=False, tagger=None):
        tracer = self.tracer

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name, layer, wait=wait) as tag:
                    result = original(*args, **kwargs)
                    if tagger is not None:
                        tagger(tag, args, kwargs, result)
                    return result
            return wrapper

        self._patch(cls, attr, make)

    def install(self) -> "Instrumentation":
        """Wrap every layer boundary the benchmark measures."""
        from repro.adaptive.controller import AdaptiveController
        from repro.apps.base import WavefrontApplication
        from repro.autotuner.measured import MeasuredTuner
        from repro.autotuner.models import LearnedTuner
        from repro.autotuner.protocol import ExhaustiveTuner
        from repro.autotuner.tuner import AutoTuner
        from repro.cache.store import DiskCacheStore
        from repro.cache.tier import ResultCache
        from repro.runtime.executor_base import Executor
        from repro.session import Session

        tracer = self.tracer
        self._install_server()
        self._plain(AdaptiveController, "observe", "adaptive.observe", "adaptive")
        self._plain(AdaptiveController, "record_run", "adaptive.record_run", "adaptive")
        self._plain(Session, "_request_key_for", "cache.request_key", "cache.keys")
        self._plain(ResultCache, "get_or_solve", "cache.get_or_solve", "cache.tier")
        self._plain(DiskCacheStore, "get", "store.get", "cache.store",
                    tagger=lambda tag, a, k, r: tag.update(hit=r is not None))

        def make_put(original):
            @functools.wraps(original)
            def put(store, digest, *args, **kwargs):
                with tracer.span("store.put", "cache.store") as tag:
                    evictions = store.evictions
                    original(store, digest, *args, **kwargs)
                    tag["evictions"] = store.evictions - evictions
                    tag["bytes"] = store._index.get(digest, 0)
            return put

        self._patch(DiskCacheStore, "put", make_put)
        self._plain(Session, "solve_many", "session.solve_many", "session")
        self._plain(Session, "solve", "session.solve", "session")
        self._plain(Session, "plan", "session.plan", "session")
        self._plain(
            Session, "run", "session.run", "session",
            tagger=lambda tag, a, k, r: tag.update(
                app=a[1].app, dim=a[1].dim, backend=a[1].backend, engine=a[1].engine
            ),
        )

        def make_tuner(original):
            def getter(session):
                if session.tuner_ready:
                    return original.fget(session)
                with tracer.span("tuner.build", "autotuner"):
                    return original.fget(session)
            return property(getter, doc=original.__doc__)

        self._patch(Session, "tuner", make_tuner)
        for cls in (AutoTuner, LearnedTuner, MeasuredTuner, ExhaustiveTuner):
            self._plain(cls, "resolve", "tuner.resolve", "autotuner")
        self._plain(WavefrontApplication, "problem", "apps.problem", "apps")
        self._plain(
            Executor, "execute", "runtime.execute", "runtime",
            tagger=lambda tag, a, k, r: tag.update(
                executor=type(a[0]).__name__, app=a[1].name, dim=a[1].dim
            ),
        )
        return self

    def _install_server(self) -> None:
        """Wrap the HTTP, queue, scheduler and shard boundaries."""
        from repro.core.exceptions import BackpressureError
        from repro.server.http import _ServeHandler
        from repro.server.queue import ServeRequest
        from repro.server.service import ReproServer
        from repro.server.supervisor import Shard, ShardSupervisor

        tracer = self.tracer

        def make_http(original):
            @functools.wraps(original)
            def solve(handler):
                rid = handler.headers.get(REQUEST_ID_HEADER)
                with tracer.request(rid), tracer.span("http.solve", "server.http"):
                    return original(handler)
            return solve

        self._patch(_ServeHandler, "_solve", make_http)

        def make_submit(original):
            @functools.wraps(original)
            def submit(server, *args, **kwargs):
                with tracer.span("queue.submit", "server.queue"):
                    try:
                        ticket = original(server, *args, **kwargs)
                    except BackpressureError:
                        tracer.count("server.queue.rejected")
                        raise
                    tracer.peak("server.queue.depth_max", server._queue.depth)
                tracer.handoff(ticket)
                return ticket
            return submit

        self._patch(ReproServer, "submit", make_submit)
        self._plain(ServeRequest, "result", "queue.result", "server.queue", wait=True)

        def make_batch(original):
            @functools.wraps(original)
            def serve_batch(server, batch):
                picked = time.perf_counter()
                contexts = [tracer.take(request) for request in batch]
                for request, (rid, parent) in zip(batch, contexts):
                    tracer.add("queue.wait", "server.queue", request.enqueued_at, picked,
                               rid=rid, parent=parent)
                rid, parent = contexts[0] if contexts else (None, None)
                with tracer.request(rid, parent), \
                        tracer.span("service.batch", "server.service") as tag:
                    tag["size"] = len(batch)
                    return original(server, batch)
            return serve_batch

        self._patch(ReproServer, "_serve_batch", make_batch)
        self._plain(ShardSupervisor, "execute", "supervisor.execute", "server.supervisor")

        def make_dispatch(original):
            @functools.wraps(original)
            def dispatch(shard, task, *args, **kwargs):
                tracer.handoff(task)
                return original(shard, task, *args, **kwargs)
            return dispatch

        self._patch(Shard, "dispatch", make_dispatch)

        def make_execute(original):
            @functools.wraps(original)
            def execute(shard, task, epoch):
                with tracer.adopt(task), tracer.span("supervisor.shard", "server.supervisor"):
                    return original(shard, task, epoch)
            return execute

        self._patch(Shard, "_execute", make_execute)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order of installation)."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

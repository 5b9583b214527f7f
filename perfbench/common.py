"""Run context and result assembly shared by the three workloads."""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import hostinfo
from perfbench.verify import Checker

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("success_ratio", "ratio"),
    ("cells_per_s", "cells/s"),
    ("peak_rss_mb", "MB"),
)
#: Measured and reported with every run, but too noisy on a small shared
#: host to bound (see ``perfbench/README.md``): printed, not in the JSON line.
NOT_GATED = (
    ("latency_p99_ms", "ms"),
    ("max_ok_rps", "req/s"),
)


@dataclass
class RunContext:
    """One benchmark invocation: arguments, scratch space and accounting.

    ``work`` is a fresh directory under ``<checkout>/.perfbench/`` holding
    this run's result caches and child logs; it is removed when the run
    ends.  ``phases`` collects the per-phase summaries printed at the end,
    ``errors`` any run-hygiene failure (leaked shared memory, a serve child
    that did not exit cleanly), which makes the run incorrect.
    """

    root: Path
    seed: int
    seconds: float
    trace: bool
    work: Path = None  # type: ignore[assignment]
    checker: Checker = field(default_factory=Checker)
    phases: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        base = self.root / ".perfbench"
        base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=base))

    def fresh_dir(self, name: str) -> Path:
        """A new empty directory inside this run's scratch space."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.work))

    def phase(self, name: str, summary: dict) -> dict:
        """Record one phase's summary for the report; returns it."""
        self.phases.append({"phase": name, **summary})
        return summary

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def timed_setups(repeats: int, setup, teardown) -> tuple[float, object]:
    """Run ``setup()`` ``repeats`` times; keep the last, tear down the rest.

    Returns ``(median seconds, kept object)``.
    """
    times, kept = [], None
    for index in range(repeats):
        start = time.perf_counter()
        obj = setup()
        times.append(time.perf_counter() - start)
        if index < repeats - 1:
            teardown(obj)
        else:
            kept = obj
    return statistics.median(times), kept


class ShmGuard:
    """Checks that a block leaves the ``/dev/shm`` segment count unchanged."""

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx

    def __enter__(self) -> "ShmGuard":
        self.before = hostinfo.shm_segments()
        return self

    def __exit__(self, *exc_info) -> None:
        after = hostinfo.shm_segments()
        self.ctx.details["shm_segments"] = {"before": self.before, "after": after}
        if after != self.before:
            self.ctx.errors.append(
                f"/dev/shm segment count changed from {self.before} to {after}"
            )

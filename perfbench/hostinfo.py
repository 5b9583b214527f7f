"""Host facts and process-memory probes recorded with every benchmark run.

Peak memory is read from ``/proc/<pid>/status`` (``VmHWM``) after resetting
the high-water mark through ``/proc/<pid>/clear_refs`` at the start of the
timed phase: ``resource.getrusage().ru_maxrss`` never resets, so it would
report the set-up or reference phase instead of the measured one.
"""

from __future__ import annotations

import importlib.util
import os
import platform
from pathlib import Path

SHM_DIR = Path("/dev/shm")


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def l3_bytes() -> int | None:
    """Size of the last-level (L3) cache in bytes, or ``None`` if unknown."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text().strip())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level != 3:
            continue
        units = {"K": 1024, "M": 1024 * 1024, "G": 1024**3}
        value = int(size.rstrip("KMG")) * units.get(size[-1], 1)
        best = max(best or 0, value)
    return best


def host_facts() -> dict:
    """The facts a reader needs to compare runs from different machines."""
    import numpy

    return {
        "nproc": nproc(),
        "l3_bytes": l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def reset_peak_rss(pid: int | str = "self") -> bool:
    """Reset ``VmHWM`` of ``pid`` to its current RSS; ``False`` if refused."""
    try:
        Path(f"/proc/{pid}/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size of ``pid`` in MiB (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def shm_segments() -> int:
    """Number of POSIX shared-memory segments currently in ``/dev/shm``."""
    try:
        return sum(1 for _ in SHM_DIR.iterdir())
    except OSError:
        return 0

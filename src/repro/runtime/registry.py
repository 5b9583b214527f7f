"""Registry of the available execution engines (backends).

Mirrors :mod:`repro.apps.registry` on the executor side: every strategy is
registered under its ``strategy`` name so the CLI, the benchmark driver and
the autotuner can enumerate and construct backends uniformly.

Registration is declarative: an :class:`EngineSpec` names the executor
class, the *capabilities* it offers (``multicore``, ``compiled``,
``requires_shm``, ``subrange_safe``, ...) and an optional availability
probe — the gate that keeps the vectorized engine out of NumPy-less
environments and the compiled tier silent wherever :mod:`numba` is not
installed, without the rest of the system ever having to care.  The serial
engine preference order (:data:`SERIAL_ENGINES`) is **derived** from the
specs' ``serial_rank``, not hand-maintained, and capability queries go
through :func:`engines_with`, which raises the typed
:class:`~repro.core.exceptions.UnknownExecutorError` on capability typos
instead of leaking a ``KeyError``.

Registering a bare executor class (the pre-spec API) still works but emits
a :class:`DeprecationWarning`; such engines get an empty capability set and
are always available.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

from repro.core.exceptions import InvalidParameterError, UnknownExecutorError
from repro.hardware.costmodel import CostConstants
from repro.hardware.system import SystemSpec
from repro.runtime.compiled import CompiledExecutor, numba_available
from repro.runtime.cpu_parallel import CPUParallelExecutor
from repro.runtime.executor_base import Executor
from repro.runtime.gpu_multi import MultiGPUBandExecutor
from repro.runtime.gpu_single import SingleGPUBandExecutor
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.mp_parallel import MPParallelExecutor
from repro.runtime.serial import SerialExecutor
from repro.runtime.vectorized import VectorizedSerialExecutor, numpy_available

#: The capability vocabulary an :class:`EngineSpec` may declare.
KNOWN_CAPABILITIES: frozenset[str] = frozenset(
    {
        "serial",  # single-core whole-grid engine (hybrid CPU-phase candidate)
        "multicore",  # scales with worker count
        "gpu",  # drives (simulated) GPU devices
        "compiled",  # JIT-compiled kernel tier
        "requires_shm",  # needs POSIX shared memory for its grid
        "subrange_safe",  # can sweep partial diagonal ranges in place
    }
)


@dataclass(frozen=True)
class EngineSpec:
    """Declarative registration record of one executor strategy.

    ``name`` is the registry key (must match ``factory.strategy``),
    ``capabilities`` the subset of :data:`KNOWN_CAPABILITIES` the engine
    offers, ``available`` an optional zero-argument probe consulted by every
    enumeration (``None`` means always available), and ``serial_rank`` the
    engine's position in the derived :data:`SERIAL_ENGINES` preference order
    (``None`` keeps it out of the serial-engine family).
    """

    name: str
    factory: type[Executor]
    capabilities: frozenset[str] = field(default_factory=frozenset)
    available: Callable[[], bool] | None = None
    serial_rank: int | None = None

    def __post_init__(self) -> None:
        """Validate the name and the capability vocabulary."""
        if not self.name or self.name == Executor.strategy:
            raise InvalidParameterError(
                f"executor class {self.factory.__name__} must define a unique "
                "'strategy' name"
            )
        unknown = frozenset(self.capabilities) - KNOWN_CAPABILITIES
        if unknown:
            raise InvalidParameterError(
                f"engine spec {self.name!r} declares unknown capabilities "
                f"{sorted(unknown)}; known: {sorted(KNOWN_CAPABILITIES)}"
            )

    def is_available(self) -> bool:
        """Whether the engine can run in this environment."""
        return True if self.available is None else bool(self.available())


#: Declarative specs by strategy name (the source of truth).
ENGINE_SPECS: dict[str, EngineSpec] = {}

#: Executor classes by strategy name.  Kept in lockstep with
#: :data:`ENGINE_SPECS` for backward compatibility — pre-spec code (and the
#: registry tests) reads and mutates this mapping directly.
EXECUTORS: dict[str, type[Executor]] = {}


def register_executor(spec: "EngineSpec | type[Executor]"):
    """Register an executor under its strategy name.

    The declarative path takes an :class:`EngineSpec`.  Passing a bare
    executor class — the pre-spec API, still usable as a decorator by
    out-of-tree executors::

        @register_executor
        class MyExecutor(Executor):
            strategy = "my-strategy"

    — is deprecated: it emits a :class:`DeprecationWarning` and registers a
    spec with no declared capabilities and no availability probe.  Returns
    whatever was passed in, so decorator use keeps working.
    """
    if not isinstance(spec, EngineSpec):
        cls = spec
        warnings.warn(
            "registering a bare executor class is deprecated; register an "
            "EngineSpec(name=..., factory=..., capabilities=...) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        spec = EngineSpec(name=getattr(cls, "strategy", ""), factory=cls)
        ENGINE_SPECS[spec.name] = spec
        EXECUTORS[spec.name] = cls
        return cls
    ENGINE_SPECS[spec.name] = spec
    EXECUTORS[spec.name] = spec.factory
    return spec


def get_executor(
    name: str, system: SystemSpec, constants: CostConstants | None = None, **kwargs
) -> Executor:
    """Construct a registered executor by strategy name."""
    try:
        cls = EXECUTORS[name]
    except KeyError:
        known = ", ".join(sorted(EXECUTORS))
        raise UnknownExecutorError(f"unknown executor {name!r}; known: {known}") from None
    return cls(system, constants, **kwargs)


def available_executors() -> list[str]:
    """Names of the registered executors usable in this environment, sorted.

    Engines whose availability probe answers ``False`` (the compiled tier
    without :mod:`numba`, the vectorized engine without NumPy) are silently
    absent, so enumerating callers — the bench driver, the search space —
    never construct an engine that cannot run.
    """
    return sorted(
        name
        for name in EXECUTORS
        if name not in ENGINE_SPECS or ENGINE_SPECS[name].is_available()
    )


def engines_with(capability: str) -> list[str]:
    """Names of available engines declaring ``capability``, sorted.

    Unknown capabilities raise the typed
    :class:`~repro.core.exceptions.UnknownExecutorError` (the CLI's usage
    exit path) instead of leaking a ``KeyError`` out of the filter.
    """
    if capability not in KNOWN_CAPABILITIES:
        known = ", ".join(sorted(KNOWN_CAPABILITIES))
        raise UnknownExecutorError(
            f"unknown engine capability {capability!r}; known: {known}"
        )
    return sorted(
        spec.name
        for spec in ENGINE_SPECS.values()
        if capability in spec.capabilities
        and spec.name in EXECUTORS
        and spec.is_available()
    )


def _derived_serial_engines() -> tuple[str, ...]:
    """The serial engine family in preference order, derived from the specs."""
    ranked = [
        spec for spec in ENGINE_SPECS.values() if spec.serial_rank is not None
    ]
    return tuple(spec.name for spec in sorted(ranked, key=lambda s: s.serial_rank))


def available_serial_engines() -> list[str]:
    """Serial engine names usable in this environment, in preference order."""
    return [
        name
        for name in _derived_serial_engines()
        if ENGINE_SPECS[name].is_available()
    ]


def default_serial_executor(
    system: SystemSpec, constants: CostConstants | None = None
) -> Executor:
    """The preferred single-core executor: vectorized when NumPy is available."""
    return get_executor(available_serial_engines()[0], system, constants)


# ----------------------------------------------------------------------
# The built-in engines
# ----------------------------------------------------------------------
for _spec in (
    EngineSpec(
        name=SerialExecutor.strategy,
        factory=SerialExecutor,
        capabilities=frozenset({"serial", "subrange_safe"}),
        serial_rank=1,
    ),
    EngineSpec(
        name=VectorizedSerialExecutor.strategy,
        factory=VectorizedSerialExecutor,
        capabilities=frozenset({"serial", "subrange_safe"}),
        available=numpy_available,
        serial_rank=0,
    ),
    EngineSpec(
        name=CPUParallelExecutor.strategy,
        factory=CPUParallelExecutor,
        capabilities=frozenset({"multicore", "subrange_safe"}),
    ),
    EngineSpec(
        name=MPParallelExecutor.strategy,
        factory=MPParallelExecutor,
        capabilities=frozenset({"multicore", "requires_shm", "subrange_safe"}),
    ),
    EngineSpec(
        name=CompiledExecutor.strategy,
        factory=CompiledExecutor,
        capabilities=frozenset({"compiled"}),
        available=numba_available,
    ),
    EngineSpec(
        name=SingleGPUBandExecutor.strategy,
        factory=SingleGPUBandExecutor,
        capabilities=frozenset({"gpu"}),
    ),
    EngineSpec(
        name=MultiGPUBandExecutor.strategy,
        factory=MultiGPUBandExecutor,
        capabilities=frozenset({"gpu"}),
    ),
    EngineSpec(
        name=HybridExecutor.strategy,
        factory=HybridExecutor,
        capabilities=frozenset({"gpu", "multicore"}),
    ),
):
    register_executor(_spec)

#: The serial (single-core, whole-grid) engine family, in preference order.
#: Derived from the specs' ``serial_rank`` — no longer hand-maintained.
SERIAL_ENGINES: tuple[str, ...] = _derived_serial_engines()

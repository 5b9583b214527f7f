"""Typed execution policy: every plan override in one declarative object.

Planning overrides grew by accretion — ``backend=`` here, ``engine=`` and
``workers=`` there — so :class:`ExecutionPolicy` folds them into one
frozen, validated value that :meth:`repro.session.Session.plan` accepts as
``policy=``.  The legacy
keyword arguments keep working (they coerce into a policy and emit a
:class:`DeprecationWarning`), and a policy-built plan serialises exactly
like a kwargs-built one, so persisted plans are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import InvalidParameterError
from repro.core.params import TunableParams

@dataclass(frozen=True)
class ExecutionPolicy:
    """How a plan should execute: backend, engine, workers, tunables.

    Every field is optional; ``None`` means "let the tuner decide".  Setting
    ``backend`` (or ``tunables``) makes the resulting plan *manual*, exactly
    as the legacy ``backend=`` keyword did.
    """

    backend: str | None = None
    engine: str | None = None
    workers: int | None = None
    tunables: TunableParams | None = None

    def __post_init__(self) -> None:
        """Validate the worker count."""
        if self.workers is not None and int(self.workers) < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {self.workers}"
            )

    @property
    def is_default(self) -> bool:
        """True when no field is set (the tuner decides everything)."""
        return (
            self.backend is None
            and self.engine is None
            and self.workers is None
            and self.tunables is None
        )

    def overrides(self) -> dict:
        """The non-``None`` fields as a name -> value dict (cache keys, repr)."""
        fields = {
            "backend": self.backend,
            "engine": self.engine,
            "workers": self.workers,
            "tunables": self.tunables,
        }
        return {name: value for name, value in fields.items() if value is not None}

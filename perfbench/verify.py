"""Benchmark-owned answer checking.

The digests are computed here, not with ``repro.server.http.grid_digest``:
the benchmark re-implements the wire contract of ``grid_sha256`` /
``witness_sha256`` (SHA-256 over the raw C-order bytes of the float64 value
grid, and over the raw int64 witness bytes) so a program change cannot make
its own answers vouch for themselves.  Reference answers always come from a
separate :class:`repro.session.Session` without a result cache, solved
outside the timed phase.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

#: An answer fingerprint: ``(grid sha256, witness sha256 or None)``.
Digest = tuple


def array_sha256(array) -> str | None:
    """SHA-256 of an array's raw C-order bytes, or ``None`` for no array."""
    if array is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def result_digest(result) -> Digest:
    """The ``(grid, witness)`` fingerprint of one in-process result."""
    grid = None if result.grid is None else result.grid.values
    return (array_sha256(grid), array_sha256(result.witness))


def payload_digest(payload: dict) -> Digest:
    """The fingerprint an HTTP ``POST /solve`` answer claims for itself."""
    return (payload.get("grid_sha256"), payload.get("witness_sha256"))


@dataclass
class Checker:
    """Compares served fingerprints with reference fingerprints.

    ``references`` maps a request identity to its reference digest; every
    comparison is counted, and each mismatch is kept (identity plus both
    digests) so the run can list it.
    """

    references: dict = field(default_factory=dict)
    checked: int = 0
    mismatches: list = field(default_factory=list)

    def check(self, identity, digest: Digest) -> bool:
        """Record one comparison; ``True`` when the answer is bit-exact."""
        self.checked += 1
        expected = self.references.get(identity)
        if expected is not None and tuple(expected) == tuple(digest):
            return True
        self.mismatches.append(
            {"request": repr(identity), "expected": expected, "got": digest}
        )
        return False


def reference_digests(requests, solve) -> dict:
    """Solve each distinct request once with ``solve(request)``; map digests.

    ``requests`` are hashable request identities; ``solve`` returns an
    :class:`~repro.runtime.result.ExecutionResult`.  Grids are dropped as
    soon as they are digested so giant references never pile up.
    """
    out = {}
    for request in requests:
        if request not in out:
            out[request] = result_digest(solve(request))
    return out

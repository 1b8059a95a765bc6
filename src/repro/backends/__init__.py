"""The Monte-Carlo SemSim walk-score kernel and its timing hook.

See :mod:`repro.backends.numpy_ref`: one kernel, fed from dense tables
(:class:`DensePlanes`) or from the estimator's per-call lookups for a
measure that is not materialised.
"""

from repro.backends.numpy_ref import (
    DensePlanes,
    Planes,
    WalkScoreKernel,
    WalkScoreRequest,
    WalkScoreResult,
    kernel_timer,
    lookup_plane,
    resolve_backend,
)

__all__ = [
    "DensePlanes",
    "Planes",
    "WalkScoreKernel",
    "WalkScoreRequest",
    "WalkScoreResult",
    "kernel_timer",
    "lookup_plane",
    "resolve_backend",
]

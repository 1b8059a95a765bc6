"""The Monte-Carlo SemSim walk-score kernel (Algorithm 1, Def. 4.5).

One kernel scores every MC SemSim answer: the estimator's scalar,
interval and batch queries and the shard worker all build a
:class:`WalkScoreRequest` and call :meth:`WalkScoreKernel.batch_walk_scores`.
The kernel replays the per-walk likelihood-ratio loop on stacked
``(met walks, steps)`` planes.  Operation order is load-bearing: it is
the order of the reference loop the identity suites compare against, so
any change here is a behaviour change for the whole library.

The kernel reads its four input planes — ``sem(next_u, next_v)``,
``SO(cur_u, cur_v)`` and the per-step edge weight ``W`` and proposal
probability ``Q`` of both walks — from a *planes* source chosen by the
caller.  :class:`DensePlanes` gathers them from dense tables (a
materialised measure, the SO matrix and the step tables); the estimator's
lazy source looks them up per call for a measure that is not
materialised.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.registry import get_registry, is_enabled


class Planes(Protocol):
    """Where the kernel reads ``sem``, ``SO``, ``W`` and ``Q`` from.

    Every plane is ``(met walks, steps)``.  Only cells marked *active*
    (steps strictly before the meeting) need real values: the kernel
    masks the rest before they reach a result.
    """

    def sem(self, nu: np.ndarray, nv: np.ndarray, active: np.ndarray) -> np.ndarray:
        """``sem(nu, nv)`` per cell."""

    def so(
        self, cu: np.ndarray, cv: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """``SO(cu, cv)`` per cell and the evaluations to count."""

    def steps(
        self,
        row_u: int,
        rows_v: np.ndarray,
        rows_walk: np.ndarray,
        walk_u: np.ndarray,
        walk_v: np.ndarray,
        max_k: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(W_u, W_v, Q_u, Q_v)`` for the first *max_k* steps of each walk."""


@dataclass
class WalkScoreRequest:
    """Inputs of the walk-score kernel.

    *pos_u* and *positions* are rows of the *walks* tensor — node
    positions for an estimator, local or slot rows for a shard.  Rows of
    the kernel's planes are the met coupled walks, enumerated exactly as
    ``np.nonzero(meetings >= 1)`` (C order: candidate by candidate, walks
    in order).
    """

    walks: np.ndarray                 # (rows, n_w, L + 1) node positions, -1 padded
    pos_u: int                        # tensor row of the query node
    positions: np.ndarray             # (m,) tensor rows of the candidates
    meetings: np.ndarray              # (m, n_w) first-meeting steps, -1 = never
    planes: Planes
    decay: float
    theta: float | None


@dataclass
class WalkScoreResult:
    """Outputs of the walk-score kernel.

    *totals* holds, per candidate, the sum of its met walks' likelihood
    ratios in walk order.  *walk_ids* and *walk_values* list every met
    walk's id and value in the request's row order, which is what the
    confidence interval reads.  The counters are the stat deltas the
    caller folds into its :class:`~repro.core.montecarlo.EstimatorStats`.
    """

    totals: np.ndarray                # (m,) float64
    walk_ids: np.ndarray              # (met walks,) walk index of each row
    walk_values: np.ndarray           # (met walks,) its likelihood ratio
    walks_met: int = 0
    so_evaluations: int = 0
    walks_pruned: int = 0


def lookup_plane(
    a: np.ndarray,
    b: np.ndarray,
    active: np.ndarray,
    num_nodes: int,
    lookup: Callable[[int, int], float],
) -> np.ndarray:
    """Fill a plane with ``lookup(a, b)`` on its *active* cells.

    Identical ``(a, b)`` pairs are looked up once per call.  Inactive
    cells hold 1.0 and are masked downstream.
    """
    pair_keys = a[active].astype(np.int64) * np.int64(num_nodes) + b[active]
    unique_keys, inverse = np.unique(pair_keys, return_inverse=True)
    unique_values = np.empty(unique_keys.size, dtype=np.float64)
    for j, key in enumerate(unique_keys):
        unique_values[j] = lookup(int(key) // num_nodes, int(key) % num_nodes)
    plane = np.ones(a.shape, dtype=np.float64)
    plane[active] = unique_values[inverse]
    return plane


class DensePlanes:
    """Kernel planes gathered from dense tables.

    *sem_matrix* is the ``(n, n)`` semantic matrix over global node
    positions; *step_weights*/*step_q* are ``(rows, n_w, L)`` tables
    aligned with the walk tensor's rows.  ``SO`` comes from *so_matrix*,
    or, when *so_lookup* is given (the SLING ``pair_index`` path), from a
    per-pair lookup that owns its own evaluation counting.
    """

    __slots__ = ("sem_matrix", "step_weights", "step_q", "so_matrix", "so_lookup")

    def __init__(
        self,
        sem_matrix: np.ndarray,
        step_weights: np.ndarray,
        step_q: np.ndarray,
        so_matrix: np.ndarray | None = None,
        so_lookup: Callable[[int, int], float] | None = None,
    ) -> None:
        self.sem_matrix = sem_matrix
        self.step_weights = step_weights
        self.step_q = step_q
        self.so_matrix = so_matrix
        self.so_lookup = so_lookup

    def sem(self, nu, nv, active):
        # full-plane gather: garbage on inactive steps, masked downstream
        return self.sem_matrix[nu, nv]

    def so(self, cu, cv, active):
        if self.so_lookup is None:
            return self.so_matrix[cu, cv], int(active.sum())
        num_nodes = self.sem_matrix.shape[0]
        return lookup_plane(cu, cv, active, num_nodes, self.so_lookup), 0

    def steps(self, row_u, rows_v, rows_walk, walk_u, walk_v, max_k):
        return (
            self.step_weights[row_u, rows_walk][:, :max_k],
            self.step_weights[rows_v, rows_walk][:, :max_k],
            self.step_q[row_u, rows_walk][:, :max_k],
            self.step_q[rows_v, rows_walk][:, :max_k],
        )


class WalkScoreKernel:
    """The batched Algorithm-1 likelihood-ratio kernel.

    Stateless, so one instance serves every thread.  ``name`` is the
    ``backend`` label of the ``kernel_seconds`` histogram.
    """

    name = "numpy"

    def batch_walk_scores(self, request: WalkScoreRequest) -> WalkScoreResult:
        meetings = request.meetings
        m = request.positions.size
        rows_pair, rows_walk = np.nonzero(meetings >= 1)
        n_rows = rows_pair.size
        if n_rows == 0:
            return WalkScoreResult(
                totals=np.zeros(m, dtype=np.float64),
                walk_ids=rows_walk,
                walk_values=np.zeros(0, dtype=np.float64),
            )
        walks = request.walks
        pos_u = request.pos_u
        rows_v = request.positions[rows_pair]
        max_k = int(meetings.max())
        walk_u = walks[pos_u][rows_walk, : max_k + 1]                   # (R, K+1)
        walk_v = walks[rows_v, rows_walk][:, : max_k + 1]
        met_at = meetings[rows_pair, rows_walk]                         # (R,)
        step_ids = np.arange(max_k)
        active = step_ids[None, :] < met_at[:, None]                    # (R, K)

        # No pre-masking: steps at or past the meeting are garbage (walk
        # padding is -1, which numpy index-wraps), but every downstream
        # read is masked by *active* before it matters — only the final
        # ``factor`` where() is load-bearing.  Active steps sit strictly
        # before the meeting, where both walks still hold real node ids.
        cu = walk_u[:, :max_k]
        cv = walk_v[:, :max_k]
        nu = walk_u[:, 1 : max_k + 1]
        nv = walk_v[:, 1 : max_k + 1]

        # P numerator in the reference operation order:
        # (sem(nu, nv) * W(nu -> cu)) * W(nv -> cv).
        planes = request.planes
        w_u, w_v, q_u, q_v = planes.steps(
            pos_u, rows_v, rows_walk, walk_u, walk_v, max_k
        )
        numerator = planes.sem(nu, nv, active) * w_u * w_v
        so, so_evaluations = planes.so(cu, cv, active)
        q_step = q_u * q_v

        # Per-step factor (p_step * c) / q_step, 1 on inactive steps and 0
        # where the reference loop bails out (so <= 0 or q <= 0).
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = (numerator / so) * request.decay / q_step
        bad = (so <= 0) | (q_step <= 0)
        factor = np.where(active & ~bad, factor, np.where(active, 0.0, 1.0))

        running = np.cumprod(factor, axis=1)                            # (R, K)
        last = running[np.arange(n_rows), met_at - 1]
        walks_pruned = 0
        if request.theta is None:
            values = last
        else:
            cut = (running <= request.theta) & active
            cut_anywhere = cut.any(axis=1)
            first_cut = cut.argmax(axis=1)
            values = np.where(
                cut_anywhere, running[np.arange(n_rows), first_cut], last
            )
            # A bail-out (so/q <= 0) returns 0 without counting as pruned;
            # a genuine θ freeze does.
            bailed = (bad & active)[np.arange(n_rows), first_cut]
            walks_pruned = int((cut_anywhere & ~bailed).sum())
        # Accumulate per candidate in walk order (bincount adds in element
        # order, the reference loop's summation sequence).
        totals = np.bincount(rows_pair, weights=values, minlength=m).astype(
            np.float64
        )
        return WalkScoreResult(
            totals=totals,
            walk_ids=rows_walk,
            walk_values=values,
            walks_met=n_rows,
            so_evaluations=so_evaluations,
            walks_pruned=walks_pruned,
        )


_KERNEL = WalkScoreKernel()


def resolve_backend(spec: None = None) -> WalkScoreKernel:
    """The walk-score kernel instance every MC SemSim score runs through.

    Takes no options; *spec* is accepted only as ``None`` so the
    one-argument form ``resolve_backend(None)`` keeps working.
    """
    if spec is not None:
        raise ConfigurationError(
            f"there is one walk-score kernel; got a backend spec {spec!r}"
        )
    return _KERNEL


# ---------------------------------------------------------------------------
# Kernel timing
# ---------------------------------------------------------------------------

_KERNEL_SECONDS = get_registry().histogram(
    "kernel_seconds",
    help="Compute-kernel wall time per call, by backend and kernel.",
    labelnames=("backend", "kernel"),
    buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
             0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5),
)

_KERNEL_CELLS: dict[tuple[str, str], object] = {}


@contextmanager
def kernel_timer(backend: str, kernel: str) -> Iterator[None]:
    """Time one kernel call into ``kernel_seconds{backend, kernel}``.

    Free when observability is disabled; label children are cached so the
    hot path pays one dict hit, not a registry lookup.
    """
    if not is_enabled():
        yield
        return
    cell = _KERNEL_CELLS.get((backend, kernel))
    if cell is None:
        cell = _KERNEL_SECONDS.labels(backend=backend, kernel=kernel)
        _KERNEL_CELLS[(backend, kernel)] = cell
    start = time.perf_counter()
    try:
        yield
    finally:
        cell.observe(time.perf_counter() - start)

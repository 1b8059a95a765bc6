"""Monte-Carlo similarity estimators (Section 4).

:class:`MonteCarloSimRank` is the classical Fogaras-Rácz estimator:
``(1/n_w) * sum c^{tau_l}`` over coupled pre-sampled walks.

:class:`MonteCarloSemSim` is the paper's Importance-Sampling estimator
(Algorithm 1).  The walks come from the *proposal* distribution ``Q``
(uniform, sampled per node), while the quantity of interest is an
expectation under the semantic-aware distribution ``P``; each met coupled
walk therefore contributes its likelihood ratio

    ``s(w) = prod_i  P[w_i -> w_{i+1}] * c / Q[w_i -> w_{i+1}]``

and the estimate is ``sem(u, v) / n_w * sum_w s(w)`` — unbiased for any
``Q`` supported wherever ``P`` is (Eq. 4).

Pruning (Section 4.4) applies two cuts, each bounding the error by θ:

* the *semantic gate* — ``sem(u, v) <= theta`` short-circuits to 0
  (justified by Prop. 2.5);
* the *walk cut* — the running product ``s(w)`` can only shrink (each
  factor is ≤ θ-tested), so once it drops to ≤ θ the walk's final value is
  frozen there (Def. 4.5).

Both estimators expose a **batched query path**
(:meth:`MonteCarloSemSim.similarity_batch`): a whole candidate set
``{(u, v_i)}`` is estimated in one numpy pass — first-meeting detection,
likelihood-ratio products and the θ walk-cut all run on stacked
``(num_pairs, num_walks, length)`` arrays.  Every MC SemSim score — scalar,
interval, batch and the shard worker's — goes through :func:`score_walks`
and the one walk-score kernel (:mod:`repro.backends`); a single-pair
query is a batch of one.  The kernel's ``sem``/``SO``/``W``/``Q`` inputs
come from dense tables when the measure is materialised and from per-call
lookups when it is not.

A note on the paper's Algorithm 1 listing: it accumulates ``Pw`` and ``Qw``
cumulatively *and* multiplies ``Pw/Qw`` into ``sim_w`` at every step, which
would square earlier step ratios.  We implement the intent defined by
Def. 4.5 — per-step ratios multiplied once — which is also what makes the
estimator unbiased (verified statistically in the tests).
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.backends import (
    DensePlanes,
    Planes,
    WalkScoreRequest,
    WalkScoreResult,
    kernel_timer,
    lookup_plane,
    resolve_backend,
)
from repro.core.metrics import ENGINE_EFFECTIVE_WALKS, ENGINE_WALK_COUNT
from repro.core.params import validate_decay, validate_theta
from repro.core.walk_index import WalkIndex, WalkPolicy
from repro.errors import ConfigurationError, StaleIndexError
from repro.hin.graph import Node
from repro.obs.registry import get_registry, is_enabled
from repro.semantics.base import SemanticMeasure
from repro.semantics.cache import MatrixMeasure

#: Counter fields of :class:`EstimatorStats`, with the help text of the
#: mirrored registry families (``estimator_<field>_total``).
_STAT_HELP: dict[str, str] = {
    "queries": "Pairs scored, through either the scalar or the batch path.",
    "walks_examined": "Coupled walks whose meeting status was checked.",
    "walks_met": "Coupled walks that met and paid the IS correction.",
    "walks_pruned": "Met walks frozen early by the theta walk-cut (Def. 4.5).",
    "so_evaluations": "SO(u, v) denominators computed from scratch.",
    "sem_gate_hits": "Pairs short-circuited to 0 by the Prop. 2.5 semantic gate.",
    "batch_queries": "Calls to a similarity_batch entry point.",
    "batch_pairs": "Total pairs submitted through similarity_batch.",
    "vectorized_pairs": "Batch pairs scored on the stacked-array fast path.",
}


class EstimatorStats:
    """Work counters for one estimator instance.

    Stats are **per engine**: every estimator (and every
    :class:`repro.api.QueryEngine`) owns a fresh instance, so counters
    never leak across reused components; call :meth:`reset` to zero an
    instance in place between measurement windows.

    Mutation is **thread-safe**: every instance owns one lock, and
    :meth:`add` (the hot-path entry every estimator records through),
    attribute assignment, :meth:`reset` and :meth:`as_dict` all take it,
    so concurrent serving workers recording into one engine's stats never
    lose updates and snapshots are internally consistent.  Prefer
    :meth:`add` over ``stats.field += n`` in concurrent code — the
    augmented assignment spans two attribute operations and is not
    atomic.

    When constructed with *method* and *estimator* identity labels, every
    positive increment is additionally mirrored into the process-wide
    metrics registry as ``estimator_<field>_total{method=..., estimator=...}``
    series.  The mirror is one-way: the registry counters are monotonic
    across the process lifetime and :meth:`reset` never touches them — it
    zeroes only this instance's view, so two engines sharing a label set
    reset independently while the global series keeps the full history.

    Counters
    --------
    queries:
        Pairs scored, through either the scalar or the batch path
        (identity pairs included).
    walks_examined:
        Coupled walks whose meeting status was checked.
    walks_met:
        Coupled walks that met and therefore paid the IS correction.
    walks_pruned:
        Met walks frozen early by the θ walk-cut (Def. 4.5).
    so_evaluations:
        ``SO(u, v)`` denominators read or computed: every active walk step
        with a dense SO table, one per distinct step pair and call
        otherwise (``pair_index`` hits are free).
    sem_gate_hits:
        Pairs short-circuited to 0 by the Prop. 2.5 semantic gate.
    batch_queries:
        Calls to a ``similarity_batch`` entry point.
    batch_pairs:
        Total pairs submitted through ``similarity_batch``.
    vectorized_pairs:
        Batch pairs scored on the stacked-array fast path.
    """

    __slots__ = ("_values", "_cells", "_lock")

    _FIELDS = tuple(_STAT_HELP)

    def __init__(
        self,
        method: str | None = None,
        estimator: str | None = None,
        **counts: int,
    ) -> None:
        object.__setattr__(self, "_values", dict.fromkeys(self._FIELDS, 0))
        object.__setattr__(self, "_lock", threading.Lock())
        cells: dict[str, object] = {}
        if method is not None and estimator is not None:
            registry = get_registry()
            for field, help_text in _STAT_HELP.items():
                family = registry.counter(
                    f"estimator_{field}_total",
                    help=f"{help_text} Process-wide, monotonic across resets.",
                    labelnames=("method", "estimator"),
                )
                cells[field] = family.labels(method=method, estimator=estimator)
        object.__setattr__(self, "_cells", cells)
        for field, value in counts.items():
            setattr(self, field, value)

    def __getattr__(self, name: str):
        values = object.__getattribute__(self, "_values")
        try:
            return values[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__} has no counter {name!r}"
            ) from None

    def __setattr__(self, name: str, value: int) -> None:
        if name not in self._values:
            raise AttributeError(
                f"{type(self).__name__} has no counter {name!r}"
            )
        with self._lock:
            values = self._values
            delta = value - values[name]
            values[name] = value
        if delta > 0:
            cell = self._cells.get(name)
            if cell is not None and is_enabled():
                cell.inc(delta)

    def add(self, **deltas: int) -> None:
        """Atomically add *deltas* to the named counters.

        This is the thread-safe mutation path: ``stats.queries += 1`` is a
        read-modify-write spanning two attribute operations and can lose
        updates under concurrent workers, whereas one :meth:`add` call
        applies every delta under the instance lock.  All estimator and
        engine hot paths record through this method; the registry mirror
        is updated outside the lock (registry children have their own
        registry-wide lock, and the mirrored series are monotonic, so the
        order of mirror increments does not matter).
        """
        values = self._values
        with self._lock:
            for field, delta in deltas.items():
                if field not in values:
                    raise AttributeError(
                        f"{type(self).__name__} has no counter {field!r}"
                    )
                values[field] += delta
        if self._cells and is_enabled():
            cells = self._cells
            for field, delta in deltas.items():
                if delta > 0:
                    cells[field].inc(delta)

    def reset(self) -> None:
        """Zero this instance's counters in place.

        Only the per-engine view moves; the mirrored process-wide registry
        series stay monotonic (resetting an engine must never erase another
        engine's — or the process's — history).
        """
        with self._lock:
            values = self._values
            for field in self._FIELDS:
                values[field] = 0

    def as_dict(self) -> dict[str, int]:
        """Counter values as a plain ``{field: value}`` dict."""
        with self._lock:
            return dict(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={self._values[f]}" for f in self._FIELDS)
        return f"EstimatorStats({inner})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EstimatorStats):
            return self._values == other._values
        return NotImplemented


class AccuracyGauges:
    """Pre-resolved accuracy gauge children for one MC estimator.

    One instance per estimator (same lifetime pattern as the stats
    mirror); :meth:`update` refreshes ``engine_walk_count`` and
    ``engine_effective_walks`` after a batch — the gauges describe the
    *latest* batch, which is the operator-facing "how trustworthy was
    that answer" reading, not a lifetime aggregate.
    """

    __slots__ = ("_walks", "_effective")

    def __init__(self, estimator: str) -> None:
        self._walks = ENGINE_WALK_COUNT.labels(engine="mc", estimator=estimator)
        self._effective = ENGINE_EFFECTIVE_WALKS.labels(
            engine="mc", estimator=estimator
        )

    def update(self, num_walks: int, walks_met: int, pairs: int) -> None:
        if pairs <= 0 or not is_enabled():
            return
        self._walks.set(float(num_walks))
        self._effective.set(walks_met / pairs)


def semantic_gate(
    pos_u: int,
    positions: np.ndarray,
    sem_row: np.ndarray,
    theta: float | None,
    stats: EstimatorStats,
) -> tuple[np.ndarray, np.ndarray]:
    """Scores fixed before any walk is read, and the candidates left to score.

    Returns ``(scores, active)``: *scores* holds 1.0 for the query node
    itself and 0.0 elsewhere; *active* indexes the candidates that are
    neither the query nor cut by the Prop. 2.5 gate ``sem <= theta``.
    """
    scores = np.zeros(positions.size, dtype=np.float64)
    identity = positions == pos_u
    scores[identity] = 1.0
    if theta is not None:
        gated = (sem_row <= theta) & ~identity
        stats.add(sem_gate_hits=int(gated.sum()))
    else:
        gated = np.zeros(positions.size, dtype=bool)
    return scores, np.flatnonzero(~identity & ~gated)


def score_walks(
    walks: np.ndarray,
    row_u: int,
    rows: np.ndarray,
    meetings: np.ndarray,
    planes: Planes,
    *,
    decay: float,
    theta: float | None,
    stats: EstimatorStats,
    accuracy: AccuracyGauges,
) -> WalkScoreResult:
    """Algorithm 1's likelihood ratios for ``walks[row_u]`` against each row.

    The one MC SemSim scoring core: the estimator's scalar, interval and
    batch queries and the shard worker all call it.  *row_u* and *rows*
    are tensor rows and *meetings* their first-meeting steps
    (:func:`~repro.core.walk_index.first_meetings`); every candidate is
    already past the semantic gate.  Folds the kernel's work counters
    into *stats* and *accuracy*.
    """
    num_walks = meetings.shape[1]
    stats.add(walks_examined=int(rows.size) * num_walks)
    kernel = resolve_backend()
    request = WalkScoreRequest(
        walks=walks,
        pos_u=row_u,
        positions=rows,
        meetings=meetings,
        planes=planes,
        decay=decay,
        theta=theta,
    )
    with kernel_timer(kernel.name, "batch_walk_scores"):
        result = kernel.batch_walk_scores(request)
    stats.add(
        walks_met=result.walks_met,
        so_evaluations=result.so_evaluations,
        walks_pruned=result.walks_pruned,
    )
    accuracy.update(num_walks, result.walks_met, int(rows.size))
    return result


def score_simrank(
    meetings: np.ndarray,
    identity: np.ndarray,
    *,
    decay: float,
    stats: EstimatorStats,
    accuracy: AccuracyGauges,
) -> np.ndarray:
    """Classical MC SimRank ``sum(c^tau) / n_w`` per candidate row.

    *identity* marks candidates equal to the query node, which score 1.
    Shared by :meth:`MonteCarloSimRank.similarity_batch` and the shard
    worker.
    """
    m, num_walks = meetings.shape
    met = meetings >= 0
    met[identity] = False
    walks_met = int(met.sum())
    stats.add(
        walks_examined=int((~identity).sum()) * num_walks, walks_met=walks_met
    )
    accuracy.update(num_walks, walks_met, m)
    with kernel_timer(resolve_backend().name, "simrank_scores"):
        contrib = np.where(met, decay ** np.maximum(meetings, 0), 0.0)
        scores = contrib.sum(axis=1) / num_walks
    scores[identity] = 1.0
    return scores


class MonteCarloSimRank:
    """Classical MC SimRank over a :class:`WalkIndex` (Section 4.1)."""

    def __init__(self, walk_index: WalkIndex, decay: float = 0.6) -> None:
        self.walk_index = walk_index
        self.decay = validate_decay(decay)
        self.stats = EstimatorStats(method="mc", estimator="simrank")
        self._accuracy = AccuracyGauges("simrank")
        self._epoch = int(getattr(walk_index, "epoch", 0))

    def _check_epoch(self) -> None:
        current = int(getattr(self.walk_index, "epoch", 0))
        if current != self._epoch:
            raise StaleIndexError(self._epoch, current)

    def similarity(self, u: Node, v: Node) -> float:
        """Return the MC SimRank estimate ``(1/n_w) * sum c^tau``."""
        self._check_epoch()
        self.stats.add(queries=1)
        if u == v:
            return 1.0
        meetings = self.walk_index.first_meetings(u, v)
        met = meetings[meetings >= 0]
        self.stats.add(
            walks_examined=int(meetings.size), walks_met=int(met.size)
        )
        if met.size == 0:
            return 0.0
        return float(np.sum(self.decay ** met) / self.walk_index.num_walks)

    def similarity_batch(
        self, u: Node, candidates: Sequence[Node]
    ) -> np.ndarray:
        """Estimate ``sim(u, v)`` for every candidate in one numpy pass."""
        self._check_epoch()
        m = len(candidates)
        self.stats.add(
            batch_queries=1, batch_pairs=m, vectorized_pairs=m, queries=m
        )
        if m == 0:
            return np.empty(0, dtype=np.float64)
        index = self.walk_index
        meetings = index.first_meetings_batch(u, candidates)  # (m, n_w)
        positions = index.node_positions(candidates)
        return score_simrank(
            meetings,
            positions == index.node_position(u),
            decay=self.decay,
            stats=self.stats,
            accuracy=self._accuracy,
        )


class MonteCarloSemSim:
    """IS-based MC SemSim — Algorithm 1, with optional pruning and index.

    Parameters
    ----------
    walk_index:
        The shared per-node walk index (proposal ``Q``).
    measure:
        The semantic measure ``sem``.  A
        :class:`~repro.semantics.cache.MatrixMeasure` in index node order
        feeds the kernel from dense tables (the SO matrix and per-step
        ``W``/``Q`` tables, built once); any other measure is looked up
        per call, so memory stays bounded by the walk tensor.
    decay:
        The decay factor ``c``.
    theta:
        Pruning threshold; ``None`` disables pruning entirely (the unbiased
        estimator).  Lemma 4.7 wants ``theta <= 1 - c`` to keep pruned
        scores inside [0, 1]; we warn-by-exception only on clearly invalid
        values and leave the Lemma's recommendation to callers.
    pair_index:
        Optional :class:`repro.core.sling.SlingIndex`-compatible cache of
        the SARW step denominators ``SO(u, v)``; cuts the O(d²) inner loop
        for indexed pairs (the Fig. 4 "SLING" configuration).
    """

    def __init__(
        self,
        walk_index: WalkIndex,
        measure: SemanticMeasure,
        decay: float = 0.6,
        theta: float | None = 0.05,
        pair_index: "SupportsSoLookup | None" = None,
    ) -> None:
        self.walk_index = walk_index
        self.measure = measure
        self.decay = validate_decay(decay)
        self.theta = validate_theta(theta)
        self.pair_index = pair_index
        self.stats = EstimatorStats(method="mc", estimator="semsim")
        self._accuracy = AccuracyGauges("semsim")
        graph_index = walk_index.index
        self._nodes = graph_index.nodes
        self._in_lists = graph_index.in_lists
        self._in_weights = graph_index.in_weights
        # A MatrixMeasure whose node order matches the index feeds the
        # kernel from dense tables; any other measure from lookups.
        self._sem_matrix: np.ndarray | None = None
        if isinstance(measure, MatrixMeasure) and measure.nodes == list(self._nodes):
            self._sem_matrix = measure.matrix
        # Lazy tables: edge-weight keys for W/Q lookups and the dense SO
        # matrix (W sem Wᵀ).
        self._edge_keys: np.ndarray | None = None
        self._edge_weights: np.ndarray | None = None
        self._so_matrix: np.ndarray | None = None
        # Per-(node, walk, step) edge weight and proposal probability along
        # the stored walks, gathered once for a dense measure.
        self._step_weights: np.ndarray | None = None
        self._step_q: np.ndarray | None = None
        # Everything above snapshots the graph as of now; a later index
        # mutation invalidates it, detected via the epoch check below.
        self._epoch = int(getattr(walk_index, "epoch", 0))

    def _check_epoch(self) -> None:
        current = int(getattr(self.walk_index, "epoch", 0))
        if current != self._epoch:
            raise StaleIndexError(self._epoch, current)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def attach_precomputed(
        self,
        so_matrix: np.ndarray | None = None,
        step_weights: np.ndarray | None = None,
        step_q: np.ndarray | None = None,
    ) -> None:
        """Adopt preprocessing tables computed by a previous run.

        The artifact store's warm-start path hands back the exact arrays a
        cold build produced (typically as read-only memmaps), so queries
        against them are bit-identical to a fresh build while skipping the
        ``SO = W sem Wᵀ`` products and the per-step gathers entirely.
        Shapes are validated against this estimator's walk index; a table
        that does not fit raises :class:`ConfigurationError`.
        """
        n = len(self._nodes)
        steps_shape = (n, self.walk_index.num_walks, self.walk_index.length)
        if so_matrix is not None:
            if so_matrix.shape != (n, n):
                raise ConfigurationError(
                    f"precomputed SO matrix shape {so_matrix.shape} does not "
                    f"match {n} nodes"
                )
            self._so_matrix = so_matrix
        for name, table in (("step_weights", step_weights), ("step_q", step_q)):
            if table is not None and table.shape != steps_shape:
                raise ConfigurationError(
                    f"precomputed {name} shape {table.shape} does not match "
                    f"the walk tensor (expected {steps_shape})"
                )
        if step_weights is not None:
            self._step_weights = step_weights
        if step_q is not None:
            self._step_q = step_q

    def similarity(self, u: Node, v: Node) -> float:
        """Return the Algorithm-1 estimate of ``sim(u, v)``."""
        sem_uv, result = self._score_pair(u, v)
        if result is None:
            return sem_uv
        return sem_uv * float(result.totals[0]) / self.walk_index.num_walks

    def similarity_batch(
        self, u: Node, candidates: Sequence[Node]
    ) -> np.ndarray:
        """Estimate ``sim(u, v_i)`` for a whole candidate set in one pass.

        Each entry equals the per-candidate :meth:`similarity` bitwise:
        both run the same kernel, and a candidate's score reads only its
        own walks.
        """
        self._check_epoch()
        m = len(candidates)
        self.stats.add(batch_queries=1, batch_pairs=m)
        if m == 0:
            return np.empty(0, dtype=np.float64)
        self.stats.add(vectorized_pairs=m, queries=m)
        index = self.walk_index
        pos_u = index.node_position(u)
        positions = index.node_positions(candidates)
        if self._sem_matrix is not None:
            sem_row = self._sem_matrix[pos_u, positions]
        else:
            similarity = self.measure.similarity
            sem_row = np.array(
                [similarity(u, v) for v in candidates], dtype=np.float64
            )
        scores, active = semantic_gate(
            pos_u, positions, sem_row, self.theta, self.stats
        )
        if active.size:
            result = self._walk_scores(u, positions[active])
            scores[active] = sem_row[active] * result.totals / index.num_walks
        return scores

    def similarity_with_interval(
        self, u: Node, v: Node, z: float = 1.96
    ) -> tuple[float, float]:
        """Return ``(estimate, half_width)`` with an empirical CLT interval.

        The per-coupled-walk contributions are i.i.d. (the walk index pairs
        independent samples), so ``z * std / sqrt(n_w)`` scaled by
        ``sem(u, v)`` is the usual normal-approximation half-width.  For a
        distribution-free (much looser) alternative, combine the point
        estimate with :func:`repro.core.bounds.deviation_probability`.
        """
        sem_uv, result = self._score_pair(u, v)
        if result is None:
            return sem_uv, 0.0
        contributions = np.zeros(self.walk_index.num_walks)
        contributions[result.walk_ids] = result.walk_values
        estimate = sem_uv * float(contributions.mean())
        spread = float(contributions.std(ddof=1)) if contributions.size > 1 else 0.0
        half_width = sem_uv * z * spread / np.sqrt(self.walk_index.num_walks)
        return estimate, float(half_width)

    # ------------------------------------------------------------------
    # Internals — the scoring core
    # ------------------------------------------------------------------
    def _score_pair(self, u: Node, v: Node) -> tuple[float, WalkScoreResult | None]:
        """One pair as a batch of one, after the two early returns.

        Returns ``(value, None)`` for the query node itself (1.0) and for a
        pair cut by the semantic gate (0.0) — both decided before any
        array is built — else ``(sem(u, v), kernel result)``.
        """
        self._check_epoch()
        self.stats.add(queries=1)
        if u == v:
            return 1.0, None
        sem_uv = self.measure.similarity(u, v)
        if self.theta is not None and sem_uv <= self.theta:
            self.stats.add(sem_gate_hits=1)
            return 0.0, None
        return sem_uv, self._walk_scores(u, self.walk_index.node_positions([v]))

    def _walk_scores(self, u: Node, positions: np.ndarray) -> WalkScoreResult:
        """The kernel over ``u``'s coupled walks with each ungated candidate."""
        index = self.walk_index
        return score_walks(
            index.walks,
            index.node_position(u),
            positions,
            index.first_meetings_batch(u, positions),
            self._planes(),
            decay=self.decay,
            theta=self.theta,
            stats=self.stats,
            accuracy=self._accuracy,
        )

    def _planes(self) -> Planes:
        """The kernel's input source, chosen by the measure this estimator holds."""
        if self._sem_matrix is None:
            return _LazyPlanes(self)
        self._ensure_step_tables()
        if self.pair_index is None:
            self._ensure_so_matrix()
            return DensePlanes(
                self._sem_matrix, self._step_weights, self._step_q,
                so_matrix=self._so_matrix,
            )
        # _so_denominator consults the pair_index and counts misses
        return DensePlanes(
            self._sem_matrix, self._step_weights, self._step_q,
            so_lookup=self._so_denominator,
        )

    def _so_denominator(self, pos_u: int, pos_v: int) -> float:
        """``SO(u, v)``, counting fresh evaluations into the stats."""
        value, fresh = self._so_value(pos_u, pos_v)
        if fresh:
            self.stats.add(so_evaluations=fresh)
        return value

    def _so_value(self, pos_u: int, pos_v: int) -> tuple[float, int]:
        """``SO(u, v) = sum_{a,b} W(a,u) W(b,v) sem(a,b)`` — the O(d²) core.

        Returns ``(value, fresh)`` where *fresh* is 1 when the denominator
        was computed from scratch and 0 on a ``pair_index`` hit; callers
        own the ``so_evaluations`` bookkeeping.
        """
        if self.pair_index is not None:
            cached = self.pair_index.so_lookup(pos_u, pos_v)
            if cached is not None:
                return cached, 0
        if self._sem_matrix is not None:
            self._ensure_so_matrix()
            return float(self._so_matrix[pos_u, pos_v]), 1
        neighbours_u = self._in_lists[pos_u]
        neighbours_v = self._in_lists[pos_v]
        weights_u = self._in_weights[pos_u]
        weights_v = self._in_weights[pos_v]
        total = 0.0
        nodes = self._nodes
        similarity = self.measure.similarity
        for a, wa in zip(neighbours_u, weights_u):
            node_a = nodes[int(a)]
            for b, wb in zip(neighbours_v, weights_v):
                total += wa * wb * similarity(node_a, nodes[int(b)])
        return float(total), 1

    # ------------------------------------------------------------------
    # Internals — dense tables
    # ------------------------------------------------------------------
    def _ensure_so_matrix(self) -> None:
        """Materialise all SO denominators at once: ``SO = W sem Wᵀ``.

        ``W`` is the sparse in-weight matrix (``W[v, a] = W(a, v)``), so the
        build costs O(nnz · n) — negligible next to the n² semantic matrix
        that gates this path.
        """
        if self._so_matrix is not None or self._sem_matrix is None:
            return
        n = len(self._nodes)
        rows = np.concatenate(
            [np.full(self._in_lists[v].size, v, dtype=np.int64) for v in range(n)]
            or [np.empty(0, dtype=np.int64)]
        )
        cols = (
            np.concatenate([lst for lst in self._in_lists])
            if n
            else np.empty(0, dtype=np.int64)
        )
        data = (
            np.concatenate([w for w in self._in_weights])
            if n
            else np.empty(0, dtype=np.float64)
        )
        weight_matrix = sp.csr_matrix(
            (data.astype(np.float64), (rows, cols.astype(np.int64))), shape=(n, n)
        )
        left = np.asarray(weight_matrix @ self._sem_matrix)          # W sem
        self._so_matrix = np.asarray(weight_matrix @ left.T).T       # W sem Wᵀ

    def _ensure_step_tables(self) -> None:
        """Precompute ``W`` and ``Q`` for every stored walk step.

        ``_step_weights[v, w, s]`` is the edge weight of walk *w* of node
        *v* at step *s* (0 where the walk has ended) and ``_step_q`` the
        matching proposal probability.  Values are produced by the exact
        same lookups the per-query path used, so gathering from these
        tables is bit-identical to recomputing them.
        """
        if self._step_weights is not None:
            return
        weights, q = self._step_rows(self.walk_index.walks)
        # ``_step_weights`` is the "built" flag readers test: publish last.
        self._step_q = q
        self._step_weights = weights

    def derive_step_tables(
        self, parent: "MonteCarloSemSim", touched: np.ndarray | None
    ) -> int | None:
        """Carry *parent*'s step tables forward, recomputing *touched* rows.

        *parent* is the estimator of the generation this one was mutated
        from and *touched* the ``(num_nodes, num_walks)`` mask of walks
        whose path or step inputs may differ since
        (:meth:`repro.core.dynamic.DynamicWalkIndex.take_touched_walks`).
        Every other row is copied: its path and its ``W``/``Q`` inputs are
        unchanged, and the touched rows go through the same elementwise
        :meth:`_step_rows` arithmetic as a full build, so the result is
        bitwise what :meth:`_ensure_step_tables` would produce — at the
        cost of the touched walks instead of the whole tensor.

        The parent's arrays (possibly read-only memmaps) are never written.
        Returns the number of rows recomputed, or ``None`` (tables left to
        the lazy full build) when the parent never built its tables or
        *touched* is ``None`` (the tensor grew).
        """
        parent_weights, parent_q = parent._step_weights, parent._step_q
        if touched is None or parent_weights is None or parent_q is None:
            return None
        node_ids, walk_ids = np.nonzero(touched)
        if node_ids.size == 0:
            # Nothing moved: share the parent's (never written) arrays.
            self._step_q, self._step_weights = parent_q, parent_weights
            return 0
        weights = np.array(parent_weights, copy=True)
        q = np.array(parent_q, copy=True)
        weights[node_ids, walk_ids], q[node_ids, walk_ids] = self._step_rows(
            self.walk_index.walks[node_ids, walk_ids]
        )
        self._step_q, self._step_weights = q, weights
        return int(node_ids.size)

    def _step_rows(self, walks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(W, Q)`` per step of *walks* (``(..., length + 1)`` node ids).

        Purely elementwise, so a subset of rows yields bitwise the same
        values as the full tensor.
        """
        current = walks[..., :-1].astype(np.int64)
        nxt = walks[..., 1:].astype(np.int64)
        valid = (current >= 0) & (nxt >= 0)
        cur0 = np.where(valid, current, 0)
        nxt0 = np.where(valid, nxt, 0)
        weights = self._edge_weight_lookup(cur0, nxt0)
        q = self._q_probability_lookup(cur0, weights)
        return np.where(valid, weights, 0.0), np.where(valid, q, 0.0)

    def _ensure_edge_tables(self) -> None:
        """Build the sorted ``(current, next) -> W(next, current)`` table.

        Edge weights are keyed by ``current * n + next`` into one globally
        sorted int64 array, so looking up the weight of every step of every
        stacked walk is a single ``searchsorted``.
        """
        if self._edge_keys is not None:
            return
        n = len(self._nodes)
        keys = []
        weights = []
        for v in range(n):
            neighbours = self._in_lists[v]
            if neighbours.size:
                keys.append(v * np.int64(n) + neighbours.astype(np.int64))
                weights.append(self._in_weights[v].astype(np.float64))
        if keys:
            all_keys = np.concatenate(keys)
            all_weights = np.concatenate(weights)
            order = np.argsort(all_keys)
            # ``_edge_keys`` is the "built" flag readers test: publish last.
            self._edge_weights = all_weights[order]
            self._edge_keys = all_keys[order]
        else:
            self._edge_weights = np.empty(0, dtype=np.float64)
            self._edge_keys = np.empty(0, dtype=np.int64)

    def _edge_weight_lookup(self, current: np.ndarray, chosen: np.ndarray) -> np.ndarray:
        """Vectorised ``W(chosen, current)`` for aligned index arrays."""
        self._ensure_edge_tables()
        n = len(self._nodes)
        queries = current.astype(np.int64) * np.int64(n) + chosen.astype(np.int64)
        position = np.searchsorted(self._edge_keys, queries)
        position = np.minimum(position, max(self._edge_keys.size - 1, 0))
        hit = (
            self._edge_keys[position] == queries
            if self._edge_keys.size
            else np.zeros(queries.shape, dtype=bool)
        )
        return np.where(hit, self._edge_weights[position], 0.0)

    def _q_probability_lookup(
        self, current: np.ndarray, edge_weight: np.ndarray
    ) -> np.ndarray:
        """Vectorised ``Q[current -> chosen]`` (edge weight already known)."""
        tables = self.walk_index.tables
        degrees = tables.degrees[current]
        if self.walk_index.policy is WalkPolicy.UNIFORM:
            with np.errstate(divide="ignore"):
                return np.where(degrees > 0, 1.0 / degrees, 0.0)
        sums = tables.weight_sums[current]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(sums > 0, edge_weight / sums, 0.0)


class _LazyPlanes:
    """Kernel planes for a measure that is not materialised.

    ``sem`` and ``SO`` are looked up per call (each distinct pair once,
    through ``measure.similarity`` and :meth:`MonteCarloSemSim._so_value`)
    and ``W``/``Q`` are computed for the met walks only, so no n·n or
    n·n_w·L table is ever allocated.
    """

    __slots__ = ("_estimator",)

    def __init__(self, estimator: MonteCarloSemSim) -> None:
        self._estimator = estimator

    def sem(self, nu, nv, active):
        estimator = self._estimator
        nodes = estimator._nodes
        similarity = estimator.measure.similarity
        return lookup_plane(
            nu, nv, active, len(nodes),
            lambda a, b: similarity(nodes[a], nodes[b]),
        )

    def so(self, cu, cv, active):
        estimator = self._estimator
        # _so_denominator counts its fresh evaluations into the stats
        return lookup_plane(
            cu, cv, active, len(estimator._nodes), estimator._so_denominator
        ), 0

    def steps(self, row_u, rows_v, rows_walk, walk_u, walk_v, max_k):
        w_u, q_u = self._estimator._step_rows(walk_u)
        w_v, q_v = self._estimator._step_rows(walk_v)
        return w_u, w_v, q_u, q_v


class SupportsSoLookup:
    """Protocol-ish base: anything with ``so_lookup(pos_u, pos_v)``."""

    def so_lookup(self, pos_u: int, pos_v: int) -> float | None:  # pragma: no cover
        """Return the cached ``SO`` denominator or ``None`` on a miss."""
        raise NotImplementedError

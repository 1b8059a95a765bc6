"""Linearized single-source SemSim: one row as a sparse local linear system.

The dense engines answer a single-source query by solving for the whole
N×N table first.  This solver instead rewrites the fixed point through
the paper's surfer-pair identity (Theorem 3.3)

    ``SemSim(u, v) = sem(u, v) · h(u, v)``,    ``h = c · T h``

with ``h = 1`` on singleton states ``(w, w)`` and ``T`` the
semantic-aware pair transition whose mass from ``(u, v)`` to ``(a, b)``
is ``W(a, u) · W(b, v) · sem(a, b)``, row-normalized (exactly the
formulation :mod:`repro.core.pair_engine` materialises globally).  For
one query row only the pair states *reachable* from the seed states
``{(q, v)}`` matter, and the decay caps how far reachability matters:

* **horizon** — states first reached after ``T = series_terms(c, tol/2)``
  steps contribute at most the geometric tail ``c^{T+1}/(1-c)`` to any
  seed value, so breadth-first discovery stops there;
* **residual stop** — the Jacobi update ``h ← c · (T h)`` is a
  ``c``-contraction in the sup norm, so
  ``‖h* − h_k‖∞ ≤ c/(1−c) · ‖h_k − h_{k−1}‖∞`` and iteration stops when
  that bound drops under ``tol/2``;
* **declared bound** — every solve reports
  ``residual_bound = tail + contraction`` in its
  :class:`LinearSolveReport`; the property suite holds the solver to it
  against the dense iterative oracle.

Pair states are canonicalised to ``(min, max)`` — ``h`` is symmetric
under swapping because the transition mass from ``(u, v)`` to ``(a, b)``
equals the mass from ``(v, u)`` to ``(b, a)`` — which halves the state
space.  Memory is O(discovered states); ``max_states`` turns the
pathological dense-neighbourhood blow-up into a clear
:class:`~repro.errors.ConfigurationError` instead of an OOM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.backends import kernel_timer
from repro.core.metrics import ENGINE_FINAL_RESIDUAL
from repro.core.montecarlo import EstimatorStats
from repro.core.params import validate_decay, validate_theta
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.hin.graph import HIN, GraphIndex, Node
from repro.linear.metrics import (
    LINEAR_PAIR_STATES,
    LINEAR_RESIDUAL,
    LINEAR_SOLVE_ITERATIONS,
)
from repro.linear.series import series_tail, series_terms
from repro.obs.registry import is_enabled
from repro.semantics.base import SemanticMeasure
from repro.semantics.cache import MatrixMeasure

DEFAULT_TOLERANCE = 1e-7
DEFAULT_MAX_STATES = 2_000_000


@dataclass(slots=True)
class LinearSolveReport:
    """Accuracy accounting of one linearized single-source solve."""

    states: int
    depth: int
    iterations: int
    contraction: float
    tail: float
    converged: bool

    @property
    def residual_bound(self) -> float:
        """Provable sup-norm bound on ``|score − exact fixed point|``."""
        return self.contraction + self.tail


class LinearSemSim:
    """Per-query linearized SemSim solver over lazily discovered pair states.

    Drop-in estimator interface (``similarity`` / ``similarity_batch`` /
    ``single_source``) matching the MC estimators, exact up to the
    declared ``residual_bound`` of each solve.  With ``measure=None`` the
    solver computes classic *unweighted* SimRank (``sem ≡ 1``, uniform
    edge mass), mirroring the dense engines' convention.
    """

    method = "linear"

    def __init__(
        self,
        graph: HIN,
        measure: SemanticMeasure | None = None,
        *,
        decay: float = 0.6,
        theta: float | None = None,
        tolerance: float | None = None,
        max_iterations: int | None = None,
        max_states: int | None = None,
        _index: GraphIndex | None = None,
    ) -> None:
        self.graph = graph
        self.measure = measure
        self.decay = validate_decay(decay)
        self.theta = validate_theta(theta)
        self.tolerance = (
            DEFAULT_TOLERANCE if tolerance is None else float(tolerance)
        )
        if self.tolerance <= 0.0:
            raise ConfigurationError(
                f"tolerance must be positive, got {self.tolerance}"
            )
        if max_iterations is not None and int(max_iterations) < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        self.max_iterations = (
            None if max_iterations is None else int(max_iterations)
        )
        self.max_states = (
            DEFAULT_MAX_STATES if max_states is None else int(max_states)
        )
        if self.max_states < 1:
            raise ConfigurationError(
                f"max_states must be >= 1, got {self.max_states}"
            )
        self.index = _index if _index is not None else GraphIndex.from_graph(graph)
        self._n = self.index.num_nodes
        if measure is None:
            self._in_weights = [
                np.ones(lst.size, dtype=np.float64)
                for lst in self.index.in_lists
            ]
        else:
            self._in_weights = [
                np.asarray(w, dtype=np.float64) for w in self.index.in_weights
            ]
        self._sem_matrix: np.ndarray | None = None
        if isinstance(measure, MatrixMeasure) and list(measure.nodes) == list(
            self.index.nodes
        ):
            self._sem_matrix = np.asarray(measure.matrix, dtype=np.float64)
        self._sem_memo: dict[int, float] = {}
        # Half the budget buys the horizon, half the iteration stop.
        self.depth = series_terms(self.decay, self.tolerance / 2.0)
        self.stats = EstimatorStats(method="linear", estimator="linear")
        self.last_report: LinearSolveReport | None = None

    # -- semantics ---------------------------------------------------------

    def _sem_values(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """``sem(nodes[a], nodes[b])`` per position, memoised when scalar."""
        if self.measure is None:
            return np.ones(a_ids.size, dtype=np.float64)
        if self._sem_matrix is not None:
            return self._sem_matrix[a_ids, b_ids]
        out = np.empty(a_ids.size, dtype=np.float64)
        n = self._n
        nodes = self.index.nodes
        memo = self._sem_memo
        for pos in range(a_ids.size):
            a = int(a_ids[pos])
            b = int(b_ids[pos])
            if a == b:
                out[pos] = 1.0
                continue
            key = (a * n + b) if a < b else (b * n + a)
            value = memo.get(key)
            if value is None:
                value = float(self.measure.similarity(nodes[a], nodes[b]))
                memo[key] = value
            out[pos] = value
        return out

    # -- public estimator surface -----------------------------------------

    def similarity(self, u: Node, v: Node) -> float:
        """SemSim score of one pair, solved through the query-``u`` row."""
        value = float(self.similarity_batch(u, [v])[0])
        return value

    def similarity_batch(self, u: Node, candidates) -> np.ndarray:
        """Score *u* against *candidates* with one local pair-system solve."""
        candidates = list(candidates)
        scores = self._solve_row(u, candidates)
        self.stats.add(
            queries=len(candidates),
            batch_queries=1,
            batch_pairs=len(candidates),
        )
        return scores

    def single_source(self, u: Node) -> dict[Node, float]:
        """The full similarity row of *u*, as ``{node: score}``."""
        scores = self._solve_row(u, None)
        self.stats.add(
            queries=self._n, batch_queries=1, batch_pairs=self._n
        )
        return dict(zip(self.index.nodes, scores.tolist()))

    # -- the solve ---------------------------------------------------------

    def _resolve(self, node: Node) -> int:
        try:
            return self.index.position[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def _solve_row(self, u: Node, candidates) -> np.ndarray:
        query = self._resolve(u)
        if candidates is None:
            cand_ids = np.arange(self._n, dtype=np.int64)
        else:
            cand_ids = np.fromiter(
                (self._resolve(v) for v in candidates),
                dtype=np.int64,
                count=len(candidates),
            )
        with kernel_timer("linear", "pair_solve"):
            scores, report = self._solve(query, cand_ids)
        self.last_report = report
        if is_enabled():
            LINEAR_SOLVE_ITERATIONS.inc(report.iterations)
            LINEAR_RESIDUAL.set(report.residual_bound)
            LINEAR_PAIR_STATES.observe(report.states)
            ENGINE_FINAL_RESIDUAL.labels(engine="linear").set(
                report.residual_bound
            )
        return scores

    def _solve(
        self, query: int, cand_ids: np.ndarray
    ) -> tuple[np.ndarray, LinearSolveReport]:
        n = self._n
        sem_q = self._sem_values(
            np.full(cand_ids.size, query, dtype=np.int64), cand_ids
        )
        identity = cand_ids == query
        if self.theta is not None:
            gated = (sem_q <= self.theta) & ~identity
        else:
            gated = np.zeros(cand_ids.size, dtype=bool)
        gate_hits = int(np.count_nonzero(gated))
        if gate_hits:
            self.stats.add(sem_gate_hits=gate_hits)

        # Seed the system with the canonical states of the ungated,
        # non-identity query pairs.
        state_index: dict[int, int] = {}
        order: list[int] = []

        seed_keys = np.empty(cand_ids.size, dtype=np.int64)
        frontier: list[int] = []
        for pos in range(cand_ids.size):
            if gated[pos] or identity[pos]:
                seed_keys[pos] = -1
                continue
            v = int(cand_ids[pos])
            lo, hi = (query, v) if query < v else (v, query)
            key = lo * n + hi
            seed_keys[pos] = key
            if key not in state_index:
                idx = len(order)
                state_index[key] = idx
                order.append(key)
                frontier.append(idx)

        rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        depth_used = 0
        truncated = False
        for depth in range(self.depth):
            if not frontier:
                break
            depth_used = depth + 1
            next_frontier: list[int] = []
            for idx in frontier:
                key = order[idx]
                lo, hi = divmod(key, n)
                if lo == hi:
                    continue  # singleton: pinned h = 1, no outgoing row
                row = self._expand(
                    lo, hi, state_index, order, next_frontier
                )
                if row is not None:
                    rows[idx] = row
            if len(state_index) > self.max_states:
                raise ConfigurationError(
                    f"linearized solve for node id {query} discovered "
                    f"{len(state_index)} pair states, over the "
                    f"max_states={self.max_states} memory guard; raise the "
                    "budget via QueryEngine(estimator='linear', "
                    "max_states=...), loosen tolerance, or use the mc or "
                    "lowrank estimator for this graph"
                )
            frontier = next_frontier
        if frontier:
            # States at the horizon keep h = 0: their true value is
            # bounded by the geometric tail, which we charge to the bound.
            truncated = True

        m = len(order)
        singleton = np.fromiter(
            ((key // n) == (key % n) for key in order),
            dtype=bool,
            count=m,
        )
        h = singleton.astype(np.float64)
        iterations = 0
        contraction = 0.0
        converged = True
        if m and not bool(singleton.all()):
            transition = self._assemble(rows, m)
            factor = self.decay / (1.0 - self.decay)
            budget = (
                self.max_iterations
                if self.max_iterations is not None
                else self.depth + 16
            )
            converged = False
            for _ in range(budget):
                updated = self.decay * (transition @ h)
                updated[singleton] = 1.0
                delta = float(np.max(np.abs(updated - h)))
                h = updated
                iterations += 1
                contraction = factor * delta
                if contraction <= self.tolerance / 2.0:
                    converged = True
                    break

        tail = series_tail(self.decay, depth_used) if truncated else 0.0
        report = LinearSolveReport(
            states=m,
            depth=depth_used,
            iterations=iterations,
            contraction=contraction,
            tail=tail,
            converged=converged,
        )

        scores = np.zeros(cand_ids.size, dtype=np.float64)
        for pos in range(cand_ids.size):
            if identity[pos]:
                scores[pos] = 1.0
            elif seed_keys[pos] >= 0:
                value = sem_q[pos] * h[state_index[int(seed_keys[pos])]]
                scores[pos] = min(1.0, max(0.0, float(value)))
        return scores, report

    def _expand(
        self,
        lo: int,
        hi: int,
        state_index: dict[int, int],
        order: list[int],
        next_frontier: list[int],
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Build the normalized transition row of pair state ``(lo, hi)``."""
        src_a = self.index.in_lists[lo]
        src_b = self.index.in_lists[hi]
        if not src_a.size or not src_b.size:
            return None  # empty in-neighbourhood: h(lo, hi) = 0 exactly
        w_a = self._in_weights[lo]
        w_b = self._in_weights[hi]
        a_ids = np.repeat(src_a, src_b.size)
        b_ids = np.tile(src_b, src_a.size)
        mass = np.repeat(w_a, src_b.size) * np.tile(w_b, src_a.size)
        mass = mass * self._sem_values(a_ids, b_ids)
        total = float(mass.sum())
        if total <= 0.0:
            return None
        lo_t = np.minimum(a_ids, b_ids)
        hi_t = np.maximum(a_ids, b_ids)
        keys = lo_t * self._n + hi_t
        uniq, inverse = np.unique(keys, return_inverse=True)
        probs = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(probs, inverse, mass)
        probs /= total
        columns = np.empty(uniq.size, dtype=np.int64)
        for pos in range(uniq.size):
            key = int(uniq[pos])
            idx = state_index.get(key)
            if idx is None:
                idx = len(order)
                state_index[key] = idx
                order.append(key)
                next_frontier.append(idx)
            columns[pos] = idx
        return columns, probs

    def _assemble(
        self, rows: dict[int, tuple[np.ndarray, np.ndarray]], m: int
    ) -> sp.csr_matrix:
        indptr = np.zeros(m + 1, dtype=np.int64)
        chunks_idx: list[np.ndarray] = []
        chunks_dat: list[np.ndarray] = []
        for i in range(m):
            row = rows.get(i)
            if row is not None:
                columns, probs = row
                indptr[i + 1] = indptr[i] + columns.size
                chunks_idx.append(columns)
                chunks_dat.append(probs)
            else:
                indptr[i + 1] = indptr[i]
        indices = (
            np.concatenate(chunks_idx)
            if chunks_idx
            else np.empty(0, dtype=np.int64)
        )
        data = (
            np.concatenate(chunks_dat)
            if chunks_dat
            else np.empty(0, dtype=np.float64)
        )
        return sp.csr_matrix((data, indices, indptr), shape=(m, m))

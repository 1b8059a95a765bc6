"""One shard's half of the scatter-gather protocol.

A shard worker owns the candidate-side slice of the walk index for one
contiguous node range ``[lo, hi)`` (see :mod:`repro.store.sharding`) and
answers four operations over a duplex pipe: ``batch`` (scores for
candidate positions it owns), ``topk`` (its range's exact local top-k),
``health`` and ``stats`` (a mergeable snapshot of the worker process's
metrics registry — see :mod:`repro.obs.aggregate` — which the router
folds under a ``shard`` label so ``/metrics`` shows the whole process
tree).  A forked worker inherits the router's registry *values* at fork
time, so :func:`shard_worker_main` captures a baseline snapshot first
and ``stats`` replies carry the pruned since-startup delta: only what
this worker actually did, never re-reports of parent samples (which
would double-count and collide with the router's own ``shard`` labels).  :func:`shard_worker_main` is the process entry point —
it opens the shard artifact **by path** inside the child, so nothing
unpicklable crosses the fork/spawn boundary — and
:func:`serve_connection` is the loop itself, also runnable on a plain
thread, which is how the identity tests drive the very same code
in-process and deterministically.

Bit-identity
------------
:class:`ShardEngine` scores through the estimator's own core: the same
:func:`~repro.core.montecarlo.semantic_gate` on global positions, the
same :func:`~repro.core.walk_index.first_meetings` and
:func:`~repro.core.montecarlo.score_walks` on tensor rows.  Per-candidate
scores never depend on which other candidates share the batch (each
row's factor chain and reduction read only that row), so scattering a
batch across shards and gathering the pieces reproduces the unsharded
floats exactly — the property suite in
``tests/properties/test_shard_identity.py`` holds this to ``==``.

Source rows
-----------
The shard stores only its own node range, but a query's *source* ``u``
can be any node.  The walk tensor and step tables are therefore
allocated with a few spare **slot rows** past the shard's range; the
router ships ``(walks[u], W[u], Q[u])`` read from the parent artifact's
mmap, the worker parks them in a slot (one per worker thread) and points
the kernel's source row at it.  The kernel keeps no state between
calls, so rewriting a slot row in place is safe.  Shipped rows are cached
in a :class:`SourceRowLRU` that the router mirrors move-for-move, so
repeated hot-source requests cost no pipe bytes after the first.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.backends import DensePlanes
from repro.core.montecarlo import (
    AccuracyGauges,
    EstimatorStats,
    score_simrank,
    score_walks,
    semantic_gate,
)
from repro.core.topk import top_k_similar
from repro.core.walk_index import first_meetings
from repro.hin.io import hin_from_dict
from repro.obs.aggregate import collect_snapshot, snapshot_diff
from repro.obs.trace import span, trace_scope
from repro.semantics.cache import MatrixMeasure
from repro.store.artifacts import StoreError, read_artifact

OP_BATCH = "batch"
OP_TOPK = "topk"
OP_HEALTH = "health"
OP_STATS = "stats"
OP_SHUTDOWN = "shutdown"

#: The ops a ``shard.handle`` span may carry as its ``op`` label — anything
#: else is folded to ``other`` so a bad message cannot explode cardinality.
_SPAN_OPS = frozenset({OP_BATCH, OP_TOPK, OP_HEALTH, OP_STATS})

#: Source-row cache entries kept per shard connection (router mirrors this).
DEFAULT_SOURCE_CACHE = 64


class SourceRowLRU:
    """Deterministic LRU mirrored on both ends of a shard connection.

    The router and the worker run the *same* ``admit()`` sequence (the
    pipe serialises requests), so "does the worker already hold the rows
    for source ``u``?" is answerable router-side without a round trip.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(1, int(capacity))
        self._entries: OrderedDict = OrderedDict()

    def admit(self, key, value=None):
        """Touch *key*; insert *value* when absent.

        Returns ``(was_present, stored_value)`` — eviction of the least
        recently used entry happens on insert, identically on both
        mirrors.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            return True, self._entries[key]
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False, value

    def __len__(self) -> int:
        return len(self._entries)


class ShardEngine:
    """Scoring over one node range of a sharded MC walk index.

    Runs the estimator's scoring core on the shard's slice; every public
    method takes **global** node positions and answers only for
    candidates inside ``[lo, hi)``.
    """

    def __init__(
        self,
        *,
        shard_index: int,
        lo: int,
        hi: int,
        walks: np.ndarray,
        step_weights: np.ndarray | None,
        step_q: np.ndarray | None,
        sem_matrix: np.ndarray | None,
        so_matrix: np.ndarray | None,
        nodes: list,
        decay: float,
        theta: float | None,
        num_walks: int,
        slots: int,
        source_cache: int = DEFAULT_SOURCE_CACHE,
    ) -> None:
        self.shard_index = shard_index
        self.lo = lo
        self.hi = hi
        self.count = hi - lo
        self.slots = max(1, int(slots))
        self.decay = decay
        self.theta = theta
        self.num_walks = num_walks
        self.nodes = nodes
        self.position = {node: index for index, node in enumerate(nodes)}
        self.source_rows = SourceRowLRU(source_cache)
        self.semantic = sem_matrix is not None
        self.stats = EstimatorStats(
            method="mc",
            estimator="semsim-shard" if self.semantic else "simrank-shard",
        )
        self._accuracy = AccuracyGauges(
            "semsim-shard" if self.semantic else "simrank-shard"
        )
        #: Registry snapshot taken before this worker did any work of its
        #: own (set by :func:`shard_worker_main`); ``stats`` replies carry
        #: the pruned delta against it so fork-inherited samples are never
        #: re-reported.  ``None`` means "reply with the full snapshot".
        self.stats_baseline: dict | None = None
        # The kernel wants source and candidate rows in ONE tensor: rows
        # [0, count) are the shard's slice, rows [count, count + slots)
        # are per-thread parking spots for shipped source rows.
        self._walks = self._with_slots(walks)
        self._step_weights = self._with_slots(step_weights)
        self._step_q = self._with_slots(step_q)
        self._sem_matrix = sem_matrix
        self._planes = (
            DensePlanes(
                sem_matrix, self._step_weights, self._step_q,
                so_matrix=so_matrix,
            )
            if sem_matrix is not None
            else None
        )
        self._measure = (
            MatrixMeasure(nodes, sem_matrix) if sem_matrix is not None else None
        )

    def _with_slots(self, source: np.ndarray | None) -> np.ndarray | None:
        if source is None:
            return None
        extended = np.empty(
            (self.count + self.slots,) + source.shape[1:], dtype=source.dtype
        )
        extended[: self.count] = source
        return extended

    @classmethod
    def open(
        cls,
        path: "str | Path",
        *,
        slots: int = 1,
        source_cache: int = DEFAULT_SOURCE_CACHE,
    ) -> "ShardEngine":
        """Open a shard artifact written by ``write_shard_artifacts``."""
        artifact = read_artifact(Path(path))
        shard = artifact.manifest.get("shard")
        if not isinstance(shard, dict):
            raise StoreError(
                f"artifact at {path} carries no shard metadata — build one "
                "with `repro index shard`"
            )
        params = artifact.meta.get("params", {})
        graph = hin_from_dict(artifact.documents["graph"])
        return cls(
            shard_index=int(shard["index"]),
            lo=int(shard["lo"]),
            hi=int(shard["hi"]),
            walks=artifact.arrays["walks"],
            step_weights=artifact.arrays.get("step_weights"),
            step_q=artifact.arrays.get("step_q"),
            sem_matrix=artifact.arrays.get("sem_matrix"),
            so_matrix=artifact.arrays.get("so_matrix"),
            nodes=list(graph.nodes()),
            decay=float(params["decay"]),
            theta=None if params.get("theta") is None else float(params["theta"]),
            num_walks=int(params["num_walks"]),
            slots=slots,
            source_cache=source_cache,
        )

    # ------------------------------------------------------------------
    # Source-row handling
    # ------------------------------------------------------------------
    def owns(self, position: int) -> bool:
        return self.lo <= position < self.hi

    def _resolve_source(self, pos_u: int, u_rows, slot: int) -> int:
        """Row index of the source inside the extended tensors."""
        if self.owns(pos_u):
            return pos_u - self.lo
        if u_rows is None:
            raise StoreError(
                f"shard {self.shard_index} received source position {pos_u} "
                "outside its range with no shipped rows and no cache entry"
            )
        row = self.count + slot
        walk_row, weight_row, q_row = u_rows
        self._walks[row] = walk_row
        if self._step_weights is not None:
            self._step_weights[row] = weight_row
            self._step_q[row] = q_row
        return row

    # ------------------------------------------------------------------
    # Scoring — the estimator's core on the shard's rows
    # ------------------------------------------------------------------
    def score_positions(
        self,
        pos_u: int,
        positions: np.ndarray,
        u_rows=None,
        slot: int = 0,
    ) -> np.ndarray:
        """Scores for global candidate *positions*, all within this range."""
        positions = np.asarray(positions, dtype=np.int64)
        m = positions.size
        self.stats.add(batch_queries=1, batch_pairs=m)
        if m == 0:
            return np.empty(0, dtype=np.float64)
        self.stats.add(vectorized_pairs=m, queries=m)
        if not self.semantic:
            row_u = self._resolve_source(pos_u, u_rows, slot)
            return score_simrank(
                first_meetings(self._walks, row_u, positions - self.lo),
                positions == pos_u,
                decay=self.decay,
                stats=self.stats,
                accuracy=self._accuracy,
            )
        # gate and sem on global positions; walks on tensor rows
        sem_row = self._sem_matrix[pos_u, positions]
        scores, active = semantic_gate(
            pos_u, positions, sem_row, self.theta, self.stats
        )
        if active.size == 0:
            return scores
        row_u = self._resolve_source(pos_u, u_rows, slot)
        rows = positions[active] - self.lo
        result = score_walks(
            self._walks,
            row_u,
            rows,
            first_meetings(self._walks, row_u, rows),
            self._planes,
            decay=self.decay,
            theta=self.theta,
            stats=self.stats,
            accuracy=self._accuracy,
        )
        scores[active] = sem_row[active] * result.totals / self.num_walks
        return scores

    # ------------------------------------------------------------------
    # Local top-k — QueryEngine.top_k restricted to this shard's range
    # ------------------------------------------------------------------
    def top_k_positions(
        self,
        pos_u: int,
        k: int,
        positions: np.ndarray | None = None,
        u_rows=None,
        slot: int = 0,
        use_semantic_bound: bool = True,
        batch_size: int = 256,
    ) -> list[tuple[int, float]]:
        """Exact local top-k as ``(global_position, score)`` pairs.

        Runs :func:`~repro.core.topk.top_k_similar` with the same bound
        construction and the same ``(value, str(node))`` comparator as
        the unsharded engine — the merge in
        :class:`~repro.sched.sharded.ShardedRuntime` relies on the local
        lists being exact under that total order.
        """
        if positions is None:
            positions = np.arange(self.lo, self.hi, dtype=np.int64)
        else:
            positions = np.asarray(positions, dtype=np.int64)
        query = self.nodes[pos_u]
        candidates = [self.nodes[int(position)] for position in positions]
        sem_bounds = None
        if use_semantic_bound and self._measure is not None:
            sem_bounds = dict(
                zip(candidates, self._measure.similarities(query, candidates))
            )

        def batch_score(u_node, block):
            block_positions = np.fromiter(
                (self.position[node] for node in block),
                dtype=np.int64,
                count=len(block),
            )
            return self.score_positions(
                pos_u, block_positions, u_rows=u_rows, slot=slot
            )

        ranked = top_k_similar(
            query,
            candidates,
            k,
            measure=self._measure,
            use_semantic_bound=use_semantic_bound,
            batch_score=batch_score,
            batch_size=batch_size,
            sem_bounds=sem_bounds,
        )
        return [(self.position[node], float(value)) for node, value in ranked]

    def health(self) -> dict:
        return {
            "shard": self.shard_index,
            "lo": self.lo,
            "hi": self.hi,
            "nodes": self.count,
            "semantic": self.semantic,
            "cached_sources": len(self.source_rows),
        }


# ---------------------------------------------------------------------------
# The worker loop (thread- or process-hosted)
# ---------------------------------------------------------------------------

def _admit_source(engine: ShardEngine, message: dict) -> None:
    """Reader-side cache bookkeeping — must run in pipe order.

    The router mirrors this exact admit sequence, which is what lets it
    skip shipping rows the worker already caches.
    """
    pos_u = message.get("pos_u")
    if pos_u is None or engine.owns(pos_u):
        return
    _, stored = engine.source_rows.admit(pos_u, message.get("u_rows"))
    message["u_rows"] = stored


def _trace_context(message: dict):
    """The router-assigned trace context for *message*, or a no-op.

    Each pipe message optionally carries ``trace = {trace_id,
    parent_span_id}``; joining it re-roots every span and log record this
    request produces worker-side under the router's dispatch span, so one
    ``trace_id`` stitches the whole scatter back together.
    """
    trace = message.get("trace")
    if isinstance(trace, dict) and trace.get("trace_id"):
        return trace_scope(trace["trace_id"], trace.get("parent_span_id"))
    return nullcontext()


def _handle(engine: ShardEngine, message: dict, slot: int) -> dict:
    reply: dict = {"id": message.get("id")}
    op = message.get("op")
    started = time.perf_counter() if message.get("timings") else None
    try:
        with _trace_context(message), span(
            "shard.handle",
            labels={"op": op if op in _SPAN_OPS else "other"},
            shard=engine.shard_index,
        ):
            if op == OP_BATCH:
                reply["values"] = engine.score_positions(
                    message["pos_u"],
                    message["positions"],
                    u_rows=message.get("u_rows"),
                    slot=slot,
                )
            elif op == OP_TOPK:
                reply["results"] = engine.top_k_positions(
                    message["pos_u"],
                    message["k"],
                    positions=message.get("positions"),
                    u_rows=message.get("u_rows"),
                    slot=slot,
                    use_semantic_bound=message.get("use_semantic_bound", True),
                    batch_size=message.get("batch_size") or 256,
                )
            elif op == OP_HEALTH:
                reply["health"] = engine.health()
            elif op == OP_STATS:
                # pid lets the router detect a thread-hosted worker that
                # shares its registry (folding that snapshot would count
                # the router's own samples twice)
                snapshot = collect_snapshot()
                baseline = engine.stats_baseline
                if baseline is not None:
                    # report only what this worker did: registry state
                    # inherited from the router at fork time must not be
                    # re-counted under a shard label
                    snapshot = snapshot_diff(baseline, snapshot, prune=True)
                reply["snapshot"] = snapshot
                reply["pid"] = os.getpid()
            else:
                raise StoreError(f"unknown shard operation {op!r}")
    except Exception as exc:  # answered, never crashes the worker loop
        reply["error"] = str(exc)
        reply["kind"] = type(exc).__name__
    if started is not None:
        reply["worker_us"] = (time.perf_counter() - started) * 1e6
    return reply


def serve_connection(engine: ShardEngine, conn, workers: int = 1) -> None:
    """Answer shard operations on *conn* until shutdown or pipe EOF.

    *workers* threads drain a local task queue (numpy releases the GIL,
    so intra-shard overlap is real work, not queueing theatre); replies
    are serialised by a send lock and matched by request id router-side,
    so completion order is free to differ from arrival order.
    """
    workers = max(1, int(workers))
    tasks: queue.Queue = queue.Queue()
    send_lock = threading.Lock()

    def _send(reply: dict) -> None:
        with send_lock:
            try:
                conn.send(reply)
            except (OSError, ValueError, BrokenPipeError):
                pass  # router went away; nothing left to answer to

    def _run(slot: int) -> None:
        while True:
            message = tasks.get()
            if message is None:
                return
            _send(_handle(engine, message, slot))

    threads = [
        threading.Thread(
            target=_run, args=(slot,), name=f"shard-{engine.shard_index}-w{slot}",
            daemon=True,
        )
        for slot in range(workers)
    ]
    for thread in threads:
        thread.start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, dict) or message.get("op") == OP_SHUTDOWN:
                break
            _admit_source(engine, message)
            tasks.put(message)
    finally:
        for _ in threads:
            tasks.put(None)
        for thread in threads:
            thread.join()
        try:
            conn.close()
        except OSError:
            pass


def shard_worker_main(path, conn, config: dict | None = None) -> None:
    """Process entry point: open the shard by path, handshake, serve.

    SIGINT/SIGTERM are ignored — shutdown is coordinated by the router
    over the pipe (or by pipe EOF when the router dies), which is what
    lets a supervisor's SIGTERM to the process group drain cleanly
    instead of killing shards mid-request.
    """
    config = dict(config or {})
    # Fork-inherited registry values belong to the router's story, not
    # this worker's; everything from here on (including the shard-open
    # I/O below) is this worker's own work and diffs against this.
    baseline = collect_snapshot()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        engine = ShardEngine.open(
            path,
            slots=config.get("workers", 1),
            source_cache=config.get("source_cache", DEFAULT_SOURCE_CACHE),
        )
    except Exception as exc:
        try:
            conn.send({"op": "ready", "error": str(exc), "kind": type(exc).__name__})
        finally:
            conn.close()
        return
    engine.stats_baseline = baseline
    conn.send({"op": "ready", **engine.health()})
    serve_connection(engine, conn, workers=config.get("workers", 1))

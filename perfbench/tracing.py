"""Per-layer trace of one workload (``run.py --trace 1``).

Two sources, as the end-to-end numbers come from separate untraced runs:

1. A ``repro serve --timings --metrics-out`` subprocess run of the
   workload's stream, for what only exists across the process boundary:
   protocol overhead (client latency minus the server's ``elapsed_ms``),
   queue wait, shard scatter and merge, and the ``sched_*``/``shard_*``
   counters.  Its answers are checked like any other run's.
2. An in-process replay of the same lines through ``IndexManager`` ->
   ``QueryService`` -> ``ServingRuntime``.  The benchmark wraps each
   layer's public entry points (see :func:`install`) with spans recorded in
   memory: name, layer, start, end, parent, trace id and a work count.
   The replay runs once untraced and once traced; the difference in
   throughput is the tracing overhead.

Self time is a span's duration minus the part of it its children cover.
Each replayed request is a root interval from submission to completion;
the part of it covered by no layer span (its submit span, its queue wait
and the spans of the dispatch that answered it) is unattributed.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from workloads import SERVE_WORKERS, TOPK_K, TRACE_SHARDS, engine_kwargs

#: ROADMAP aim 1: layer self times must explain end-to-end time to 10%.
ATTRIBUTION_LIMIT = 0.10


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    trace_id: str | None = None
    size: float = 0.0
    phase: str = ""
    thread: int = 0
    children: list = field(default_factory=list)


class Recorder:
    """Wraps layer entry points for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.estimators: dict[int, object] = {}
        self.phase = "setup"
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _record(self, name, layer, size_of, fn, args, kwargs):
        from repro.obs.trace import current_trace_id

        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, layer, time.perf_counter(),
                    parent=stack[-1] if stack else None,
                    trace_id=current_trace_id(), phase=self.phase,
                    thread=threading.get_ident())
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
                if span.parent is not None:
                    span.parent.children.append(span)
        if size_of is not None:
            span.size = float(size_of(args, kwargs, result))
        return result

    def wrap(self, owner, attr, name, layer, size_of=None, kind="method"):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = original.__func__ if kind == "classmethod" else original
        record = self._record

        def wrapper(*args, **kwargs):
            return record(name, layer, size_of, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        setattr(owner, attr, classmethod(wrapper) if kind == "classmethod" else wrapper)
        self._patched.append((owner, attr, original))

    def __enter__(self) -> "Recorder":
        install(self)
        return self

    def __exit__(self, *_exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def install(rec: Recorder) -> None:
    """Wrap every layer entry point named in the benchmark's trace plan."""
    import repro.api as api
    import repro.store.sharding as sharding
    from repro.api import QueryEngine
    from repro.backends import resolve_backend
    from repro.core.dynamic import DynamicWalkIndex
    from repro.core.montecarlo import MonteCarloSemSim
    from repro.core.walk_index import WalkIndex
    from repro.sched import ServingRuntime
    from repro.semantics.cache import MatrixMeasure
    from repro.serve import IndexManager
    from repro.store import ArtifactStore

    def n_candidates(args, kwargs, _result):
        return len(args[2])

    def scalar_pair(args, kwargs, _result):
        rec.estimators[id(args[0])] = args[0]
        return 1

    def batch_pairs(args, kwargs, _result):
        rec.estimators[id(args[0])] = args[0]
        return len(args[2])

    def put_bytes(args, kwargs, _result):
        arrays = args[3] if len(args) > 3 else kwargs["arrays"]
        return sum(int(np.asarray(a).nbytes) for a in arrays.values())

    for attr in ("submit_score", "submit_batch", "submit_topk"):
        rec.wrap(ServingRuntime, attr, "sched.submit", "repro.sched")
    # one dispatch group (the repo's own "sched.dispatch" boundary): it is
    # what a request waits behind once its micro-batch has been popped
    rec.wrap(ServingRuntime, "_execute_group", "sched.execute", "repro.sched")
    rec.wrap(IndexManager, "acquire", "serve.acquire", "repro.serve")
    rec.wrap(IndexManager, "apply_mutations", "serve.swap", "repro.serve")
    for attr in ("score", "score_batch", "top_k", "apply_mutation"):
        rec.wrap(QueryEngine, attr, f"api.{attr}", "repro.api")
    rec.wrap(QueryEngine, "open", "store.open", "repro.store", kind="classmethod")
    rec.wrap(QueryEngine, "persist_generation", "store.persist", "repro.store")
    rec.wrap(ArtifactStore, "put", "store.put", "repro.store", put_bytes)
    rec.wrap(sharding, "write_shard_artifacts", "store.shard_split", "repro.store")
    _count_topk_scoring(rec, api)
    rec.wrap(api, "top_k_similar", "topk.search", "repro.core.topk",
             lambda args, kwargs, _r: rec._local.topk_scored_share)
    rec.wrap(MonteCarloSemSim, "similarity", "mc.scalar",
             "repro.core.montecarlo", scalar_pair)
    rec.wrap(MonteCarloSemSim, "similarity_batch", "mc.batch",
             "repro.core.montecarlo", batch_pairs)
    rec.wrap(WalkIndex, "first_meetings_batch", "walk_index.first_meetings",
             "repro.core.walk_index", n_candidates)
    rec.wrap(WalkIndex, "__init__", "walk_index.build", "repro.core.walk_index")
    rec.wrap(type(resolve_backend(None)), "batch_walk_scores",
             "backends.walk_scores", "repro.backends",
             lambda args, kwargs, _r: args[1].positions.size)
    for attr in ("add_edge", "set_weight", "remove_edge"):
        rec.wrap(DynamicWalkIndex, attr, "dynamic.repair", "repro.core.dynamic",
                 lambda args, kwargs, result: result)
    rec.wrap(MatrixMeasure, "from_measure", "semantics.materialize",
             "repro.semantics", kind="classmethod")


def _count_topk_scoring(rec: Recorder, api) -> None:
    """Record, per search, candidates scored over candidates offered."""
    original = api.top_k_similar

    def counting(query, candidates, k, *args, **kwargs):
        candidates = list(candidates)
        scored = 0
        inner = kwargs.get("batch_score")
        if inner is not None:
            def batch_score(u, block):
                nonlocal scored
                scored += len(block)
                return inner(u, block)
            kwargs["batch_score"] = batch_score
        result = original(query, candidates, k, *args, **kwargs)
        offered = sum(1 for c in candidates if c != query)
        rec._local.topk_scored_share = scored / max(1, offered)
        return result

    api.top_k_similar = counting
    rec._patched.append((api, "top_k_similar", original))


# ---------------------------------------------------------------------------
# In-process replay
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Request:
    line: object
    submitted: float
    admitted: float
    done: float = 0.0
    response: object = None


def inprocess_loop(runtime_factory, lines, window: int) -> tuple[list[Request], float]:
    """Closed loop through an in-process runtime; returns requests and qps."""
    runtime = runtime_factory()
    slots = threading.Semaphore(window)
    cond = threading.Condition()
    state = {"outstanding": 0}
    requests: list[Request] = []

    def finished(request: Request) -> None:
        request.done = time.perf_counter()
        with cond:
            state["outstanding"] -= 1
            cond.notify_all()
        slots.release()

    started = time.perf_counter()
    try:
        for line in lines:
            slots.acquire()
            if line.is_write:
                with cond:
                    cond.wait_for(lambda: state["outstanding"] == 0)
                runtime.apply_mutations([line.mutation()])
                slots.release()
                continue
            submitted = time.perf_counter()
            if line.kind == "pair":
                future = runtime.submit_score(line.u, line.targets[0])
            elif line.kind == "batch":
                future = runtime.submit_batch(line.u, list(line.targets))
            else:
                future = runtime.submit_topk(line.u, TOPK_K)
            request = Request(line, submitted, time.perf_counter())
            request.response = future
            requests.append(request)
            with cond:
                state["outstanding"] += 1
            future.add_done_callback(lambda _future, r=request: finished(r))
        with cond:
            cond.wait_for(lambda: state["outstanding"] == 0)
        elapsed = time.perf_counter() - started
    finally:
        runtime.drain()
    for request in requests:
        error = request.response.exception()
        request.response = error if error is not None else request.response.result()
    return requests, len(requests) / elapsed


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    by_layer: dict[str, float] = defaultdict(float)
    for span in spans:
        inner = covered([(c.start, c.end) for c in span.children],
                        span.start, span.end)
        by_layer[span.layer] += (span.end - span.start) - inner
    return dict(by_layer)


def unattributed_share(requests: list[Request], spans: list[Span]) -> float:
    """Share of request time (submit to completion) no layer span covers.

    A request is covered by its submit span, its queue wait (from the
    response's ``timings``), the span of the dispatch group that answered
    it, and, between dispatch and its own turn, the spans of the groups
    ahead of it in the same micro-batch (they run on the same worker
    thread).
    """
    top = [s for s in spans if s.parent is None]
    by_trace: dict[str, list[Span]] = defaultdict(list)
    by_thread: dict[int, list[Span]] = defaultdict(list)
    for span in top:
        if span.trace_id is not None:
            by_trace[span.trace_id].append(span)
        by_thread[span.thread].append(span)
    for group in by_thread.values():
        group.sort(key=lambda s: s.start)
    thread_starts = {t: [s.start for s in g] for t, g in by_thread.items()}
    submits = sorted(
        (s for s in spans if s.name == "sched.submit"), key=lambda s: s.start
    )
    submit_starts = [s.start for s in submits]
    total = gap = 0.0
    for request in requests:
        lo, hi = request.submitted, request.done
        timings = getattr(request.response, "timings", None) or {}
        intervals = []
        index = int(np.searchsorted(submit_starts, lo))
        if index < len(submits):
            intervals.append((submits[index].start, submits[index].end))
        queue_end = request.admitted + timings.get("queue_us", 0.0) / 1e6
        intervals.append((request.admitted, queue_end))
        own = by_trace.get(getattr(request.response, "trace_id", None), ())
        intervals += [(s.start, s.end) for s in own]
        if own:
            first = min(own, key=lambda s: s.start)
            group = by_thread[first.thread]
            starts = thread_starts[first.thread]
            i = max(0, int(np.searchsorted(starts, queue_end)) - 1)
            while i < len(group) and group[i].start < first.start:
                intervals.append((group[i].start, group[i].end))
                i += 1
        total += hi - lo
        gap += (hi - lo) - covered(intervals, lo, hi)
    return gap / total if total else 0.0


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def p50_ms(values) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def traced_run(run) -> dict:
    from repro.api import QueryEngine
    from repro.sched import ServingRuntime
    from repro.serve import IndexManager, QueryService
    import repro.store.sharding as sharding

    workload = run.workload
    metrics_path = run.work / "metrics.json"

    # -- 1. the serve subprocess with --timings --------------------------
    server = run.start_server(0, ("--timings", "--metrics-out", str(metrics_path)))
    started = time.perf_counter()
    loop, report, _ = run.session(server, run.seconds, 0.0)
    serve_wall = loop.end - started
    dump = json.loads(metrics_path.read_text())
    served = serve_metrics(loop, report, dump, serve_wall)
    if workload.setup == "index":
        sharded_metrics(run, report, served)

    # -- 2. in-process set-up, traced ------------------------------------
    graph, measure = run.bundle.graph, run.bundle.measure
    rec = Recorder()
    index = run.work / "inproc-index"
    cache = run.work / "inproc-cache"
    with rec:
        if workload.setup == "index":
            QueryEngine(graph, measure, materialize_semantics=True,
                        **engine_kwargs()).save(index)
            IndexManager(index_path=index).acquire()
            sharding.write_shard_artifacts(
                index, run.work / "inproc-shards", TRACE_SHARDS)
        else:
            IndexManager(graph, measure, cache_dir=cache, engine_kwargs=dict(
                workers=SERVE_WORKERS, **engine_kwargs())).acquire()

    def runtime_factory():
        if workload.setup == "index":
            manager = IndexManager(index_path=index)
        else:
            manager = IndexManager(graph, measure, cache_dir=cache,
                                   engine_kwargs=engine_kwargs())
        service = QueryService(manager)
        options = dict(workers=SERVE_WORKERS, max_batch=32, max_wait_us=200.0,
                       queue_depth=1024, timings=True)
        return ServingRuntime(service, **options)

    # -- 3. the same lines in-process: untraced, then traced --------------
    lines = [record.line for record in loop.records]
    _, qps_plain = inprocess_loop(runtime_factory, lines, workload.window)
    with rec:
        rec.phase = "replay"
        requests, qps_traced = inprocess_loop(runtime_factory, lines, workload.window)
    layer = layer_metrics(rec, requests)
    layer["trace.overhead_share"] = {
        "value": 1.0 - qps_traced / qps_plain, "samples": len(requests),
        "unit": "share", "untraced_qps": qps_plain, "traced_qps": qps_traced,
    }
    metrics = {**served, **layer}
    result = run.result(loop, report, metrics, trace=True)
    result["self_time_s"] = self_times(
        [s for s in rec.spans if s.phase == "replay"]
    )
    unattributed = metrics["trace.unattributed_share"]["value"]
    result["attribution_within_limit"] = unattributed <= ATTRIBUTION_LIMIT
    if not result["attribution_within_limit"]:
        print(f"warning: layer self times leave {unattributed:.1%} of "
              f"request time unattributed (limit {ATTRIBUTION_LIMIT:.0%})",
              file=sys.stderr)
    return result


def sharded_metrics(run, report, served: dict) -> None:
    """Drive a ``--shards`` server with the same stream; take its
    ``sharded.*`` numbers into *served* and its checks into *report*."""
    path = run.work / "metrics-sharded.json"
    argv = run.serve_argv  # provenance names the unsharded server
    server = run.start_server(1, ("--shards", str(TRACE_SHARDS), "--timings",
                                  "--metrics-out", str(path)))
    run.serve_argv = argv
    started = time.perf_counter()
    loop, checked, _ = run.session(server, run.seconds, 0.0)
    sharded = serve_metrics(loop, checked, json.loads(path.read_text()),
                            loop.end - started)
    for name in ("sharded.scatter_ms_p50", "sharded.merge_ms_p50",
                 "sharded.shard_load_max_share"):
        served[name] = sharded[name]
    report.lines += checked.lines
    report.errors += checked.errors
    report.checked += checked.checked
    report.mismatches += [f"--shards {TRACE_SHARDS}: {m}" for m in checked.mismatches]


def _metric(value, samples, unit):
    return {"value": float(value), "samples": int(samples), "unit": unit}


def serve_metrics(loop, report, dump: dict, wall: float) -> dict:
    """Per-layer numbers of the ``--timings`` subprocess run."""
    overhead, queue, scatter, merge, blocked = [], [], [], [], 0.0
    degraded = 0
    for answer in report.answers:
        record, payload = answer.record, answer.payload
        latency = record.received - record.sent
        if record.line.is_write:
            blocked += latency
            continue
        if "error" in payload:
            continue
        degraded += bool(payload.get("degraded"))
        overhead.append(latency * 1e3 - payload["elapsed_ms"])
        timings = payload.get("timings", {})
        queue.append(timings.get("queue_us", 0.0) / 1e3)
        scatter.append(timings.get("scatter_us", 0.0) / 1e3)
        merge.append(timings.get("merge_us", 0.0) / 1e3)
    reads = len(overhead)
    counters = dump.get("counters", {})
    histograms = dump.get("histograms", {})

    def total(family, **labels):
        samples = counters.get(family, {}).get("samples", [])
        return sum(s["value"] for s in samples
                   if all(s["labels"].get(k) == v for k, v in labels.items()))

    batch = histograms.get("sched_batch_size", {}).get("samples", [])
    batches = sum(s["count"] for s in batch)
    pairs = sum(1 for r in loop.records if r.line.kind == "pair")
    shard_load: dict[str, float] = defaultdict(float)
    for sample in counters.get("shard_requests_total", {}).get("samples", []):
        shard_load[sample["labels"].get("shard")] += sample["value"]
    load_total = sum(shard_load.values())
    return {
        "cli.overhead_ms_p50": _metric(np.median(overhead) if reads else 0, reads, "ms"),
        "cli.reader_blocked_s": _metric(
            blocked, sum(r.line.is_write for r in loop.records), "s"),
        "sched.queue_wait_ms_p50": _metric(np.percentile(queue, 50) if reads else 0, reads, "ms"),
        "sched.queue_wait_ms_p99": _metric(np.percentile(queue, 99) if reads else 0, reads, "ms"),
        "sched.coalesced_share": _metric(
            total("sched_coalesced_requests_total") / max(1, pairs), pairs, "share"),
        "sched.batch_size_mean": _metric(
            sum(s["sum"] for s in batch) / max(1, batches), batches, "count"),
        "sched.worker_busy_share": _metric(
            total("sched_worker_busy_seconds_total") / (SERVE_WORKERS * wall),
            1, "share"),
        "sched.rejected": _metric(
            total("serve_requests_total", outcome="rejected"), len(loop.records), "count"),
        "sharded.scatter_ms_p50": _metric(np.median(scatter) if reads else 0, reads, "ms"),
        "sharded.merge_ms_p50": _metric(np.median(merge) if reads else 0, reads, "ms"),
        "sharded.shard_load_max_share": _metric(
            max(shard_load.values()) / load_total if load_total else 0,
            load_total, "share"),
        "serve.degraded_share": _metric(degraded / max(1, reads), reads, "share"),
    }


def layer_metrics(rec: Recorder, requests: list[Request]) -> dict:
    """Per-layer numbers of the traced in-process set-up and replay."""
    setup = defaultdict(list)
    spans = defaultdict(list)
    for span in rec.spans:
        (setup if span.phase == "setup" else spans)[span.name].append(span)

    def inside(span, name):
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        return parent is not None

    def durations(name, direct=False):
        """Span durations; *direct* drops calls made by a top-k search."""
        return [s.end - s.start for s in spans[name]
                if not (direct and inside(s, "api.top_k"))]

    def per_item_us(name):
        items = sum(s.size for s in spans[name])
        return _metric(1e6 * sum(durations(name)) / items if items else 0,
                       items, "us")

    def setup_s(name):
        return _metric(sum(s.end - s.start for s in setup[name]),
                       len(setup[name]), "s")

    stats = defaultdict(int)
    for estimator in rec.estimators.values():
        for key, value in estimator.stats.as_dict().items():
            stats[key] += value
    topk = spans["topk.search"]
    writes = spans["serve.swap"]
    put_bytes = sum(s.size for s in spans["store.put"])
    repairs = spans["dynamic.repair"]
    return {
        "serve.acquire_ms_p50": _metric(p50_ms(durations("serve.acquire")),
                                        len(spans["serve.acquire"]), "ms"),
        "serve.swap_ms_p50": _metric(p50_ms(durations("serve.swap")), len(writes), "ms"),
        "api.score_ms_p50": _metric(p50_ms(durations("api.score")),
                                    len(spans["api.score"]), "ms"),
        "api.score_batch_ms_p50": _metric(
            p50_ms(durations("api.score_batch", True)),
            len(durations("api.score_batch", True)), "ms"),
        "api.top_k_ms_p50": _metric(p50_ms(durations("api.top_k")),
                                    len(spans["api.top_k"]), "ms"),
        "topk.scored_share": _metric(
            np.mean([s.size for s in topk]) if topk else 0, len(topk), "share"),
        "mc.scalar_us_per_pair": per_item_us("mc.scalar"),
        "mc.batch_us_per_pair": per_item_us("mc.batch"),
        "mc.pruned_share": _metric(
            stats["walks_pruned"] / max(1, stats["walks_met"]), stats["walks_met"], "share"),
        "mc.walks_met_share": _metric(
            stats["walks_met"] / max(1, stats["walks_examined"]),
            stats["walks_examined"], "share"),
        "backends.walk_scores_us_per_pair": per_item_us("backends.walk_scores"),
        "walk_index.first_meetings_us_per_pair": per_item_us("walk_index.first_meetings"),
        "walk_index.build_s": setup_s("walk_index.build"),
        "semantics.materialize_s": setup_s("semantics.materialize"),
        "dynamic.repair_ms_p50": _metric(
            p50_ms([s.end - s.start for s in repairs]), len(repairs), "ms"),
        "dynamic.walks_resampled_mean": _metric(
            np.mean([s.size for s in repairs]) if repairs else 0, len(repairs), "count"),
        "store.open_s": setup_s("store.open"),
        "store.shard_split_s": setup_s("store.shard_split"),
        "store.persist_ms_p50": _metric(p50_ms(durations("store.persist")),
                                        len(spans["store.persist"]), "ms"),
        "store.bytes_written_per_write": _metric(
            put_bytes / len(writes) if writes else 0, len(writes), "B"),
        "trace.unattributed_share": _metric(
            unattributed_share(requests, [s for s in rec.spans if s.phase == "replay"]),
            len(requests), "share"),
    }

"""Property tests: coalesced micro-batches are bit-identical to scalar.

The scheduler's core soundness claim: however requests are grouped into
micro-batches — whatever the ``max_batch`` boundary, the estimator, the
seed, or the mix of sources — every response carries **exactly** the
value a sequential ``score()`` call returns.  This extends the PR 1
batch-vs-scalar guarantee (``tests/properties/test_batch_vs_scalar.py``)
up through the scheduling layer: grouping, group ordering, and the
merged ``score_batch`` dispatch must never perturb a single bit.

Dispatch here is inline (``autostart=False`` + ``close(drain=True)``),
so hypothesis explores the coalescer's full decision space with no
thread-interleaving noise; the thread-level version of the same claim is
``tests/sched/test_concurrency.py``.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import QueryEngine
from repro.sched import ServingRuntime
from repro.serve import IndexManager, QueryService

from tests.conftest import random_hin_with_measure

COMMON = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _runtime(seed, num_entities, extra_edges, method, max_batch):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    manager = IndexManager(
        graph, measure,
        engine_kwargs=dict(method=method, num_walks=20, length=5, seed=seed),
        background_rebuild=False,
    )
    service = QueryService(manager)
    runtime = ServingRuntime(
        service, max_batch=max_batch, max_wait_us=0, queue_depth=10_000,
        autostart=False,
    )
    engine = manager.acquire().engine
    nodes = sorted(graph.nodes(), key=str)
    return runtime, engine, nodes


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
    method=st.sampled_from(["iterative", "mc"]),
    max_batch=st.sampled_from([1, 3, 7, 16]),
    workload_seed=st.integers(0, 1_000),
)
def test_coalesced_scores_bit_identical_to_sequential(
    seed, num_entities, extra_edges, method, max_batch, workload_seed
):
    runtime, engine, nodes = _runtime(
        seed, num_entities, extra_edges, method, max_batch
    )
    rng = np.random.default_rng(workload_seed)
    # few hot sources -> heavy merging; targets roam the whole graph
    sources = nodes[: max(1, len(nodes) // 3)]
    pairs = [
        (
            sources[int(rng.integers(len(sources)))],
            nodes[int(rng.integers(len(nodes)))],
        )
        for _ in range(30)
    ]
    futures = [runtime.submit_score(u, v) for u, v in pairs]
    runtime.close(drain=True)
    for (u, v), future in zip(pairs, futures):
        assert future.result(timeout=1).value == engine.score(u, v)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 9),
    extra_edges=st.integers(4, 12),
    method=st.sampled_from(["iterative", "mc"]),
    max_batch=st.sampled_from([1, 2, 5, 8]),
)
def test_mixed_kind_batches_bit_identical(
    seed, num_entities, extra_edges, method, max_batch
):
    runtime, engine, nodes = _runtime(
        seed, num_entities, extra_edges, method, max_batch
    )
    u = nodes[0]
    candidates = nodes[1:5]
    f_scores = [runtime.submit_score(u, v) for v in candidates]
    f_batch = runtime.submit_batch(u, candidates)
    f_topk = runtime.submit_topk(u, min(3, len(candidates)))
    runtime.close(drain=True)
    for v, future in zip(candidates, f_scores):
        assert future.result(timeout=1).value == engine.score(u, v)
    np.testing.assert_array_equal(
        f_batch.result(timeout=1).values, engine.score_batch(u, list(candidates))
    )
    assert f_topk.result(timeout=1).results == tuple(
        engine.top_k(u, min(3, len(candidates)))
    )


@pytest.mark.concurrency
def test_shared_engine_thread_stress_bit_stable():
    """Hammer one shared engine from many threads: every concurrent
    ``score_batch`` answer equals the single-threaded one."""
    graph, measure = random_hin_with_measure(7, num_entities=10, extra_edges=14)
    engine = QueryEngine(
        graph, measure, method="mc", num_walks=40, length=8, seed=7
    )
    nodes = sorted(graph.nodes(), key=str)
    sources = nodes[:4]
    expected = {u: np.asarray(engine.score_batch(u, nodes)) for u in sources}

    num_threads, rounds = 8, 5
    barrier = threading.Barrier(num_threads)
    failures: list[str] = []

    def worker(thread_id: int) -> None:
        barrier.wait()
        for round_id in range(rounds):
            u = sources[(thread_id + round_id) % len(sources)]
            got = np.asarray(engine.score_batch(u, nodes))
            if not np.array_equal(got, expected[u]):
                failures.append(
                    f"thread {thread_id} round {round_id} source {u!r}"
                )

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures

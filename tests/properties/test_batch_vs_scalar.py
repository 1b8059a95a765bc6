"""Property tests: the MC estimators' query paths agree with a reference.

* Every MC SemSim score runs one kernel.  The reference here is the
  per-walk Algorithm-1 loop that served scalar queries before that
  kernel did, kept verbatim as an oracle: ``similarity``,
  ``similarity_batch`` and ``similarity_with_interval`` must equal it
  bitwise (``==``), on dense and lazy measures, under both walk
  policies, with and without θ pruning, and through a SLING
  ``pair_index``;
* ``top_k_similar`` and ``similarity_join`` give the same answers through
  the batched path as through a scalar scan;
* a :class:`WalkIndex` built with ``workers > 1`` (any shard size) stores
  exactly the same walk tensor as a serial build for the same seed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MonteCarloSemSim, MonteCarloSimRank, SlingIndex, WalkIndex
from repro.core.join import similarity_join
from repro.core.single_source import batch_similarity
from repro.core.topk import top_k_similar
from repro.core.walk_index import WalkPolicy
from repro.semantics import MatrixMeasure

from tests.conftest import random_hin_with_measure

COMMON = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _build(seed, num_entities, extra_edges, theta, policy=WalkPolicy.UNIFORM,
           dense=True, sling=False):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    index = WalkIndex(graph, num_walks=40, length=6, seed=seed, policy=policy)
    pair_index = SlingIndex(graph, measure, theta=0.05) if sling else None
    if dense:
        measure = MatrixMeasure.from_measure(measure, list(graph.nodes()))
    estimator = MonteCarloSemSim(
        index, measure, decay=0.6, theta=theta, pair_index=pair_index
    )
    return graph, estimator


# ---------------------------------------------------------------------------
# Reference oracle: the per-walk Algorithm-1 loop (Def. 4.5), one walk at a
# time in Python, reading SO through the estimator's own _so_value.
# ---------------------------------------------------------------------------

class _Reference:
    def __init__(self, estimator):
        self.estimator = estimator
        graph_index = estimator.walk_index.index
        self._nodes = graph_index.nodes
        self._weight_to = [
            dict(zip(map(int, graph_index.in_lists[v]),
                     map(float, graph_index.in_weights[v])))
            for v in range(graph_index.num_nodes)
        ]

    def _walk_score(self, walk_u, walk_v, meeting):
        est = self.estimator
        score = 1.0
        for step in range(meeting):
            current_u = int(walk_u[step])
            current_v = int(walk_v[step])
            next_u = int(walk_u[step + 1])
            next_v = int(walk_v[step + 1])
            numerator = (
                est.measure.similarity(self._nodes[next_u], self._nodes[next_v])
                * self._weight_to[current_u][next_u]
                * self._weight_to[current_v][next_v]
            )
            so, _fresh = est._so_value(current_u, current_v)
            if so <= 0:
                return 0.0
            p_step = numerator / so
            q_step = (
                est.walk_index.q_step_probability(current_u, next_u)
                * est.walk_index.q_step_probability(current_v, next_v)
            )
            if q_step <= 0:
                return 0.0
            score *= p_step * est.decay / q_step
            if est.theta is not None and score <= est.theta:
                return score
        return score

    def _contributions(self, u, v):
        """``(sem(u, v), per-walk contributions)``, or ``(value, None)``."""
        est = self.estimator
        if u == v:
            return 1.0, None
        sem_uv = est.measure.similarity(u, v)
        if est.theta is not None and sem_uv <= est.theta:
            return 0.0, None
        walks_u = est.walk_index.walks_from(u)
        walks_v = est.walk_index.walks_from(v)
        meetings = est.walk_index.first_meetings(u, v)
        contributions = np.zeros(est.walk_index.num_walks)
        total = 0.0
        for walk_id in np.flatnonzero(meetings >= 0):
            score = self._walk_score(
                walks_u[walk_id], walks_v[walk_id], int(meetings[walk_id])
            )
            contributions[walk_id] = score
            total += score
        return sem_uv, (total, contributions)

    def similarity(self, u, v):
        sem_uv, walked = self._contributions(u, v)
        if walked is None:
            return sem_uv
        return sem_uv * walked[0] / self.estimator.walk_index.num_walks

    def similarity_with_interval(self, u, v, z=1.96):
        sem_uv, walked = self._contributions(u, v)
        if walked is None:
            return sem_uv, 0.0
        contributions = walked[1]
        num_walks = self.estimator.walk_index.num_walks
        estimate = sem_uv * float(contributions.mean())
        spread = float(contributions.std(ddof=1)) if contributions.size > 1 else 0.0
        return estimate, float(sem_uv * z * spread / np.sqrt(num_walks))


def _assert_matches_reference(graph, estimator, sources=3):
    reference = _Reference(estimator)
    nodes = list(graph.nodes())
    for u in nodes[:sources]:
        expected = [reference.similarity(u, v) for v in nodes]
        assert [estimator.similarity(u, v) for v in nodes] == expected
        assert estimator.similarity_batch(u, nodes).tolist() == expected
        for v in nodes:
            assert estimator.similarity_with_interval(u, v) == \
                reference.similarity_with_interval(u, v)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 12),
    extra_edges=st.integers(4, 20),
    theta=st.sampled_from([None, 0.05, 0.3]),
    policy=st.sampled_from([WalkPolicy.UNIFORM, WalkPolicy.WEIGHTED]),
    dense=st.booleans(),
)
def test_score_paths_equal_reference_loop(
    seed, num_entities, extra_edges, theta, policy, dense
):
    graph, estimator = _build(
        seed, num_entities, extra_edges, theta, policy=policy, dense=dense
    )
    _assert_matches_reference(graph, estimator)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
    theta=st.sampled_from([None, 0.05, 0.3]),
    dense=st.booleans(),
)
def test_pair_index_paths_equal_reference_loop(
    seed, num_entities, extra_edges, theta, dense
):
    graph, estimator = _build(
        seed, num_entities, extra_edges, theta, dense=dense, sling=True
    )
    _assert_matches_reference(graph, estimator, sources=2)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 12),
    extra_edges=st.integers(4, 20),
    theta=st.sampled_from([None, 0.05, 0.3]),
)
def test_score_batch_agrees_with_scalar(seed, num_entities, extra_edges, theta):
    graph, estimator = _build(seed, num_entities, extra_edges, theta)
    nodes = list(graph.nodes())
    for u in nodes[:3]:
        batch = estimator.similarity_batch(u, nodes)
        scalar = np.array([estimator.similarity(u, v) for v in nodes])
        np.testing.assert_array_equal(batch, scalar)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
)
def test_weighted_policy_batch_agrees(seed, num_entities, extra_edges):
    graph, estimator = _build(
        seed, num_entities, extra_edges, theta=0.05, policy=WalkPolicy.WEIGHTED
    )
    nodes = list(graph.nodes())
    u = nodes[0]
    batch = estimator.similarity_batch(u, nodes)
    scalar = np.array([estimator.similarity(u, v) for v in nodes])
    np.testing.assert_array_equal(batch, scalar)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
)
def test_simrank_batch_agrees_with_scalar(seed, num_entities, extra_edges):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    index = WalkIndex(graph, num_walks=40, length=6, seed=seed)
    estimator = MonteCarloSimRank(index, decay=0.6)
    nodes = list(graph.nodes())
    u = nodes[0]
    batch = estimator.similarity_batch(u, nodes)
    scalar = np.array([estimator.similarity(u, v) for v in nodes])
    np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(5, 10),
    extra_edges=st.integers(4, 16),
    k=st.integers(1, 5),
)
def test_top_k_batch_path_equals_scalar_path(seed, num_entities, extra_edges, k):
    graph, estimator = _build(seed, num_entities, extra_edges, theta=0.05)
    nodes = list(graph.nodes())
    u = nodes[0]
    candidates = nodes[1:]
    scalar = top_k_similar(u, candidates, k, estimator.similarity,
                           measure=estimator.measure)
    batched = top_k_similar(u, candidates, k, measure=estimator.measure,
                            batch_score=estimator.similarity_batch)
    assert scalar == batched


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 9),
    extra_edges=st.integers(4, 12),
    min_score=st.sampled_from([0.005, 0.02, 0.1]),
)
def test_join_batch_path_equals_scalar_scan(seed, num_entities, extra_edges,
                                            min_score):
    graph, estimator = _build(seed, num_entities, extra_edges, theta=0.05)
    joined = similarity_join(estimator, min_score)
    # reference: brute-force scalar scan over unordered pairs
    nodes = list(graph.nodes())
    expected = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            value = estimator.similarity(u, v)
            if value > min_score:
                expected.append((u, v, value))
    assert {frozenset((u, v)) for u, v, _ in joined} == \
        {frozenset((u, v)) for u, v, _ in expected}
    scores = {frozenset((u, v)): s for u, v, s in expected}
    for u, v, value in joined:
        assert value == pytest.approx(scores[frozenset((u, v))], abs=1e-12)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 12),
    extra_edges=st.integers(4, 20),
    workers=st.integers(2, 4),
    shard_size=st.sampled_from([1, 3, 13, None]),
    policy=st.sampled_from([WalkPolicy.UNIFORM, WalkPolicy.WEIGHTED]),
)
def test_parallel_walk_index_bit_identical_to_serial(
    seed, num_entities, extra_edges, workers, shard_size, policy
):
    graph, _ = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    serial = WalkIndex(graph, num_walks=12, length=5, seed=seed, policy=policy)
    parallel = WalkIndex(
        graph, num_walks=12, length=5, seed=seed, policy=policy,
        workers=workers, shard_size=shard_size,
    )
    np.testing.assert_array_equal(serial.walks, parallel.walks)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 9),
    extra_edges=st.integers(4, 12),
)
def test_batch_similarity_matches_per_pair(seed, num_entities, extra_edges):
    graph, estimator = _build(seed, num_entities, extra_edges, theta=0.05)
    nodes = list(graph.nodes())
    rng = np.random.default_rng(seed)
    pairs = [
        (nodes[int(rng.integers(len(nodes)))], nodes[int(rng.integers(len(nodes)))])
        for _ in range(12)
    ]
    values = batch_similarity(estimator, pairs)
    for (u, v), value in zip(pairs, values):
        assert value == pytest.approx(estimator.similarity(u, v), abs=1e-12)

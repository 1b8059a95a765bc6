"""Unit tests for the vectorised batch query paths.

The property suite (``tests/properties/test_batch_vs_scalar.py``) covers
randomised agreement; this file pins down the deterministic contracts:
exact batch-vs-scalar equality on a fixed graph, stats accounting, the
scalar fallback for non-materialised measures, and order preservation.
"""

import numpy as np
import pytest

from repro.core import MonteCarloSemSim, MonteCarloSimRank, WalkIndex
from repro.core.join import similarity_join
from repro.core.single_source import batch_similarity, single_source_mc
from repro.core.topk import top_k_similar
from repro.errors import ConfigurationError
from repro.semantics import MatrixMeasure
from tests.conftest import build_taxonomy_graph


@pytest.fixture(scope="module")
def setup():
    graph, measure = build_taxonomy_graph()
    index = WalkIndex(graph, num_walks=60, length=8, seed=42)
    matrix_measure = MatrixMeasure.from_measure(measure, list(graph.nodes()))
    return graph, measure, matrix_measure, index


class TestSemSimBatch:
    def test_batch_equals_scalar_exactly(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6, theta=0.05)
        nodes = list(graph.nodes())
        u = nodes[0]
        batch = estimator.similarity_batch(u, nodes)
        for node, value in zip(nodes, batch):
            assert value == estimator.similarity(u, node)

    def test_batch_identity_pair_is_one(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        batch = estimator.similarity_batch("x1", ["x1", "x2"])
        assert batch[0] == 1.0

    def test_batch_without_theta(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6, theta=None)
        nodes = list(graph.nodes())
        batch = estimator.similarity_batch("x2", nodes)
        scalar = [estimator.similarity("x2", node) for node in nodes]
        np.testing.assert_array_equal(batch, scalar)

    def test_empty_candidate_list(self, setup):
        _, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        assert estimator.similarity_batch("x1", []).shape == (0,)

    def test_vectorized_stats_counted(self, setup):
        _, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        estimator.similarity_batch("x1", ["x2", "x3", "x4"])
        stats = estimator.stats
        assert stats.batch_queries == 1
        assert stats.batch_pairs == 3
        assert stats.vectorized_pairs == 3
        assert stats.queries == 3

    def test_lazy_measure_runs_the_kernel(self, setup):
        _, lazy_measure, _, index = setup
        estimator = MonteCarloSemSim(index, lazy_measure, decay=0.6)
        batch = estimator.similarity_batch("x1", ["x2", "x3"])
        assert estimator.stats.vectorized_pairs == 2
        # a lazy measure never allocates the dense tables
        assert estimator._step_weights is None
        assert estimator._so_matrix is None
        expected = [estimator.similarity("x1", v) for v in ("x2", "x3")]
        np.testing.assert_array_equal(batch, expected)

    def test_fallback_agrees_with_vectorized(self, setup):
        graph, lazy_measure, matrix_measure, index = setup
        lazy = MonteCarloSemSim(index, lazy_measure, decay=0.6, theta=0.05)
        fast = MonteCarloSemSim(index, matrix_measure, decay=0.6, theta=0.05)
        nodes = list(graph.nodes())
        np.testing.assert_allclose(
            lazy.similarity_batch("x3", nodes),
            fast.similarity_batch("x3", nodes),
            atol=1e-12,
        )

    def test_stats_reset(self, setup):
        _, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        estimator.similarity_batch("x1", ["x2"])
        estimator.stats.reset()
        assert estimator.stats.batch_queries == 0
        assert estimator.stats.queries == 0
        assert estimator.stats.walks_examined == 0


class TestSimRankBatch:
    def test_batch_equals_scalar(self, setup):
        graph, _, _, index = setup
        estimator = MonteCarloSimRank(index, decay=0.6)
        nodes = list(graph.nodes())
        batch = estimator.similarity_batch("x1", nodes)
        scalar = [estimator.similarity("x1", node) for node in nodes]
        # summation order differs (compressed vs masked sum): 1e-12, not bitwise
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)
        assert estimator.stats.batch_queries == 1
        assert estimator.stats.vectorized_pairs == len(nodes)


class TestSingleSourceAndJoin:
    def test_single_source_mc_uses_batch(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        scores = single_source_mc(estimator, "x1")
        assert set(scores) == set(graph.nodes())
        for node, value in scores.items():
            assert value == estimator.similarity("x1", node)
        assert estimator.stats.batch_queries >= 1

    def test_batch_similarity_preserves_pair_order(self, setup):
        _, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        pairs = [("x1", "x2"), ("x3", "x4"), ("x1", "x3"), ("x2", "x1")]
        values = batch_similarity(estimator, pairs)
        assert len(values) == len(pairs)
        for (u, v), value in zip(pairs, values):
            assert value == estimator.similarity(u, v)

    def test_batch_similarity_scalar_only_estimator(self, setup):
        class ScalarOnly:
            def similarity(self, u, v):
                return 0.5 if u != v else 1.0

        values = batch_similarity(ScalarOnly(), [("a", "b"), ("c", "c")])
        assert values == [0.5, 1.0]

    def test_join_matches_scalar_join(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        joined = similarity_join(estimator, 0.01)
        for u, v, value in joined:
            assert value == estimator.similarity(u, v)
            assert value > 0.01


class TestTopKBatch:
    def test_batch_score_matches_scalar_path(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        nodes = [n for n in graph.nodes() if n != "x1"]
        scalar_results = top_k_similar(
            "x1", nodes, 3, estimator.similarity, measure=measure
        )
        batch_results = top_k_similar(
            "x1", nodes, 3, measure=measure,
            batch_score=estimator.similarity_batch,
        )
        assert scalar_results == batch_results

    def test_batch_score_without_measure(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        nodes = [n for n in graph.nodes() if n != "x1"]
        scalar_results = top_k_similar("x1", nodes, 4, estimator.similarity)
        batch_results = top_k_similar(
            "x1", nodes, 4, batch_score=estimator.similarity_batch
        )
        assert scalar_results == batch_results

    def test_requires_some_scorer(self):
        with pytest.raises(ConfigurationError, match="score"):
            top_k_similar("u", ["v"], 1)

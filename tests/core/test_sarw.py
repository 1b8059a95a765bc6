"""SARW tests, including the Example 3.2 step probabilities."""

import numpy as np
import pytest

from repro.core import sarw
from repro.core.sarw import SemanticAwareWalker, sarw_step_distribution
from repro.core.pair_engine import semsim_via_pair_graph
from repro.datasets import figure2_graph
from repro.errors import NodeNotFoundError
from repro.hin import HIN
from repro.semantics import ConstantMeasure

from tests.conftest import build_taxonomy_graph


class TestStepDistribution:
    def test_probabilities_sum_to_one(self):
        graph, measure = build_taxonomy_graph()
        distribution = sarw_step_distribution(graph, measure, ("x1", "x3"))
        assert sum(p for _, p in distribution) == pytest.approx(1.0)

    def test_semantically_close_targets_preferred(self):
        graph, measure = build_taxonomy_graph()
        distribution = dict(sarw_step_distribution(graph, measure, ("mid1", "mid2")))
        # (x1, x3) and (root, root) style pairs compete; the singleton
        # (root, root) has sem = 1 and must outweigh low-sem pairs of the
        # same edge weight.
        same = distribution[("root", "root")]
        crossed = distribution[("x1", "root")]
        assert same > crossed

    def test_singleton_pair_halts(self):
        graph, measure = build_taxonomy_graph()
        assert sarw_step_distribution(graph, measure, ("x1", "x1")) == []

    def test_dead_end_pair(self):
        g = HIN()
        g.add_edge("a", "b")
        assert sarw_step_distribution(g, ConstantMeasure(1.0), ("a", "b")) == []

    def test_unknown_node_raises(self):
        graph, measure = build_taxonomy_graph()
        with pytest.raises(NodeNotFoundError):
            sarw_step_distribution(graph, measure, ("x1", "ghost"))


class TestExample32:
    """The paper's worked SARW probabilities on the Figure 2 graph."""

    def test_lin_values(self):
        _, bundle = figure2_graph()
        assert bundle.measure.similarity("Canada", "USA") == pytest.approx(0.8)
        assert bundle.measure.similarity("Author", "USA") == pytest.approx(0.2)

    def test_step_probabilities(self):
        graph, bundle = figure2_graph()
        distribution = dict(sarw_step_distribution(graph, bundle.measure, ("A", "B")))
        # P[(A,B) -> (Canada, USA)] = 0.8 / (0.8 + 0.2 + 0.2 + 1.0) = 0.36
        assert distribution[("Canada", "USA")] == pytest.approx(0.36, abs=0.005)
        # P[(A,B) -> (Author, USA)] = 0.2 / 2.2 = 0.09
        assert distribution[("Author", "USA")] == pytest.approx(0.09, abs=0.005)


class TestWalker:
    def test_walks_are_reproducible(self):
        graph, measure = build_taxonomy_graph()
        a = SemanticAwareWalker(graph, measure, seed=5).sample_walk(("x1", "x3"), 10)
        b = SemanticAwareWalker(graph, measure, seed=5).sample_walk(("x1", "x3"), 10)
        assert a.pairs == b.pairs

    def test_walk_halts_at_singleton(self):
        graph, measure = build_taxonomy_graph()
        walker = SemanticAwareWalker(graph, measure, seed=1)
        for _ in range(50):
            walk = walker.sample_walk(("mid1", "mid2"), 20)
            if walk.met:
                assert walk.pairs[-1][0] == walk.pairs[-1][1]
                # no singleton before the last position
                assert all(a != b for a, b in walk.pairs[:-1])

    def test_walk_probability_is_product(self):
        graph, measure = build_taxonomy_graph()
        walker = SemanticAwareWalker(graph, measure, seed=2)
        walk = walker.sample_walk(("mid1", "mid2"), 5)
        assert walk.probability == pytest.approx(float(np.prod(walk.step_probabilities or [1.0])))

    def test_direct_mc_estimate_converges_to_exact(self):
        graph, measure = build_taxonomy_graph()
        exact = semsim_via_pair_graph(graph, measure, decay=0.6)
        walker = SemanticAwareWalker(graph, measure, seed=11)
        estimate = walker.estimate_similarity("mid1", "mid2", 0.6, num_walks=4000, max_steps=25)
        assert estimate == pytest.approx(exact[("mid1", "mid2")], abs=0.01)

    def test_zero_walks(self):
        graph, measure = build_taxonomy_graph()
        walker = SemanticAwareWalker(graph, measure, seed=1)
        assert walker.estimate_similarity("x1", "x2", 0.6, num_walks=0, max_steps=5) == 0.0


class TestStepMemoCap:
    """The walker's step-distribution memo is a bounded LRU."""

    def test_memo_never_exceeds_cap(self, monkeypatch):
        monkeypatch.setattr(sarw, "STEP_MEMO_CAP", 3)
        graph, measure = build_taxonomy_graph()
        walker = SemanticAwareWalker(graph, measure, seed=0)
        nodes = sorted(graph.nodes(), key=str)
        for u in nodes:
            for v in nodes:
                walker.step_distribution((u, v))
                assert len(walker._distributions) <= 3

    def test_eviction_is_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(sarw, "STEP_MEMO_CAP", 2)
        graph, measure = build_taxonomy_graph()
        walker = SemanticAwareWalker(graph, measure, seed=0)
        a, b, c = sorted(graph.nodes(), key=str)[:3]
        walker.step_distribution((a, a))
        walker.step_distribution((b, b))
        walker.step_distribution((a, a))  # refresh (a, a)
        walker.step_distribution((c, c))  # evicts (b, b), the LRU entry
        assert (a, a) in walker._distributions
        assert (b, b) not in walker._distributions
        assert (c, c) in walker._distributions

    def test_capped_memo_returns_same_distributions(self, monkeypatch):
        graph, measure = build_taxonomy_graph()
        unbounded = SemanticAwareWalker(graph, measure, seed=0)
        nodes = sorted(graph.nodes(), key=str)[:4]
        expected = {
            (u, v): unbounded.step_distribution((u, v))
            for u in nodes for v in nodes
        }
        monkeypatch.setattr(sarw, "STEP_MEMO_CAP", 1)
        capped = SemanticAwareWalker(graph, measure, seed=0)
        for pair, distribution in expected.items():
            assert capped.step_distribution(pair) == distribution

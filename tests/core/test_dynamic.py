"""Unit tests for the dynamic walk index (incremental maintenance)."""

import numpy as np
import pytest

from repro.core import DynamicWalkIndex, MonteCarloSemSim, MonteCarloSimRank, WalkIndex
from repro.core.simrank import simrank_scores
from repro.core.walk_index import WalkPolicy
from repro.errors import EdgeNotFoundError, StaleIndexError
from repro.hin import HIN
from repro.semantics import ConstantMeasure

from tests.conftest import build_taxonomy_graph


def small_graph() -> HIN:
    g = HIN()
    g.add_undirected_edge("a", "b")
    g.add_undirected_edge("b", "c")
    g.add_undirected_edge("c", "d")
    return g


class TestBasics:
    def test_mirrors_walk_index_api(self):
        g = small_graph()
        dynamic = DynamicWalkIndex(g, num_walks=20, length=5, seed=0)
        assert dynamic.num_walks == 20
        assert dynamic.length == 5
        assert dynamic.walks.shape == (4, 20, 6)
        assert dynamic.storage_entries == 4 * 20 * 6

    def test_wraps_a_private_copy(self):
        g = small_graph()
        dynamic = DynamicWalkIndex(g, num_walks=5, length=3, seed=0)
        dynamic.add_edge("a", "d")
        assert not g.has_edge("a", "d")  # original untouched

    def test_walks_start_at_their_node(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=10, length=4, seed=0)
        for node in "abcd":
            assert np.all(dynamic.walks_from(node)[:, 0] == dynamic.node_position(node))


class TestUpdates:
    def test_add_edge_resamples_visiting_walks(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=30, length=5, seed=0)
        resampled = dynamic.add_edge("d", "a", weight=1.0)
        # every walk that visits "a" before the last step is affected
        assert resampled > 0
        assert dynamic.updates_applied == 1
        assert dynamic.walks_resampled == resampled

    def test_walks_use_new_edge_after_insertion(self):
        g = HIN()
        g.add_edge("old", "hub")
        dynamic = DynamicWalkIndex(g, num_walks=400, length=1, seed=0)
        dynamic.add_edge("new", "hub")
        first_steps = dynamic.walks_from("hub")[:, 1]
        new_pos = dynamic.node_position("new")
        fraction = float(np.mean(first_steps == new_pos))
        assert fraction == pytest.approx(0.5, abs=0.08)

    def test_remove_edge_invalidates_steps(self):
        g = HIN()
        g.add_edge("p", "hub")
        g.add_edge("q", "hub")
        dynamic = DynamicWalkIndex(g, num_walks=200, length=1, seed=0)
        dynamic.remove_edge("q", "hub")
        first_steps = dynamic.walks_from("hub")[:, 1]
        q_pos = dynamic.node_position("q")
        assert not np.any(first_steps == q_pos)

    def test_remove_missing_edge_raises(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=5, length=3, seed=0)
        with pytest.raises(EdgeNotFoundError):
            dynamic.remove_edge("a", "d")

    def test_new_node_gets_walk_set(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=10, length=4, seed=0)
        dynamic.add_edge("d", "e")
        walks_e = dynamic.walks_from("e")
        assert walks_e.shape == (10, 5)
        assert np.all(walks_e[:, 0] == dynamic.node_position("e"))
        # e's in-neighbour is d: every live first step goes there.
        d_pos = dynamic.node_position("d")
        assert np.all(walks_e[:, 1] == d_pos)


class TestTouchedWalks:
    """The mask of walks whose step-table inputs a mutation may change."""

    @staticmethod
    def visitors(walks, position):
        # visits at offsets < length: the final offset takes no step
        return (walks[:, :, :-1] == position).any(axis=2)

    def test_uniform_reweight_touches_visitors_without_restepping(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=30, length=5, seed=0)
        before = dynamic.walks.copy()
        assert dynamic.set_weight("a", "b", 4.0) == 0  # no transition moved
        assert np.array_equal(dynamic.walks, before)
        touched = dynamic.take_touched_walks()
        expected = self.visitors(before, dynamic.node_position("b"))
        assert expected.any()
        assert np.array_equal(touched, expected)

    def test_accumulates_until_taken(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=30, length=5, seed=0)
        before = dynamic.walks.copy()
        dynamic.set_weight("a", "b", 2.0)
        dynamic.set_weight("d", "c", 3.0)
        touched = dynamic.take_touched_walks()
        expected = self.visitors(before, dynamic.node_position("b")) | (
            self.visitors(before, dynamic.node_position("c"))
        )
        assert np.array_equal(touched, expected)
        assert not dynamic.take_touched_walks().any()  # restarted

    def test_restepped_walks_are_touched(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=30, length=5, seed=0)
        before = dynamic.walks.copy()
        resampled = dynamic.add_edge("d", "a", weight=1.0)
        touched = dynamic.take_touched_walks()
        assert int(touched.sum()) == resampled
        assert np.array_equal(
            touched, self.visitors(before, dynamic.node_position("a"))
        )

    def test_growth_gives_no_row_for_row_mask(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=10, length=4, seed=0)
        dynamic.add_node("island")
        assert dynamic.take_touched_walks() is None
        assert dynamic.take_touched_walks().shape == (5, 10)

    def test_promotion_starts_a_fresh_mask(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=10, length=4, seed=0)
        dynamic.set_weight("a", "b", 2.0)
        promoted = DynamicWalkIndex.from_walk_index(dynamic)
        assert not promoted.take_touched_walks().any()


class TestEpochInvalidation:
    """Mutations bump the epoch; estimators pinned to an older epoch raise.

    The regression here is silent mis-scoring: before epochs existed, an
    estimator kept using its precomputed weight snapshots (step weights,
    SimRank first-meeting decays) after the walk tensor was repaired in
    place underneath it.
    """

    def test_epoch_starts_at_zero_and_counts_mutations(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=10, length=4, seed=0)
        assert dynamic.epoch == 0
        dynamic.add_edge("a", "c")
        dynamic.remove_edge("a", "c")
        assert dynamic.epoch == 2

    def test_plain_walk_index_is_epoch_zero(self):
        index = WalkIndex(small_graph(), num_walks=10, length=4, seed=0)
        assert index.epoch == 0

    def test_stale_simrank_estimator_raises(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=10, length=4, seed=0)
        estimator = MonteCarloSimRank(dynamic, decay=0.6)
        assert estimator.similarity("a", "b") >= 0.0  # fresh: fine
        dynamic.add_edge("a", "c")
        with pytest.raises(StaleIndexError) as excinfo:
            estimator.similarity("a", "b")
        assert excinfo.value.recorded_epoch == 0
        assert excinfo.value.current_epoch == 1
        with pytest.raises(StaleIndexError):
            estimator.similarity_batch("a", ["b", "c"])

    def test_stale_semsim_estimator_raises(self):
        graph, measure = build_taxonomy_graph()
        dynamic = DynamicWalkIndex(graph, num_walks=10, length=4, seed=0)
        estimator = MonteCarloSemSim(dynamic, measure, decay=0.6, theta=None)
        estimator.similarity("x1", "x2")
        dynamic.add_edge("x1", "x3")
        for call in (
            lambda: estimator.similarity("x1", "x2"),
            lambda: estimator.similarity_batch("x1", ["x2", "x3"]),
            lambda: estimator.similarity_with_interval("x1", "x2"),
        ):
            with pytest.raises(StaleIndexError):
                call()

    def test_rebuilt_estimator_recovers(self):
        dynamic = DynamicWalkIndex(small_graph(), num_walks=10, length=4, seed=0)
        stale = MonteCarloSimRank(dynamic, decay=0.6)
        dynamic.add_edge("a", "c")
        with pytest.raises(StaleIndexError):
            stale.similarity("a", "b")
        rebuilt = MonteCarloSimRank(dynamic, decay=0.6)
        assert rebuilt.similarity("a", "b") >= 0.0


class TestBitIdentity:
    """Incremental repair equals a cold rebuild, bit for bit."""

    @pytest.mark.parametrize("policy", [WalkPolicy.UNIFORM, WalkPolicy.WEIGHTED])
    def test_mutation_schedule_matches_fresh_index(self, policy):
        dynamic = DynamicWalkIndex(
            small_graph(), num_walks=25, length=6, policy=policy, seed=7
        )
        dynamic.add_edge("a", "d", weight=2.0)
        dynamic.set_weight("a", "d", 0.5)
        dynamic.add_node("lone")
        dynamic.add_edge("d", "e", weight=3.0)
        dynamic.remove_edge("a", "d")
        fresh = WalkIndex(
            dynamic.graph, num_walks=25, length=6, policy=policy, seed=7
        )
        assert np.array_equal(dynamic.walks, fresh.walks)

    def test_delete_then_reinsert_round_trips(self):
        # The graph round-trips semantically (same edges, same weights),
        # but the re-added edge appends at the END of c's in-list — and
        # in-list order is part of the walk tensor's bit layout.  The
        # invariant is therefore identity with a cold rebuild of the
        # resulting graph, not with the pre-delete tensor.
        dynamic = DynamicWalkIndex(small_graph(), num_walks=25, length=6, seed=3)
        dynamic.remove_edge("b", "c")
        dynamic.add_edge("b", "c", weight=1.0)
        assert dynamic.graph.has_edge("b", "c")
        fresh = WalkIndex(dynamic.graph, num_walks=25, length=6, seed=3)
        assert np.array_equal(dynamic.walks, fresh.walks)

    def test_generation_promotion_preserves_identity(self):
        gen1 = DynamicWalkIndex(small_graph(), num_walks=25, length=6, seed=5)
        gen1.add_edge("d", "e")
        gen2 = DynamicWalkIndex.from_walk_index(gen1)
        assert gen2.epoch == gen1.epoch  # lineage epoch carries over
        gen2.remove_edge("c", "d")
        fresh = WalkIndex(gen2.graph, num_walks=25, length=6, seed=5)
        assert np.array_equal(gen2.walks, fresh.walks)


class TestDistributionCorrectness:
    """After updates, estimates must match a freshly built index."""

    def test_simrank_estimates_match_fresh_index(self):
        graph = small_graph()
        dynamic = DynamicWalkIndex(graph, num_walks=3000, length=12, seed=1)
        dynamic.add_edge("a", "d", weight=1.0)
        dynamic.add_edge("d", "a", weight=1.0)

        updated_graph = graph.copy()
        updated_graph.add_undirected_edge("a", "d")
        exact = simrank_scores(
            updated_graph, decay=0.6, tolerance=1e-12, max_iterations=300
        )
        estimator = MonteCarloSimRank(dynamic, decay=0.6)
        for pair in [("a", "c"), ("b", "d"), ("a", "d")]:
            assert estimator.similarity(*pair) == pytest.approx(
                exact.score(*pair), abs=0.03
            )

    def test_semsim_estimates_match_fresh_index(self):
        graph, measure = build_taxonomy_graph()
        dynamic = DynamicWalkIndex(graph, num_walks=1500, length=15, seed=2)
        dynamic.add_edge("x1", "x3", weight=1.0)
        dynamic.add_edge("x3", "x1", weight=1.0)

        fresh = WalkIndex(dynamic.graph, num_walks=1500, length=15, seed=99)
        via_dynamic = MonteCarloSemSim(dynamic, measure, decay=0.6, theta=None)
        via_fresh = MonteCarloSemSim(fresh, measure, decay=0.6, theta=None)
        for pair in [("mid1", "mid2"), ("x1", "x3")]:
            assert via_dynamic.similarity(*pair) == pytest.approx(
                via_fresh.similarity(*pair), abs=0.04
            )

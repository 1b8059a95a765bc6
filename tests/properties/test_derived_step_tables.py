"""Property tests: step tables carried across a mutation are a cold build's.

A mutated generation derives its per-step ``W``/``Q`` tables from its
parent's (:meth:`~repro.core.montecarlo.MonteCarloSemSim.derive_step_tables`),
recomputing only the walks the mutations touched.  The contract is
bit-identity with the tables a from-scratch engine on the mutated graph
builds, and with its batch and top-k answers — the paths that read the
step tables (scalar ``score`` never does).

Hypothesis drives mutation schedules through ``QueryEngine.with_mutations``
chains under both walk policies: multi-mutation batches, re-weights under
UNIFORM (which change ``W`` without changing any transition row), parents
whose tables were never built, and parents opened from an artifact whose
tables are read-only memmaps.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import QueryEngine
from repro.core.walk_index import WalkPolicy

from tests.conftest import random_hin_with_measure

COMMON = settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

POLICIES = [WalkPolicy.UNIFORM, WalkPolicy.WEIGHTED]

ENGINE = dict(num_walks=20, length=6, theta=0.05)


def make_engine(graph, measure, policy, seed, **extra):
    return QueryEngine(graph, measure, policy=policy, seed=seed, **ENGINE, **extra)


def mutation_batches(graph, schedule_seed, num_batches, max_batch):
    """Legal batches of edge inserts, re-weights and deletes.

    Endpoints are existing nodes only (the semantic measure cannot cover
    new ones); a local replica keeps every delete and re-weight on a live
    edge.
    """
    rng = np.random.default_rng(schedule_seed)
    replica = graph.copy()
    nodes = list(replica.nodes())
    batches = []
    for _ in range(num_batches):
        batch = []
        for _ in range(int(rng.integers(1, max_batch + 1))):
            kind = ("add_edge", "set_weight", "remove_edge")[int(rng.integers(3))]
            edges = list(replica.edges())
            weight = float(rng.integers(1, 6))
            if kind == "add_edge" or not edges:
                i, j = rng.choice(len(nodes), size=2, replace=False)
                u, v = nodes[int(i)], nodes[int(j)]
                replica.add_edge(u, v, weight=weight)
                batch.append(("add_edge", u, v, weight))
                continue
            u, v, _w, _label = edges[int(rng.integers(len(edges)))]
            if kind == "set_weight":
                replica.add_edge(u, v, weight=weight)
                batch.append(("set_weight", u, v, weight))
            else:
                replica.remove_edge(u, v)
                batch.append(("remove_edge", u, v))
        batches.append(batch)
    return batches


def assert_matches_cold(engine, measure, policy, seed):
    """Tables and batch/top-k answers equal a cold engine's, bit for bit."""
    cold = make_engine(engine.graph.copy(), measure, policy, seed)
    live, fresh = engine.estimator, cold.estimator
    for estimator in (live, fresh):
        estimator._ensure_step_tables()
        estimator._ensure_so_matrix()
    assert np.array_equal(engine.walk_index.walks, cold.walk_index.walks)
    assert np.array_equal(live._step_weights, fresh._step_weights)
    assert np.array_equal(live._step_q, fresh._step_q)
    assert np.array_equal(live._so_matrix, fresh._so_matrix)
    nodes = list(engine.graph.nodes())
    for u in nodes[:4]:
        assert np.array_equal(
            engine.score_batch(u, nodes), cold.score_batch(u, nodes)
        )
        assert engine.top_k(u, 5) == cold.top_k(u, 5)


@COMMON
@given(
    model_seed=st.integers(0, 10_000),
    schedule_seed=st.integers(0, 10_000),
    walk_seed=st.integers(0, 10_000),
    num_batches=st.integers(1, 3),
    max_batch=st.integers(1, 4),
    policy=st.sampled_from(POLICIES),
)
def test_derived_chain_matches_cold_rebuild(
    model_seed, schedule_seed, walk_seed, num_batches, max_batch, policy,
):
    graph, measure = random_hin_with_measure(model_seed)
    engine = make_engine(graph, measure, policy, walk_seed)
    engine.estimator._ensure_step_tables()
    for batch in mutation_batches(graph, schedule_seed, num_batches, max_batch):
        engine = engine.with_mutations(batch)
        # the parent had tables, so the derive path ran (no lazy fallback)
        assert engine.touched_walks is not None
        assert_matches_cold(engine, measure, policy, walk_seed)


@COMMON
@given(
    model_seed=st.integers(0, 10_000),
    walk_seed=st.integers(0, 10_000),
    edge_pick=st.integers(0, 10_000),
    weight=st.integers(1, 9),
)
def test_uniform_reweight_rederives_weights(
    model_seed, walk_seed, edge_pick, weight,
):
    """UNIFORM re-weights move no walk but do move ``W``."""
    graph, measure = random_hin_with_measure(model_seed)
    engine = make_engine(graph, measure, WalkPolicy.UNIFORM, walk_seed)
    engine.estimator._ensure_step_tables()
    edges = list(graph.edges())
    u, v, _w, _label = edges[edge_pick % len(edges)]
    mutated = engine.with_mutations([("set_weight", u, v, float(weight) + 0.5)])
    assert mutated._dynamic.walks_resampled == 0
    assert np.array_equal(mutated.walk_index.walks, engine.walk_index.walks)
    target = engine.walk_index.node_position(v)
    visits = (engine.walk_index.walks[:, :, :-1] == target).any(axis=2)
    assert mutated.touched_walks == int(visits.sum())
    assert_matches_cold(mutated, measure, WalkPolicy.UNIFORM, walk_seed)


@COMMON
@given(
    model_seed=st.integers(0, 10_000),
    schedule_seed=st.integers(0, 10_000),
    policy=st.sampled_from(POLICIES),
)
def test_lazy_parent_falls_back_to_full_build(model_seed, schedule_seed, policy):
    graph, measure = random_hin_with_measure(model_seed)
    engine = make_engine(graph, measure, policy, 5)
    assert engine.estimator._step_weights is None
    first, second = mutation_batches(graph, schedule_seed, 2, 3)
    lazy_child = engine.with_mutations(first)
    assert lazy_child.touched_walks is None
    assert lazy_child.estimator._step_weights is None
    assert_matches_cold(lazy_child, measure, policy, 5)
    # the child built its tables while answering: its own child derives
    grandchild = lazy_child.with_mutations(second)
    assert grandchild.touched_walks is not None
    assert_matches_cold(grandchild, measure, policy, 5)


@COMMON
@given(
    model_seed=st.integers(0, 10_000),
    schedule_seed=st.integers(0, 10_000),
    max_batch=st.integers(1, 4),
    policy=st.sampled_from(POLICIES),
)
def test_artifact_parent_memmaps_stay_untouched(
    model_seed, schedule_seed, max_batch, policy,
):
    graph, measure = random_hin_with_measure(model_seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = make_engine(graph, measure, policy, 9).save(Path(tmp) / "idx")
        opened = QueryEngine.open(path)
        parent = opened.estimator
        assert isinstance(parent._step_weights, np.memmap)
        assert not parent._step_weights.flags.writeable
        before = (np.array(parent._step_weights), np.array(parent._step_q))
        (batch,) = mutation_batches(graph, schedule_seed, 1, max_batch)
        mutated = opened.with_mutations(batch)
        assert mutated.touched_walks is not None
        assert_matches_cold(mutated, measure, policy, 9)
        assert np.array_equal(parent._step_weights, before[0])
        assert np.array_equal(parent._step_q, before[1])

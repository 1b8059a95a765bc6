"""Workload definitions: graphs, server flags and seeded request streams.

Every workload is a closed-loop traffic mix against one ``repro serve``
process.  The graph and the walk index are fixed (the index seed never
changes); the workload seed only chooses the request stream, so two runs
with the same seed send the same lines in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Common estimator settings (paper defaults: c=0.6, n_w=300, t=15, θ=0.05).
DECAY = 0.6
NUM_WALKS = 300
LENGTH = 15
THETA = 0.05
INDEX_SEED = 7
#: One serving worker thread.  On a 2-CPU box two workers fight over the
#: GIL and the CPUs with the server's reader and the client's threads;
#: with one the server needs about one CPU and the client the other.
SERVE_WORKERS = 1
#: How many oracle neighbours count as "related" targets for a source.
RELATED_TOP = 20
TOPK_K = 10
BATCH_CANDIDATES = 32
HOT_ORDER_SEED = 0
TOPK_STRATUM = 25


@dataclass(frozen=True)
class GraphSpec:
    """One dataset generator call (the graph is the same on every run)."""

    name: str
    generator: str
    kwargs: dict

    def build(self):
        from repro import datasets

        return getattr(datasets, self.generator)(**self.kwargs)


AMINER = GraphSpec(
    "aminer-517", "aminer_like",
    {"num_authors": 300, "num_terms": 150, "seed": 11},
)
AMAZON = GraphSpec("amazon-1058", "amazon_like", {"num_products": 1000, "seed": 3})


@dataclass(frozen=True)
class Workload:
    """One traffic mix; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    graph: GraphSpec
    #: ``index``: ``repro index build`` then ``serve --index``;
    #: ``cache``: ``serve <bundle> --cache <empty dir>`` (cold build).
    setup: str
    window: int


WORKLOADS = {
    "hot-mix": Workload("hot-mix", AMINER, "index", window=16),
    "rw": Workload("rw", AMAZON, "cache", window=8),
}

#: Shard processes of the sharded server that the traced ``hot-mix`` run
#: also drives.  One shard takes every request through the scatter, the
#: shard's replay and the merge; two shard processes plus the coordinator
#: and the client oversubscribed a 2-CPU box.
TRACE_SHARDS = 1


def engine_flags() -> list[str]:
    """The estimator flags shared by ``index build`` and cold ``serve``."""
    return [
        "--method", "mc", "--decay", str(DECAY), "--walks", str(NUM_WALKS),
        "--length", str(LENGTH), "--theta", str(THETA),
        "--seed", str(INDEX_SEED),
    ]


def engine_kwargs() -> dict:
    """The same settings as :func:`engine_flags`, for in-process engines."""
    return dict(
        method="mc", decay=DECAY, num_walks=NUM_WALKS, length=LENGTH,
        theta=THETA, seed=INDEX_SEED,
    )


@dataclass(frozen=True, slots=True)
class Line:
    """One protocol line plus what the checker needs to know about it."""

    kind: str            # pair | batch | topk | update | deledge
    text: str
    u: str
    targets: tuple = ()  # pair: (v,); batch: candidates; writes: (v,)
    weight: float | None = None

    @property
    def is_write(self) -> bool:
        return self.kind in ("update", "deledge")

    def mutation(self) -> tuple:
        """The ``IndexManager.apply_mutations`` tuple for a write line."""
        if self.kind == "update":
            return ("add_edge", self.u, self.targets[0], self.weight)
        return ("remove_edge", self.u, self.targets[0])


def related_targets(oracle, entities: list[str]) -> dict[str, list[str]]:
    """Each entity's oracle top-:data:`RELATED_TOP` among the entities."""
    position = {node: i for i, node in enumerate(oracle.nodes)}
    cols = np.array([position[e] for e in entities])
    sub = oracle.matrix[np.ix_(cols, cols)]
    np.fill_diagonal(sub, -np.inf)
    order = np.argsort(-sub, axis=1, kind="stable")[:, :RELATED_TOP]
    return {
        entities[i]: [entities[j] for j in order[i]] for i in range(len(entities))
    }


def stream(name: str, seed: int, bundle, related: dict[str, list[str]]):
    """Yield the workload's request lines forever, reproducibly from *seed*.

    Line kinds come in fixed blocks shuffled by the seed, and sources are
    quasi-random draws whose phase the seed sets.  A top-k search costs
    20-100 times a pair, so iid kinds and sources would let one run draw
    10% more top-k lines, or more of the costly sources, than the next,
    and every latency would follow that draw rather than the program.
    """
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    entities = [str(e) for e in bundle.entity_nodes]
    # a fixed order, so the same entities are hot on every run
    order = np.random.default_rng(HOT_ORDER_SEED).permutation(len(entities))
    entities = [entities[i] for i in order]
    if name == "hot-mix":
        yield from _hot_mix(rng, entities, related)
    elif name == "rw":
        yield from _rw(rng, entities, related, bundle.graph)
    else:
        raise ValueError(f"unknown workload {name!r}")


class _Sources:
    """Quasi-random source draws (golden-ratio sequence, seed-set phase).

    Over any stretch of a run each source is drawn at almost exactly its
    probability, where iid draws would scatter the counts.
    """

    GOLDEN = (5 ** 0.5 - 1) / 2

    def __init__(self, rng, entities: list[str], weights: np.ndarray):
        self.entities = entities
        self.cdf = np.cumsum(weights / weights.sum())
        self.x = rng.random()

    def draw(self) -> str:
        self.x = (self.x + self.GOLDEN) % 1.0
        index = int(np.searchsorted(self.cdf, self.x, side="right"))
        return self.entities[min(index, len(self.entities) - 1)]


def _block(rng, kinds: list[str]) -> list[str]:
    """One seed-shuffled block of kinds: exact shares in every block."""
    return [kinds[i] for i in rng.permutation(len(kinds))]


def _other(rng, entities, u):
    while True:
        v = entities[rng.integers(len(entities))]
        if v != u:
            return v


def _pair(rng, entities, related, u):
    if rng.random() < 0.5:
        v = related[u][rng.integers(RELATED_TOP)]
    else:
        v = _other(rng, entities, u)
    return Line("pair", f"{u} {v}", u, (v,))


def _hot_mix(rng, entities, related):
    # Zipf(1.1): the hottest source takes ~15% of the lines
    zipf = 1.0 / np.arange(1, len(entities) + 1) ** 1.1
    sources = {kind: _Sources(rng, entities, zipf) for kind in ("pair", "batch", "topk")}
    while True:
        for kind in _block(rng, ["pair"] * 8 + ["batch", "topk"]):
            yield _hot_line(rng, entities, related, kind, sources[kind].draw())


def _hot_line(rng, entities, related, kind, u):
    if kind == "pair":
        return _pair(rng, entities, related, u)
    if kind == "batch":
        near = [related[u][i] for i in rng.choice(RELATED_TOP, 8, replace=False)]
        pool = [e for e in entities if e != u and e not in near]
        far = [pool[i] for i in rng.choice(len(pool), BATCH_CANDIDATES - 8,
                                           replace=False)]
        candidates = near + far
        rng.shuffle(candidates)
        return Line("batch", f"BATCH {u} " + " ".join(candidates), u,
                    tuple(candidates))
    return Line("topk", f"TOPK {u} {TOPK_K}", u)


def _rw(rng, entities, related, graph):
    uniform = np.ones(len(entities))
    sources = {kind: _Sources(rng, entities, uniform) for kind in ("pair", "write")}
    # A 16 s run sends only ~120 TOPK lines and their cost varies 10x
    # between sources, so they draw from one fixed stratum of the entities,
    # small enough that every run ranks each of its sources about five
    # times, in a seed-chosen order.
    sources["topk"] = _Sources(rng, entities[:TOPK_STRATUM],
                               np.ones(TOPK_STRATUM))
    inserted: list[tuple[str, str]] = []
    while True:
        for kind in _block(rng, ["pair"] * 84 + ["topk"] * 15):
            u = sources[kind].draw()
            if kind == "pair":
                yield _pair(rng, entities, related, u)
            else:
                yield Line("topk", f"TOPK {u} {TOPK_K}", u)
        # every 100th line writes: a fixed spacing keeps the share of
        # reads queued behind a write the same from run to run
        if inserted and rng.random() < 0.5:
            a, b = inserted.pop(rng.integers(len(inserted)))
            yield Line("deledge", f"DELEDGE {a} {b}", a, (b,))
            continue
        u = sources["write"].draw()
        v = _other(rng, entities, u)
        while graph.has_edge(u, v) or (u, v) in inserted:
            v = _other(rng, entities, u)
        weight = float(rng.integers(1, 6))
        inserted.append((u, v))
        yield Line("update", f"UPDATE {u} {v} {weight:g}", u, (v,), weight)

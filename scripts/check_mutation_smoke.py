#!/usr/bin/env python
"""CI mutation-soak: a live serve session must track a cold rebuild.

Two subcommands around one ``repro serve --index`` session:

``generate INDEX SESSION_OUT EXPECTED_OUT``
    Derives a deterministic ~100-mutation schedule (edge inserts,
    re-weights, deletes — all between nodes the index already knows, so
    the bundle's semantic measure stays valid) from the artifact's own
    graph, interleaves it with queries, and writes

    * ``SESSION_OUT`` — the protocol lines to pipe into ``repro serve``
      (mutations, mid-soak queries, final query block, ``HEALTH``);
    * ``EXPECTED_OUT`` — the final block's answers computed *offline* by
      a cold engine built from scratch on the mutated graph (the schedule
      applied once with :meth:`QueryEngine.with_mutations` only to obtain
      that graph), plus the schedule size.  The final block holds pair
      scores, ``BATCH`` lines and ``TOPK`` lines, so the batch kernel and
      the per-step tables a live write carries forward are checked too.

``verify SERVE_OUT EXPECTED_OUT``
    Parses the serve session's stdout and fails (exit 1) unless

    * the session became ready and nothing was degraded;
    * every mutation line was acknowledged (``mutated: true``) with a
      strictly increasing epoch;
    * the final pair, ``BATCH`` and ``TOPK`` answers are **bit-identical**
      to the offline cold rebuild — the incremental-maintenance
      guarantee, end to end;
    * the closing HEALTH snapshot reports every mutation applied.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Mutation count for the soak (inserts + re-weights + deletes).
NUM_MUTATIONS = 100
#: A query is interleaved after every Nth mutation.
QUERY_EVERY = 5
#: Final query block size (pairs scored after the full schedule).
NUM_FINAL_PAIRS = 10
#: ``BATCH`` lines in the final block, and candidates per line.
NUM_FINAL_BATCHES = 3
BATCH_CANDIDATES = 8
#: ``TOPK`` lines in the final block, and their k.
NUM_FINAL_TOPK = 3
TOPK_K = 5
SCHEDULE_SEED = 20260808


def _fail(message: str) -> "NoReturn":  # noqa: F821 - py3.11 typing-lite
    print(f"check_mutation_smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _build_schedule(graph, rng):
    """A deterministic mutation schedule legal at every step.

    Tracks the evolving edge set on a local replica so deletes always
    hit a live edge and inserts never create self-loops; weights stay in
    a small integer range so re-weights are visible in the tensors.
    """
    nodes = sorted(graph.nodes(), key=str)
    schedule = []
    for _ in range(NUM_MUTATIONS):
        kinds = ["insert", "reweight"]
        if graph.num_edges > len(nodes):  # keep the graph connected-ish
            kinds.append("delete")
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "delete":
            edges = list(graph.edges())
            u, v, _w, _label = edges[int(rng.integers(len(edges)))]
            graph.remove_edge(u, v)
            schedule.append(("remove_edge", u, v))
            continue
        if kind == "reweight":
            edges = list(graph.edges())
            u, v, _w, _label = edges[int(rng.integers(len(edges)))]
        else:
            while True:
                i, j = rng.integers(len(nodes), size=2)
                if i != j:
                    break
            u, v = nodes[int(i)], nodes[int(j)]
        weight = float(rng.integers(1, 6))
        graph.add_edge(u, v, weight=weight)
        schedule.append(("add_edge", u, v, weight))
    return schedule


def _query_pairs(graph, rng, count):
    nodes = sorted(graph.nodes(), key=str)
    pairs = []
    while len(pairs) < count:
        i, j = rng.integers(len(nodes), size=2)
        if i != j:
            pairs.append((nodes[int(i)], nodes[int(j)]))
    return pairs


def _generate(index_path: str, session_out: str, expected_out: str) -> int:
    import numpy as np

    from repro.api import QueryEngine

    engine = QueryEngine.open(index_path)
    rng = np.random.default_rng(SCHEDULE_SEED)
    schedule = _build_schedule(engine.graph.copy(), rng)
    final_pairs = _query_pairs(engine.graph, rng, NUM_FINAL_PAIRS)

    lines = []
    for position, mutation in enumerate(schedule):
        if mutation[0] == "remove_edge":
            lines.append(f"DELEDGE {mutation[1]} {mutation[2]}")
        else:
            lines.append(
                f"UPDATE {mutation[1]} {mutation[2]} {mutation[3]}"
            )
        if (position + 1) % QUERY_EVERY == 0:
            u, v = final_pairs[(position // QUERY_EVERY) % len(final_pairs)]
            lines.append(f"{u} {v}")
    for u, v in final_pairs:
        lines.append(f"{u} {v}")
    nodes = sorted(engine.graph.nodes(), key=str)
    batches = []
    for _ in range(NUM_FINAL_BATCHES):
        picks = rng.choice(len(nodes), size=BATCH_CANDIDATES + 1, replace=False)
        u, *candidates = [nodes[int(i)] for i in picks]
        batches.append((u, candidates))
        lines.append(f"BATCH {u} {' '.join(candidates)}")
    topk_sources = [
        nodes[int(i)]
        for i in rng.choice(len(nodes), size=NUM_FINAL_TOPK, replace=False)
    ]
    for u in topk_sources:
        lines.append(f"TOPK {u} {TOPK_K}")
    lines.append("HEALTH")
    Path(session_out).write_text("\n".join(lines) + "\n", encoding="utf-8")

    # the offline oracle: a cold engine built from scratch on the graph
    # the whole schedule produces — the serve session maintains its index
    # incrementally, one write at a time, and must land on the same bits
    mutated_graph = engine.with_mutations(schedule).graph
    cold = QueryEngine(
        mutated_graph.copy(),
        engine.measure,
        method="mc",
        decay=engine.decay,
        num_walks=engine.num_walks,
        length=engine.length,
        theta=engine.theta,
        policy=engine.policy,
        seed=engine._seed_key,
    )
    expected = {
        "mutations": len(schedule),
        "pairs": [[u, v] for u, v in final_pairs],
        "scores": [cold.score(u, v) for u, v in final_pairs],
        "batches": [
            [u, candidates, [float(x) for x in cold.score_batch(u, candidates)]]
            for u, candidates in batches
        ],
        "topk": [
            [u, [[str(node), float(score)] for node, score in cold.top_k(u, TOPK_K)]]
            for u in topk_sources
        ],
    }
    Path(expected_out).write_text(json.dumps(expected), encoding="utf-8")
    print(
        f"check_mutation_smoke: wrote {len(schedule)} mutations, "
        f"{len(lines)} protocol lines, {len(final_pairs)} oracle pairs, "
        f"{len(batches)} batches, {len(topk_sources)} top-k searches"
    )
    return 0


def _verify(serve_out: str, expected_out: str) -> int:
    expected = json.loads(Path(expected_out).read_text(encoding="utf-8"))
    responses = [
        json.loads(line)
        for line in Path(serve_out).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not responses or not responses[0].get("ready"):
        _fail("serve session never became ready")
    body = responses[1:]

    errors = [r for r in body if "error" in r]
    if errors:
        _fail(f"{len(errors)} protocol errors, first: {errors[0]}")
    degraded = [r for r in body if r.get("degraded")]
    if degraded:
        _fail(f"{len(degraded)} degraded responses, first: {degraded[0]}")

    acks = [r for r in body if r.get("mutated")]
    if len(acks) != expected["mutations"]:
        _fail(
            f"expected {expected['mutations']} mutation acks, "
            f"got {len(acks)}"
        )
    epochs = [ack["epoch"] for ack in acks]
    if epochs != sorted(set(epochs)):
        _fail(f"mutation epochs not strictly increasing: {epochs[:10]}...")

    queries = [r for r in body if "value" in r]
    final = queries[-len(expected["pairs"]):]
    if len(final) != len(expected["pairs"]):
        _fail(
            f"expected {len(expected['pairs'])} final queries, "
            f"session produced {len(queries)}"
        )
    for response, (u, v), score in zip(
        final, expected["pairs"], expected["scores"]
    ):
        if [response["u"], response["v"]] != [u, v]:
            _fail(f"final query order drifted: {response} vs {(u, v)}")
        if response["value"] != score:
            _fail(
                f"score for ({u}, {v}) drifted from the cold rebuild: "
                f"{response['value']} != {score}"
            )

    batches = [r for r in body if "values" in r]
    if len(batches) != len(expected["batches"]):
        _fail(
            f"expected {len(expected['batches'])} BATCH answers, "
            f"session produced {len(batches)}"
        )
    for response, (u, candidates, values) in zip(batches, expected["batches"]):
        if [response["u"], response["candidates"]] != [u, candidates]:
            _fail(f"BATCH order drifted: {response} vs {(u, candidates)}")
        if response["values"] != values:
            _fail(
                f"BATCH {u} drifted from the cold rebuild: "
                f"{response['values']} != {values}"
            )

    topks = [r for r in body if "results" in r]
    if len(topks) != len(expected["topk"]):
        _fail(
            f"expected {len(expected['topk'])} TOPK answers, "
            f"session produced {len(topks)}"
        )
    for response, (u, results) in zip(topks, expected["topk"]):
        if response["u"] != u:
            _fail(f"TOPK order drifted: {response} vs {u}")
        if response["results"] != results:
            _fail(
                f"TOPK {u} drifted from the cold rebuild: "
                f"{response['results']} != {results}"
            )

    health = responses[-1]
    if health.get("mutations_applied") != expected["mutations"]:
        _fail(
            "HEALTH reports "
            f"{health.get('mutations_applied')} mutations applied, "
            f"expected {expected['mutations']}"
        )
    print(
        "check_mutation_smoke: OK — "
        f"{expected['mutations']} live mutations, final "
        f"{len(expected['pairs'])} scores, {len(batches)} batches and "
        f"{len(topks)} top-k lists bit-identical to a cold rebuild"
    )
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "generate":
        return _generate(argv[1], argv[2], argv[3])
    if len(argv) == 3 and argv[0] == "verify":
        return _verify(argv[1], argv[2])
    _fail(
        "usage: check_mutation_smoke.py generate INDEX SESSION_OUT "
        "EXPECTED_OUT | verify SERVE_OUT EXPECTED_OUT"
    )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

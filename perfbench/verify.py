"""Check served answers: bit-identity against an in-process engine, and
accuracy against the exact iterative oracle.

Identity: every served score, batch vector and top-k list must equal the
answer of an in-process :class:`repro.api.QueryEngine` built on the same
artifact (or with the same parameters), with the same writes replayed in
order.  Scores survive the JSON round trip exactly (``json`` writes the
shortest repr that reads back to the same float), so the comparison is
``==`` with no tolerance.

Accuracy: served scores against the exact SemSim fixed point of the graph
generation that answered them.  MC gets no exemption and no tolerance.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import DECAY, TOPK_K


@dataclass
class Oracle:
    """Exact all-pairs SemSim of one graph generation plus ``sem``."""

    nodes: list[str]
    matrix: np.ndarray
    sem: np.ndarray

    def __post_init__(self):
        self.position = {node: i for i, node in enumerate(self.nodes)}

    def top(self, u: str, k: int) -> list[str]:
        """The exact top-*k* of *u* over every other node (serve's order)."""
        row = self.matrix[self.position[u]]
        ranked = sorted(
            ((float(row[j]), node) for j, node in enumerate(self.nodes) if node != u),
            key=lambda item: (-item[0], item[1]),
        )
        return [node for _, node in ranked[:k]]


#: Fixed-point tolerance of the oracle: far below the errors it scores.
ORACLE_TOLERANCE = 1e-6


def compute_oracle(graph, measure, sem: np.ndarray | None = None) -> Oracle:
    """Exact SemSim of *graph*; pass *sem* when only edges changed."""
    from repro.core.semsim import semsim_scores
    from repro.semantics.base import semantic_matrix

    if sem is None:
        sem = semantic_matrix(measure, list(graph.nodes()))
    result = semsim_scores(
        graph, measure, decay=DECAY, tolerance=ORACLE_TOLERANCE,
        sem_matrix=sem, sparse_adjacency=True,
    )
    return Oracle([str(n) for n in result.nodes], np.asarray(result.matrix), sem)


def cached_oracle(path: Path, graph, measure) -> Oracle:
    """The oracle of an unmutated workload graph, computed once per checkout."""
    if path.exists():
        with np.load(path, allow_pickle=False) as data:
            return Oracle(list(data["nodes"]), data["matrix"], data["sem"])
    oracle = compute_oracle(graph, measure)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, nodes=np.array(oracle.nodes), matrix=oracle.matrix, sem=oracle.sem)
    tmp.replace(path)
    return oracle


@dataclass
class Answer:
    """One parsed response next to the line that asked for it."""

    record: object           # serveproc.Record
    payload: dict


@dataclass
class CheckReport:
    lines: int = 0
    errors: int = 0
    checked: int = 0
    mismatches: list[str] = field(default_factory=list)
    answers: list[Answer] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def parse(records, unexpected, stalled) -> CheckReport:
    """Pair every response with its line and check its shape.

    Ordering is checked through the echoed operands: each response must
    name the source (and target or candidates) of the line at its position.
    """
    report = CheckReport(lines=len(records))
    if unexpected:
        report.mismatches.append(f"{len(unexpected)} responses without a line")
    if stalled:
        report.mismatches.append("server left lines unanswered or exited non-zero")
    for record in records:
        try:
            payload = json.loads(record.raw)
        except ValueError:
            report.mismatches.append(f"unparseable response {record.raw[:80]!r}")
            continue
        if "error" in payload:
            report.errors += 1
            report.answers.append(Answer(record, payload))
            continue
        problem = _shape_problem(record.line, payload)
        if problem:
            report.mismatches.append(f"{record.line.text[:60]!r}: {problem}")
        report.answers.append(Answer(record, payload))
    return report


def _shape_problem(line, payload: dict) -> str | None:
    if line.is_write:
        return None if payload.get("mutated") is True else "not a write ack"
    if payload.get("u") != line.u:
        return f"answered for source {payload.get('u')!r}"
    if line.kind == "pair" and payload.get("v") != line.targets[0]:
        return f"answered for target {payload.get('v')!r}"
    if line.kind == "batch" and tuple(payload.get("candidates", ())) != line.targets:
        return "answered for other candidates"
    if line.kind == "topk" and payload.get("k") != TOPK_K:
        return f"answered k={payload.get('k')!r}"
    return None


def replay(report: CheckReport, engine) -> dict:
    """Compare every served answer with *engine*, generation by generation.

    *engine* is the in-process engine of generation 0; writes are replayed
    in order with :meth:`QueryEngine.with_mutations`, exactly as the serving
    manager builds each new generation.  Each distinct question is asked
    of the engine once.  Returns the engine of every generation, keyed by
    the number of writes applied.
    """
    memo: dict = {}
    by_generation: dict[int, list[Answer]] = defaultdict(list)
    writes: list = []
    for answer in report.answers:
        if "error" in answer.payload or answer.payload.get("degraded"):
            continue
        if answer.record.line.is_write:
            writes.append(answer.record.line.mutation())
        else:
            by_generation[answer.record.generation].append(answer)
    engines = {}
    for generation in range(len(writes) + 1):
        if generation:
            engine = engine.with_mutations([writes[generation - 1]])
        engines[generation] = engine
        report.checked += _replay_generation(
            report, engine, by_generation.get(generation, []),
            memo, tuple(writes[:generation]),
        )
    return engines


def _replay_generation(report, engine, answers, memo, chain) -> int:
    missing: dict[str, set] = defaultdict(set)
    for answer in answers:
        line = answer.record.line
        if line.kind == "pair" and (chain, line.u, line.targets[0]) not in memo:
            missing[line.u].add(line.targets[0])
    for u, targets in missing.items():
        targets = sorted(targets)
        # score_batch is bit-identical to score (the coalescer's contract)
        for v, value in zip(targets, engine.score_batch(u, targets)):
            memo[(chain, u, v)] = float(value)
    for answer in answers:
        line, payload = answer.record.line, answer.payload
        if line.kind == "pair":
            served, expected = payload.get("value"), memo[(chain, line.u, line.targets[0])]
        elif line.kind == "batch":
            key = (chain, line.text)
            if key not in memo:
                memo[key] = [
                    float(x) for x in engine.score_batch(line.u, list(line.targets))
                ]
            served, expected = payload.get("values"), memo[key]
        else:
            key = (chain, line.text)
            if key not in memo:
                memo[key] = [
                    [str(node), float(score)]
                    for node, score in engine.top_k(line.u, TOPK_K)
                ]
            served, expected = payload.get("results"), memo[key]
        if served != expected:
            report.mismatches.append(
                f"{line.text[:60]!r}: served {str(served)[:80]} != "
                f"in-process {str(expected)[:80]}"
            )
    return len(answers)


@dataclass
class Accuracy:
    topk_overlap_at10: float
    topk_samples: int
    abs_err_p99: float
    abs_err_mean: float
    err_samples: int
    bound_violation_share: float
    bound_samples: int


def accuracy(scored: list[tuple[Answer, Oracle]]) -> Accuracy:
    """Score read answers, each against the oracle of its generation."""
    overlaps, errors = [], []
    violations = bounded = 0
    for answer, oracle in scored:
        line, payload = answer.record.line, answer.payload
        if line.is_write or "error" in payload:
            continue
        i = oracle.position[line.u]
        if line.kind == "topk":
            served = [node for node, _ in payload["results"]]
            overlaps.append(len(set(served) & set(oracle.top(line.u, TOPK_K))) / TOPK_K)
            scored = [(node, score) for node, score in payload["results"]]
        else:
            values = [payload["value"]] if line.kind == "pair" else payload["values"]
            scored = list(zip(line.targets, values))
            for node, score in scored:
                errors.append(abs(score - oracle.matrix[i, oracle.position[node]]))
        for node, score in scored:
            if node == line.u:
                continue
            bounded += 1
            # Thm 2.3(5): sim(u, v) <= c * sem(u, v) off the diagonal
            if score > DECAY * oracle.sem[i, oracle.position[node]]:
                violations += 1
    return Accuracy(
        topk_overlap_at10=float(np.mean(overlaps)) if overlaps else float("nan"),
        topk_samples=len(overlaps),
        abs_err_p99=float(np.percentile(errors, 99)) if errors else float("nan"),
        abs_err_mean=float(np.mean(errors)) if errors else float("nan"),
        err_samples=len(errors),
        bound_violation_share=violations / bounded if bounded else float("nan"),
        bound_samples=bounded,
    )

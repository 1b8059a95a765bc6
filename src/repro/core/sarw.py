"""Semantic-Aware Random Walks (Definition 3.1).

A surfer on the (reversed) pair graph ``G²`` standing at ``(u, u')`` moves
to ``(v, v')`` with probability proportional to

    ``W(v, u) * W(v', u') * sem(v, v')``

— pairs of semantically close targets are preferred, but *every* neighbour
pair keeps positive probability (the paper contrasts this with meta-path
approaches that hard-restrict to same-label steps).

:class:`SemanticAwareWalker` samples coupled walks under this distribution
directly over ``G`` (never materialising ``G²``) and reports first-meeting
times, which is all Theorem 3.3 needs:

    ``sim(u, v) = sem(u, v) * E_P[c^tau]``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
import numpy as np

from repro.errors import NodeNotFoundError
from repro.hin.graph import HIN, Node
from repro.hin.pair_graph import Pair
from repro.semantics.base import SemanticMeasure
from repro.utils.rng import ensure_rng


def sarw_step_distribution(
    graph: HIN,
    measure: SemanticMeasure,
    pair: Pair,
) -> list[tuple[Pair, float]]:
    """Return the full next-step distribution from *pair* (Definition 3.1).

    The returned probabilities sum to 1 (or the list is empty when either
    component has no in-neighbour).  Singleton pairs return the empty list:
    surfers halt at their first meeting.

    >>> # Example 3.2 reproduces with the Figure-2 graph in the tests.
    """
    u, v = pair
    if u not in graph:
        raise NodeNotFoundError(u)
    if v not in graph:
        raise NodeNotFoundError(v)
    if u == v:
        return []
    targets: list[Pair] = []
    masses: list[float] = []
    for a, weight_a, _ in graph.in_edges(u):
        for b, weight_b, _ in graph.in_edges(v):
            targets.append((a, b))
            masses.append(weight_a * weight_b * measure.similarity(a, b))
    total = float(sum(masses))
    if total <= 0:
        return []
    return [(target, mass / total) for target, mass in zip(targets, masses)]


@dataclass
class CoupledWalk:
    """One sampled SARW: the sequence of pairs and its step probabilities."""

    pairs: list[Pair]
    step_probabilities: list[float]

    @property
    def length(self) -> int:
        """``l(w)`` — the number of *steps* (edges) taken."""
        return len(self.pairs) - 1

    @property
    def probability(self) -> float:
        """``P[w]`` — the product of the step probabilities."""
        result = 1.0
        for p in self.step_probabilities:
            result *= p
        return result

    @property
    def met(self) -> bool:
        """Whether the walk terminated at a singleton pair."""
        return bool(self.pairs) and self.pairs[-1][0] == self.pairs[-1][1]


#: Entries kept in a :class:`SemanticAwareWalker` step-distribution memo.
STEP_MEMO_CAP = 65536


class SemanticAwareWalker:
    """Samples semantic-aware coupled walks from a base graph.

    Step distributions are memoised per visited pair, so long sampling
    campaigns amortise the ``|I(u)| * |I(v)|`` enumeration cost.  The memo
    keeps at most :data:`STEP_MEMO_CAP` entries, evicting the least
    recently used: long-lived serving processes visit an unbounded stream
    of pairs.
    """

    def __init__(
        self,
        graph: HIN,
        measure: SemanticMeasure,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.graph = graph
        self.measure = measure
        self._rng = ensure_rng(seed)
        self._distributions: OrderedDict[Pair, list[tuple[Pair, float]]] = (
            OrderedDict()
        )

    def step_distribution(self, pair: Pair) -> list[tuple[Pair, float]]:
        """Memoised :func:`sarw_step_distribution` (bounded, LRU)."""
        memo = self._distributions
        try:
            cached = memo[pair]
        except KeyError:
            cached = sarw_step_distribution(self.graph, self.measure, pair)
            memo[pair] = cached
            if len(memo) > STEP_MEMO_CAP:
                memo.popitem(last=False)
        else:
            memo.move_to_end(pair)
        return cached

    def sample_walk(self, start: Pair, max_steps: int) -> CoupledWalk:
        """Sample one SARW from *start*, truncated at *max_steps* steps.

        The walk halts early when it reaches a singleton pair (the surfers
        met) or a pair with no outgoing move.
        """
        pairs = [start]
        probabilities: list[float] = []
        current = start
        for _ in range(max_steps):
            if current[0] == current[1]:
                break
            distribution = self.step_distribution(current)
            if not distribution:
                break
            masses = np.array([p for _, p in distribution])
            choice = int(self._rng.choice(len(distribution), p=masses / masses.sum()))
            current, probability = distribution[choice]
            pairs.append(current)
            probabilities.append(probability)
        return CoupledWalk(pairs, probabilities)

    def estimate_similarity(
        self,
        u: Node,
        v: Node,
        decay: float,
        num_walks: int,
        max_steps: int,
    ) -> float:
        """Direct MC estimate of ``sem(u, v) * E_P[c^tau]`` (Theorem 3.3).

        This is the *naive* estimator of Section 4.2 for a single pair; the
        scalable path is :class:`repro.core.montecarlo.MonteCarloSemSim`.
        """
        if num_walks < 1:
            return 0.0
        total = 0.0
        for _ in range(num_walks):
            walk = self.sample_walk((u, v), max_steps)
            if walk.met:
                total += decay ** walk.length
        return self.measure.similarity(u, v) * total / num_walks

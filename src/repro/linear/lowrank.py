"""Low-rank factored SemSim: rank-r offline factors, O(r) per pair online.

Follows the low-rank SimRank line of work (see PAPERS.md).  The held
object is always a symmetric *meeting kernel* ``H ≈ U diag(λ) Uᵀ`` with
unit diagonal; a pair score is one length-r dot product re-weighted by
the semantics at query time,

    ``score(u, v) = sem(u, v) · clip(H_r[u, v])``,

with the Prop. 2.5 θ cutoff applied to ``sem`` exactly as in the MC
estimator and the identity pinned to 1.  What ``H`` is depends on the
build path (below); on the decoupled path it solves

    ``H = c · Pᵀ H P + D``    ⇒    ``H = Σ_{k=0}^{∞} c^k (Pᵀ)^k D P^k``

where ``P`` is the column-normalized in-edge transition and
``D = diag(d)`` absorbs the diagonal pinning; the series is truncated at
``T = series_terms(c, tol)`` terms (tail ≤ tol).
``benchmarks/bench_lowrank_accuracy.py`` measures both paths against the
exact engines.

Two build paths:

* **dense-exact** (``n ≤ dense_limit``): the *sem-embedded* surfer-pair
  kernel is factored directly.  By the surfer-pair identity
  ``SemSim(u, v) = sem(u, v) · h(u, v)`` (the same identity the
  :mod:`~repro.linear.solver` linearizes), ``h = S ⊘ sem`` is recovered
  from the dense fixed point ``S`` and eigendecomposed — so a full-rank
  factorization reproduces the iterative engine exactly, and rank
  truncations of the one decomposition are Eckart–Young optimal (the
  error-vs-rank curve is monotone by construction, decaying to zero).
* **randomized** (large ``n``): the semantics are decoupled from the
  recurrence (``sem ≡ 1`` inside it, the series kernel above with
  ``d = (1 − c)·1``), and a seeded Gaussian range finder touches that
  kernel only through matvecs (``O(T · n · block)`` working memory,
  never N×N).  Decoupling is this path's one approximation beyond rank
  truncation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.backends import kernel_timer
from repro.core.montecarlo import EstimatorStats
from repro.core.params import validate_decay, validate_theta
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.hin.graph import HIN, GraphIndex, Node
from repro.linear.metrics import LOWRANK_RANK
from repro.linear.series import normalized_transition, series_terms
from repro.obs.registry import is_enabled
from repro.semantics.base import SemanticMeasure, semantic_matrix
from repro.semantics.cache import MatrixMeasure

DEFAULT_RANK = 16
DEFAULT_TOLERANCE = 1e-6
DEFAULT_DENSE_LIMIT = 1024
DEFAULT_OVERSAMPLE = 8
DEFAULT_BLOCK = 16


class LowRankSemSim:
    """Rank-r factored SemSim estimator: ``sem(u,v) · (U[i]·λ)·U[j]``.

    Construct through :meth:`build` (factorize a graph) or directly from
    persisted arrays (the store warm-start path).  Factors are kept
    exactly as given — possibly read-only mmap views — and never
    mutated.  With ``measure=None`` the estimator approximates classic
    unweighted SimRank (uniform edge mass, no gate).
    """

    method = "lowrank"

    def __init__(
        self,
        graph: HIN,
        measure: SemanticMeasure | None,
        factors: np.ndarray,
        eigenvalues: np.ndarray,
        diag: np.ndarray,
        *,
        decay: float = 0.6,
        theta: float | None = None,
        terms: int | None = None,
        exact_diagonal: bool = False,
        _index: GraphIndex | None = None,
    ) -> None:
        self.graph = graph
        self.measure = measure
        self.decay = validate_decay(decay)
        self.theta = validate_theta(theta)
        self.index = _index if _index is not None else GraphIndex.from_graph(graph)
        self._n = self.index.num_nodes
        self.factors = np.asarray(factors, dtype=np.float64)
        self.eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        self.diag = np.asarray(diag, dtype=np.float64)
        if self.factors.ndim != 2 or self.factors.shape[0] != self._n:
            raise ConfigurationError(
                f"factors must be ({self._n}, r), got {self.factors.shape}"
            )
        if self.eigenvalues.shape != (self.factors.shape[1],):
            raise ConfigurationError(
                "eigenvalues must align with the factor columns: "
                f"{self.eigenvalues.shape} vs rank {self.factors.shape[1]}"
            )
        self.terms = terms
        self.exact_diagonal = bool(exact_diagonal)
        self._sem_matrix: np.ndarray | None = None
        if isinstance(measure, MatrixMeasure) and list(measure.nodes) == list(
            self.index.nodes
        ):
            self._sem_matrix = np.asarray(measure.matrix, dtype=np.float64)
        self.stats = EstimatorStats(method="lowrank", estimator="lowrank")
        if is_enabled():
            LOWRANK_RANK.set(self.rank)

    @property
    def rank(self) -> int:
        """Rank of the held factorization."""
        return int(self.factors.shape[1])

    # -- offline build -----------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: HIN,
        measure: SemanticMeasure | None = None,
        *,
        decay: float = 0.6,
        theta: float | None = None,
        rank: int | None = None,
        seed: int | None = None,
        tolerance: float | None = None,
        dense_limit: int | None = None,
        oversample: int = DEFAULT_OVERSAMPLE,
        block: int = DEFAULT_BLOCK,
    ) -> "LowRankSemSim":
        """Factorize *graph* to rank ``min(rank, n)`` offline."""
        decay = validate_decay(decay)
        rank = DEFAULT_RANK if rank is None else int(rank)
        if rank < 1:
            raise ConfigurationError(f"rank must be >= 1, got {rank}")
        tolerance = DEFAULT_TOLERANCE if tolerance is None else float(tolerance)
        dense_limit = (
            DEFAULT_DENSE_LIMIT if dense_limit is None else int(dense_limit)
        )
        index = GraphIndex.from_graph(graph)
        n = index.num_nodes
        terms = series_terms(decay, tolerance)
        with kernel_timer("lowrank", "factorize"):
            if n == 0:
                factors = np.zeros((0, 0), dtype=np.float64)
                eigenvalues = np.zeros(0, dtype=np.float64)
                diag = np.zeros(0, dtype=np.float64)
                exact = True
            else:
                effective = min(rank, n)
                if n <= dense_limit:
                    kernel = _exact_pair_kernel(
                        graph, measure, index, decay, terms
                    )
                    diag = np.ones(n, dtype=np.float64)
                    values, vectors = np.linalg.eigh(kernel)
                    keep = np.argsort(-np.abs(values))[:effective]
                    factors = np.ascontiguousarray(vectors[:, keep])
                    eigenvalues = values[keep]
                    exact = True
                else:
                    transition = normalized_transition(
                        index, use_weights=measure is not None
                    )
                    diag = np.full(n, 1.0 - decay, dtype=np.float64)
                    factors, eigenvalues = _randomized_factors(
                        transition,
                        diag,
                        decay,
                        terms,
                        effective,
                        seed=0 if seed is None else int(seed),
                        oversample=max(0, int(oversample)),
                        block=max(1, int(block)),
                    )
                    exact = False
        return cls(
            graph,
            measure,
            factors,
            eigenvalues,
            diag,
            decay=decay,
            theta=theta,
            terms=terms,
            exact_diagonal=exact,
            _index=index,
        )

    def truncated(self, rank: int) -> "LowRankSemSim":
        """A cheaper view of the same factorization at a smaller rank.

        Factor columns are ordered by ``|λ|`` descending, so nested
        truncations reuse the leading columns (Eckart–Young on the
        dense-exact path).
        """
        rank = int(rank)
        if not 1 <= rank <= self.rank:
            raise ConfigurationError(
                f"rank must be in [1, {self.rank}], got {rank}"
            )
        return LowRankSemSim(
            self.graph,
            self.measure,
            self.factors[:, :rank],
            self.eigenvalues[:rank],
            self.diag,
            decay=self.decay,
            theta=self.theta,
            terms=self.terms,
            exact_diagonal=self.exact_diagonal,
            _index=self.index,
        )

    def reconstruct(self) -> np.ndarray:
        """Dense ``U diag(λ) Uᵀ`` (tests and error curves only — O(N²))."""
        return (self.factors * self.eigenvalues) @ self.factors.T

    # -- online queries ----------------------------------------------------

    def _resolve(self, node: Node) -> int:
        try:
            return self.index.position[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def _sem_row(self, i: int, cand_ids: np.ndarray) -> np.ndarray:
        if self.measure is None:
            return np.ones(cand_ids.size, dtype=np.float64)
        if self._sem_matrix is not None:
            return self._sem_matrix[i, cand_ids]
        nodes = self.index.nodes
        a = nodes[i]
        return np.fromiter(
            (
                1.0 if int(v) == i else float(
                    self.measure.similarity(a, nodes[int(v)])
                )
                for v in cand_ids
            ),
            dtype=np.float64,
            count=cand_ids.size,
        )

    def similarity(self, u: Node, v: Node) -> float:
        """Approximate SemSim of one pair from the factors (O(r))."""
        return float(self.similarity_batch(u, [v])[0])

    def similarity_batch(self, u: Node, candidates) -> np.ndarray:
        """Score *u* against *candidates* with one factor gather."""
        candidates = list(candidates)
        i = self._resolve(u)
        cand_ids = np.fromiter(
            (self._resolve(v) for v in candidates),
            dtype=np.int64,
            count=len(candidates),
        )
        with kernel_timer("lowrank", "query_batch"):
            scores = self._score_ids(i, cand_ids)
        self.stats.add(
            queries=len(candidates),
            batch_queries=1,
            batch_pairs=len(candidates),
            vectorized_pairs=len(candidates),
        )
        return scores

    def single_source(self, u: Node) -> dict[Node, float]:
        """The full approximate similarity row of *u*."""
        i = self._resolve(u)
        cand_ids = np.arange(self._n, dtype=np.int64)
        with kernel_timer("lowrank", "query_batch"):
            scores = self._score_ids(i, cand_ids)
        self.stats.add(
            queries=self._n,
            batch_queries=1,
            batch_pairs=self._n,
            vectorized_pairs=self._n,
        )
        return dict(zip(self.index.nodes, scores.tolist()))

    def _score_ids(self, i: int, cand_ids: np.ndarray) -> np.ndarray:
        values = (self.factors[i] * self.eigenvalues) @ self.factors[
            cand_ids
        ].T
        np.clip(values, 0.0, 1.0, out=values)
        sem = self._sem_row(i, cand_ids)
        scores = sem * values
        identity = cand_ids == i
        if self.theta is not None:
            gated = (sem <= self.theta) & ~identity
            hits = int(np.count_nonzero(gated))
            if hits:
                scores[gated] = 0.0
                self.stats.add(sem_gate_hits=hits)
        scores[identity] = 1.0
        return scores


# -- kernel algebra --------------------------------------------------------


def _exact_pair_kernel(
    graph: HIN,
    measure: SemanticMeasure | None,
    index: GraphIndex,
    decay: float,
    terms: int,
) -> np.ndarray:
    """The sem-embedded meeting kernel ``h = S ⊘ sem`` from the fixed point.

    By the surfer-pair identity ``S(u, v) = sem(u, v) · h(u, v)``,
    dividing the converged SemSim table by the semantic matrix recovers
    the exact meeting kernel (``h = S`` verbatim for classic SimRank).
    Entries where ``sem = 0`` carry no score mass and are set to 0; the
    diagonal is exactly 1.  Factoring *this* kernel makes a full-rank
    build reproduce the iterative engine bit-for-bit modulo fixed-point
    tolerance — the semantics never leave the recurrence.
    """
    from repro.core.semsim import semsim_scores
    from repro.core.simrank import simrank_scores

    iterations = max(100, terms + 20)
    if measure is None:
        result = simrank_scores(
            graph, decay=decay, tolerance=1e-12, max_iterations=iterations
        )
        kernel = np.asarray(result.matrix, dtype=np.float64).copy()
    else:
        result = semsim_scores(
            graph, measure, decay=decay, tolerance=1e-12,
            max_iterations=iterations,
        )
        scores = np.asarray(result.matrix, dtype=np.float64)
        sem = semantic_matrix(measure, list(result.nodes))
        kernel = np.divide(
            scores, sem, out=np.zeros_like(scores), where=sem > 0
        )
    order = [result.nodes.index(node) for node in index.nodes]
    if order != list(range(index.num_nodes)):
        kernel = kernel[np.ix_(order, order)]
    np.fill_diagonal(kernel, 1.0)
    return 0.5 * (kernel + kernel.T)


def _apply_kernel(
    transition: sp.csr_matrix,
    transpose: sp.csr_matrix,
    diag: np.ndarray,
    decay: float,
    terms: int,
    block_input: np.ndarray,
) -> np.ndarray:
    """``(Σ_k c^k (Pᵀ)^k D P^k) @ X`` for one column block, via matvecs."""
    powers = [np.asarray(block_input, dtype=np.float64)]
    for _ in range(terms):
        powers.append(transition @ powers[-1])
    result = diag[:, None] * powers[terms]
    for k in range(terms - 1, -1, -1):
        result = diag[:, None] * powers[k] + decay * (transpose @ result)
    return result


def _randomized_factors(
    transition: sp.csr_matrix,
    diag: np.ndarray,
    decay: float,
    terms: int,
    rank: int,
    *,
    seed: int,
    oversample: int,
    block: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Halko-style range finder over the series kernel, matvec-only."""
    n = transition.shape[0]
    transpose = transition.T.tocsr()
    sketch = min(n, rank + oversample)
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((n, sketch))

    def apply(matrix: np.ndarray) -> np.ndarray:
        out = np.empty_like(matrix, dtype=np.float64)
        for start in range(0, matrix.shape[1], block):
            stop = min(start + block, matrix.shape[1])
            out[:, start:stop] = _apply_kernel(
                transition, transpose, diag, decay, terms,
                matrix[:, start:stop],
            )
        return out

    basis, _ = np.linalg.qr(apply(probes))
    small = basis.T @ apply(basis)
    small = 0.5 * (small + small.T)
    values, vectors = np.linalg.eigh(small)
    keep = np.argsort(-np.abs(values))[:rank]
    factors = np.ascontiguousarray(basis @ vectors[:, keep])
    return factors, values[keep]

"""Transport-based document distances over an embedding space.

The ground cost between two words is ``1 - clamp(cos, 0, 1)``, so all
costs live in [0, 1] and a cosine of zero already carries full unit
cost. The relaxed distance lets every source word ship its whole mass
to its cheapest counterpart; the symmetric-max variant takes the larger
of the two one-sided relaxations. One batched kernel computes the
relaxation, for a whole corpus or a single pair, with vocabulary-wide
scans instead of per-pair dense matrices. An exact solver over the
transport polytope is kept alongside as a verification oracle for small
instances.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingTable, similarity_matrix
from .errors import InternalInvariantError, OracleSizeError
from .textprep import NBow

SYMMETRIC_MAX = "symmetric-max"
ONE_SIDED_QUERY = "one-sided-query"
EXACT = "exact"

RWMD_VARIANTS = (SYMMETRIC_MAX, ONE_SIDED_QUERY)

DEFAULT_ORACLE_LIMIT = 64

# Byte budget for one block of raw cosines in lc_rwmd_batch; the rows per
# block follow from the query length, so peak memory stays flat as the
# query grows.
_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class DistanceResult:
    """A transport distance in [0, 1] with its similarity complement."""

    distance: float
    similarity: float
    variant: str

    @classmethod
    def from_distance(cls, distance: float, variant: str) -> "DistanceResult":
        d = float(distance)
        if not math.isfinite(d):
            raise InternalInvariantError(f"non-finite {variant} distance {d!r}")
        d = min(1.0, max(0.0, d))
        return cls(distance=d, similarity=1.0 - d, variant=variant)


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative flow matrix whose marginals match the two documents."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def row_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


def ground_cost(similarities: np.ndarray) -> np.ndarray:
    """Element-wise word-pair cost ``1 - clamp(cos, 0, 1)``."""
    return 1.0 - np.clip(np.asarray(similarities, dtype=np.float64), 0.0, 1.0)


def rwmd_distance(
    a: NBow,
    b: NBow,
    table: EmbeddingTable,
    variant: str = SYMMETRIC_MAX,
) -> DistanceResult:
    """Relaxed distance between two documents.

    ``symmetric-max`` returns max of the two one-sided relaxations;
    ``one-sided-query`` relaxes only a -> b. This is
    :func:`lc_rwmd_batch` with ``b`` as the only candidate.
    """
    return lc_rwmd_batch(a, [b], table, variant)[0]


def _min_cost_transport(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> tuple[float, np.ndarray]:
    """Optimal objective and plan for the bipartite transport problem.

    Successive shortest augmenting paths with node potentials on the
    network source -> rows -> columns -> sink. All arc costs are
    nonnegative, so plain Dijkstra applies from the start; potentials
    keep reduced costs nonnegative across augmentations. The objective
    is accumulated per augmentation, independently of the final plan.
    """
    n, m = cost.shape
    n_nodes = n + m + 2
    src, sink = n + m, n + m + 1
    inf = float("inf")

    # arc storage: arcs come in forward/reverse pairs at indices (2k, 2k+1)
    arc_to: list[int] = []
    arc_cap: list[float] = []
    arc_cost: list[float] = []
    adjacency: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_arc(u: int, v: int, capacity: float, c: float):
        adjacency[u].append(len(arc_to))
        arc_to.append(v)
        arc_cap.append(capacity)
        arc_cost.append(c)
        adjacency[v].append(len(arc_to))
        arc_to.append(u)
        arc_cap.append(0.0)
        arc_cost.append(-c)

    for i in range(n):
        add_arc(src, i, float(supply[i]), 0.0)
    for j in range(m):
        add_arc(n + j, sink, float(demand[j]), 0.0)
    pair_base = len(arc_to)
    for i in range(n):
        row = cost[i]
        for j in range(m):
            add_arc(i, n + j, inf, float(row[j]))

    potential = [0.0] * n_nodes
    target = min(float(supply.sum()), float(demand.sum()))
    shipped = 0.0
    objective = 0.0
    max_rounds = n * m + n + m + 8
    for _ in range(max_rounds):
        if target - shipped <= 1e-11:
            break
        dist = [inf] * n_nodes
        dist[src] = 0.0
        parent = [-1] * n_nodes
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            pot_u = potential[u]
            for arc in adjacency[u]:
                if arc_cap[arc] <= 1e-15:
                    continue
                v = arc_to[arc]
                reduced = arc_cost[arc] + pot_u - potential[v]
                if reduced < 0.0:
                    reduced = 0.0
                nd = d + reduced
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = arc
                    heapq.heappush(heap, (nd, v))
        if dist[sink] == inf:
            raise InternalInvariantError("transport network admits no augmenting path")
        bound = dist[sink]
        for v in range(n_nodes):
            if dist[v] < inf:
                potential[v] += dist[v] if dist[v] < bound else bound
        bottleneck = target - shipped
        path_cost = 0.0
        v = sink
        while v != src:
            arc = parent[v]
            if arc_cap[arc] < bottleneck:
                bottleneck = arc_cap[arc]
            path_cost += arc_cost[arc]
            v = arc_to[arc ^ 1]
        v = sink
        while v != src:
            arc = parent[v]
            arc_cap[arc] -= bottleneck
            arc_cap[arc ^ 1] += bottleneck
            v = arc_to[arc ^ 1]
        shipped += bottleneck
        objective += bottleneck * path_cost
    else:
        raise InternalInvariantError("transport solver did not converge")

    plan = np.empty((n, m))
    for i in range(n):
        base = pair_base + 2 * i * m
        for j in range(m):
            plan[i, j] = arc_cap[base + 2 * j + 1]
    return objective, plan


def wmd_exact(
    a: NBow,
    b: NBow,
    table: EmbeddingTable,
    max_words: int = DEFAULT_ORACLE_LIMIT,
) -> tuple[DistanceResult, TransportPlan]:
    """Exact optimal-transport distance with full marginal constraints.

    This is a verification oracle, not a production scorer: instances
    with more than ``max_words`` unique words on either side are
    refused. The returned plan is checked to reproduce the objective
    within 1e-9 and to satisfy both marginals within 1e-7.
    """
    n, m = len(a), len(b)
    if n > max_words or m > max_words:
        raise OracleSizeError(
            f"instance is {n}x{m} unique words; the exact oracle is capped at "
            f"{max_words}x{max_words}"
        )
    cost = ground_cost(similarity_matrix(table, a.words, b.words))
    objective, plan = _min_cost_transport(a.weights, b.weights, cost)
    if abs(float((plan * cost).sum()) - objective) > 1e-9:
        raise InternalInvariantError("transport plan does not reproduce its cost")
    if (
        np.abs(plan.sum(axis=1) - a.weights).max() > 1e-7
        or np.abs(plan.sum(axis=0) - b.weights).max() > 1e-7
    ):
        raise InternalInvariantError("transport plan violates marginal constraints")
    return DistanceResult.from_distance(objective, EXACT), TransportPlan(matrix=plan)


def _normalized_rows(table: EmbeddingTable, indices: np.ndarray) -> np.ndarray:
    rows = table.matrix[indices]
    rows /= table.row_norms[indices, None]
    return rows


def lc_rwmd_batch(
    query: NBow,
    candidates: Sequence[NBow | None],
    table: EmbeddingTable,
    variant: str = SYMMETRIC_MAX,
) -> list[DistanceResult | None]:
    """Score many candidates against one query in linear-style passes.

    Instead of building a dense cost matrix per pair, the union of all
    candidate vocabularies is scanned once in blocks: a single pass
    yields, for every union word, its most similar query word, and
    running per-candidate maxima give the reverse direction. The ground
    cost is monotone decreasing in the cosine, so the cheapest
    counterpart is the most similar one and ``min(1 - clip(s))`` equals
    ``1 - clip(max(s))`` exactly; the cost transform runs once, on the
    reduced vectors.

    ``None`` entries stand for candidates that could not be embedded;
    they pass through as ``None`` instead of failing the whole batch.
    """
    if variant not in RWMD_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {RWMD_VARIANTS}")
    if not candidates:
        return []

    union_words = dict.fromkeys(
        w for cand in candidates if cand is not None for w in cand.words
    )
    if not union_words:
        return [None] * len(candidates)
    union = {w: i for i, w in enumerate(union_words)}
    positions = [
        None
        if cand is None
        else np.fromiter(map(union.__getitem__, cand.words), dtype=np.intp, count=len(cand))
        for cand in candidates
    ]

    union_idx = table.row_indices(list(union_words))
    q_norm = _normalized_rows(table, table.row_indices(query.words))
    rows = max(1, _BLOCK_BYTES // (8 * len(query)))

    best_into_query = np.empty(len(union))
    best_per_query_word = np.full((len(candidates), len(query)), -np.inf)
    # The block and the rows picked from it reuse two buffers, so the scan
    # allocates nothing large per block and its peak memory is fixed.
    block_buf = np.empty((min(rows, len(union)), len(query)))
    picked_buf = np.empty_like(block_buf)
    col_max = np.empty(len(query))
    for start in range(0, len(union), rows):
        stop = min(len(union), start + rows)
        sims = np.matmul(
            _normalized_rows(table, union_idx[start:stop]), q_norm.T, out=block_buf[: stop - start]
        )
        sims.max(axis=1, out=best_into_query[start:stop])
        for best, pos in zip(best_per_query_word, positions):
            if pos is None:
                continue
            local = pos[(pos >= start) & (pos < stop)] - start
            if local.size:
                # local is in range; mode="clip" lets take write into out
                # directly instead of through a temporary.
                picked = np.take(sims, local, axis=0, out=picked_buf[: local.size], mode="clip")
                np.maximum(best, picked.max(axis=0, out=col_max), out=best)

    to_query_cost = ground_cost(best_into_query)
    from_query_cost = ground_cost(best_per_query_word)
    results: list[DistanceResult | None] = []
    for cand, pos, q_cost in zip(candidates, positions, from_query_cost):
        if cand is None:
            results.append(None)
            continue
        d = float(query.weights @ q_cost)
        if variant == SYMMETRIC_MAX:
            d = max(d, float(cand.weights @ to_query_cost[pos]))
        results.append(DistanceResult.from_distance(d, variant))
    return results

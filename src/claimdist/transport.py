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

from . import native
from .embeddings import EmbeddingTable, normalized_rows, similarity_matrix
from .errors import InternalInvariantError, OracleSizeError
from .textprep import NBow

SYMMETRIC_MAX = "symmetric-max"
ONE_SIDED_QUERY = "one-sided-query"
EXACT = "exact"

RWMD_VARIANTS = (SYMMETRIC_MAX, ONE_SIDED_QUERY)

DEFAULT_ORACLE_LIMIT = 64

# Byte budget for one block of raw cosines in lc_rwmd_batch: a wide query
# gets fewer union rows per block, so the cosines stay within 8 MiB.
_BLOCK_BYTES = 8 << 20
# Union rows per block, whatever the query's width: a block's normalized
# rows, and the packed copy of them that BLAS makes for the GEMM, grow with
# rows x dimension, so without the cap a short query would hold the whole
# union twice. Moving a block edge can move a distance's last bit: on a
# benchmark table, over query widths 1 to 1,100, this cap did so at 1 width
# and a 512-row cap at 13.
_BLOCK_ROWS = 1024


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
) -> tuple[DistanceResult, np.ndarray]:
    """Exact optimal-transport distance with full marginal constraints.

    This is a verification oracle, not a production scorer: instances
    with more than ``DEFAULT_ORACLE_LIMIT`` unique words on either side are
    refused. The returned plan is a read-only |a| x |b| flow matrix,
    checked to reproduce the objective within 1e-9 and to satisfy both
    marginals within 1e-7.
    """
    n, m = len(a), len(b)
    if n > DEFAULT_ORACLE_LIMIT or m > DEFAULT_ORACLE_LIMIT:
        raise OracleSizeError(
            f"instance is {n}x{m} unique words; the exact oracle is capped at "
            f"{DEFAULT_ORACLE_LIMIT}x{DEFAULT_ORACLE_LIMIT}"
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
    plan.setflags(write=False)
    return DistanceResult.from_distance(objective, EXACT), plan


def lc_rwmd_batch(
    query: NBow,
    candidates: Sequence[NBow],
    table: EmbeddingTable,
    variant: str = SYMMETRIC_MAX,
) -> list[DistanceResult]:
    """Score many candidates against one query in linear-style passes.

    Instead of building a dense cost matrix per pair, the union of all
    candidate vocabularies is scanned once in blocks: a single pass
    yields, for every union word, its most similar query word, and
    running per-candidate maxima give the reverse direction. The ground
    cost is monotone decreasing in the cosine, so the cheapest
    counterpart is the most similar one and ``min(1 - clip(s))`` equals
    ``1 - clip(max(s))`` exactly; the cost transform runs once, on the
    reduced vectors. Every candidate is scored: a document that cannot
    be embedded has no bag of words and is set aside by the caller.

    A block is at most ``_BLOCK_ROWS`` union rows and at most
    ``_BLOCK_BYTES`` of cosines, so besides the query's normalized rows
    the scan holds one block's normalized union rows (and BLAS's packed
    copy of them), one block of cosines, the |candidates| x |query| table
    and the pair arrays, however large the union is.

    The (candidate, union word) pairs are sorted once, by block, then
    candidate, then row, and each block folds its slice of them into the
    per-candidate maxima: ``claimdist_gather_max`` from
    :mod:`claimdist.native` does it in one call, or, without the library,
    :func:`_gather_max` in numpy. A max is exact, so both give the same
    bits.
    """
    if variant not in RWMD_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {RWMD_VARIANTS}")
    if not candidates:
        return []

    cand_rows = [table.row_indices(cand.words) for cand in candidates]
    # The union in table-row order, so each block reads runs of adjacent
    # rows. A mask, not np.unique: its first call imports numpy.ma, which
    # would then count towards the scan's peak memory.
    in_union = np.zeros(len(table), dtype=bool)
    for idx in cand_rows:
        in_union[idx] = True
    union_idx = np.flatnonzero(in_union)
    positions = [np.searchsorted(union_idx, idx) for idx in cand_rows]

    q_norm = normalized_rows(table, table.row_indices(query.words))
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (8 * len(query))))
    pair_cand, pair_row, edges = _block_pairs(positions, rows, len(union_idx))
    lib = native.library()

    best_into_query = np.empty(len(union_idx))
    best_per_query_word = np.full((len(candidates), len(query)), -np.inf)
    # The block reuses one buffer, so the scan allocates nothing large per
    # block and its peak memory is fixed.
    block_buf = np.empty((min(rows, len(union_idx)), len(query)))
    for block, start in enumerate(range(0, len(union_idx), rows)):
        stop = min(len(union_idx), start + rows)
        sims = np.matmul(
            normalized_rows(table, union_idx[start:stop]), q_norm.T, out=block_buf[: stop - start]
        )
        sims.max(axis=1, out=best_into_query[start:stop])
        lo, hi = edges[block], edges[block + 1]
        if lib is None:
            _gather_max(pair_cand[lo:hi], pair_row[lo:hi], sims, best_per_query_word)
        else:
            # Raw addresses, as ctypes checks array arguments slowly; every
            # array is C-contiguous of the C type.
            lib.claimdist_gather_max(
                hi - lo, len(query), pair_cand[lo:].ctypes.data, pair_row[lo:].ctypes.data,
                sims.ctypes.data, best_per_query_word.ctypes.data,
            )

    # ground_cost's two operations, in place, so both arrays now hold
    # costs: the |candidates| x |query| table is the largest array the
    # kernel holds, and a copy of it would set the peak.
    for best in (best_into_query, best_per_query_word):
        np.clip(best, 0.0, 1.0, out=best)
        np.subtract(1.0, best, out=best)
    results: list[DistanceResult] = []
    for cand, pos, q_cost in zip(candidates, positions, best_per_query_word):
        d = float(query.weights @ q_cost)
        if variant == SYMMETRIC_MAX:
            d = max(d, float(cand.weights @ best_into_query[pos]))
        results.append(DistanceResult.from_distance(d, variant))
    return results


def _block_pairs(
    positions: Sequence[np.ndarray], rows: int, n_union: int
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Every (candidate, union position) pair, sorted by block, then candidate, then row.

    ``positions[c]`` holds candidate ``c``'s positions in the union, which
    is scanned in blocks of ``rows``. Returns the pairs' candidates, their
    rows within their block (both int64) and the edges of each block's
    slice: block ``b``'s pairs are ``edges[b]:edges[b + 1]``.
    """
    pair_cand = np.repeat(
        np.arange(len(positions), dtype=np.int64), [len(pos) for pos in positions]
    )
    pair_block, pair_row = np.divmod(np.concatenate(positions).astype(np.int64, copy=False), rows)
    order = np.lexsort((pair_row, pair_cand, pair_block))
    edges = np.searchsorted(pair_block[order], np.arange(-(-n_union // rows) + 1))
    return pair_cand[order], pair_row[order], edges.tolist()


def _gather_max(cand: np.ndarray, row: np.ndarray, sims: np.ndarray, best: np.ndarray):
    """``claimdist_gather_max`` in numpy: ``best[c]`` takes the column max of c's rows of ``sims``.

    The pairs are sorted by candidate, so each candidate's rows are one run.
    """
    runs = np.flatnonzero(np.diff(cand)) + 1
    for c, rows in zip(cand[np.r_[0, runs]].tolist(), np.split(row, runs)):
        np.maximum(best[c], sims[rows].max(axis=0), out=best[c])

"""Nearest-neighbor retrieval over unit-norm embeddings and geographic recall.

The index is exact: every query is compared against every database
vector (L2 on the unit sphere), with ties broken toward the smaller
database id so results are reproducible bit for bit.  ``knn`` scores all
rows with one matrix product of dot products, as exact brute-force search
in FAISS does (Johnson et al., arXiv 1702.08734), keeps per query only the
rows that rounding and the spread of database norms could place in the
top k, and recomputes direct differences for those alone, so its order
and distances are those of a full sort of direct-difference distances.
Recall@N asks whether any of the N nearest database samples lies within
a threshold distance of the query's true position; each query's ranks
are scanned only up to its first hit.  Recall is monotone in N by
construction and reaches its ceiling at N = database size, where it
measures pure geography, independent of the embeddings.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderConfig, EncoderState, forward
from .geodata import GeoDataset, Position, distance_m
from .losses import DegenerateInputError

__all__ = [
    "EmbeddingIndex",
    "RecallReport",
    "build_index",
    "check_recall_settings",
    "evaluate_encoder",
    "knn",
    "recall_at_n",
]

# Candidate selection works on this many (query, row) dot products at a
# time: one ``np.partition``, one mask and one ``flatnonzero`` per block of
# ``_KNN_BLOCK // M`` queries (at least one).
_KNN_BLOCK = 1 << 16


def _row_norms(x: np.ndarray, what: str) -> np.ndarray:
    """(N, 1) row norms of ``x``; a row with zero norm raises."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    small = norms <= 1e-12
    if np.any(small):
        row = int(np.argmax(small))
        raise DegenerateInputError(f"{what} row {row} has zero norm")
    return norms


@dataclass
class EmbeddingIndex:
    ids: np.ndarray  # (M,) int64, unique
    vectors: np.ndarray  # (M, D) float64, unit rows
    positions: Sequence[Position]

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        # A read-only view, so the rows the checks below pass, and whose
        # squared-norm range sizes ``knn``'s margin, are not rewritten
        # through the index.
        self.vectors = np.asarray(self.vectors, dtype=np.float64).view()
        self.vectors.flags.writeable = False
        if self.vectors.ndim != 2 or self.vectors.shape[0] != self.ids.shape[0]:
            raise ValueError("ids and vectors disagree in length")
        if len(self.positions) != self.ids.shape[0]:
            raise ValueError("ids and positions disagree in length")
        if self.ids.shape[0] == 0:
            raise ValueError("index cannot be empty")
        ordered = np.sort(self.ids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("index ids must be unique")
        # Squared norms by einsum, with no (M, D) temporary.  Written as
        # "not within" so a NaN norm fails the check too.
        sq_norms = np.einsum("ij,ij->i", self.vectors, self.vectors)
        bad = ~(np.abs(np.sqrt(sq_norms) - 1.0) <= 1e-9)
        if np.any(bad):
            row = int(np.argmax(bad))
            raise ValueError(f"index vectors must be unit norm; row {row} is not")
        # Their range sizes ``knn``'s filter margin (see ``_knn_margin``).
        self.sq_norm_range = (float(sq_norms.min()), float(sq_norms.max()))

    @property
    def size(self) -> int:
        return int(self.ids.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def build_index(state: EncoderState, cfg: EncoderConfig, ds: GeoDataset) -> EmbeddingIndex:
    """Embed the whole database in eval mode, ascending id order.

    The forward reads ``ds.db_features`` where it is stored and returns a
    fresh array, which is normalised in place.
    """
    emb = forward(state, cfg, ds.db_features, branch="online", training=False).data
    emb /= _row_norms(emb, "database embedding")
    return EmbeddingIndex(ids=np.array(ds.db_ids), vectors=emb, positions=ds.db_positions)


def knn(index: EmbeddingIndex, query_vecs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest database rows per query.

    Returns (ids, dists), each (Q, k'), where k' = min(k, index size).
    Queries are row-normalized here; distances are L2 on the sphere.

    Filter, then rerank.  One matrix product gives every (query, row) dot
    product g = q.v, so the working set is that one (Q, M) matrix.  Per
    query, G_k is the k-th largest g, and the candidates are the rows with
    g not below G_k - limit, where ``_knn_margin`` bounds how far below
    G_k a row of the exact top k can score.  Selection runs a block of
    ``_KNN_BLOCK // M`` queries at a time: one ``np.partition`` for their
    G_k, one mask and one ``flatnonzero``.  Only the candidates get direct
    differences, and they are reranked in batches: the candidates of
    consecutive queries, up to M of them in all, get their distances from
    one ``np.linalg.norm`` and their order from one ``lexsort`` by (query,
    distance, id).  A row's norm is a per-row reduce, so its bits do not
    depend on the batch, and a batch holds no more rows than one query
    whose every row is a candidate (a collapsed embedding, say).  Usually
    all queries fit in one batch.

    The result is that of a full sort of every row's direct distance,
    because every row of the exact top k is a candidate (see
    ``_knn_margin``).  Exact duplicates tie on distance and keep the
    smaller id first; near-zero distances come from the direct
    differences, never from a cancelling estimate; an all-NaN query has
    NaN dot products, and the filter is written as "not below" so every
    row stays a candidate and sorts by id.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    q = np.asarray(query_vecs, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError(f"query matrix must be 2-d, got shape {q.shape}")
    if q.shape[1] != index.dim:
        raise ValueError(f"query dim {q.shape[1]} does not match index dim {index.dim}")
    q = q / _row_norms(q, "query embedding")
    m = index.size
    k = min(k, m)
    g = q @ index.vectors.T
    limit = _knn_margin(index.dim, *index.sq_norm_range)
    out_ids = np.empty((q.shape[0], k), dtype=np.int64)
    out_d = np.empty((q.shape[0], k), dtype=np.float64)
    # Candidates as flat indices query * M + row, gathered since query
    # ``first`` and not yet reranked; ``total`` counts them.
    first, parts, total = 0, [], 0
    step = max(1, _KNN_BLOCK // m)
    for start in range(0, q.shape[0], step):
        block = g[start:start + step]
        g_k = np.partition(block, m - k, axis=1)[:, m - k]
        flat = np.flatnonzero(~(block < (g_k - limit)[:, None])) + start * m
        # Query start + i's candidates are flat[bounds[i]:bounds[i + 1]].
        stops = np.arange(start, start + len(block) + 1) * m
        bounds = np.searchsorted(flat, stops).tolist()
        cut = 0
        for row, lo, hi in zip(range(start, start + len(block)), bounds, bounds[1:]):
            if total and total + hi - lo > m:
                parts.append(flat[cut:lo])
                cut = lo
                out_ids[first:row], out_d[first:row] = _rerank(index, q, parts, first, row, k)
                first, parts, total = row, [], 0
            total += hi - lo
        parts.append(flat[cut:])
    if parts:
        out_ids[first:], out_d[first:] = _rerank(index, q, parts, first, q.shape[0], k)
    return out_ids, out_d


def _rerank(
    index: EmbeddingIndex, q: np.ndarray, parts: list[np.ndarray], first: int, stop: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(ids, dists), each (stop - first, k): the k nearest candidates of
    queries ``first:stop``, by direct distance, then id.  ``parts`` hold
    their candidates as ascending flat indices query * M + row."""
    rows, cand = np.divmod(np.concatenate(parts), index.size)
    d = np.linalg.norm(q[rows] - index.vectors[cand], axis=1)
    ids = index.ids[cand]
    order = np.lexsort((ids, d, rows))
    # Each query's candidates are one run of ``order``; keep its first k.
    take = order[np.searchsorted(rows, np.arange(first, stop))[:, None] + np.arange(k)]
    return ids[take], d[take]


def _knn_margin(dim: int, vv_min: float, vv_max: float) -> float:
    """How far below G_k, in dot-product units, a row of the exact top k
    can score; ``knn`` keeps every row with g not below G_k - this.

    Write u = 2**-53, gamma_n = n u / (1 - n u) and D = ``dim``.  For one
    query q and row v_i, g_i is the computed and g*_i the exact dot
    product, Q = |q|^2 and n_i = |v_i|^2 exactly, d_i the exact distance,
    and S = Q + max n_i.  The normalized query has Q <= 1 + 2 gamma_{D+2}.
    The identity d_i^2 = Q + n_i - 2 g*_i is exact.

    - Matrix product: |g_i - g*_i| <= gamma_D sum|q_j v_ij| <= gamma_D S / 2
      whatever the summation order, so BLAS blocking, FMA and thread
      count do not matter.
    - Direct distances: the computed square r_i sums D non-negative terms
      each rounded twice, so |r_i - d_i^2| <= gamma_{D+2} d_i^2, and
      d_i^2 <= 2 S.  Rows whose correctly rounded square roots are equal
      tie on distance, and their r differ by at most about 4u r.
    - Take row i of the exact top k.  Some row j among the k of largest
      g has a rounded distance not below i's, so
      d_i^2 <= d_j^2 + (2 gamma_{D+2} + 4u) 2 S, and g_j >= G_k.  The two
      identities and the product bound then give
      g_i >= G_k - (n_j - n_i) / 2 - gamma_D S - (2 gamma_{D+2} + 4u) S.
    - Norm spread: n_j - n_i is at most the computed
      ``vv_max - vv_min`` plus gamma_D (vv_max + vv_min), the einsum's
      rounding, which adds at most gamma_D S to the half.
    - Computing G_k - limit rounds once, by at most u (|G_k| + limit),
      and |G_k| <= S / 2.

    To first order the sum is (vv_max - vv_min) / 2 + (4D + 9) u S.  This
    returns the spread term plus twice the rest, with S taken as
    1 + vv_max; the factor two covers the second-order terms and the
    query norm's excess over 1.  Rows are unit norm to 1e-9, so
    underflow's absolute errors (below D * 2**-1074) do not count.
    """
    u = np.finfo(np.float64).eps / 2
    return (vv_max - vv_min) / 2 + 2 * (4 * dim + 9) * u * (1.0 + vv_max)


@dataclass(frozen=True)
class RecallReport:
    n_values: tuple[int, ...]
    recalls: tuple[float, ...]
    threshold_m: float
    n_queries: int

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.n_values, self.recalls))


def check_recall_settings(n_values: tuple[int, ...], threshold_m: float) -> None:
    """Raise ``ValueError`` unless ``n_values`` is non-empty, ascending,
    unique and at least 1, and ``threshold_m`` is finite and >= 0."""
    ns = list(n_values)
    if not ns or ns != sorted(set(ns)) or ns[0] < 1:
        raise ValueError(f"n_values must be ascending unique positive ints, got {ns}")
    if not (math.isfinite(threshold_m) and threshold_m >= 0):
        raise ValueError(f"threshold_m must be finite and >= 0, got {threshold_m}")


def recall_at_n(
    index: EmbeddingIndex,
    query_vecs: np.ndarray,
    query_positions: list[Position],
    n_values: tuple[int, ...] = (1, 5, 10),
    threshold_m: float = 25.0,
) -> RecallReport:
    """Fraction of queries whose top-N retrieval hits true geography.

    A query succeeds at N when any of its N nearest database samples lies
    within ``threshold_m`` meters of the query position.  Queries with no
    database sample inside the threshold can never succeed and still
    count in the denominator.
    """
    if len(query_positions) == 0:
        raise ValueError("recall needs at least one query")
    if len(query_positions) != np.asarray(query_vecs).shape[0]:
        raise ValueError("query vectors and positions disagree in length")
    check_recall_settings(n_values, threshold_m)
    ids, _ = knn(index, query_vecs, k=max(n_values))
    by_id = np.argsort(index.ids)
    rows = by_id[np.searchsorted(index.ids, ids, sorter=by_id)]
    # A query hits at N when its first hit ranks below N, so its scan
    # stops there; a query with no hit ranks it at k.
    first_hit = []
    for qpos, ranked in zip(query_positions, rows.tolist()):
        for rank, row in enumerate(ranked):
            if distance_m(qpos, index.positions[row]) <= threshold_m:
                break
        else:
            rank = len(ranked)
        first_hit.append(rank)
    first_hit = np.array(first_hit)
    recalls = []
    for n in n_values:
        col = min(n, ids.shape[1]) - 1
        recalls.append(float(np.mean(first_hit <= col)))
    return RecallReport(
        n_values=tuple(int(n) for n in n_values),
        recalls=tuple(recalls),
        threshold_m=float(threshold_m),
        n_queries=len(query_positions),
    )


def evaluate_encoder(
    state: EncoderState,
    cfg: EncoderConfig,
    ds: GeoDataset,
    n_values: tuple[int, ...] = (1, 5, 10),
    threshold_m: float = 25.0,
) -> RecallReport:
    """Recall over every dataset query, eval-mode embeddings.  Bad recall
    settings or a dataset without queries raise before any forward."""
    check_recall_settings(n_values, threshold_m)
    if not ds.query_ids:
        raise ValueError("dataset has no queries to evaluate")
    index = build_index(state, cfg, ds)
    q_emb = forward(state, cfg, ds.features(ds.query_ids), training=False).data
    return recall_at_n(index, q_emb, ds.positions(ds.query_ids), n_values, threshold_m)

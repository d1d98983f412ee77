"""Nearest-neighbor retrieval over unit-norm embeddings and geographic recall.

The index is exact: every query is compared against every database
vector (L2 on the unit sphere), with ties broken toward the smaller
database id so results are reproducible bit for bit.  ``knn`` ranks all
rows with one matrix product, using ||q||^2 + ||v||^2 - 2 q.v as exact
brute-force search in FAISS does (Johnson et al., arXiv 1702.08734), and
recomputes direct differences only for the rows that rounding could
place in the top k, so its order and distances are those of a full sort
of direct-difference distances.  Recall@N asks whether any of the N
nearest database samples lies within a threshold distance of the
query's true position; it is monotone in N by construction and reaches
its ceiling at N = database size, where it measures pure geography,
independent of the embeddings.
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
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
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
        norms = np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors))
        bad = ~(np.abs(norms - 1.0) <= 1e-9)
        if np.any(bad):
            row = int(np.argmax(bad))
            raise ValueError(f"index vectors must be unit norm; row {row} is not")

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

    Filter, then rerank.  One matrix product gives every (query, row)
    squared-distance estimate s = ||q||^2 + ||v||^2 - 2 q.v, built in
    place, so the working set is that one (Q, M) matrix.  Per query, A_k
    is the k-th smallest estimate, and the candidates are the rows with s
    not above A_k + 2 eps, where eps bounds the rounding gap between s
    and the squared direct-difference distance r (see ``_knn_margin``).
    Only the candidates get direct differences, and they are reranked in
    batches: the candidates of consecutive queries, up to M of them in all,
    get their distances from one ``np.linalg.norm`` and their order from
    one ``lexsort`` by (query, distance, id).  A row's norm is a per-row
    reduce, so its bits do not depend on the batch, and a batch holds no
    more rows than one query whose every row is a candidate (a collapsed
    embedding, say).  Usually all queries fit in one batch.

    The result is that of a full sort of every row's direct distance:
    the k rows with the smallest s have r within eps of A_k, so every
    row of the exact top k, being no farther, has r <= A_k + eps (eps
    also covers rows whose distances round to a tie) and hence
    s <= A_k + 2 eps, which makes it a candidate.  Exact duplicates tie on distance and keep the
    smaller id first; near-zero distances come from the direct
    differences, never from the cancelling estimate; an all-NaN query
    has NaN estimates, so every row stays a candidate and sorts by id.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    q = np.asarray(query_vecs, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError(f"query matrix must be 2-d, got shape {q.shape}")
    if q.shape[1] != index.dim:
        raise ValueError(f"query dim {q.shape[1]} does not match index dim {index.dim}")
    q = q / _row_norms(q, "query embedding")
    v = index.vectors
    k = min(k, index.size)
    qq = np.einsum("ij,ij->i", q, q)
    vv = np.einsum("ij,ij->i", v, v)
    s = q @ v.T
    s *= -2.0
    s += qq[:, None]
    s += vv[None, :]
    limit = 2.0 * _knn_margin(index.dim, qq, vv.max())
    out_ids = np.empty((q.shape[0], k), dtype=np.int64)
    out_d = np.empty((q.shape[0], k), dtype=np.float64)
    first, cands, total = 0, [], 0
    for row, est in enumerate(s):
        a_k = np.partition(est, k - 1)[k - 1]
        # Written as "not above" so a NaN bound keeps every row.
        cand = np.flatnonzero(~(est > a_k + limit[row]))
        if cands and total + cand.size > index.size:
            out_ids[first:row], out_d[first:row] = _rerank(index, q[first:row], cands, k)
            first, cands, total = row, [], 0
        cands.append(cand)
        total += cand.size
    if cands:
        out_ids[first:], out_d[first:] = _rerank(index, q[first:], cands, k)
    return out_ids, out_d


def _rerank(
    index: EmbeddingIndex, q: np.ndarray, cands: list[np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(ids, dists), each (len(q), k): the k nearest of each query's
    candidate rows ``cands[i]``, by direct distance, then id."""
    counts = np.array([c.size for c in cands])
    rows = np.repeat(np.arange(len(cands)), counts)
    cand = np.concatenate(cands)
    d = np.linalg.norm(q[rows] - index.vectors[cand], axis=1)
    ids = index.ids[cand]
    order = np.lexsort((ids, d, rows))
    # Each query's candidates are one run of ``order``; keep its first k.
    take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return ids[take], d[take]


def _knn_margin(dim: int, qq: np.ndarray, vv_max: float) -> np.ndarray:
    """Per-query bound eps on |s - r| for every database row.

    With u = 2**-53, gamma_n = n u / (1 - n u), D = ``dim`` and the
    exact squared norms standing in for the computed ``qq`` and ``vv``:

    - r, the direct distance squared, sums D non-negative terms each
      rounded twice, so |r - d^2| <= gamma_{D+2} d^2, and
      d^2 <= 2 (qq + vv).
    - s: the norms carry gamma_D qq and gamma_D vv; the dot product
      carries gamma_D sum|q_i v_i| <= gamma_D (qq + vv) / 2 whatever
      the summation order, so BLAS blocking, FMA and thread count do
      not matter; the two additions each add at most u times a value
      of at most 2 (qq + vv).  So |s - d^2| <= (2 gamma_D + 4u)(qq + vv).
    - Rows whose correctly rounded square roots are equal differ in r
      by at most about 4u r <= 8u (qq + vv), and such rows tie on
      distance, so the bound must cover them too.

    To first order the sum is (4D + 16) u (qq + vv).  This returns
    twice that, with vv at its largest over the database; the factor
    two covers the second-order terms, the gap between computed and
    exact norms and the rounding of A_k + 2 eps.  Rows are unit norm,
    so underflow's absolute errors (below D * 2**-1074) do not count.
    """
    u = np.finfo(np.float64).eps / 2
    return 8 * (dim + 4) * u * (qq + vv_max)


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
    hits = np.zeros(ids.shape, dtype=bool)
    for qi, qpos in enumerate(query_positions):
        for rank, row in enumerate(rows[qi]):
            d = distance_m(qpos, index.positions[row])
            hits[qi, rank] = d <= threshold_m
    any_hit = np.cumsum(hits, axis=1) > 0
    recalls = []
    for n in n_values:
        col = min(n, ids.shape[1]) - 1
        recalls.append(float(np.mean(any_hit[:, col])))
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
    """Recall over every dataset query, eval-mode embeddings."""
    if not ds.query_ids:
        raise ValueError("dataset has no queries to evaluate")
    index = build_index(state, cfg, ds)
    q_emb = forward(state, cfg, ds.features(ds.query_ids), training=False).data
    return recall_at_n(index, q_emb, ds.positions(ds.query_ids), n_values, threshold_m)

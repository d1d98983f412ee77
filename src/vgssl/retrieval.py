"""Nearest-neighbor retrieval over unit-norm embeddings and geographic recall.

The index is exact: every query is compared against every database
vector (L2 on the unit sphere), with ties broken toward the smaller
database id so results are reproducible bit for bit.  Recall@N asks
whether any of the N nearest database samples lies within a threshold
distance of the query's true position; it is monotone in N by
construction and reaches its ceiling at N = database size, where it
measures pure geography, independent of the embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderConfig, EncoderState, forward
from .geodata import GeoDataset, Position, distance_m
from .losses import DegenerateInputError

__all__ = [
    "EmbeddingIndex",
    "RecallReport",
    "build_index",
    "evaluate_encoder",
    "knn",
    "recall_at_n",
]

# Elements (Q * B * D) of knn's difference tile, about 1 MB of float64.
# In a sweep at Q=100, M=5000, D=64 on a 2-vCPU host, tiles of
# 2**16..2**18 elements ran fastest and 2**21 and above took ~1.7x longer.
_KNN_BLOCK_ELEMS = 2**17


def _normalize_rows(x: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    small = norms <= 1e-12
    if np.any(small):
        row = int(np.argmax(small))
        raise DegenerateInputError(f"{what} row {row} has zero norm")
    return x / norms


@dataclass
class EmbeddingIndex:
    ids: np.ndarray  # (M,) int64, unique
    vectors: np.ndarray  # (M, D) float64, unit rows
    positions: list[Position]

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != self.ids.shape[0]:
            raise ValueError("ids and vectors disagree in length")
        if len(self.positions) != self.ids.shape[0]:
            raise ValueError("ids and positions disagree in length")
        if self.ids.shape[0] == 0:
            raise ValueError("index cannot be empty")
        if len(np.unique(self.ids)) != len(self.ids):
            raise ValueError("index ids must be unique")
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("index vectors must be unit norm")

    @property
    def size(self) -> int:
        return int(self.ids.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def build_index(state: EncoderState, cfg: EncoderConfig, ds: GeoDataset) -> EmbeddingIndex:
    """Embed the whole database in eval mode, ascending id order."""
    samples = sorted(ds.database, key=lambda s: s.id)
    feats = np.stack([s.features for s in samples])
    emb = forward(state, cfg, feats, branch="online", training=False).data
    return EmbeddingIndex(
        ids=np.array([s.id for s in samples]),
        vectors=_normalize_rows(emb, "database embedding"),
        positions=[s.position for s in samples],
    )


def knn(index: EmbeddingIndex, query_vecs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest database rows per query.

    Returns (ids, dists), each (Q, k'), where k' = min(k, index size).
    Queries are row-normalized here; distances are L2 on the sphere.

    The database is scanned in tiles of B rows, with B * Q * D about
    ``_KNN_BLOCK_ELEMS``: each tile's (Q, B, D) differences go into one
    reused buffer, so the working set is that buffer plus the (Q, M)
    distance matrix, never a (Q, M, D) temporary.  Each query then keeps
    only the rows at or below its k-th smallest distance and sorts those
    by (distance, id), which is the order a full sort would give.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    q = np.asarray(query_vecs, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError(f"query matrix must be 2-d, got shape {q.shape}")
    if q.shape[1] != index.dim:
        raise ValueError(f"query dim {q.shape[1]} does not match index dim {index.dim}")
    q = _normalize_rows(q, "query embedding")
    n_q, m = q.shape[0], index.size
    k = min(k, m)
    block = max(1, _KNN_BLOCK_ELEMS // max(1, n_q * index.dim))
    buf = np.empty((n_q, min(block, m), index.dim))
    dists = np.empty((n_q, m))
    # Differences computed directly: the sphere identity 2 - 2 q.v loses
    # digits to cancellation near zero distance and can reorder near-ties.
    # Square, sum over the last axis and sqrt is np.linalg.norm(axis=2),
    # step for step.
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        diff = buf[:, : hi - lo]
        np.subtract(q[:, None, :], index.vectors[None, lo:hi, :], out=diff)
        np.multiply(diff, diff, out=diff)
        np.sqrt(np.add.reduce(diff, axis=2), out=dists[:, lo:hi])
    out_ids = np.empty((n_q, k), dtype=np.int64)
    out_d = np.empty((n_q, k), dtype=np.float64)
    for row in range(n_q):
        d = dists[row]
        kth = np.partition(d, k - 1)[k - 1]
        # Written as "not above" so a NaN k-th distance keeps every row.
        cand = np.flatnonzero(~(d > kth))
        order = cand[np.lexsort((index.ids[cand], d[cand]))[:k]]
        out_ids[row] = index.ids[order]
        out_d[row] = d[order]
    return out_ids, out_d


@dataclass(frozen=True)
class RecallReport:
    n_values: tuple[int, ...]
    recalls: tuple[float, ...]
    threshold_m: float
    n_queries: int

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.n_values, self.recalls))


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
    if list(n_values) != sorted(set(n_values)) or n_values[0] < 1:
        raise ValueError("n_values must be ascending unique positive ints")
    ids, _ = knn(index, query_vecs, k=max(n_values))
    pos_by_id = {int(i): p for i, p in zip(index.ids, index.positions)}
    hits = np.zeros((len(query_positions), ids.shape[1]), dtype=bool)
    for qi, qpos in enumerate(query_positions):
        for rank in range(ids.shape[1]):
            d = distance_m(qpos, pos_by_id[int(ids[qi, rank])])
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
    index = build_index(state, cfg, ds)
    queries = sorted(ds.queries, key=lambda s: s.id)
    if not queries:
        raise ValueError("dataset has no queries to evaluate")
    q_emb = forward(
        state, cfg, np.stack([q.features for q in queries]), training=False
    ).data
    return recall_at_n(
        index, q_emb, [q.position for q in queries], n_values, threshold_m
    )

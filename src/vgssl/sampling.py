"""Batch construction: query-positive pairs, identical-negative pairs,
and triplets with three negative-selection modes.

A batch is an int64 array of sample ids, one row per example.  Pair-based
methods train on ``(anchor, partner)`` rows: ``m_q`` query-positive pairs
plus ``round(eta * m_q)`` identical-negative pairs, where an identical
pair presents the same database sample on both branches, so its row
repeats one id.  ``eta`` is the database-negative ratio; at 0 the batch
is pure query-positive pairs.  Identical negatives are drawn from the
database minus every sampled query's positive set, so a negative can
never be a positive partner in the same batch.

Triplets are ``(anchor, positive, negative)`` rows, with a hard negative
mined per query either against the full database (``FULL_HNM``), against
a fixed random candidate pool (``PARTIAL_HNM``), or uniformly
(``RANDOM``).  Mining normalises the embedded database or pool once per
call and reads each query's negatives as ascending row arrays.  It is
exact brute force in two steps, as ``retrieval.knn`` is: a filter, then a
rerank.  One matrix product per block of queries scores every pool row;
per query, only the eligible rows whose dot product is within
``retrieval._knn_margin`` of the best eligible one stay candidates, and
only they get direct-difference distances.  One ``lexsort`` by (query,
distance, row) then picks each query's nearest, ties to the smallest id
and NaN last, bit for bit the pick of a full per-query scan.  All
randomness flows from one generator per call, so identical seeds give
identical batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .costmodel import CostLedger
from .geodata import GeoDataset
from .retrieval import _knn_margin

__all__ = [
    "MiningMode",
    "MiningConfig",
    "build_pairs",
    "mine_triplets",
    "hardest_negative",
]


class MiningMode(Enum):
    FULL_HNM = "full_hnm"
    PARTIAL_HNM = "partial_hnm"
    RANDOM = "random"


@dataclass(frozen=True)
class MiningConfig:
    mode: MiningMode = MiningMode.RANDOM
    pool_size: int = 0

    def __post_init__(self):
        if self.mode is MiningMode.PARTIAL_HNM and self.pool_size < 1:
            raise ValueError("partial mining needs pool_size >= 1")
        if self.mode is not MiningMode.PARTIAL_HNM and self.pool_size != 0:
            raise ValueError(f"{self.mode.value} mining does not read pool_size")


def _draw_queries(
    ds: GeoDataset, m_q: int, rng_seed: int, need_negatives: bool
) -> tuple[np.random.Generator, np.ndarray]:
    """The call's generator, and ``m_q`` distinct eligible queries with one
    uniform positive each as an ``(m_q, 2)`` int64 array of ``(query,
    positive)`` ids.  Both samplers start here: the queries take one
    ``rng.choice``, then each positive one ``rng.integers``."""
    if m_q < 1:
        raise ValueError("m_q must be at least 1")
    rng = np.random.default_rng(rng_seed)
    candidates = ds.eligible_queries(need_negatives=need_negatives)
    if len(candidates) < m_q:
        what = "positives and negatives" if need_negatives else "at least one positive"
        raise ValueError(f"need {m_q} queries with {what}, dataset has {len(candidates)}")
    chosen = rng.choice(len(candidates), size=m_q, replace=False)
    rows = np.empty((m_q, 2), dtype=np.int64)
    for k, i in enumerate(chosen.tolist()):
        positives = ds.positive_set(candidates[i])
        rows[k] = candidates[i], positives[int(rng.integers(len(positives)))]
    return rng, rows


def build_pairs(
    ds: GeoDataset,
    m_q: int,
    eta: float,
    rng_seed: int,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """Assemble one epoch batch of pairs at database-negative ratio eta.

    Returns an int64 array of ``m_q + round(eta * m_q)`` ``(anchor,
    partner)`` id rows in a seeded shuffle; an identical negative's row
    repeats its id.  The ledger counts one anchor and one partner
    extraction per pair and no comparisons.
    """
    if eta < 0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    if ledger is None:
        ledger = CostLedger()
    rng, queries = _draw_queries(ds, m_q, rng_seed, need_negatives=False)
    n_neg = int(round(eta * m_q))
    pairs = np.empty((m_q + n_neg, 2), dtype=np.int64)
    pairs[:m_q] = queries
    banned = np.zeros(len(ds.db_ids), dtype=bool)
    for qid in queries[:, 0].tolist():
        banned[ds.neighbour_rows(qid)[0]] = True

    if n_neg > 0:
        eligible = np.flatnonzero(~banned)
        if len(eligible) < n_neg:
            raise ValueError(
                f"need {n_neg} identical negatives, only {len(eligible)} database "
                "samples sit outside the sampled queries' positive sets"
            )
        picks = eligible[rng.choice(len(eligible), size=n_neg, replace=False)]
        pairs[m_q:] = np.array(ds.db_ids, dtype=np.int64)[picks, None]

    pairs = pairs[rng.permutation(len(pairs))]

    ledger.add_extractions(2 * len(pairs))
    ledger.note_cached(2 * len(pairs))
    return pairs


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    """Rows divided by their norms, floored at 1e-12.  The matrix is made
    C-ordered first: the row norm of an F-ordered matrix sums each row in
    another order.  On a C-ordered matrix the norm is a per-row reduce, so
    normalising the whole matrix gives every row the bits of normalising
    any gathered subset of it, whatever the caller's memory layout."""
    vecs = np.ascontiguousarray(vecs)
    return vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)


def _nearest(queries: np.ndarray, unit: np.ndarray, eligible: list[np.ndarray]) -> np.ndarray:
    """Per query row k, the index of its nearest row of ``unit`` among
    ``eligible[k]`` (non-empty row indices), by L2 from the normalised
    query, ties to the smallest index, NaN distances last.

    Filter, then rerank, as ``retrieval.knn`` does with k = 1: a block of
    queries gets its candidates from ``_candidates``, and ``_rerank``
    takes direct distances for those alone.  Each query is divided by its
    1-D ``np.linalg.norm``, floored at 1e-12.

    A block holds ``width // 4`` queries (at least one), so its product is
    at most a quarter of ``unit``'s size, and so are its candidate arrays
    when every row is a candidate, as under a collapsed embedding.  The
    two steps are functions of their own so that a block's temporaries
    are freed before the next block allocates its own.
    """
    n, width = unit.shape
    qn = queries / np.array([max(np.linalg.norm(v), 1e-12) for v in queries])[:, None]
    sq = np.einsum("ij,ij->i", unit, unit)
    vv = sq[np.isfinite(sq)]
    limit = _knn_margin(width, vv.min(), vv.max()) if vv.size else 0.0
    picks = np.empty(len(queries), dtype=np.int64)
    step = max(1, width // 4)
    for start in range(0, len(queries), step):
        block = qn[start:start + step]
        picks[start:start + step] = _rerank(
            block, unit, *_candidates(block, unit, eligible[start:start + step], limit))
    return picks


def _candidates(
    block: np.ndarray, unit: np.ndarray, eligible: list[np.ndarray], limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of a block of normalised queries, as ascending
    (query, row) index arrays.  One product gives every dot product; per
    query, an eligible row is a candidate when its dot product is not
    below the best eligible one minus ``limit``: ``retrieval._knn_margin``
    over ``unit``'s finite rows bounds how far below that the nearest row
    can score.  A NaN dot product is never below, so NaN rows stay, and
    each query keeps its best eligible row."""
    g = block @ unit.T
    barred = np.ones(g.shape, dtype=bool)
    for row, cols in zip(barred, eligible):
        row[cols] = False
    np.copyto(g, -np.inf, where=barred)
    drop = g < (np.fmax.reduce(g, axis=1) - limit)[:, None]
    drop |= barred
    return np.divmod(np.flatnonzero(~drop), len(unit))


def _rerank(block: np.ndarray, unit: np.ndarray, qi: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Each query's pick among its candidates ``cand[qi == k]``.  A
    candidate's distance is the row minus the query, squared,
    ``np.add.reduce`` along the row and a square root; it is its own
    reduce, so its bits do not depend on which rows are gathered with it.
    The differences are taken ``len(unit) // 4`` candidates at a time.
    One ``lexsort`` by (query, distance, row) then puts each query's pick
    first in its run."""
    d = np.empty(len(cand))
    chunk = max(1, len(unit) // 4)
    for lo in range(0, len(cand), chunk):
        diff = unit[cand[lo:lo + chunk]]
        diff -= block[qi[lo:lo + chunk]]
        diff *= diff
        d[lo:lo + chunk] = np.sqrt(np.add.reduce(diff, axis=1))
    order = np.lexsort((cand, d, qi))
    return cand[order[np.searchsorted(qi, np.arange(len(block)))]]


def hardest_negative(
    query_vec: np.ndarray, candidate_ids: list[int], candidate_vecs: np.ndarray
) -> int:
    """Id of the closest candidate by L2 on normalized vectors: one query
    through mining's search.

    Ties break toward the smallest id.  Raises on an empty candidate set.
    """
    if len(candidate_ids) == 0:
        raise ValueError("no candidates to mine from")
    if candidate_vecs.shape[0] != len(candidate_ids):
        raise ValueError("candidate ids and vectors disagree in length")
    # Rows in id order, so the smallest index is the smallest id.
    order = np.argsort(candidate_ids, kind="stable")
    unit = _unit_rows(np.asarray(candidate_vecs)[order])
    pick = _nearest(query_vec[None, :], unit, [np.arange(len(order))])[0]
    return int(candidate_ids[order[pick]])


def mine_triplets(
    ds: GeoDataset,
    m_q: int,
    cfg: MiningConfig,
    embed: Callable[[np.ndarray], np.ndarray],
    rng_seed: int,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """Build an int64 array of ``m_q`` (query, positive, negative) id rows.

    ``embed`` maps a stacked feature matrix to embeddings and is only
    invoked for the mining modes that need it.  Positives are uniform
    over each query's positive set.  ``FULL_HNM`` embeds the sampled
    queries plus the whole database and takes each query's nearest
    eligible negative; ``PARTIAL_HNM`` does the same against one shared
    random candidate pool, falling back to a uniform negative for any
    query whose eligible negatives missed the pool; ``RANDOM`` skips
    embedding entirely.  Negatives are read as row arrays
    (``GeoDataset.neighbour_rows``), and the embedded database or pool is
    normalised once per call.  The picks come from one filtered product
    per block of queries and one rerank of the candidates it keeps (see
    ``_nearest``); each is the one ``hardest_negative`` would make, bit
    for bit.  Partial mining's fallbacks draw in query order, after the
    pool.
    """
    if ledger is None:
        ledger = CostLedger()
    rng, queries = _draw_queries(ds, m_q, rng_seed, need_negatives=True)
    triplets = np.empty((m_q, 3), dtype=np.int64)
    triplets[:, :2] = queries
    query_ids = queries[:, 0].tolist()

    db_ids = ds.db_ids
    if cfg.mode is MiningMode.RANDOM:
        for k, qid in enumerate(query_ids):
            negs = ds.neighbour_rows(qid)[1]
            triplets[k, 2] = db_ids[negs[int(rng.integers(len(negs)))]]
        return triplets

    n_db = len(db_ids)
    full = cfg.mode is MiningMode.FULL_HNM
    if not full and cfg.pool_size > n_db:
        raise ValueError(f"pool_size {cfg.pool_size} exceeds database size {n_db}")
    q_emb = embed(ds.features(query_ids))
    if full:  # the pool is every database row, in order
        pool_rows = np.arange(n_db)
        pool_unit = _unit_rows(embed(ds.db_features))
    else:  # one shared random candidate pool per call
        drawn = rng.choice(n_db, size=cfg.pool_size, replace=False)
        # Its rows in database order, so that a smaller place has a smaller id.
        by_row = np.argsort(drawn)
        pool_rows = drawn[by_row]
        pool_unit = _unit_rows(embed(ds.db_features[drawn])[by_row])
    # Queries and the pool; partial mining also fetches each positive.
    extracted = m_q + n_db if full else 2 * m_q + cfg.pool_size
    ledger.add_extractions(extracted)
    ledger.note_cached(extracted)
    negatives = [ds.neighbour_rows(qid)[1] for qid in query_ids]
    if full:
        # Each query compares each of its eligible negatives.  The pool is
        # the database in order, so their places in it are their rows.
        ledger.add_comparisons(sum(len(negs) for negs in negatives))
        eligible = negatives
    else:
        # Each query checks every pool member, then keeps the eligible
        # negatives among them.
        ledger.add_comparisons(m_q * cfg.pool_size)
        at = np.full(n_db, -1)  # each database row's place in the pool, if any
        at[pool_rows] = np.arange(cfg.pool_size)
        eligible = [places[places >= 0] for places in (at[negs] for negs in negatives)]
    has = [k for k, places in enumerate(eligible) if places.size]
    rows = np.full(m_q, -1)
    rows[has] = pool_rows[_nearest(q_emb[has], pool_unit, [eligible[k] for k in has])]
    # Only partial mining falls back, since every query has a negative in
    # the database.  The fallbacks draw in query order, after the pool.
    for k in np.flatnonzero(rows < 0).tolist():
        negs = negatives[k]
        rows[k] = negs[int(rng.integers(len(negs)))]
        ledger.add_extractions(1)  # the fallback negative is fetched fresh
    triplets[:, 2] = [db_ids[r] for r in rows.tolist()]
    return triplets

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
call and reads each query's negatives as ascending row arrays.  All
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


def _query_distances(query_vec: np.ndarray, unit_vecs: np.ndarray) -> np.ndarray:
    """L2 distance of the normalised query to each (normalised) row, by
    direct differences.  The query keeps the 1-D ``np.linalg.norm``."""
    q = query_vec / max(np.linalg.norm(query_vec), 1e-12)
    return np.linalg.norm(unit_vecs - q[None, :], axis=1)


def _closest(dists: np.ndarray, ids: np.ndarray) -> int:
    """``np.lexsort((ids, dists))[0]`` without the sort: the index of the
    smallest distance, ties to the smallest id, NaN distances last."""
    tied = np.flatnonzero(dists == np.fmin.reduce(dists))
    if tied.size == 0:  # every distance is NaN
        tied = np.arange(dists.size)
    return int(tied[np.argmin(ids[tied])])


def hardest_negative(
    query_vec: np.ndarray, candidate_ids: list[int], candidate_vecs: np.ndarray
) -> int:
    """Id of the closest candidate by L2 on normalized vectors.

    Ties break toward the smallest id.  Raises on an empty candidate set.
    """
    if len(candidate_ids) == 0:
        raise ValueError("no candidates to mine from")
    if candidate_vecs.shape[0] != len(candidate_ids):
        raise ValueError("candidate ids and vectors disagree in length")
    dists = _query_distances(query_vec, _unit_rows(candidate_vecs))
    return int(candidate_ids[_closest(dists, np.asarray(candidate_ids))])


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
    normalised once per call; each pick is the one ``hardest_negative``
    would make, bit for bit.
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

    if cfg.mode is MiningMode.FULL_HNM:
        q_emb = embed(ds.features(query_ids))
        db_unit = _unit_rows(embed(ds.db_features))
        ledger.add_extractions(m_q + len(db_ids))
        ledger.note_cached(m_q + len(db_ids))
        for k, qid in enumerate(query_ids):
            negs = ds.neighbour_rows(qid)[1]
            # Each row's distance is its own reduce, so distances to the
            # whole database, then taken at ``negs``, carry the bits of
            # distances to the gathered rows.  Rows ascend with ids, so
            # they break ties as the ids would.
            best = _closest(_query_distances(q_emb[k], db_unit)[negs], negs)
            ledger.add_comparisons(len(negs))
            triplets[k, 2] = db_ids[negs[best]]
        return triplets

    # PARTIAL_HNM: one shared candidate pool per call.
    if cfg.pool_size > len(db_ids):
        raise ValueError(
            f"pool_size {cfg.pool_size} exceeds database size {len(db_ids)}"
        )
    pool_rows = rng.choice(len(db_ids), size=cfg.pool_size, replace=False)
    q_emb = embed(ds.features(query_ids))
    pool_unit = _unit_rows(embed(ds.db_features[pool_rows]))
    ledger.add_extractions(m_q + cfg.pool_size + m_q)  # queries + pool + positives
    ledger.note_cached(m_q + cfg.pool_size + m_q)
    is_neg = np.zeros(len(db_ids), dtype=bool)
    for k, qid in enumerate(query_ids):
        # Every pool member is distance-checked, then geometric eligibility
        # masks out anything not strictly beyond the negative radius.
        ledger.add_comparisons(cfg.pool_size)
        negs = ds.neighbour_rows(qid)[1]
        is_neg[negs] = True
        elig = np.flatnonzero(is_neg[pool_rows])
        is_neg[negs] = False
        if elig.size:
            dists = _query_distances(q_emb[k], pool_unit[elig])
            triplets[k, 2] = db_ids[pool_rows[elig[_closest(dists, pool_rows[elig])]]]
        else:
            triplets[k, 2] = db_ids[negs[int(rng.integers(len(negs)))]]
            ledger.add_extractions(1)  # the fallback negative is fetched fresh
    return triplets

"""Pair and triplet construction contracts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vgssl.costmodel import CostLedger
from vgssl.geodata import GeoDataset, Role, distance_m, synth_dataset
from vgssl.sampling import (
    MiningConfig,
    MiningMode,
    build_pairs,
    hardest_negative,
    mine_triplets,
)


def identity_embed(feats):
    return feats


def identical(pairs):
    """Rows that are identical negatives: the anchor is its own partner."""
    return pairs[:, 0] == pairs[:, 1]


class TestPairContract:
    def setup_method(self):
        self.ds = synth_dataset(seed=0, n_places=12, db_per_place=6, query_fraction=1.0)

    def test_returns_int64_id_rows(self):
        pairs = build_pairs(self.ds, m_q=8, eta=0.5, rng_seed=1)
        assert pairs.dtype == np.int64 and pairs.shape == (12, 2)

    def test_counts(self):
        pairs = build_pairs(self.ds, m_q=8, eta=0.25, rng_seed=1)
        assert len(pairs) == 10  # 8 + round(0.25 * 8)
        assert np.count_nonzero(~identical(pairs)) == 8
        assert np.count_nonzero(identical(pairs)) == 2

    def test_eta_zero(self):
        pairs = build_pairs(self.ds, m_q=6, eta=0.0, rng_seed=2)
        assert len(pairs) == 6
        assert not identical(pairs).any()

    def test_rounding_half_cases(self):
        # round() banker's rounding: round(0.5*5)=round(2.5)=2, round(0.5*7)=round(3.5)=4
        assert len(build_pairs(self.ds, m_q=5, eta=0.5, rng_seed=3)) == 7
        assert len(build_pairs(self.ds, m_q=7, eta=0.5, rng_seed=3)) == 11

    def test_positive_partner_geometry(self):
        pairs = build_pairs(self.ds, m_q=10, eta=0.0, rng_seed=4)
        for anchor, partner in pairs.tolist():
            assert partner in self.ds.positive_set(anchor)
            a, b = self.ds.sample(anchor), self.ds.sample(partner)
            assert distance_m(a.position, b.position) <= self.ds.r_pos

    def test_identical_negative_repeats_sample(self):
        # Anchor equals partner exactly on the database-negative rows.
        pairs = build_pairs(self.ds, m_q=6, eta=1.0, rng_seed=5)
        queries = set(self.ds.query_ids)
        for anchor, partner in pairs.tolist():
            assert (anchor == partner) == (anchor not in queries)

    def test_no_negative_collides_with_any_positive_set(self):
        for seed in range(20):
            pairs = build_pairs(self.ds, m_q=8, eta=1.0, rng_seed=seed)
            banned = set()
            for anchor in pairs[~identical(pairs), 0].tolist():
                banned.update(self.ds.positive_set(anchor))
            for anchor in pairs[identical(pairs), 0].tolist():
                assert anchor not in banned

    def test_negatives_distinct(self):
        pairs = build_pairs(self.ds, m_q=6, eta=1.0, rng_seed=6)
        negs = pairs[identical(pairs), 0].tolist()
        assert len(set(negs)) == len(negs)

    def test_determinism(self):
        a = build_pairs(self.ds, m_q=8, eta=0.5, rng_seed=7)
        b = build_pairs(self.ds, m_q=8, eta=0.5, rng_seed=7)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = build_pairs(self.ds, m_q=8, eta=0.5, rng_seed=7)
        b = build_pairs(self.ds, m_q=8, eta=0.5, rng_seed=8)
        assert not np.array_equal(a, b)

    def test_too_many_queries_requested(self):
        with pytest.raises(ValueError):
            build_pairs(self.ds, m_q=100, eta=0.0, rng_seed=0)

    def test_too_few_identical_negatives(self):
        # Two places of two: one sampled query bans its own place's two rows,
        # which leaves two rows for round(5 * 1) identical negatives.
        ds = synth_dataset(seed=0, n_places=2, db_per_place=2)
        with pytest.raises(ValueError) as err:
            build_pairs(ds, m_q=1, eta=5.0, rng_seed=0)
        assert str(err.value) == ("need 5 identical negatives, only 2 database samples sit "
                                  "outside the sampled queries' positive sets")

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            build_pairs(self.ds, m_q=4, eta=-0.5, rng_seed=0)

    def test_ledger_counts_extraction_per_slot(self):
        led = CostLedger()
        pairs = build_pairs(self.ds, m_q=8, eta=0.5, rng_seed=9, ledger=led)
        assert led.extractions == 2 * len(pairs)
        assert led.comparisons == 0
        assert led.peak_cached == 2 * len(pairs)

    def test_property_thousand_randomized_calls(self):
        """Count, collision and determinism over many randomized calls."""
        # Wide world so that eta=1 negatives always remain feasible.
        ds = synth_dataset(seed=5, n_places=30, db_per_place=4, query_fraction=1.0)
        rng = np.random.default_rng(99)
        for _ in range(250):
            m_q = int(rng.integers(1, 13))
            eta = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            seed = int(rng.integers(0, 10_000))
            pairs = build_pairs(ds, m_q, eta, seed)
            assert len(pairs) == m_q + round(eta * m_q)
            again = build_pairs(ds, m_q, eta, seed)
            assert np.array_equal(pairs, again)


class TestHardestNegative:
    def test_picks_closest(self):
        q = np.array([1.0, 0.0])
        cands = np.array([[1.0, 0.1], [0.0, 1.0]])
        assert hardest_negative(q, [10, 20], cands) == 10

    def test_tie_breaks_to_smallest_id(self):
        q = np.array([1.0, 0.0])
        cands = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert hardest_negative(q, [42, 7], cands) == 7

    def test_normalization_applied(self):
        # Un-normalized magnitudes must not matter.
        q = np.array([10.0, 0.0])
        cands = np.array([[0.001, 0.001], [0.0, 5.0]])
        # First candidate normalizes to 45 degrees, second to 90 degrees.
        assert hardest_negative(q, [1, 2], cands) == 1

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            hardest_negative(np.array([1.0]), [], np.zeros((0, 1)))


class TestTriplets:
    def setup_method(self):
        self.ds = synth_dataset(seed=1, n_places=10, db_per_place=5, query_fraction=1.0)

    def test_random_mode_geometry(self):
        cfg = MiningConfig(mode=MiningMode.RANDOM)
        trips = mine_triplets(self.ds, 8, cfg, identity_embed, rng_seed=0)
        assert trips.dtype == np.int64 and trips.shape == (8, 3)
        for anchor, positive, negative in trips.tolist():
            assert positive in self.ds.positive_set(anchor)
            assert negative in self.ds.negative_set(anchor)

    def test_random_mode_costs_nothing(self):
        led = CostLedger()
        cfg = MiningConfig(mode=MiningMode.RANDOM)
        mine_triplets(self.ds, 8, cfg, identity_embed, rng_seed=0, ledger=led)
        assert led.snapshot() == {"extractions": 0, "comparisons": 0, "peak_cached": 0}

    def test_full_mode_finds_hardest(self):
        cfg = MiningConfig(mode=MiningMode.FULL_HNM)
        trips = mine_triplets(self.ds, 6, cfg, identity_embed, rng_seed=1)
        for anchor, _, negative in trips.tolist():
            q = self.ds.sample(anchor).features
            negs = self.ds.negative_set(anchor)
            vecs = np.stack([self.ds.sample(i).features for i in negs])
            assert negative == hardest_negative(q, negs, vecs)

    def test_full_mode_ledger(self):
        led = CostLedger()
        cfg = MiningConfig(mode=MiningMode.FULL_HNM)
        mine_triplets(self.ds, 6, cfg, identity_embed, rng_seed=1, ledger=led)
        n_k = len(self.ds.database)
        assert led.extractions == 6 + n_k
        # Each query compares against its own eligible negatives: 9 places * 5.
        assert led.comparisons == 6 * 45
        assert led.peak_cached == 6 + n_k

    def test_partial_mode_ledger_and_geometry(self):
        led = CostLedger()
        cfg = MiningConfig(mode=MiningMode.PARTIAL_HNM, pool_size=20)
        trips = mine_triplets(self.ds, 6, cfg, identity_embed, rng_seed=2, ledger=led)
        assert led.comparisons == 6 * 20
        assert led.extractions >= 6 + 20 + 6  # fallbacks may add a few
        for anchor, _, negative in trips.tolist():
            assert negative in self.ds.negative_set(anchor)

    def test_partial_pool_too_large(self):
        cfg = MiningConfig(mode=MiningMode.PARTIAL_HNM, pool_size=10_000)
        with pytest.raises(ValueError):
            mine_triplets(self.ds, 4, cfg, identity_embed, rng_seed=0)

    def test_partial_requires_pool_size(self):
        with pytest.raises(ValueError):
            MiningConfig(mode=MiningMode.PARTIAL_HNM)

    def test_determinism(self):
        cfg = MiningConfig(mode=MiningMode.FULL_HNM)
        a = mine_triplets(self.ds, 6, cfg, identity_embed, rng_seed=3)
        b = mine_triplets(self.ds, 6, cfg, identity_embed, rng_seed=3)
        assert np.array_equal(a, b)

    def test_embed_not_called_in_random_mode(self):
        calls = []

        def spy(feats):
            calls.append(feats.shape)
            return feats

        cfg = MiningConfig(mode=MiningMode.RANDOM)
        mine_triplets(self.ds, 4, cfg, spy, rng_seed=0)
        assert calls == []


# -- mining against a per-query oracle -----------------------------------------


def oracle_hardest_negative(query_vec, candidate_ids, candidate_vecs):
    """The per-query pick as first written: every candidate renormalised for
    this query, then a full lexsort by (distance, id)."""
    q = query_vec / max(np.linalg.norm(query_vec), 1e-12)
    norms = np.linalg.norm(candidate_vecs, axis=1, keepdims=True)
    c = candidate_vecs / np.maximum(norms, 1e-12)
    dists = np.linalg.norm(c - q[None, :], axis=1)
    best = np.lexsort((candidate_ids, dists))[0]
    return int(candidate_ids[best])


def _embedding_table(rng, n, dim, exact):
    """Rows drawn from a few vectors, so exact duplicates and tied distances
    are common, with some zero rows and some NaN rows.  ``exact`` vectors
    hold small integers, which sum exactly in any order; the others are
    Gaussian, so a norm's summation order shows in its last bits."""
    shape = (rng.integers(1, 6), dim)
    distinct = rng.integers(-2, 3, size=shape) if exact else rng.normal(size=shape)
    table = distinct[rng.integers(0, len(distinct), size=n)].astype(np.float64)
    table *= rng.choice([1.0, 0.5, 3.0], size=(n, 1))
    table[rng.random(n) < 0.1] = 0.0
    table[rng.random(n) < 0.1] = np.nan
    return table


@st.composite
def mining_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    world = synth_dataset(seed=int(rng.integers(1000)), n_places=int(rng.integers(3, 9)),
                          db_per_place=int(rng.integers(1, 5)), query_fraction=1.0,
                          feature_dim=1, buffer_per_place=int(rng.integers(0, 3)))
    # Each sample's single feature is its id; embedding looks the id up.
    ds = GeoDataset([(s.role is Role.QUERY, s.id, s.position, [float(s.id)])
                     for s in world.database + world.queries])
    dim = draw(st.sampled_from([1, 2, 3, 4, 16, 40]))
    table = _embedding_table(rng, len(world.database) + len(world.queries), dim,
                             exact=draw(st.booleans()))
    m_q = draw(st.integers(1, len(ds.eligible_queries(need_negatives=True))))
    pool = draw(st.integers(1, len(ds.db_ids)))
    # An embedding may come back in either memory order.
    order = draw(st.sampled_from(["C", "F"]))
    return ds, table, m_q, pool, draw(st.integers(0, 2**16)), order


def _mine_with_spy(ds, table, m_q, cfg, seed, order):
    calls = []

    def embed(feats):
        ids = feats[:, 0].astype(int)
        calls.append(ids.tolist())
        return np.asarray(table[ids], order=order)

    led = CostLedger()
    return mine_triplets(ds, m_q, cfg, embed, seed, ledger=led), calls, led


@given(case=mining_cases())
def test_full_mining_matches_per_query_oracle(case):
    ds, table, m_q, _, seed, order = case
    cfg = MiningConfig(MiningMode.FULL_HNM)
    trips, calls, led = _mine_with_spy(ds, table, m_q, cfg, seed, order)
    assert calls == [trips[:, 0].tolist(), list(ds.db_ids)]
    for anchor, _, negative in trips.tolist():
        negs = ds.negative_set(anchor)
        assert negative == oracle_hardest_negative(table[anchor], negs, table[negs])
    assert led.comparisons == sum(len(ds.negative_set(a)) for a in trips[:, 0].tolist())


@given(case=mining_cases())
def test_partial_mining_matches_per_query_oracle(case):
    ds, table, m_q, pool, seed, order = case
    cfg = MiningConfig(MiningMode.PARTIAL_HNM, pool_size=pool)
    trips, calls, led = _mine_with_spy(ds, table, m_q, cfg, seed, order)
    assert calls[0] == trips[:, 0].tolist()
    pool_ids = calls[1]
    fallbacks = 0
    for anchor, _, negative in trips.tolist():
        negs = ds.negative_set(anchor)
        elig = [i for i in pool_ids if i in negs]
        if elig:
            assert negative == oracle_hardest_negative(table[anchor], elig, table[elig])
        else:
            fallbacks += 1
            assert negative in negs
    assert led.extractions == 2 * m_q + pool + fallbacks
    assert led.comparisons == m_q * pool


@given(case=mining_cases())
def test_hardest_negative_matches_oracle(case):
    ds, table, _, _, seed, _ = case
    rng = np.random.default_rng(seed)
    ids = rng.permutation(len(table))[: rng.integers(1, len(table) + 1)].tolist()
    q = table[rng.integers(len(table))]
    assert hardest_negative(q, ids, table[ids]) == oracle_hardest_negative(q, ids, table[ids])


@st.composite
def near_tie_cases(draw):
    """Candidates that are positive multiples of one vector: their unit rows
    tie exactly in exact arithmetic, so the pick rests on the last bits of
    each row's norm."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n = int(rng.integers(8, 65)), int(rng.integers(2, 13))
    cands = rng.normal(size=(1, d)) * rng.uniform(0.5, 2.0, size=(n, 1))
    ids = rng.permutation(1000)[:n].tolist()
    return rng.normal(size=d), ids, cands


@given(case=near_tie_cases())
def test_hardest_negative_ignores_the_memory_order(case):
    q, ids, cands = case
    assert hardest_negative(q, ids, np.asfortranarray(cands)) == hardest_negative(q, ids, cands)

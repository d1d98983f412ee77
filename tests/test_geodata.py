"""Dataset geometry: distances, radii semantics, synthesis, persistence."""


import csv
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vgssl.encoder import EncoderConfig, init_state
from vgssl.geodata import (
    GeoDataset,
    GeoSample,
    Position,
    PositionMode,
    Role,
    distance_m,
    load_csv,
    save_csv,
    synth_dataset,
)
from vgssl.retrieval import build_index
from vgssl.sampling import MiningConfig, MiningMode, build_pairs, mine_triplets


def planar(x, y):
    return Position(PositionMode.PLANAR, x, y)


def db_row(sid, x, y, feats=None):
    return False, sid, planar(x, y), feats if feats is not None else np.zeros(3)


def q_row(sid, x, y, feats=None):
    return True, sid, planar(x, y), feats if feats is not None else np.zeros(3)


def rows_of(ds):
    """``ds`` as the ``(is_query, id, position, features)`` rows it takes."""
    return [(s.role is Role.QUERY, s.id, s.position, s.features)
            for s in ds.database + ds.queries]


class TestDistance:
    def test_planar_3_4_5(self):
        assert distance_m(planar(0, 0), planar(3, 4)) == pytest.approx(5.0)

    def test_haversine_one_degree_longitude_at_equator(self):
        p = Position(PositionMode.GEODETIC, 0.0, 0.0)
        q = Position(PositionMode.GEODETIC, 0.0, 1.0)
        # pi * 6371000 / 180
        assert distance_m(p, q) == pytest.approx(111194.9266445587, rel=1e-12)

    def test_haversine_symmetry_and_zero(self):
        p = Position(PositionMode.GEODETIC, 48.85, 2.35)
        q = Position(PositionMode.GEODETIC, 48.86, 2.36)
        assert distance_m(p, q) == pytest.approx(distance_m(q, p))
        assert distance_m(p, p) == 0.0

    def test_mixed_modes_rejected(self):
        with pytest.raises(ValueError):
            distance_m(planar(0, 0), Position(PositionMode.GEODETIC, 0, 0))

    def test_geodetic_range_validation(self):
        with pytest.raises(ValueError):
            Position(PositionMode.GEODETIC, 91.0, 0.0)
        with pytest.raises(ValueError):
            Position(PositionMode.GEODETIC, 0.0, 181.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            planar(float("nan"), 0.0)


class TestNeighborhoods:
    def make_ds(self):
        # Query at origin; db at 5 m, exactly 10 m, 20 m, exactly 25 m, 30 m.
        return GeoDataset([
            q_row(100, 0, 0),
            db_row(0, 5, 0),
            db_row(1, 10, 0),
            db_row(2, 20, 0),
            db_row(3, 25, 0),
            db_row(4, 30, 0),
        ])

    def test_positive_boundary_inclusive(self):
        # <= 10 m is positive, so the sample at exactly 10 m is included.
        assert self.make_ds().positive_set(100) == [0, 1]

    def test_negative_boundary_exclusive(self):
        # > 25 m is negative, so the sample at exactly 25 m is excluded.
        assert self.make_ds().negative_set(100) == [4]

    def test_annulus_in_neither_set(self):
        ds = self.make_ds()
        assert 2 not in ds.positive_set(100)
        assert 2 not in ds.negative_set(100)

    def test_unknown_query_raises(self):
        with pytest.raises(KeyError):
            self.make_ds().positive_set(999)

    def test_sample_lookup(self):
        ds = self.make_ds()
        assert ds.sample(3).position.a == 25
        with pytest.raises(KeyError):
            ds.sample(555)


def _hand_world():
    # Query 10 has no positives, query 11 no negatives, query 12 both; listed
    # out of id order, which eligible_queries ignores: it answers in id order.
    return GeoDataset([db_row(0, 0, 0), q_row(12, -10, 0), db_row(1, 5, 0),
                       q_row(10, 60, 0), db_row(2, 20, 0), q_row(11, 3, 0)])


def _geodetic_world():
    # Clusters straddling the antimeridian and around the north pole, with
    # samples scattered over ~60 m so every set has members near both radii.
    rng = np.random.default_rng(0)
    deg = 180.0 / (np.pi * 6_371_000.0)  # degrees of latitude per meter
    centres = [(10.0, 180.0), (-45.0, -180.0), (89.9996, 0.0), (90.0, 90.0)]
    rows = []
    for lat0, lon0 in centres:
        for is_query in [False] * 12 + [True] * 3:
            dlat, dlon = rng.uniform(-30.0, 30.0, size=2) * deg
            lat = float(np.clip(lat0 + dlat, -90.0, 90.0))
            coslat = max(np.cos(np.radians(lat)), 1e-3)
            lon = (lon0 + dlon / coslat + 180.0) % 360.0 - 180.0
            pos = Position(PositionMode.GEODETIC, lat, float(lon))
            rows.append((is_query, len(rows), pos, np.zeros(2)))
    return GeoDataset(rows)


@pytest.mark.parametrize("make", [
    lambda: synth_dataset(seed=4, n_places=5, db_per_place=3, query_fraction=0.8,
                          buffer_per_place=2),
    _hand_world,
    _geodetic_world,
], ids=["planar_buffer", "hand_built", "geodetic_antimeridian_pole"])
def test_neighbourhoods_match_scalar_oracle(make):
    ds = make()
    db_ids = sorted(s.id for s in ds.database)
    pos, neg = {}, {}
    for q in ds.queries:
        d = {i: distance_m(q.position, ds.sample(i).position) for i in db_ids}
        pos[q.id] = [i for i in db_ids if d[i] <= ds.r_pos]
        neg[q.id] = [i for i in db_ids if d[i] > ds.r_neg]
        assert ds.positive_set(q.id) == pos[q.id]
        assert ds.negative_set(q.id) == neg[q.id]
    assert ds.eligible_queries(need_negatives=False) == [
        q.id for q in ds.queries if pos[q.id]
    ]
    assert ds.eligible_queries(need_negatives=True) == [
        q.id for q in ds.queries if pos[q.id] and neg[q.id]
    ]
    # Every world has positives, negatives and samples in the annulus.
    assert any(pos.values()) and any(neg.values())
    assert any(len(pos[q]) + len(neg[q]) < len(db_ids) for q in pos)


def test_hand_world_eligibility():
    ds = _hand_world()
    assert ds.positive_set(10) == [] and ds.negative_set(11) == []
    assert ds.eligible_queries(need_negatives=False) == [11, 12]
    assert ds.eligible_queries(need_negatives=True) == [12]


def test_neighbourhood_lists_are_fresh_copies():
    ds = _hand_world()
    ds.positive_set(11).append(99)
    ds.negative_set(12).clear()
    assert ds.positive_set(11) == [0, 1]
    assert ds.negative_set(12) == [2]


# -- radius search against the scalar oracle ----------------------------------

# Query and database positions of a world, and its radii:
# (geodetic, r_pos, r_neg, [(a, b) per query], [(a, b) per database sample]).
DEG_PER_M = 180.0 / (math.pi * 6_371_000.0)  # degrees of arc per meter


def _wrap_lon(lon):
    return (lon + 180.0) % 360.0 - 180.0


def _straddle(dist, at, r, span):
    """``[at(t_in), at(t_out)]`` for adjacent floats ``t_in < t_out`` in
    [0, span] with ``dist(at(t_in)) <= r < dist(at(t_out))``: the two points
    one ulp of ``t`` either side of the radius, by bisection on the bits."""
    lo, hi = 0, int(np.float64(span).view(np.int64))
    assert dist(at(0.0)) <= r < dist(at(float(span)))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if dist(at(float(np.int64(mid).view(np.float64)))) <= r:
            lo = mid
        else:
            hi = mid
    t_in = float(np.int64(lo).view(np.float64))
    t_out = float(np.nextafter(t_in, np.inf))
    return [at(t_in), at(t_out)]


@st.composite
def radius_worlds(draw, geodetic):
    r_pos = draw(st.floats(0.5, 100.0))
    r_neg = r_pos * draw(st.floats(1.05, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = PositionMode.GEODETIC if geodetic else PositionMode.PLANAR
    queries, db = [], []
    for _ in range(draw(st.integers(1, 3))):
        if geodetic:
            # The poles, the antimeridian from both sides, the origin (where a
            # degree's last bit is finest) and anywhere.
            lat0, lon0 = draw(st.sampled_from([
                (90.0, 0.0), (-90.0, 45.0), (12.5, 180.0), (-33.0, -180.0),
                (89.99999, -179.99999), (0.0, 0.0),
                tuple(rng.uniform([-90.0, -180.0], [90.0, 180.0])),
            ]))
        else:
            # At the origin the coordinate differences are exact, so the
            # scalar distance takes nearly every float near a radius.
            lat0, lon0 = draw(st.sampled_from([
                (0.0, 0.0), tuple(rng.uniform(-r_neg, r_neg, size=2)),
            ]))
        q = (float(lat0), float(lon0))
        queries.append(q)

        def dist(ab, q=q):
            return distance_m(Position(mode, *q), Position(mode, *ab))

        for r in (r_pos, r_neg):
            for _ in range(draw(st.integers(1, 12))):
                side, v = rng.choice([-1.0, 1.0]), rng.uniform(-0.5, 0.5)
                if geodetic:
                    # Along a meridian towards the equator, off the query's
                    # longitude by up to half the radius.
                    side = -1.0 if q[0] > 0 else 1.0
                    coslat = max(math.cos(math.radians(q[0])), 1e-9)
                    lon = _wrap_lon(q[1] + v * r * DEG_PER_M / coslat)
                    span = 2.0 * r * DEG_PER_M

                    def at(t, side=side, lon=lon, q=q):
                        return (q[0] + side * t, lon)
                else:
                    span, off, swap = 2.0 * r, v * r, rng.random() < 0.5

                    def at(t, side=side, off=off, swap=swap, q=q):
                        da, db_ = (off, side * t) if swap else (side * t, off)
                        return (q[0] + da, q[1] + db_)
                db += _straddle(dist, at, r, span)
        # Scatter around the query, and (geodetic) its antipode.
        for _ in range(draw(st.integers(0, 8))):
            da, db_ = rng.uniform(-2.0 * r_neg, 2.0 * r_neg, size=2)
            if geodetic:
                db.append((float(np.clip(q[0] + da * DEG_PER_M, -90.0, 90.0)),
                           _wrap_lon(q[1] + db_ * DEG_PER_M)))
            else:
                db.append((q[0] + da, q[1] + db_))
        if geodetic:
            db.append((-q[0], _wrap_lon(q[1] + 180.0)))
    return geodetic, r_pos, r_neg, queries, db


def _world_from(spec):
    geodetic, r_pos, r_neg, queries, db = spec
    mode = PositionMode.GEODETIC if geodetic else PositionMode.PLANAR
    rows = [(i >= len(db), i, Position(mode, *ab), np.zeros(1))
            for i, ab in enumerate(db + queries)]
    return GeoDataset(rows, r_pos=r_pos, r_neg=r_neg)


def _check_against_scalar(spec):
    ds = _world_from(spec)
    eligible = {False: [], True: []}
    for q in ds.queries:
        d = [distance_m(q.position, ds.sample(i).position) for i in ds.db_ids]
        pos = [i for i, di in zip(ds.db_ids, d) if di <= ds.r_pos]
        neg = [i for i, di in zip(ds.db_ids, d) if di > ds.r_neg]
        assert ds.positive_set(q.id) == pos
        assert ds.negative_set(q.id) == neg
        for need in eligible:
            if pos and (neg or not need):
                eligible[need].append(q.id)
    for need, ids in eligible.items():
        assert ds.eligible_queries(need_negatives=need) == ids


# Each example puts a database sample at exactly a radius, as the scalar
# distance reads it, where the vectorised distance reads one ulp more.
@given(spec=radius_worlds(geodetic=False))
@example(spec=(False, math.hypot(25.011, 9.4), math.hypot(24.175, 26.843),
               [(0.0, 0.0)], [(25.011, 9.4), (24.175, 26.843)]))
def test_planar_radius_membership_matches_scalar(spec):
    _check_against_scalar(spec)


@given(spec=radius_worlds(geodetic=True))
@example(spec=(True, 13.607224851245714, 28.74803040142134,
               [(0.0, 0.0)], [(0.00012165, -1.328e-05), (-3.7467e-05, 0.000255808)]))
def test_geodetic_radius_membership_matches_scalar(spec):
    _check_against_scalar(spec)


class TestDatasetValidation:
    """``GeoDataset(rows)`` is the only constructor, so it makes every check
    on the rows, each with its own message."""

    def rejects(self, rows, message, **radii):
        with pytest.raises(ValueError) as err:
            GeoDataset(rows, **radii)
        assert str(err.value) == message

    def test_radius_ordering_enforced(self):
        self.rejects([db_row(0, 0, 0)], "need 0 < r_pos < r_neg, got 25, 10", r_pos=25, r_neg=10)

    def test_duplicate_ids_rejected(self):
        self.rejects([q_row(0, 0, 0), db_row(0, 1, 1)], "sample ids must be unique across roles")

    def test_mixed_feature_widths_rejected(self):
        self.rejects([db_row(0, 0, 0, np.zeros(3)), db_row(1, 1, 1, np.zeros(4))],
                     "inconsistent feature widths [3, 4]")

    @pytest.mark.parametrize("feats, shape", [
        (np.zeros((1, 3)), (1, 3)), (np.float64(1.0), ()), (np.zeros((3, 1)), (3, 1)),
    ], ids=["row_matrix", "scalar", "column"])
    def test_features_must_be_1d(self, feats, shape):
        self.rejects([db_row(0, 0, 0), db_row(1, 1, 1, feats)],
                     f"features must be 1-d, got shape {shape}")

    def test_empty_database_rejected(self):
        self.rejects([], "database must be non-empty")
        self.rejects([q_row(0, 0, 0)], "database must be non-empty")

    def test_mixed_position_modes_rejected(self):
        geodetic = (False, 1, Position(PositionMode.GEODETIC, 0.0, 0.0), np.zeros(3))
        self.rejects([db_row(0, 0, 0), geodetic], "all samples must share one position mode")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        self.rejects([db_row(3, 0, 0), q_row(7, 0, 0, np.array([0.0, bad, 1.0]))],
                     "sample 7 has non-finite features")

    def test_first_non_finite_row_in_column_order_is_named(self):
        # Database rows come before query rows, each by ascending id.
        nan = np.array([np.nan, 0.0, 0.0])
        self.rejects([q_row(1, 0, 0, nan), db_row(9, 0, 0, nan), db_row(5, 0, 0, nan)],
                     "sample 5 has non-finite features")

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_non_finite_synth_features_rejected(self, noise):
        with pytest.raises(ValueError, match=f"^view_noise must be finite, got {noise}$"):
            synth_dataset(seed=0, n_places=3, db_per_place=2, view_noise=noise)

    @pytest.mark.parametrize("sid", [1.5, True, np.True_, "3", None])
    def test_non_integer_ids_rejected(self, sid):
        self.rejects([db_row(0, 0, 0), db_row(sid, 1, 1)], f"sample id {sid!r} is not an integer")

    @pytest.mark.parametrize("feats", [
        ["1", "2"], [True, False], [1.0, True], [np.True_, 0.0], np.array([True, False]),
        np.array(["1", "2"]), np.array([1.0, 2.0], dtype=object), [1.0, None],
    ], ids=["str", "bool", "float_and_bool", "numpy_bool", "bool_array", "str_array",
            "object_array", "none"])
    def test_non_numeric_features_rejected(self, feats):
        self.rejects([db_row(3, 0, 0, [0.0, 0.0]), q_row(7, 0, 0, feats)],
                     "sample 7 has non-numeric features")

    def test_every_accepted_dataset_survives_a_csv_round_trip(self, tmp_path):
        # Float ids and string or bool features were once accepted, and
        # save_csv then wrote a world that load_csv rejected.
        p = planar(0, 0)
        self.rejects([(False, 1.5, p, ["1", "2"]), (False, 2.5, p, [True, False])],
                     "sample id 1.5 is not an integer")
        self.rejects([(False, 1, p, ["1", "2"]), (False, 2, p, [True, False])],
                     "sample 1 has non-numeric features")
        ds = GeoDataset([(False, np.int64(1), p, [1, 2.5]),
                         (False, 2, p, np.array([3, 4], np.int32))])
        path = tmp_path / "world.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.db_ids == (1, 2)
        np.testing.assert_array_equal(back.db_features, ds.db_features)

    def test_features_of_any_number_type_are_stored_as_float64(self):
        ds = GeoDataset([db_row(0, 0, 0, [1, 2]), q_row(1, 0, 0, np.array([3, 4], np.int32))])
        assert ds.db_features.dtype == np.float64
        np.testing.assert_array_equal(ds.features([0, 1]), [[1.0, 2.0], [3.0, 4.0]])


class TestLayout:
    def setup_method(self):
        # ``ds`` is built from shuffled rows, both roles mixed, ``ordered``
        # from the same rows in column order.
        base = synth_dataset(seed=2, n_places=6, db_per_place=3, feature_dim=4,
                             buffer_per_place=1)
        rows = rows_of(base)
        rng = np.random.default_rng(0)
        self.ds = GeoDataset([rows[i] for i in rng.permutation(len(rows))])
        self.ordered = GeoDataset(rows)

    def test_ids_ascending_tuples(self):
        ds = self.ds
        assert isinstance(ds.db_ids, tuple) and isinstance(ds.query_ids, tuple)
        assert list(ds.db_ids) == sorted(s.id for s in ds.database)
        assert list(ds.query_ids) == sorted(s.id for s in ds.queries)

    def test_features_any_mix_in_given_order(self):
        ds = self.ds
        ids = [ds.query_ids[2], ds.db_ids[5], ds.db_ids[0], ds.query_ids[2]]
        got = ds.features(ids)
        assert got.dtype == np.float64 and got.shape == (4, ds.feature_dim)
        np.testing.assert_array_equal(got, np.stack([ds.sample(i).features for i in ids]))

    def test_features_returns_a_copy(self):
        ds = self.ds
        ds.features(ds.db_ids)[:] = 123.0
        np.testing.assert_array_equal(
            ds.features([ds.db_ids[0]])[0], ds.sample(ds.db_ids[0]).features
        )

    def test_unknown_id_raises_like_sample(self):
        with pytest.raises(KeyError) as from_sample:
            self.ds.sample(9999)
        with pytest.raises(KeyError) as from_features:
            self.ds.features([self.ds.db_ids[0], 9999])
        assert str(from_features.value) == str(from_sample.value) == "'no sample with id 9999'"

    def test_positions_any_mix_in_given_order(self):
        ds = self.ds
        ids = [ds.query_ids[1], ds.db_ids[4], ds.db_ids[0], ds.query_ids[1]]
        assert ds.positions(ids) == [ds.sample(i).position for i in ids]
        with pytest.raises(KeyError) as err:
            ds.positions([ds.db_ids[0], 9999])
        assert str(err.value) == "'no sample with id 9999'"

    def test_shuffled_lists_match_sorted_lists(self, tmp_path):
        """Index, mined triplets, pairs, eligible queries and CSV do not
        depend on the row order."""
        cfg = EncoderConfig(input_dim=4, hidden_dims=(8,), embed_dim=8)
        state = init_state(cfg, seed=0)
        a, b = build_index(state, cfg, self.ordered), build_index(state, cfg, self.ds)
        np.testing.assert_array_equal(a.ids, b.ids)
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert a.positions == b.positions
        for mode, pool in [(MiningMode.FULL_HNM, 0), (MiningMode.PARTIAL_HNM, 5),
                           (MiningMode.RANDOM, 0)]:
            mcfg = MiningConfig(mode=mode, pool_size=pool)
            for seed in range(5):
                assert np.array_equal(mine_triplets(self.ordered, 4, mcfg, np.tanh, seed),
                                      mine_triplets(self.ds, 4, mcfg, np.tanh, seed))
        for eta in (0.0, 1.0):
            assert np.array_equal(build_pairs(self.ordered, 4, eta, rng_seed=3),
                                  build_pairs(self.ds, 4, eta, rng_seed=3))
        for need in (False, True):
            assert self.ds.eligible_queries(need) == self.ordered.eligible_queries(need)
        save_csv(self.ordered, tmp_path / "a.csv")
        save_csv(self.ds, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


    def test_samples_are_read_only_views_of_the_matrix(self):
        for i in (self.ds.db_ids[3], self.ds.query_ids[1]):
            f = self.ds.sample(i).features
            assert not f.flags.writeable
            np.testing.assert_array_equal(f, self.ds.features([i])[0])
            with pytest.raises(ValueError):
                f[0] = 1.0
        assert all(not s.features.flags.writeable
                   for s in self.ds.database + self.ds.queries)

    def test_samples_are_plain_records(self):
        # GeoSample checks nothing: the dataset checked its rows once.
        assert np.isnan(GeoSample(1, Role.QUERY, planar(0, 0), np.array([np.nan])).features[0])
        for i, role in ((self.ds.db_ids[0], Role.DATABASE), (self.ds.query_ids[0], Role.QUERY)):
            s = self.ds.sample(i)
            assert type(s) is GeoSample and (s.id, s.role) == (i, role)
            assert s.position == self.ds.positions([i])[0]

    def test_sample_lists_are_fresh(self, tmp_path):
        """Mutating the lists ``queries`` and ``database`` return changes
        neither the eligible queries nor the saved CSV."""
        ds = self.ds
        save_csv(ds, tmp_path / "before.csv")
        eligible = [ds.eligible_queries(need) for need in (False, True)]
        for samples in (ds.queries, ds.database):
            assert [s.id for s in samples] == sorted(s.id for s in samples)
        ds.queries.reverse()
        ds.database.reverse()
        ds.queries.clear()
        ds.database.pop()
        assert [ds.eligible_queries(need) for need in (False, True)] == eligible
        assert [s.id for s in ds.queries] == list(ds.query_ids)
        save_csv(ds, tmp_path / "after.csv")
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()


class TestSynthDataset:
    def test_counts_and_ids(self):
        ds = synth_dataset(seed=0, n_places=10, db_per_place=4, query_fraction=0.5)
        assert len(ds.database) == 40
        assert len(ds.queries) == 5
        ids = [s.id for s in ds.database] + [s.id for s in ds.queries]
        assert sorted(ids) == list(range(45))

    def test_same_place_within_positive_radius(self):
        ds = synth_dataset(seed=1, n_places=6, db_per_place=5, query_fraction=1.0)
        for q in ds.queries:
            pos = ds.positive_set(q.id)
            # Each query must see at least its own place's database samples.
            assert len(pos) == 5
            for pid in pos:
                assert distance_m(q.position, ds.sample(pid).position) <= ds.r_pos

    def test_cross_place_beyond_negative_radius(self):
        ds = synth_dataset(seed=2, n_places=5, db_per_place=3, query_fraction=1.0)
        for q in ds.queries:
            negs = set(ds.negative_set(q.id))
            # Everything outside the query's own place is negative.
            assert len(negs) == 4 * 3

    def test_determinism(self):
        a = synth_dataset(seed=7, n_places=4, db_per_place=3)
        b = synth_dataset(seed=7, n_places=4, db_per_place=3)
        for s, t in zip(a.database + a.queries, b.database + b.queries):
            assert s.id == t.id
            assert s.position == t.position
            np.testing.assert_array_equal(s.features, t.features)

    def test_seed_changes_content(self):
        a = synth_dataset(seed=7, n_places=4, db_per_place=3)
        b = synth_dataset(seed=8, n_places=4, db_per_place=3)
        assert not np.array_equal(a.database[0].features, b.database[0].features)

    def test_view_noise_scales_spread(self):
        lo = synth_dataset(seed=3, n_places=4, db_per_place=20, view_noise=0.1)
        hi = synth_dataset(seed=3, n_places=4, db_per_place=20, view_noise=2.0)

        def place_spread(ds):
            feats = np.stack([s.features for s in ds.database[:20]])
            return float(feats.std(axis=0).mean())

        assert place_spread(hi) > 5 * place_spread(lo)

    def test_spacing_guard(self):
        with pytest.raises(ValueError):
            synth_dataset(seed=0, n_places=4, spacing_m=40.0)  # 2*r_neg = 50

    def test_min_places_guard(self):
        with pytest.raises(ValueError):
            synth_dataset(seed=0, n_places=1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"feature_dim": 0}, "feature_dim must be at least 1, got 0"),
        ({"feature_dim": -1}, "feature_dim must be at least 1, got -1"),
        ({"view_noise": -1.0}, "view_noise cannot be negative, got -1.0"),
        ({"view_noise": -np.inf}, "view_noise cannot be negative, got -inf"),
        ({"buffer_per_place": -1}, "buffer_per_place cannot be negative, got -1"),
        ({"view_noise": np.nan}, "view_noise must be finite, got nan"),
        ({"view_noise": np.inf}, "view_noise must be finite, got inf"),
    ])
    def test_impossible_world_named_before_any_draw(self, monkeypatch, kwargs, message):
        monkeypatch.setattr(np.random, "default_rng", None)  # any draw would fail
        with pytest.raises(ValueError, match=f"^{message}$"):
            synth_dataset(seed=0, n_places=4, **kwargs)

    def test_buffer_samples_fall_in_annulus(self):
        ds = synth_dataset(
            seed=4, n_places=3, db_per_place=2, query_fraction=1.0, buffer_per_place=2
        )
        assert len(ds.database) == 3 * 4
        for q in ds.queries:
            pos = set(ds.positive_set(q.id))
            neg = set(ds.negative_set(q.id))
            limbo = [s.id for s in ds.database if s.id not in pos and s.id not in neg]
            assert len(limbo) == 2  # this place's buffer samples


class TestPersistence:
    def test_roundtrip_exact(self, tmp_path):
        ds = synth_dataset(seed=11, n_places=4, db_per_place=3, query_fraction=0.75)
        path = tmp_path / "world.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.r_pos == ds.r_pos and back.r_neg == ds.r_neg
        assert len(back.queries) == len(ds.queries)
        for s, t in zip(
            sorted(ds.database, key=lambda s: s.id), sorted(back.database, key=lambda s: s.id)
        ):
            assert s.id == t.id and s.role == t.role
            assert s.position == t.position
            np.testing.assert_array_equal(s.features, t.features)

    def test_write_is_byte_stable(self, tmp_path):
        ds = synth_dataset(seed=11, n_places=4, db_per_place=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(ds, p1)
        save_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()

    def test_missing_sidecar_raises(self, tmp_path):
        ds = synth_dataset(seed=1, n_places=2, db_per_place=2)
        path = tmp_path / "world.csv"
        save_csv(ds, path)
        (tmp_path / "world.meta.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_csv(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda cells: cells[:5] + ["nan"] + cells[6:], "sample 1 has non-finite features"),
        (lambda cells: cells[:5] + ["inf"] + cells[6:], "sample 1 has non-finite features"),
        (lambda cells: cells[:-1], "expected 7 columns, got 6"),
        (lambda cells: cells[:5] + [""] + cells[6:], "could not convert string to float: ''"),
        (lambda cells: cells[:1] + ["dtabase"] + cells[2:], "'dtabase' is not a valid Role"),
    ], ids=["nan", "inf", "short_row", "empty_cell", "unknown_role"])
    def test_bad_row_names_file_and_line(self, tmp_path, edit, message):
        ds = synth_dataset(seed=1, n_places=2, db_per_place=2, feature_dim=3)
        path = tmp_path / "world.csv"
        save_csv(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))  # the row of sample 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:3: {message}"

    def test_duplicate_id_names_file_line_and_id(self, tmp_path):
        ds = synth_dataset(seed=1, n_places=2, db_per_place=2, feature_dim=3)
        path = tmp_path / "world.csv"
        save_csv(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[2]]) + "\n")  # sample 1 again
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == (
            f"{path}:{len(lines) + 1}: duplicate sample id 1, first on line 3"
        )

    def test_header_names(self, tmp_path):
        ds = synth_dataset(seed=1, n_places=2, db_per_place=2, feature_dim=3)
        path = tmp_path / "world.csv"
        save_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "id,role,lat_or_x,lon_or_y,f0,f1,f2"

    def test_first_bad_row_in_file_order_is_reported(self, tmp_path):
        ds = synth_dataset(seed=1, n_places=2, db_per_place=2, feature_dim=3)
        path = tmp_path / "world.csv"
        save_csv(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1])  # line 3: a short row
        cells = lines[4].split(",")
        lines[4] = ",".join(cells[:1] + ["dtabase"] + cells[2:])  # line 5: bad role
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:3: expected 7 columns, got 6"

    def test_save_streams_rows(self, tmp_path):
        ds = synth_dataset(seed=0, n_places=100, db_per_place=50, query_fraction=0.0,
                           feature_dim=32)
        assert ds.features(ds.db_ids).shape == (5000, 32)
        tracemalloc.start()
        try:
            save_csv(ds, tmp_path / "world.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The 160,000 features as Python floats and their reprs, held at
        # once, would take about 5.5 MB; one row at a time needs far less.
        assert peak < 2**20


    def test_loaded_world_keeps_one_copy_of_its_features(self, tmp_path):
        """A loaded 5100 x 32 world retains its matrix once: the rest is
        ids, positions and the id-to-row map, well under 1.5x the matrix."""
        path = tmp_path / "world.csv"
        save_csv(synth_dataset(seed=0, n_places=100, db_per_place=50, feature_dim=32), path)
        tracemalloc.start()
        try:
            ds = load_csv(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix_bytes = (len(ds.db_ids) + len(ds.query_ids)) * ds.feature_dim * 8
        assert matrix_bytes == 5100 * 32 * 8
        assert retained < 2.5 * matrix_bytes


def _load_error(path) -> str:
    with pytest.raises(ValueError) as err:
        load_csv(path)
    return str(err.value)


class TestMalformedFiles:
    """Every malformed CSV or sidecar raises a ValueError naming the file.
    The empty CSV, the header-only CSV, a sidecar without ``mode`` and a
    string radius are covered through ``vgssl train`` in test_cli.py."""

    @pytest.fixture()
    def saved(self, tmp_path):
        path = tmp_path / "world.csv"
        save_csv(synth_dataset(seed=1, n_places=2, db_per_place=2, feature_dim=3), path)
        return path, tmp_path / "world.meta.json"

    def test_feature_width_mismatch(self, saved):
        path, _ = saved
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line + ",0.0" for line in lines) + "\n")
        assert _load_error(path) == f"{path}:1: csv has 4 feature columns, metadata says 3"

    def test_binary_csv(self, saved):
        path, _ = saved
        path.write_bytes(b"\xff\xfe\x00\x80" * 64)
        assert _load_error(path).startswith(f"{path}: ")

    def test_oversized_field(self, saved):
        path, _ = saved
        path.write_text(path.read_text().splitlines()[0] + "\n" + "1" * 200_000 + "\n")
        assert _load_error(path) == f"{path}: field larger than field limit (131072)"

    @pytest.mark.parametrize("edit, message", [
        (lambda m: {**m, "mode": "flat"}, "'flat' is not a valid PositionMode"),
        (lambda m: {**m, "r_pos": 30.0}, "need numbers 0 < r_pos < r_neg, got 30.0, 25.0"),
        (lambda m: {**m, "feature_dim": "3"},
         "feature_dim must be a non-negative integer, got '3'"),
        (lambda m: [m], "expected a JSON object, got list"),
    ], ids=["bad_mode", "radii_order", "dim_string", "not_object"])
    def test_bad_sidecar(self, saved, edit, message):
        path, meta_path = saved
        meta_path.write_text(json.dumps(edit(json.loads(meta_path.read_text()))))
        assert _load_error(path) == f"{meta_path}: {message}"

    def test_sidecar_not_json(self, saved):
        path, meta_path = saved
        meta_path.write_text("{mode: planar")
        assert _load_error(path).startswith(f"{meta_path}: not valid JSON: ")


def _reference_save_csv(ds, csv_path):
    """The CSV rows ``save_csv`` wrote through ``csv.writer``, one Python
    float at a time: the byte-level contract of the faster writer."""
    header = ["id", "role", "lat_or_x", "lon_or_y"] + [f"f{i}" for i in range(ds.feature_dim)]
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for s in map(ds.sample, ds.db_ids + ds.query_ids):
            w.writerow(
                [s.id, s.role.value, repr(s.position.a), repr(s.position.b)]
                + [repr(float(x)) for x in s.features]
            )


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                1.7976931348623157e308, 1e-300, 0.1, 1 / 3, 123456789.125]


def _world(geodetic, ids, n_db, positions, features, r_pos=10.0):
    mode = PositionMode.GEODETIC if geodetic else PositionMode.PLANAR
    rows = [(k >= n_db, i, Position(mode, *ab), f)
            for k, (i, ab, f) in enumerate(zip(ids, positions, features))]
    return GeoDataset(rows, r_pos=r_pos, r_neg=2.5 * r_pos)


@st.composite
def csv_worlds(draw):
    geodetic = draw(st.booleans())
    dim = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=8, unique=True))
    coord = st.floats(allow_nan=False, allow_infinity=False)
    pos = (st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)) if geodetic
           else st.tuples(coord, coord))
    feat = st.one_of(st.sampled_from(_EDGE_FLOATS), coord)
    return _world(
        geodetic, ids, draw(st.integers(1, len(ids))),
        [draw(pos) for _ in ids],
        [draw(st.lists(feat, min_size=dim, max_size=dim)) for _ in ids],
        r_pos=draw(st.floats(0.1, 1e6)),
    )


@given(ds=csv_worlds())
@example(ds=_world(False, [9, 2, 40], 3, [(0.0, -0.0), (1e300, -1e300), (5e-324, 0.1)],
                   [_EDGE_FLOATS[:4], _EDGE_FLOATS[4:8], _EDGE_FLOATS[8:]]))
@example(ds=_world(True, [7, 3, 11, 5], 2, [(90.0, -180.0), (-0.0, 180.0), (-90.0, 0.0),
                                            (45.5, -5e-324)],
                   [[x] for x in _EDGE_FLOATS[:4]]))
def test_save_csv_matches_reference_writer(ds):
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref, again = (Path(tmp) / name for name in ("ours.csv", "ref.csv", "again.csv"))
        save_csv(ds, ours)
        _reference_save_csv(ds, ref)
        assert ours.read_bytes() == ref.read_bytes()
        save_csv(load_csv(ours), again)
        assert again.read_bytes() == ours.read_bytes()
        assert (again.with_suffix(".meta.json").read_bytes()
                == ours.with_suffix(".meta.json").read_bytes())


@given(seed=st.integers(0, 2**64 - 1))
def test_direct_disk_draws_match_uniform(seed):
    # synth_dataset draws disk offsets with random(); numpy's uniform(0, h)
    # is 0 + h * random(), so both give the same bits from the same stream.
    direct, uniform = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(64):
        assert 2.0 * math.pi * direct.random() == uniform.uniform(0.0, 2.0 * math.pi)
        assert direct.random() == uniform.uniform(0.0, 1.0)
    assert direct.random() == uniform.random()

"""Exact retrieval against independent oracles, recall semantics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vgssl import retrieval
from vgssl.encoder import EncoderConfig, forward, init_state, predictor_forward
from vgssl import geodata
from vgssl.geodata import Position, PositionMode, synth_dataset
from vgssl.methods import Method, method_config
from vgssl.retrieval import EmbeddingIndex, build_index, evaluate_encoder, knn, recall_at_n


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def planar(x, y):
    return Position(PositionMode.PLANAR, x, y)


def make_index(rng, m=20, d=4, spread=1000.0):
    vecs = unit_rows(rng.normal(size=(m, d)))
    positions = [planar(float(x), float(y)) for x, y in rng.uniform(0, spread, size=(m, 2))]
    return EmbeddingIndex(ids=np.arange(m), vectors=vecs, positions=positions)


class TestIndexValidation:
    def test_unit_rows_required(self):
        with pytest.raises(ValueError):
            EmbeddingIndex(
                ids=np.array([0]), vectors=np.array([[2.0, 0.0]]), positions=[planar(0, 0)]
            )

    def test_unique_ids_required(self):
        with pytest.raises(ValueError):
            EmbeddingIndex(
                ids=np.array([1, 1]),
                vectors=np.eye(2),
                positions=[planar(0, 0), planar(1, 1)],
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingIndex(ids=np.array([]), vectors=np.zeros((0, 2)), positions=[])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingIndex(ids=np.array([0, 1]), vectors=np.eye(2), positions=[planar(0, 0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        vecs = np.eye(3)
        vecs[1, 2] = bad
        with pytest.raises(ValueError, match="row 1 is not"):
            EmbeddingIndex(ids=np.arange(3), vectors=vecs, positions=[planar(0, 0)] * 3)


    def test_rows_are_read_only_through_the_index(self):
        # knn sizes its filter margin from the squared norms checked here.
        vecs = np.eye(3)
        idx = EmbeddingIndex(ids=np.arange(3), vectors=vecs, positions=[planar(0, 0)] * 3)
        with pytest.raises(ValueError, match="read-only"):
            idx.vectors[0] *= 1 + 0.999e-9
        assert vecs.flags.writeable


class TestKnn:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = int(rng.integers(3, 40))
            d = int(rng.integers(2, 8))
            idx = make_index(rng, m=m, d=d)
            q = unit_rows(rng.normal(size=(5, d)))
            k = int(rng.integers(1, m + 1))
            ids, dists = knn(idx, q, k)
            # Independent oracle: full sort of (distance, id) per query.
            for row in range(5):
                ref = np.linalg.norm(idx.vectors - q[row], axis=1)
                order = sorted(range(m), key=lambda i: (ref[i], idx.ids[i]))[:k]
                np.testing.assert_array_equal(ids[row], idx.ids[order])
                np.testing.assert_allclose(dists[row], ref[order], atol=1e-12)

    def test_tie_break_ascending_id(self):
        vecs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        idx = EmbeddingIndex(
            ids=np.array([30, 10, 20]),
            vectors=vecs,
            positions=[planar(0, 0)] * 3,
        )
        ids, _ = knn(idx, np.array([[1.0, 0.0]]), k=3)
        assert ids[0].tolist() == [10, 30, 20]

    def test_k_larger_than_index_clamps(self):
        rng = np.random.default_rng(1)
        idx = make_index(rng, m=4)
        ids, dists = knn(idx, unit_rows(rng.normal(size=(2, 4))), k=100)
        assert ids.shape == (2, 4)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(2)
        idx = make_index(rng, m=4, d=4)
        with pytest.raises(ValueError):
            knn(idx, np.zeros((1, 5)), k=1)

    def test_queries_normalized_internally(self):
        rng = np.random.default_rng(3)
        idx = make_index(rng, m=6)
        q = rng.normal(size=(2, 4))
        ids1, _ = knn(idx, q, k=3)
        ids2, _ = knn(idx, q * 100.0, k=3)
        np.testing.assert_array_equal(ids1, ids2)

    def test_bad_k(self):
        rng = np.random.default_rng(4)
        idx = make_index(rng, m=4)
        with pytest.raises(ValueError):
            knn(idx, np.zeros((1, 4)), k=0)

    def test_tiles_match_full_sort_oracle(self):
        n_q, m, d = 6, 23, 4
        rng = np.random.default_rng(5)
        vecs = unit_rows(rng.normal(size=(m, d)))
        # Exact duplicates spread over the database; ids descend with the
        # row, so the later (smaller-id) copy must come first.
        vecs[[8, 15, 22]] = vecs[1]
        vecs[13] = vecs[4]
        idx = EmbeddingIndex(
            ids=np.arange(m)[::-1] * 7, vectors=vecs, positions=[planar(0, 0)] * m
        )
        # The last query is NaN: every distance ties at NaN, sorted by id.
        q = np.concatenate(
            [vecs[[1, 4, 8]], rng.normal(size=(n_q - 4, d)), [[np.nan] * d]]
        )
        with np.errstate(invalid="ignore"):
            qn = unit_rows(q)
        for k in range(1, m + 3):
            ids, dists = knn(idx, q, k)
            assert ids.shape == dists.shape == (n_q, min(k, m))
            for row in range(n_q):
                ref = np.linalg.norm(idx.vectors - qn[row], axis=1)
                order = np.lexsort((idx.ids, ref))[:k]
                np.testing.assert_array_equal(ids[row], idx.ids[order])
                np.testing.assert_array_equal(dists[row], ref[order])
        ids, _ = knn(idx, vecs[[1]], 4)
        assert ids[0].tolist() == [0, 49, 98, 147]

    def test_working_set_is_the_distance_matrix(self):
        n_q, m, d = 50, 4000, 64
        rng = np.random.default_rng(6)
        idx = make_index(rng, m=m, d=d)
        q = rng.normal(size=(n_q, d))
        tracemalloc.start()
        try:
            knn(idx, q, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The (Q, M) distance estimates are 1.6 MB; a (Q, M, D) difference
        # tensor would be 102 MB.
        assert peak < 8 * 2**20

    def test_collapsed_index_reranks_in_bounded_batches(self):
        # Every row is the same vector, so every row is a candidate of every
        # query; reranking all of them at once would gather (Q * M, D).
        n_q, m, d = 50, 4000, 64
        rng = np.random.default_rng(7)
        idx = EmbeddingIndex(ids=np.arange(m)[::-1], vectors=np.tile(unit_rows(
            rng.normal(size=(1, d))), (m, 1)), positions=[planar(0, 0)] * m)
        tracemalloc.start()
        try:
            ids, _ = knn(idx, rng.normal(size=(n_q, d)), 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (ids == np.arange(10)).all()
        assert peak < 8 * 2**20

    def test_nearer_row_with_the_smaller_dot_product_is_kept(self):
        # Row 0 is longer by 0.999e-9 and has the larger dot product with
        # the query; row 1 is shorter by 0.5e-9 and is nearer.  Their dot
        # products differ by 1.5e-9, far beyond rounding, so only the norm
        # spread term of the margin keeps row 1 a candidate.
        vecs = np.array([[1 + 0.999e-9, 0.0], [1 - 0.5e-9, 0.0], [0.0, 1.0]])
        idx = EmbeddingIndex(ids=np.arange(3), vectors=vecs, positions=[planar(0, 0)] * 3)
        ids, dists = knn(idx, np.array([[1.0, 0.0]]), 1)
        assert ids.tolist() == [[1]]
        assert dists[0, 0] == np.linalg.norm(vecs[1] - [1.0, 0.0])

    @pytest.mark.parametrize("d", [1, 2, 3, 64, 512])
    def test_rows_at_the_norm_tolerance_match_full_sort(self, d):
        # Copies of a few directions with norms anywhere in the index's
        # 1e-9 tolerance, so rows tie or nearly tie on distance while their
        # dot products differ by up to 2e-9.
        rng = np.random.default_rng(d)
        base = unit_rows(rng.normal(size=(4, d)))
        m = 60
        scale = 1 + rng.choice([-0.999e-9, -0.5e-9, 0.0, 0.5e-9, 0.999e-9], size=m)
        vecs = base[rng.integers(0, len(base), size=m)] * scale[:, None]
        vecs[::7] = unit_rows(rng.normal(size=(len(vecs[::7]), d)))
        idx = EmbeddingIndex(ids=rng.permutation(m) * 3, vectors=vecs,
                             positions=[planar(0, 0)] * m)
        q = np.concatenate([base, base * (1 + 1e-9), rng.normal(size=(3, d))])
        for k in (1, 2, 3, 8, 20, m):
            ids, dists = knn(idx, q, k)
            ref_ids, ref_dists = full_sort_knn(idx, q, k)
            np.testing.assert_array_equal(ids, ref_ids)
            assert dists.tobytes() == ref_dists.tobytes()

    def test_eval_large_world_reranks_about_k_rows_per_query(self, monkeypatch):
        # A 5000-row database with a seed-initialised encoder, as in the
        # eval_large benchmark: the filter should pass little beyond each
        # query's top k to the direct-difference rerank.
        ds = synth_dataset(seed=0, n_places=100, db_per_place=50, feature_dim=32)
        cfg = method_config(Method.SIMCLR, input_dim=32, embed_dim=64, proj_layers=1,
                            eta=1.0).encoder
        state = init_state(cfg, seed=0)
        idx = build_index(state, cfg, ds)
        q = forward(state, cfg, ds.features(ds.query_ids), training=False).data
        rerank, batches = retrieval._rerank, []

        def counted(index, q, parts, first, stop, k):
            batches.append((sum(p.size for p in parts), stop - first))
            return rerank(index, q, parts, first, stop, k)

        monkeypatch.setattr(retrieval, "_rerank", counted)
        k = 10
        knn(idx, q, k)
        candidates, queries = map(sum, zip(*batches))
        assert queries == len(ds.query_ids) == 100
        assert candidates <= 2 * k * queries


def full_sort_knn(idx, q, k):
    """Oracle: direct distance to every row, then one sort by (distance, id)."""
    with np.errstate(invalid="ignore"):
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    ids, dists = [], []
    for row in qn:
        ref = np.linalg.norm(idx.vectors - row, axis=1)
        order = np.lexsort((idx.ids, ref))[:k]
        ids.append(idx.ids[order])
        dists.append(ref[order])
    return np.array(ids), np.array(dists)


@st.composite
def tie_worlds(draw):
    """A small database full of exact, one-ulp and 1e-9 near-ties, plus queries.

    Queries are every base direction (each equal to the database rows
    copied from it, whose neighbours sit one ulp or 1e-9 away), one free
    direction and one all-NaN row.
    """
    d = draw(st.integers(1, 8))
    direction = hnp.arrays(
        np.float64, d, elements=st.integers(-3, 3).map(float)
    ).filter(np.any).map(lambda a: a / np.linalg.norm(a))
    base = [draw(direction) for _ in range(draw(st.integers(1, 4)))]
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        v = base[draw(st.integers(0, len(base) - 1))].copy()
        kind = draw(st.sampled_from(["copy", "ulp", "near"]))
        if kind == "ulp":
            j = draw(st.integers(0, d - 1))
            v[j] = np.nextafter(v[j], draw(st.sampled_from([-2.0, 2.0])))
        elif kind == "near":
            v += 1e-9 * draw(direction)
            v /= np.linalg.norm(v)
        rows.append(v)
    m = len(rows)
    # Permutations shrink toward the identity, so the minimal example has
    # descending ids: later duplicates carry the smaller id.
    ids = np.array(draw(st.permutations(range(m))))[::-1] * 5
    idx = EmbeddingIndex(ids=ids, vectors=np.array(rows), positions=[planar(0, 0)] * m)
    q = np.concatenate([np.array(base), draw(direction)[None], np.full((1, d), np.nan)])
    return idx, q


class TestKnnProperty:
    @settings(max_examples=300)
    @given(tie_worlds())
    def test_bit_identical_to_full_sort(self, world):
        idx, q = world
        for k in range(1, idx.size + 3):
            ids, dists = knn(idx, q, k)
            ref_ids, ref_dists = full_sort_knn(idx, q, k)
            np.testing.assert_array_equal(ids, ref_ids)
            assert dists.tobytes() == ref_dists.tobytes()


class TestRecall:
    def make_scene(self):
        # Two database points: one at the origin, one 1 km away.
        idx = EmbeddingIndex(
            ids=np.array([0, 1]),
            vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
            positions=[planar(0, 0), planar(1000, 0)],
        )
        return idx

    def test_hit_at_one(self):
        idx = self.make_scene()
        # Query sits at the origin and its embedding points at id 0.
        rep = recall_at_n(idx, np.array([[1.0, 0.1]]), [planar(3, 0)], n_values=(1,))
        assert rep.recalls == (1.0,)

    def test_miss_at_one_hit_at_two(self):
        idx = self.make_scene()
        # Embedding prefers the geographically wrong sample.
        rep = recall_at_n(idx, np.array([[0.1, 1.0]]), [planar(3, 0)], n_values=(1, 2))
        assert rep.recalls == (0.0, 1.0)

    def test_geography_out_of_reach(self):
        idx = self.make_scene()
        # No database point within 25 m: recall stays zero at every N.
        rep = recall_at_n(idx, np.array([[1.0, 0.0]]), [planar(500, 0)], n_values=(1, 2))
        assert rep.recalls == (0.0, 0.0)

    def test_monotone_in_n(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            idx = make_index(rng, m=30, spread=200.0)
            q = unit_rows(rng.normal(size=(10, 4)))
            qpos = [planar(float(x), float(y)) for x, y in rng.uniform(0, 200, size=(10, 2))]
            rep = recall_at_n(idx, q, qpos, n_values=(1, 3, 5, 10, 30))
            assert list(rep.recalls) == sorted(rep.recalls)

    def test_recall_at_m_is_geographic_ceiling(self):
        # At N = index size, retrieval order is irrelevant: the value equals
        # the fraction of queries with any database sample inside the radius.
        rng = np.random.default_rng(6)
        idx = make_index(rng, m=25, spread=150.0)
        q = unit_rows(rng.normal(size=(12, 4)))
        qpos = [planar(float(x), float(y)) for x, y in rng.uniform(0, 150, size=(12, 2))]
        rep = recall_at_n(idx, q, qpos, n_values=(25,), threshold_m=25.0)
        from vgssl.geodata import distance_m

        ceiling = np.mean(
            [any(distance_m(qp, dp) <= 25.0 for dp in idx.positions) for qp in qpos]
        )
        assert rep.recalls[0] == pytest.approx(float(ceiling))

    def test_zero_queries_rejected(self):
        idx = self.make_scene()
        with pytest.raises(ValueError):
            recall_at_n(idx, np.zeros((0, 2)), [], n_values=(1,))

    def test_unsorted_n_values_rejected(self):
        idx = self.make_scene()
        with pytest.raises(ValueError):
            recall_at_n(idx, np.array([[1.0, 0.0]]), [planar(0, 0)], n_values=(5, 1))

    def test_threshold_boundary_inclusive(self):
        idx = EmbeddingIndex(
            ids=np.array([0]),
            vectors=np.array([[1.0, 0.0]]),
            positions=[planar(25, 0)],
        )
        rep = recall_at_n(idx, np.array([[1.0, 0.0]]), [planar(0, 0)], n_values=(1,))
        assert rep.recalls == (1.0,)  # exactly 25 m counts as success

    def test_first_hit_scan_matches_full_scan(self, monkeypatch):
        rng = np.random.default_rng(8)
        idx = make_index(rng, m=40, spread=1000.0)
        n_q, n_values, threshold = 40, (1, 3, 10), 150.0
        # Each query's embedding is next to one database row; the first ten
        # also stand where that row stands.
        near = rng.integers(0, idx.size, size=n_q)
        q = unit_rows(idx.vectors[near] + 0.01 * rng.normal(size=(n_q, 4)))
        qpos = [idx.positions[r] for r in near[:10]] + [
            planar(float(x), float(y)) for x, y in rng.uniform(0, 1000, size=(n_q - 10, 2))
        ]
        # Full-scan oracle: every retrieved row's distance, then the
        # cumulative "any hit" per rank.
        ids, _ = knn(idx, q, max(n_values))
        pos = dict(zip(idx.ids.tolist(), idx.positions))
        hits = np.array([[geodata.distance_m(qp, pos[i]) <= threshold for i in row]
                         for qp, row in zip(qpos, ids.tolist())])
        any_hit = np.cumsum(hits, axis=1) > 0
        first_hit = np.where(hits.any(axis=1), hits.argmax(axis=1), hits.shape[1])
        # The scene has first hits at rank 0, at later ranks and nowhere.
        assert {0, hits.shape[1]} < set(first_hit.tolist())

        calls = []

        def counted(p, r):
            calls.append(p)
            return geodata.distance_m(p, r)

        monkeypatch.setattr(retrieval, "distance_m", counted)
        rep = recall_at_n(idx, q, qpos, n_values, threshold)
        assert rep.recalls == tuple(float(np.mean(any_hit[:, n - 1])) for n in n_values)
        # Each query is scanned up to and including its first hit.
        expected = [p for p, f in zip(qpos, first_hit.tolist()) for _ in range(min(f + 1, 10))]
        assert calls == expected


class TestBuildIndex:
    def test_index_over_synth_dataset(self):
        ds = synth_dataset(seed=0, n_places=5, db_per_place=4, feature_dim=6)
        cfg = EncoderConfig(input_dim=6, hidden_dims=(8,), embed_dim=4)
        state = init_state(cfg, seed=0)
        idx = build_index(state, cfg, ds)
        assert idx.size == 20
        assert idx.ids.tolist() == sorted(idx.ids.tolist())
        np.testing.assert_allclose(np.linalg.norm(idx.vectors, axis=1), 1.0, atol=1e-12)

    def test_eval_mode_leaves_running_stats_alone(self):
        ds = synth_dataset(seed=0, n_places=4, db_per_place=3, feature_dim=6)
        # Width 16 keeps every row alive through the mid-head ReLU; tiny
        # widths can zero a whole row at random init, which build_index
        # rightly rejects as directionless.
        cfg = EncoderConfig(
            input_dim=6, hidden_dims=(8,), embed_dim=16, proj_layers=2, proj_batchnorm=True
        )
        state = init_state(cfg, seed=0)
        before = {k: v.copy() for k, v in state.bn_running.items()}
        build_index(state, cfg, ds)
        for k in before:
            np.testing.assert_array_equal(before[k], state.bn_running[k])

    def test_peak_memory_is_a_few_activations(self):
        # An eval-mode forward records no tape, so each (N, width) layer
        # output is freed once the next layer has read it; a taped
        # forward holds every one of them (about 10.6 activations here).
        ds = synth_dataset(seed=0, n_places=250, db_per_place=8, feature_dim=32)
        cfg = EncoderConfig(input_dim=32, hidden_dims=(64, 64), embed_dim=64)
        state = init_state(cfg, seed=0)
        activation = len(ds.db_ids) * max(cfg.hidden_dims + (cfg.embed_dim,)) * 8
        tracemalloc.start()
        try:
            build_index(state, cfg, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds.db_ids) >= 2000
        assert peak < 6 * activation

    @pytest.mark.parametrize("head", [{}, dict(proj_layers=2, proj_batchnorm=True)],
                             ids=["plain", "proj2_bn"])
    def test_peak_memory_is_one_activation_per_live_layer(self, head):
        # Each layer writes one array (bias, eval batchnorm and ReLU in
        # place), the database rows are read where they are stored and the
        # embedding is normalised in place: the peak is a layer's input and
        # output.
        ds = synth_dataset(seed=0, n_places=250, db_per_place=8, feature_dim=32)
        cfg = EncoderConfig(input_dim=32, hidden_dims=(64, 64), embed_dim=64, **head)
        state = init_state(cfg, seed=0)
        activation = len(ds.db_ids) * max(cfg.hidden_dims + (cfg.embed_dim,)) * 8
        tracemalloc.start()
        try:
            build_index(state, cfg, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * activation


IN_PLACE_CONFIGS = {
    "identity": dict(hidden_dims=(), embed_dim=6, identity_projection=True),
    "identity_trunk": dict(hidden_dims=(16,), embed_dim=16, identity_projection=True),
    "proj2": dict(proj_layers=2),
    "proj2_bn": dict(proj_layers=2, proj_batchnorm=True, stop_grad_target=True),
    "predictor": dict(proj_layers=2, proj_batchnorm=True, predictor=True,
                      momentum_target=True, momentum=0.9),
}


class TestInPlaceWritesStayInside:
    """The off-tape forward writes into the arrays it made, never into the
    parameters, targets, running statistics, dataset or caller's rows."""

    def snapshot(self, state, ds, queries, query_emb):
        arrays = {f"param {k}": v.data for k, v in state.params.items()}
        arrays.update({f"bn {k}": a for k, a in state.bn_running.items()})
        arrays.update({f"target {k}": a for k, a in (state.target or {}).items()})
        arrays.update({f"target bn {k}": a
                       for k, a in (state.target_bn_running or {}).items()})
        arrays["dataset matrix"] = ds._matrix
        arrays["queries"] = queries
        arrays["query embeddings"] = query_emb
        return {k: a.tobytes() for k, a in arrays.items()}

    @pytest.mark.parametrize("name", sorted(IN_PLACE_CONFIGS))
    def test_caller_arrays_are_byte_identical(self, name):
        ds = synth_dataset(seed=1, n_places=6, db_per_place=4, feature_dim=6)
        kw = {"embed_dim": 16, **IN_PLACE_CONFIGS[name]}
        cfg = EncoderConfig(input_dim=6, **kw)
        state = init_state(cfg, seed=2)
        rng = np.random.default_rng(3)
        # Move biases and running statistics off their initial values.
        for v in state.params.values():
            v.data += rng.normal(size=v.shape) * 0.1
        if cfg.proj_batchnorm or cfg.predictor:
            forward(state, cfg, rng.normal(size=(8, 6)), training=True)
        queries = ds.features(ds.query_ids)
        z = forward(state, cfg, queries, training=False)
        before = self.snapshot(state, ds, queries, z.data)

        forward(state, cfg, ds.db_features, training=False)
        if cfg.has_target_branch:
            forward(state, cfg, queries, branch="target", training=False)
        if cfg.predictor:
            predictor_forward(state, cfg, z, training=False)
        knn(build_index(state, cfg, ds), z.data, 3)
        evaluate_encoder(state, cfg, ds, (1, 2), 25.0)

        after = self.snapshot(state, ds, queries, z.data)
        assert [k for k in before if before[k] != after[k]] == []

    def test_database_rows_are_read_only(self):
        ds = synth_dataset(seed=1, n_places=3, db_per_place=2, feature_dim=4)
        assert np.shares_memory(ds.db_features, ds._matrix)
        np.testing.assert_array_equal(ds.db_features, ds.features(ds.db_ids))
        assert ds.db_positions == tuple(ds.positions(ds.db_ids))
        with pytest.raises(ValueError, match="read-only"):
            ds.db_features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.db_features += 1.0


class TestEvaluateEncoder:
    def test_no_queries_raises_before_any_forward(self, monkeypatch):
        ds = synth_dataset(seed=0, n_places=4, db_per_place=3, feature_dim=6,
                           query_fraction=0.0)
        cfg = EncoderConfig(input_dim=6, hidden_dims=(8,), embed_dim=4)
        state = init_state(cfg, seed=0)
        calls = []
        monkeypatch.setattr(retrieval, "forward", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="dataset has no queries to evaluate"):
            evaluate_encoder(state, cfg, ds)
        assert calls == []

    @pytest.mark.parametrize("n_values, threshold_m", [((), 25.0), ((10, 1), 25.0),
                                                       ((1,), -5.0)])
    def test_bad_recall_settings_raise_before_any_forward(self, monkeypatch, n_values,
                                                          threshold_m):
        ds = synth_dataset(seed=0, n_places=4, db_per_place=3, feature_dim=6)
        cfg = EncoderConfig(input_dim=6, hidden_dims=(8,), embed_dim=4)
        state = init_state(cfg, seed=0)
        calls = []
        monkeypatch.setattr(retrieval, "forward", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="must be"):
            evaluate_encoder(state, cfg, ds, n_values, threshold_m)
        assert calls == []

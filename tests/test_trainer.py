"""Optimizer numerics, the epoch loop, determinism, multi-seed summary."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import vgssl.geodata
import vgssl.trainer
from vgssl.autodiff import Value, zero_grads
from vgssl.geodata import GeoDataset, synth_dataset
from vgssl.losses import Method
from vgssl.methods import method_config
from vgssl.sampling import MiningConfig, MiningMode
from vgssl.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainConfig,
    adam_init,
    adam_step,
    default_lr,
    evaluate,
    run_experiment,
    run_single,
)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        p = Value(np.array([1.0]))
        p.grad = np.array([1.0])
        opt = adam_init({"p": p})
        adam_step({"p": p}, opt, lr=0.1)
        # First-step bias correction makes the update exactly lr/(1+eps).
        assert p.data[0] == pytest.approx(0.9, abs=1e-7)
        assert opt.t == 1

    def test_direction_follows_gradient_sign(self):
        p = Value(np.array([0.0, 0.0]))
        p.grad = np.array([2.0, -3.0])
        opt = adam_init({"p": p})
        adam_step({"p": p}, opt, lr=0.01)
        assert p.data[0] < 0 < p.data[1]

    def test_missing_gradient_means_no_motion(self):
        p = Value(np.array([1.0]))
        opt = adam_init({"p": p})
        adam_step({"p": p}, opt, lr=0.1)
        assert p.data[0] == 1.0

    def test_coupled_decay_shrinks_even_without_grad(self):
        p = Value(np.array([1.0]))
        opt = adam_init({"p": p})
        adam_step({"p": p}, opt, lr=0.1, weight_decay=1e-2, decoupled=False)
        assert p.data[0] < 1.0

    def test_decoupled_decay_exact(self):
        p = Value(np.array([2.0]))
        opt = adam_init({"p": p})
        adam_step({"p": p}, opt, lr=0.1, weight_decay=0.01, decoupled=True)
        # No gradient: only the decay term applies.
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01))

    def test_moments_accumulate(self):
        p = Value(np.array([0.0]))
        opt = adam_init({"p": p})
        for _ in range(3):
            p.grad = np.array([1.0])
            adam_step({"p": p}, opt, lr=0.01)
        assert opt.t == 3
        assert opt.m["p"][0] > 0
        assert opt.v["p"][0] > 0


def loop_adam_step(params, m, v, t, lr, weight_decay, decoupled):
    """Per-parameter Adam, the reference for the flat-buffer update."""
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name in sorted(params):
        p = params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if weight_decay and not decoupled:
            g = g + weight_decay * p.data
        m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if weight_decay and decoupled:
            p.data -= lr * weight_decay * p.data


class TestFlatAdam:
    SHAPES = {"w": (3, 4), "b": (4,), "gamma": (1, 4), "unused": (2, 2)}

    def params(self, rng):
        return {n: Value(rng.normal(size=s)) for n, s in self.SHAPES.items()}

    @pytest.mark.parametrize("weight_decay, decoupled", [(0.0, False), (1e-2, False),
                                                         (1e-2, True)])
    def test_bit_identical_to_the_per_parameter_loop(self, weight_decay, decoupled):
        rng = np.random.default_rng(0)
        flat, ref = self.params(rng), {}
        for n, p in flat.items():
            ref[n] = Value(p.data.copy())
        opt = adam_init(flat)
        m = {n: np.zeros(s) for n, s in self.SHAPES.items()}
        v = {n: np.zeros(s) for n, s in self.SHAPES.items()}
        for t in range(1, 6):
            loss_flat = sum(((flat[n] * flat[n]).sum() for n in ("w", "b", "gamma")),
                            Value(0.0))
            loss_flat.backward()
            for n in ("w", "b", "gamma"):
                ref[n].grad = flat[n].grad.copy()
            if t == 3:  # a gradient set by hand is read too
                flat["w"].grad = rng.normal(size=(3, 4))
                ref["w"].grad = flat["w"].grad.copy()
            adam_step(flat, opt, lr=0.05, weight_decay=weight_decay, decoupled=decoupled)
            loop_adam_step(ref, m, v, t, 0.05, weight_decay, decoupled)
            zero_grads(flat.values())
            zero_grads(ref.values())
            for n in self.SHAPES:
                assert flat[n].data.tobytes() == ref[n].data.tobytes()
                assert opt.m[n].tobytes() == m[n].tobytes()
                assert opt.v[n].tobytes() == v[n].tobytes()

    def test_parameters_and_moments_share_one_buffer_each(self):
        params = self.params(np.random.default_rng(1))
        opt = adam_init(params)
        adam_step(params, opt, lr=0.1)
        grads = {n: p._grad_home for n, p in params.items()}
        for table in ({n: p.data for n, p in params.items()}, grads, opt.m, opt.v):
            bases = [a.base for a in table.values()]
            assert bases[0] is not None and all(b is bases[0] for b in bases)

    def test_rebinds_new_parameter_values(self):
        # A resumed run hands the optimizer freshly loaded Values.
        rng = np.random.default_rng(2)
        first = self.params(rng)
        opt = adam_init(first)
        adam_step(first, opt, lr=0.1)
        second = {n: Value(p.data.copy()) for n, p in first.items()}
        second["w"].grad = np.ones((3, 4))
        adam_step(second, opt, lr=0.1)
        assert not np.array_equal(second["w"].data, first["w"].data)
        assert second["w"].data.base is not first["w"].data.base

    def test_rejects_other_parameter_names(self):
        opt = adam_init({"a": Value(np.zeros(2))})
        with pytest.raises(ValueError, match="covers"):
            adam_step({"a": Value(np.zeros(2)), "b": Value(np.zeros(2))}, opt, lr=0.1)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, lr=-1.0)

    @pytest.mark.parametrize("over, message", [
        ({"recall_ns": ()}, "n_values must be"),
        ({"recall_ns": (10, 1)}, "n_values must be"),
        ({"recall_ns": (1, 1)}, "n_values must be"),
        ({"recall_ns": (0, 5)}, "n_values must be"),
        ({"threshold_m": -5.0}, "threshold_m must be"),
        ({"threshold_m": float("inf")}, "threshold_m must be"),
        ({"threshold_m": float("nan")}, "threshold_m must be"),
    ])
    def test_impossible_eval_settings(self, over, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(epochs=1, **over)

    @pytest.mark.parametrize("over, message", [
        ({"lr": 0.0}, "lr must be"),
        ({"lr": float("nan")}, "lr must be"),
        ({"lr": float("inf")}, "lr must be"),
        ({"weight_decay": -1.0}, "weight_decay must be"),
        ({"weight_decay": float("nan")}, "weight_decay must be"),
        ({"weight_decay": float("inf")}, "weight_decay must be"),
    ])
    def test_impossible_optimizer_settings(self, over, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(epochs=1, **over)
        TrainConfig(epochs=1, weight_decay=0.0)  # no decay is allowed

    def test_default_lrs(self):
        assert default_lr(Method.SIMCLR) == pytest.approx(1e-5)
        assert default_lr(Method.MOCOV2) == pytest.approx(1e-5)
        for m in (Method.BYOL, Method.SIMSIAM, Method.BARLOW_TWINS, Method.VICREG):
            assert default_lr(m) == pytest.approx(1e-4)


def small_world():
    # 12 places so that sampling 8 queries at eta=1 still leaves whole
    # places available as identical negatives.
    return synth_dataset(
        seed=3, n_places=12, db_per_place=4, query_fraction=1.0, feature_dim=8,
        view_noise=0.3,
    )


class TestRunSingle:
    def test_record_structure(self):
        ds = small_world()
        mcfg = method_config(Method.SIMCLR, input_dim=8, hidden_dims=(12,), embed_dim=8)
        tcfg = TrainConfig(epochs=3, batch_size=8, queries_per_epoch=8, lr=1e-3, seed=0)
        res = run_single(mcfg, ds, tcfg, seed=0)
        rec = res.record
        assert rec.label == "SimCLR-FC-1-8-1"
        assert len(rec.epochs) == 3
        assert all(np.isfinite(e.loss) for e in rec.epochs)
        assert rec.epochs[-1].recall is not None  # final epoch always evaluates
        assert rec.epochs[0].recall is None  # eval_every=0: intermediate skipped
        assert rec.wall_seconds > 0

    def test_eval_every(self):
        ds = small_world()
        mcfg = method_config(Method.VICREG, input_dim=8, hidden_dims=(12,), embed_dim=8,
                             proj_layers=2)
        tcfg = TrainConfig(epochs=4, batch_size=8, queries_per_epoch=8, lr=1e-3,
                           eval_every=2, seed=0)
        res = run_single(mcfg, ds, tcfg, seed=0)
        evals = [e.recall is not None for e in res.record.epochs]
        assert evals == [False, True, False, True]

    def test_bit_identical_reruns(self):
        ds = small_world()
        mcfg = method_config(Method.BARLOW_TWINS, input_dim=8, hidden_dims=(12,),
                             embed_dim=8, proj_layers=2)
        tcfg = TrainConfig(epochs=2, batch_size=8, queries_per_epoch=8, lr=1e-3, seed=5)
        r1 = run_single(mcfg, ds, tcfg, seed=5)
        r2 = run_single(mcfg, ds, tcfg, seed=5)
        for e1, e2 in zip(r1.record.epochs, r2.record.epochs):
            assert e1.loss == e2.loss
            assert e1.ledger == e2.ledger
        for name in r1.state.params:
            np.testing.assert_array_equal(
                r1.state.params[name].data, r2.state.params[name].data
            )

    def test_resume_matches_straight_run(self):
        ds = small_world()
        mcfg = method_config(Method.SIMCLR, input_dim=8, hidden_dims=(12,), embed_dim=8)
        straight = run_single(
            mcfg, ds, TrainConfig(epochs=4, batch_size=8, queries_per_epoch=8,
                                  lr=1e-3, seed=2), seed=2
        )
        first = run_single(
            mcfg, ds, TrainConfig(epochs=2, batch_size=8, queries_per_epoch=8,
                                  lr=1e-3, seed=2), seed=2
        )
        resumed = run_single(
            mcfg, ds, TrainConfig(epochs=2, batch_size=8, queries_per_epoch=8,
                                  lr=1e-3, seed=2), seed=2,
            enc_state=first.state, adam=first.adam, start_epoch=2,
        )
        for name in straight.state.params:
            np.testing.assert_array_equal(
                straight.state.params[name].data, resumed.state.params[name].data
            )
        assert resumed.record.epochs[0].epoch == 2

    def test_momentum_method_updates_target(self):
        ds = small_world()
        mcfg = method_config(Method.BYOL, input_dim=8, hidden_dims=(12,), embed_dim=8,
                             proj_layers=2)
        tcfg = TrainConfig(epochs=1, batch_size=8, queries_per_epoch=8, lr=1e-3, seed=0)
        res = run_single(mcfg, ds, tcfg, seed=0)
        # After training, target must differ from both init and online.
        from vgssl.encoder import init_state

        fresh = init_state(mcfg.encoder, 0)
        moved = any(
            not np.array_equal(res.state.target[n], fresh.target[n])
            for n in res.state.target
        )
        assert moved

    def test_triplet_full_mining_path(self):
        ds = small_world()
        mcfg = method_config(Method.TRIPLET, input_dim=8, hidden_dims=(12,),
                             mining=MiningConfig(mode=MiningMode.FULL_HNM))
        tcfg = TrainConfig(epochs=2, batch_size=8, queries_per_epoch=8, lr=1e-3, seed=1)
        res = run_single(mcfg, ds, tcfg, seed=1)
        led = res.record.epochs[-1].ledger
        assert led["extractions"] > 0
        assert led["comparisons"] > 0

    def test_pair_ledger_accumulates_across_epochs(self):
        ds = small_world()
        mcfg = method_config(Method.SIMCLR, input_dim=8, hidden_dims=(12,), embed_dim=8)
        tcfg = TrainConfig(epochs=3, batch_size=8, queries_per_epoch=8, lr=1e-3, seed=0)
        res = run_single(mcfg, ds, tcfg, seed=0)
        ex = [e.ledger["extractions"] for e in res.record.epochs]
        assert ex[0] > 0 and ex[1] == 2 * ex[0] and ex[2] == 3 * ex[0]

    def test_tail_batch_of_one_is_dropped(self):
        ds = small_world()
        mcfg = method_config(Method.SIMCLR, input_dim=8, hidden_dims=(12,), embed_dim=8,
                             eta=0.0)
        # 5 pairs at batch 4: the final singleton cannot carry batch stats.
        tcfg = TrainConfig(epochs=1, batch_size=4, queries_per_epoch=5, lr=1e-3, seed=0)
        res = run_single(mcfg, ds, tcfg, seed=0)
        assert np.isfinite(res.record.epochs[0].loss)

    @pytest.mark.parametrize("method,mining", [
        (Method.SIMCLR, None),
        (Method.TRIPLET, MiningConfig(mode=MiningMode.PARTIAL_HNM, pool_size=6)),
    ])
    def test_radius_search_runs_once_per_dataset(self, monkeypatch, method, mining):
        # The first epoch's neighbourhood query runs the one vectorised
        # search; later epochs read its row arrays and compute no distance,
        # vectorised or scalar.  No pair of this world lies within the
        # rounding margin of a radius, so the scalar distance never runs.
        ds = small_world()
        counts = {"search": 0, "distance": 0}
        search, distance = GeoDataset._radius_search, vgssl.geodata.distance_m
        epoch = vgssl.trainer.train_epoch
        after_epoch = []

        def counted_search(self):
            counts["search"] += 1
            return search(self)

        def counted_distance(p, q):
            counts["distance"] += 1
            return distance(p, q)

        def recorded_epoch(*args, **kwargs):
            out = epoch(*args, **kwargs)
            after_epoch.append(dict(counts))
            return out

        monkeypatch.setattr(GeoDataset, "_radius_search", counted_search)
        monkeypatch.setattr(vgssl.geodata, "distance_m", counted_distance)
        monkeypatch.setattr(vgssl.trainer, "train_epoch", recorded_epoch)
        mcfg = method_config(method, input_dim=8, hidden_dims=(12,), embed_dim=8,
                             mining=mining)
        tcfg = TrainConfig(epochs=3, batch_size=8, queries_per_epoch=8, lr=1e-3, seed=0)
        run_single(mcfg, ds, tcfg, seed=0)
        assert after_epoch == [{"search": 1, "distance": 0}] * 3


class TestNonFinite:
    def run_with(self, monkeypatch, tamper):
        """Train with ``tamper`` applied to the sixth step's loss output:
        four batches per epoch, so that is epoch 1, batch 1."""
        ds = small_world()
        mcfg = method_config(Method.SIMCLR, input_dim=8, hidden_dims=(12,), embed_dim=8)
        tcfg = TrainConfig(epochs=3, batch_size=4, queries_per_epoch=8, lr=1e-3, seed=0)
        orig = vgssl.trainer.method_batch_loss
        steps = []

        def tampered(*args, **kwargs):
            out, frozen = orig(*args, **kwargs)
            steps.append(None)
            return (tamper(out) if len(steps) == 6 else out), frozen

        monkeypatch.setattr(vgssl.trainer, "method_batch_loss", tampered)
        run_single(mcfg, ds, tcfg, seed=0)

    def test_nan_loss_names_epoch_and_batch(self, monkeypatch):
        with pytest.raises(
            FloatingPointError, match=r"^epoch 1: non-finite loss nan at batch 1$"
        ):
            self.run_with(monkeypatch, lambda out: replace(out, value=float("nan")))

    @pytest.mark.parametrize("name, index", [("a", 0), ("b", 5), ("b", 0), ("c", 0)])
    def test_names_the_parameter_of_the_entry(self, name, index):
        shapes = {"a": (2,), "b": (2, 3), "c": (1,)}
        params = {n: Value(np.zeros(s)) for n, s in shapes.items()}
        for p in params.values():
            p.grad = np.zeros_like(p.data)
        params[name].grad.reshape(-1)[index] = np.inf
        with pytest.raises(FloatingPointError,
                           match=rf"^non-finite gradient of {name} at batch 4 \(loss 1\.0\)$"):
            vgssl.trainer._check_finite(1.0, params, adam_init(params), 4)

    def test_nan_gradient_names_the_parameter(self, monkeypatch):
        with pytest.raises(
            FloatingPointError,
            match=r"^epoch 1: non-finite gradient of \S+ at batch 1 \(loss [-0-9.e]+\)$",
        ):
            self.run_with(monkeypatch, lambda out: replace(out, node=out.node * np.nan))


class TestEvaluate:
    def test_reports_all_requested_ns(self):
        ds = small_world()
        mcfg = method_config(Method.SIMCLR, input_dim=8, hidden_dims=(12,), embed_dim=8)
        from vgssl.encoder import init_state

        state = init_state(mcfg.encoder, 0)
        rep = evaluate(state, mcfg, ds, n_values=(1, 5), threshold_m=25.0)
        assert rep.n_values == (1, 5)
        assert rep.n_queries == len(ds.queries)
        assert rep.recalls[0] <= rep.recalls[1]

    def test_repeated_evaluate_retains_no_arrays(self):
        ds = synth_dataset(seed=4, n_places=40, db_per_place=25, feature_dim=8)
        mcfg = method_config(Method.SIMCLR, input_dim=8, hidden_dims=(64,), embed_dim=64)
        from vgssl.encoder import init_state

        state = init_state(mcfg.encoder, 0)
        arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)

        def array_bytes():
            snap = tracemalloc.take_snapshot().filter_traces([arrays])
            return sum(stat.size for stat in snap.statistics("filename"))

        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            evaluate(state, mcfg, ds)
            before = array_bytes()
            for _ in range(4):
                evaluate(state, mcfg, ds)
            grown = array_bytes() - before
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        # One eval forward over the 1000-row database holds ~0.5 MB per
        # activation; none of it may outlive the call.
        assert grown < 64 * 2**10


class TestRunExperiment:
    def test_seed_sweep_summary(self):
        ds = small_world()
        mcfg = method_config(Method.SIMCLR, input_dim=8, hidden_dims=(12,), embed_dim=8)
        tcfg = TrainConfig(epochs=2, batch_size=8, queries_per_epoch=8, lr=1e-3, seed=10)
        result = run_experiment(mcfg, ds, tcfg, n_seeds=2)
        assert result.seeds == (10, 11)
        assert len(result.runs) == 2
        assert set(result.recall_mean) == {1, 5, 10}
        for n, mean in result.recall_mean.items():
            vals = [r.final_recall.as_dict()[n] for r in result.runs]
            assert mean == pytest.approx(np.mean(vals))
            assert result.recall_std[n] == pytest.approx(np.std(vals))  # population

    def test_deterministic_summary(self):
        ds = small_world()
        mcfg = method_config(Method.VICREG, input_dim=8, hidden_dims=(12,), embed_dim=8,
                             proj_layers=2)
        tcfg = TrainConfig(epochs=1, batch_size=8, queries_per_epoch=8, lr=1e-3, seed=0)
        a = run_experiment(mcfg, ds, tcfg, n_seeds=2)
        b = run_experiment(mcfg, ds, tcfg, n_seeds=2)
        assert a.recall_mean == b.recall_mean
        assert a.recall_std == b.recall_std

    def test_summary_line_format(self):
        ds = small_world()
        mcfg = method_config(Method.SIMCLR, input_dim=8, hidden_dims=(12,), embed_dim=8)
        tcfg = TrainConfig(epochs=1, batch_size=8, queries_per_epoch=8, lr=1e-3, seed=0)
        line = run_experiment(mcfg, ds, tcfg, n_seeds=1).summary_line()
        assert line.startswith("SimCLR-FC-1-8-1:")
        assert "R@1=" in line and "+/-" in line

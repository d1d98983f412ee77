"""Encoder branches, batchnorm semantics, momentum target, checkpoints."""

import json

import numpy as np
import pytest

from vgssl.autodiff import Value, zero_grads
from vgssl.encoder import (
    BN_EPS,
    EncoderConfig,
    forward,
    init_state,
    load_checkpoint,
    momentum_update,
    predictor_forward,
    save_checkpoint,
)


def loss_of(state, cfg, x, training=True, branch="online"):
    out = forward(state, cfg, x, branch=branch, training=training)
    return (out * out).mean()


def fd_param_grads(state, cfg, x, h=1e-5):
    """Central differences of the test loss w.r.t. every parameter."""
    grads = {}
    for name, p in state.params.items():
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_of(state, cfg, x).item()
            flat[i] = orig - h
            lo = loss_of(state, cfg, x).item()
            flat[i] = orig
            gf[i] = (hi - lo) / (2 * h)
        grads[name] = g
    return grads


class TestShapesAndInit:
    def test_output_shape(self):
        cfg = EncoderConfig(input_dim=7, hidden_dims=(8, 6), embed_dim=4, proj_layers=2)
        state = init_state(cfg, seed=0)
        out = forward(state, cfg, np.zeros((3, 7)))
        assert out.shape == (3, 4)

    def test_no_hidden_layers(self):
        cfg = EncoderConfig(input_dim=5, hidden_dims=(), embed_dim=3, proj_layers=1)
        state = init_state(cfg, seed=0)
        assert forward(state, cfg, np.zeros((2, 5))).shape == (2, 3)

    def test_init_deterministic(self):
        cfg = EncoderConfig(input_dim=4, embed_dim=8)
        a = init_state(cfg, seed=5)
        b = init_state(cfg, seed=5)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_init_fan_in_bound(self):
        cfg = EncoderConfig(input_dim=16, hidden_dims=(9,), embed_dim=4)
        state = init_state(cfg, seed=1)
        w = state.params["trunk.0.W"].data
        assert np.max(np.abs(w)) <= 1.0 / 4.0  # 1/sqrt(16)
        np.testing.assert_array_equal(state.params["trunk.0.b"].data, np.zeros(9))

    def test_bad_batch_shape(self):
        cfg = EncoderConfig(input_dim=4, embed_dim=4)
        state = init_state(cfg, seed=0)
        with pytest.raises(ValueError):
            forward(state, cfg, np.zeros((2, 5)))

    def test_identity_projection_passes_trunk_through(self):
        cfg = EncoderConfig(
            input_dim=4, hidden_dims=(6,), embed_dim=6, identity_projection=True
        )
        state = init_state(cfg, seed=0)
        assert not any(n.startswith("proj.") for n in state.params)
        out = forward(state, cfg, np.ones((2, 4)))
        assert out.shape == (2, 6)

    def test_identity_projection_width_mismatch(self):
        with pytest.raises(ValueError):
            EncoderConfig(input_dim=4, hidden_dims=(6,), embed_dim=5, identity_projection=True)

    def test_projection_needs_a_layer(self):
        with pytest.raises(ValueError):
            EncoderConfig(input_dim=4, embed_dim=4, proj_layers=0)


class TestBatchnorm:
    def make(self):
        cfg = EncoderConfig(
            input_dim=5, hidden_dims=(6,), embed_dim=4, proj_layers=2, proj_batchnorm=True
        )
        return cfg, init_state(cfg, seed=2)

    def test_running_stats_exist_per_hidden_projection(self):
        cfg, state = self.make()
        assert "proj.0.bn.mean" in state.bn_running
        assert "proj.0.bn.var" in state.bn_running
        assert "proj.1.bn.mean" not in state.bn_running  # no BN after the last affine

    def test_single_projection_layer_has_no_bn(self):
        cfg = EncoderConfig(
            input_dim=5, embed_dim=4, proj_layers=1, proj_batchnorm=True
        )
        state = init_state(cfg, seed=0)
        assert state.bn_running == {}

    def test_training_batch_too_small(self):
        cfg, state = self.make()
        with pytest.raises(ValueError):
            forward(state, cfg, np.zeros((1, 5)), training=True)

    def test_eval_allows_single_sample(self):
        cfg, state = self.make()
        out = forward(state, cfg, np.zeros((1, 5)), training=False)
        assert out.shape == (1, 4)

    def test_running_stats_move_toward_batch(self):
        cfg, state = self.make()
        rng = np.random.default_rng(0)
        before = state.bn_running["proj.0.bn.mean"].copy()
        forward(state, cfg, rng.normal(size=(16, 5)) * 3 + 1, training=True)
        after = state.bn_running["proj.0.bn.mean"]
        assert not np.array_equal(before, after)

    def test_eval_mode_does_not_touch_running_stats(self):
        cfg, state = self.make()
        before = {k: v.copy() for k, v in state.bn_running.items()}
        forward(state, cfg, np.random.default_rng(0).normal(size=(8, 5)), training=False)
        for k in before:
            np.testing.assert_array_equal(before[k], state.bn_running[k])

    def test_gradient_matches_fd_through_bn(self):
        cfg, state = self.make()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 5))
        loss = loss_of(state, cfg, x)
        loss.backward()
        analytic = {n: p.grad.copy() for n, p in state.params.items()}
        zero_grads(state.params.values())
        fd = fd_param_grads(state, cfg, x)
        for name in analytic:
            denom = max(np.max(np.abs(fd[name])), 1e-12)
            rel = np.max(np.abs(analytic[name] - fd[name])) / denom
            assert rel < 1e-4, f"{name}: rel err {rel:.2e}"


class TestTargetBranch:
    def test_requires_target_flag(self):
        cfg = EncoderConfig(input_dim=4, embed_dim=4)
        state = init_state(cfg, seed=0)
        with pytest.raises(ValueError):
            forward(state, cfg, np.zeros((2, 4)), branch="target")

    def test_stop_grad_target_matches_online_values(self):
        cfg = EncoderConfig(
            input_dim=4, hidden_dims=(5,), embed_dim=3, proj_layers=2,
            proj_batchnorm=True, stop_grad_target=True,
        )
        state = init_state(cfg, seed=1)
        x = np.random.default_rng(0).normal(size=(6, 4))
        on = forward(state, cfg, x, branch="online", training=True)
        tg = forward(state, cfg, x, branch="target", training=True)
        np.testing.assert_array_equal(on.data, tg.data)
        assert tg.is_leaf  # severed from the tape

    def test_momentum_target_starts_as_copy_then_lags(self):
        cfg = EncoderConfig(input_dim=4, embed_dim=3, momentum_target=True, momentum=0.9)
        state = init_state(cfg, seed=2)
        x = np.random.default_rng(1).normal(size=(4, 4))
        np.testing.assert_array_equal(
            forward(state, cfg, x, branch="online", training=False).data,
            forward(state, cfg, x, branch="target", training=False).data,
        )
        # Shift the online weights; target follows only by the EMA fraction.
        w = state.params["proj.0.W"]
        w.data += 1.0
        momentum_update(state, cfg)
        tgt = state.target["proj.0.W"]
        np.testing.assert_allclose(tgt, (w.data - 1.0) * 0.9 + w.data * 0.1)

    def test_momentum_update_requires_target(self):
        cfg = EncoderConfig(input_dim=4, embed_dim=3)
        state = init_state(cfg, seed=0)
        with pytest.raises(RuntimeError):
            momentum_update(state, cfg)

    def test_target_never_holds_predictor_params(self):
        cfg = EncoderConfig(
            input_dim=4, embed_dim=3, momentum_target=True, predictor=True
        )
        state = init_state(cfg, seed=0)
        assert not any(n.startswith("pred.") for n in state.target)

    def test_target_forward_does_not_update_running_stats(self):
        cfg = EncoderConfig(
            input_dim=4, hidden_dims=(5,), embed_dim=3, proj_layers=2,
            proj_batchnorm=True, momentum_target=True,
        )
        state = init_state(cfg, seed=3)
        before_online = {k: v.copy() for k, v in state.bn_running.items()}
        before_target = {k: v.copy() for k, v in state.target_bn_running.items()}
        forward(state, cfg, np.ones((4, 4)), branch="target", training=True)
        for k in before_online:
            np.testing.assert_array_equal(before_online[k], state.bn_running[k])
        for k in before_target:
            np.testing.assert_array_equal(before_target[k], state.target_bn_running[k])


class TestPredictor:
    def test_absent_predictor_raises(self):
        cfg = EncoderConfig(input_dim=4, embed_dim=3)
        state = init_state(cfg, seed=0)
        z = forward(state, cfg, np.zeros((2, 4)))
        with pytest.raises(RuntimeError):
            predictor_forward(state, cfg, z)

    def test_predictor_shape_and_grads(self):
        cfg = EncoderConfig(input_dim=4, embed_dim=3, predictor=True)
        state = init_state(cfg, seed=1)
        x = np.random.default_rng(0).normal(size=(5, 4))
        z = forward(state, cfg, x)
        p = predictor_forward(state, cfg, z)
        assert p.shape == (5, 3)
        (p * p).mean().backward()
        assert state.params["pred.0.W"].grad is not None
        assert np.any(state.params["pred.0.W"].grad != 0)


# Checkpoint header edits by case; "not_utf8" corrupts the encoded bytes instead.
HEADER_EDITS = {
    "unknown_config_field": lambda h: h["config"].update(width=3),
    "no_tensors": lambda h: h.pop("tensors"),
    "not_utf8": lambda h: None,
    "tensors_str": lambda h: h.update(tensors="x"),
    "tensors_int_items": lambda h: h.update(tensors=[3]),
    "meta_list": lambda h: h.update(meta=[]),
    "name_int": lambda h: h["tensors"][0].update(name=3),
    "name_repeated": lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"]),
    "shape_str": lambda h: h["tensors"][0].update(shape="ab"),
    "shape_negative": lambda h: h["tensors"][0].update(shape=[2, -1]),
    "offset_missing": lambda h: h["tensors"][0].pop("offset"),
    "offset_negative": lambda h: h["tensors"][0].update(offset=-8),
    "offset_float": lambda h: h["tensors"][0].update(offset=8.0),
    "name_no_group": lambda h: h["tensors"][0].update(name="junk.x"),
    "name_no_key": lambda h: h["tensors"][0].update(name="params"),
}


class TestCheckpoint:
    def make(self):
        cfg = EncoderConfig(
            input_dim=5, hidden_dims=(6,), embed_dim=4, proj_layers=2,
            proj_batchnorm=True, predictor=True, momentum_target=True,
        )
        return cfg, init_state(cfg, seed=7)

    def test_roundtrip_exact(self, tmp_path):
        cfg, state = self.make()
        # Mutate running stats and target so the roundtrip is non-trivial.
        forward(state, cfg, np.random.default_rng(0).normal(size=(8, 5)), training=True)
        momentum_update(state, cfg)
        moments = {"m.trunk.0.W": np.full((5, 6), 0.25)}
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, state, cfg, meta={"epoch": 3, "adam_t": 17}, extra_tensors=moments)
        state2, cfg2, meta, extra = load_checkpoint(path)
        assert cfg2 == cfg
        assert meta == {"epoch": 3, "adam_t": 17}
        for name in state.params:
            np.testing.assert_array_equal(state.params[name].data, state2.params[name].data)
        for name in state.target:
            np.testing.assert_array_equal(state.target[name], state2.target[name])
        for name in state.bn_running:
            np.testing.assert_array_equal(state.bn_running[name], state2.bn_running[name])
        np.testing.assert_array_equal(extra["m.trunk.0.W"], moments["m.trunk.0.W"])

    def test_resumed_forward_identical(self, tmp_path):
        cfg, state = self.make()
        x = np.random.default_rng(1).normal(size=(6, 5))
        forward(state, cfg, x, training=True)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, state, cfg)
        state2, cfg2, _, _ = load_checkpoint(path)
        a = forward(state, cfg, x, training=False)
        b = forward(state2, cfg2, x, training=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_save_is_byte_stable(self, tmp_path):
        cfg, state = self.make()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, state, cfg, meta={"epoch": 1})
        save_checkpoint(p2, state, cfg, meta={"epoch": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        blob = b"[1, 2]"
        path.write_bytes(len(blob).to_bytes(4, "little") + blob)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"malformed checkpoint {path}: header is not a JSON object"

    def test_version_check(self, tmp_path):
        cfg, state = self.make()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, state, cfg)
        raw = bytearray(path.read_bytes())
        # Corrupt the version string in place.
        idx = raw.find(b"VGSSL-CKPT-1")
        raw[idx:idx + 12] = b"VGSSL-CKPT-9"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("case, message", [
        ("unknown_config_field", "encoder config: "),
        ("no_tensors", "header lacks ['tensors']"),
        ("not_utf8", "header is not UTF-8 JSON"),
        ("tensors_str", "tensors is not a list of JSON objects"),
        ("tensors_int_items", "tensors is not a list of JSON objects"),
        ("meta_list", "meta is not a JSON object"),
        ("name_int", "tensor 0 name 3 is not a string"),
        ("name_repeated", "tensor '{first}' is listed twice"),
        ("shape_str", "tensor '{first}' shape 'ab' is not a list of non-negative ints"),
        ("shape_negative", "tensor '{first}' shape [2, -1] is not a list of non-negative ints"),
        ("offset_missing", "tensor '{first}' offset None is not a non-negative int"),
        ("offset_negative", "tensor '{first}' offset -8 is not a non-negative int"),
        ("offset_float", "tensor '{first}' offset 8.0 is not a non-negative int"),
        ("name_no_group", "tensor 'junk.x' is not named <group>.<key> with a group in "
                          "('params', 'target', 'bn', 'target_bn', 'extra')"),
        ("name_no_key", "tensor 'params' is not named <group>.<key> with a group in "
                        "('params', 'target', 'bn', 'target_bn', 'extra')"),
    ])
    def test_malformed_header_names_the_file(self, tmp_path, case, message):
        cfg, state = self.make()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, state, cfg)
        raw = path.read_bytes()
        end = 4 + int.from_bytes(raw[:4], "little")
        header = json.loads(raw[4:end])
        first = header["tensors"][0]["name"]
        HEADER_EDITS[case](header)
        blob = json.dumps(header).encode()
        if case == "not_utf8":
            blob = blob.replace(b"VGSSL", b"\xffGSSL")
        path.write_bytes(len(blob).to_bytes(4, "little") + blob + raw[end:])
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        expected = f"malformed checkpoint {path}: " + message.format(first=first)
        assert str(err.value).startswith(expected)

    @pytest.mark.parametrize("case", ["missing", "shape", "unknown", "target_bn"])
    def test_tensors_must_fit_the_config(self, tmp_path, case):
        # Each tensor's name and shape are checked against the layout that
        # the checkpoint's own encoder config builds, not only its header.
        cfg, state = self.make()
        if case == "missing":
            del state.params["proj.0.b"]
        elif case == "shape":
            state.params["proj.0.W"] = Value(np.zeros((6, 5)))
        elif case == "unknown":
            state.params["extra.X"] = Value(np.zeros((2, 2)))
        else:
            del state.target_bn_running["proj.0.bn.var"]
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, state, cfg)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        message = {
            "missing": "params.proj.0.b is missing",
            "shape": "params.proj.0.W has shape (6, 5), the layout (6, 4)",
            "unknown": "params.extra.X is not in the layout",
            "target_bn": "target_bn.proj.0.bn.var is missing",
        }[case]
        assert str(err.value) == (f"malformed checkpoint {path}: tensors do not fit its "
                                  f"encoder config: {message}")

    def test_every_tensor_must_end_inside_the_body(self, tmp_path):
        # Only the first entry points past the body; the last one fits.
        cfg, state = self.make()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, state, cfg)
        raw = path.read_bytes()
        end = 4 + int.from_bytes(raw[:4], "little")
        body = len(raw) - end
        header = json.loads(raw[4:end])
        header["tensors"][0]["offset"] = body
        blob = json.dumps(header).encode()
        path.write_bytes(len(blob).to_bytes(4, "little") + blob + raw[end:])
        size = int(np.prod(header["tensors"][0]["shape"]))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == (
            f"truncated checkpoint {path}: tensor body has {body} bytes, "
            f"the header needs {body + 8 * size}"
        )

    def test_truncated_body_rejected(self, tmp_path):
        cfg, state = self.make()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, state, cfg)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        cfg, state = self.make()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, state, cfg)
        raw = path.read_bytes()
        end = 4 + int.from_bytes(raw[:4], "little")
        # Every cut inside the length prefix or the header, and the cut
        # right after the header, which leaves the tensor body empty.
        for n in range(end + 1):
            path.write_bytes(raw[:n])
            with pytest.raises(ValueError, match="truncated checkpoint"):
                load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg, state = self.make()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, state, cfg, meta={"epoch": 1})
        old = path.read_bytes()

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr("vgssl.encoder.os.fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, state, cfg, meta={"epoch": 2})
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["enc.ckpt"]

    def test_plain_encoder_roundtrip(self, tmp_path):
        cfg = EncoderConfig(input_dim=3, hidden_dims=(4,), embed_dim=2)
        state = init_state(cfg, seed=0)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, state, cfg)
        state2, cfg2, meta, extra = load_checkpoint(path)
        assert cfg2 == cfg
        assert state2.target is None
        assert extra == {}


class TestEvalVsTrainBN:
    def test_eval_uses_running_stats(self):
        cfg = EncoderConfig(
            input_dim=3, hidden_dims=(), embed_dim=3, proj_layers=2, proj_batchnorm=True
        )
        state = init_state(cfg, seed=4)
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(32, 3)) * 2.0 + 5.0
        # Warm the running stats toward this distribution.
        for _ in range(200):
            forward(state, cfg, batch, training=True)
        train_out = forward(state, cfg, batch, training=True)
        eval_out = forward(state, cfg, batch, training=False)
        # After convergence of the running stats the two paths agree closely.
        np.testing.assert_allclose(train_out.data, eval_out.data, atol=1e-3)


NO_TAPE_CONFIGS = {
    "plain": dict(),
    "bn": dict(proj_layers=2, proj_batchnorm=True, stop_grad_target=True),
    "predictor": dict(proj_layers=2, proj_batchnorm=True, predictor=True,
                      stop_grad_target=True),
    "momentum": dict(proj_layers=2, proj_batchnorm=True, predictor=True,
                     momentum_target=True, momentum=0.9),
}


def numpy_affine(params, prefix, h):
    return h @ params[f"{prefix}.W"] + params[f"{prefix}.b"]


def numpy_batchnorm(params, running, prefix, h, training):
    """The recorded batchnorm's numpy operations, in its order."""
    gamma, beta = params[f"{prefix}.gamma"], params[f"{prefix}.beta"]
    if training:
        inv_n = 1.0 / h.shape[0]
        mu = h.sum(axis=0, keepdims=True) * inv_n
        c = h - mu
        var = (c * c).sum(axis=0, keepdims=True) * inv_n
        return c / np.sqrt(var + BN_EPS) * gamma + beta
    xhat = (h - running[f"{prefix}.mean"]) / np.sqrt(running[f"{prefix}.var"] + BN_EPS)
    return xhat * gamma + beta


def numpy_forward(params, running, cfg, x, training):
    """The layer code of ``forward`` on bare arrays, same operations in the
    same order."""
    for i in range(len(cfg.hidden_dims)):
        x = np.maximum(numpy_affine(params, f"trunk.{i}", x), 0.0)
    if not cfg.identity_projection:
        for i in range(cfg.proj_layers):
            x = numpy_affine(params, f"proj.{i}", x)
            if i < cfg.proj_layers - 1:
                if cfg.proj_batchnorm:
                    x = numpy_batchnorm(params, running, f"proj.{i}.bn", x, training)
                x = np.maximum(x, 0.0)
    return x


def numpy_predictor(params, running, z, training):
    h = numpy_affine(params, "pred.0", z)
    h = np.maximum(numpy_batchnorm(params, running, "pred.bn", h, training), 0.0)
    return numpy_affine(params, "pred.1", h)


class TestNoTapeForward:
    """Target-branch and eval-mode forwards record no tape, same bits."""

    def make(self, name):
        cfg = EncoderConfig(input_dim=5, hidden_dims=(7, 6), embed_dim=4,
                            **NO_TAPE_CONFIGS[name])
        state = init_state(cfg, seed=3)
        rng = np.random.default_rng(4)
        # Move the running statistics and the momentum target off their
        # initial values so each branch reads its own.
        forward(state, cfg, rng.normal(size=(8, 5)), training=True)
        if cfg.momentum_target:
            for p in state.params.values():
                p.data += 0.1
            momentum_update(state, cfg)
        return cfg, state, rng.normal(size=(6, 5))

    def untaped_calls(self, cfg):
        calls = [("online", False)]
        if cfg.has_target_branch:
            calls += [("target", True), ("target", False)]
        return calls

    @pytest.mark.parametrize("name", sorted(NO_TAPE_CONFIGS))
    def test_leaf_with_the_bits_of_a_recorded_forward(self, name):
        cfg, state, x = self.make(name)
        online = {k: v.data for k, v in state.params.items()}
        for branch, training in self.untaped_calls(cfg):
            momentum = branch == "target" and cfg.momentum_target
            params = state.target if momentum else online
            running = state.target_bn_running if momentum else state.bn_running
            before = {k: a.copy() for k, a in running.items()}
            out = forward(state, cfg, x, branch=branch, training=training)
            assert out.is_leaf and out._parents == () and out._backward is None
            ref = numpy_forward(params, running, cfg, x, training)
            assert out.data.tobytes() == ref.tobytes()
            assert all(np.array_equal(running[k], a) for k, a in before.items())
        # The reference replays the recorded forward bit for bit.
        ref = numpy_forward(online, state.bn_running, cfg, x, training=True)
        recorded = forward(state, cfg, x, training=True)
        assert not recorded.is_leaf and recorded.data.tobytes() == ref.tobytes()

    def test_eval_predictor_is_a_leaf_with_the_recorded_bits(self):
        cfg, state, x = self.make("predictor")
        z = forward(state, cfg, x, training=False)
        out = predictor_forward(state, cfg, z, training=False)
        assert out.is_leaf and out._parents == () and out._backward is None
        params = {k: v.data for k, v in state.params.items()}
        ref = numpy_predictor(params, state.bn_running, z.data, training=False)
        assert out.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("branch, training",
                             [("online", False), ("target", True), ("target", False)])
    def test_live_input_takes_no_gradient(self, branch, training):
        cfg, state, x = self.make("momentum")
        rows = Value(x)
        out = forward(state, cfg, rows, branch=branch, training=training)
        assert out._parents == ()
        live = Value(np.ones_like(out.data))
        (out * live).sum().backward()
        assert rows.grad is None
        assert all(p.grad is None for p in state.params.values())
        if not training:
            z = Value(out.data.copy())
            out = predictor_forward(state, cfg, z, training=False)
            assert out._parents == ()
            (out * Value(np.ones_like(out.data))).sum().backward()
            assert z.grad is None

    def test_raw_input_rows_are_constants(self):
        cfg, state, x = self.make("plain")
        run = forward(state, cfg, x, training=True)
        # The run's parents are the network's parameters, not the rows.
        assert run._op == "run"
        assert run._parents == tuple(v for n, v in state.params.items()
                                     if not n.startswith("pred."))

    def test_no_layer_net_cuts_its_input_loose(self):
        cfg = EncoderConfig(input_dim=3, hidden_dims=(), embed_dim=3,
                            identity_projection=True)
        state = init_state(cfg, seed=0)
        x = Value(np.ones((2, 3))) * 2.0
        out = forward(state, cfg, x, training=False)
        assert out.is_leaf and np.array_equal(out.data, x.data)
        # Nor do the output rows alias the caller's array.
        rows = np.ones((2, 3))
        out = forward(state, cfg, rows, training=False)
        assert np.array_equal(out.data, rows) and not np.shares_memory(out.data, rows)

    def test_raise_inside_restores_recording(self):
        cfg, state, x = self.make("momentum")
        loss = loss_of(state, cfg, x)
        n_nodes = len(loss._topo())
        with pytest.raises(ValueError, match="batch of at least 2"):
            forward(state, cfg, x[:1], branch="target", training=True)
        loss = loss_of(state, cfg, x)
        assert len(loss._topo()) == n_nodes
        loss.backward()
        online = [n for n in state.params if not n.startswith("pred.")]
        assert all(state.params[n].grad is not None for n in online)

"""Method wiring: mechanism flags, labels, batch-loss assembly, audit."""

import numpy as np
import pytest

import vgssl.methods
from vgssl.autodiff import zero_grads
from vgssl.encoder import EncoderConfig, forward, init_state, predictor_forward
from vgssl.gradcheck import audit_gradient_flow
from vgssl.losses import LossConfig, Method, l2_normalize_rows
from vgssl.methods import (
    TABLE_FLAGS,
    MethodConfig,
    method_batch_loss,
    method_config,
    strategy_label,
)
from vgssl.sampling import MiningConfig, MiningMode

PAIR_METHODS = [
    Method.SIMCLR,
    Method.MOCOV2,
    Method.BYOL,
    Method.SIMSIAM,
    Method.BARLOW_TWINS,
    Method.VICREG,
]


class TestFlagTable:
    def test_exact_flag_rows(self):
        rows = {
            Method.SIMCLR: (False, False, False, False),
            Method.MOCOV2: (True, False, False, False),
            Method.BYOL: (True, True, True, True),
            Method.SIMSIAM: (False, True, True, True),
            Method.BARLOW_TWINS: (False, False, False, True),
            Method.VICREG: (False, False, False, True),
        }
        for method, (me, sg, pr, bn) in rows.items():
            f = TABLE_FLAGS[method]
            assert (
                f.momentum_encoder,
                f.stop_gradient,
                f.predictor,
                f.projector_batchnorm,
            ) == (me, sg, pr, bn), method


class TestFactory:
    def test_flags_propagate_to_encoder(self):
        m = method_config(Method.BYOL, input_dim=8, proj_layers=2)
        assert m.encoder.momentum_target is True
        assert m.encoder.stop_grad_target is False  # EMA branch carries the stop
        assert m.encoder.predictor is True
        assert m.encoder.proj_batchnorm is True

    def test_simsiam_uses_explicit_stop(self):
        m = method_config(Method.SIMSIAM, input_dim=8, proj_layers=2)
        assert m.encoder.momentum_target is False
        assert m.encoder.stop_grad_target is True

    def test_triplet_is_bare_trunk(self):
        m = method_config(Method.TRIPLET, input_dim=8, hidden_dims=(16, 12))
        assert m.encoder.identity_projection is True
        assert m.encoder.embed_dim == 12
        assert m.eta == 0.0
        assert m.mining.mode is MiningMode.FULL_HNM

    def test_triplet_without_hidden_layers_rejected(self):
        # The identity head leaves the trunk as the only trainable part.
        with pytest.raises(ValueError, match="hidden_dims"):
            method_config(Method.TRIPLET, input_dim=8, hidden_dims=())

    def test_loss_overrides_pass_through(self):
        m = method_config(Method.SIMCLR, input_dim=8, tau=0.2)
        assert m.loss.tau == 0.2

    def test_mismatched_loss_method_rejected(self):
        enc = EncoderConfig(input_dim=4, embed_dim=4)
        with pytest.raises(ValueError):
            MethodConfig(
                method=Method.SIMCLR,
                loss=LossConfig(Method.VICREG),
                encoder=enc,
                mining=MiningConfig(),
            )

    def test_wrong_encoder_flags_rejected(self):
        enc = EncoderConfig(input_dim=4, embed_dim=4)  # no momentum target
        with pytest.raises(ValueError, match="momentum"):
            MethodConfig(
                method=Method.MOCOV2,
                loss=LossConfig(Method.MOCOV2),
                encoder=enc,
                mining=MiningConfig(),
            )


class TestLabels:
    def test_pair_label_format(self):
        m = method_config(Method.SIMCLR, input_dim=8, embed_dim=2048, proj_layers=1, eta=1.0)
        assert strategy_label(m) == "SimCLR-FC-1-2048-1"

    def test_eta_formatting(self):
        m = method_config(Method.BARLOW_TWINS, input_dim=8, embed_dim=64, proj_layers=2, eta=0.5)
        assert strategy_label(m) == "BT-FC-2-64-0.5"

    def test_triplet_labels(self):
        full = method_config(Method.TRIPLET, input_dim=8)
        rand = method_config(
            Method.TRIPLET, input_dim=8, mining=MiningConfig(mode=MiningMode.RANDOM)
        )
        assert strategy_label(full) == "Triplet"
        assert strategy_label(rand) == "Triplet-Random"


class TestBatchLoss:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.anchors = rng.normal(size=(6, 8))
        self.partners = self.anchors + rng.normal(size=(6, 8)) * 0.1
        self.negatives = rng.normal(size=(6, 8))
        self.pairs = np.stack([self.anchors, self.partners])
        self.triplets = np.stack([self.anchors, self.partners, self.negatives])

    def make(self, method, **kw):
        proj = 2 if TABLE_FLAGS.get(method) and (
            TABLE_FLAGS[method].projector_batchnorm
        ) else 1
        m = method_config(method, input_dim=8, hidden_dims=(10,), embed_dim=5,
                          proj_layers=proj, **kw)
        return m, init_state(m.encoder, seed=1)

    @pytest.mark.parametrize("method", PAIR_METHODS)
    def test_pair_methods_produce_finite_backpropable_loss(self, method):
        mcfg, state = self.make(method)
        out, _ = method_batch_loss(state, mcfg, self.pairs)
        assert np.isfinite(out.value)
        out.node.backward()
        assert state.params["trunk.0.W"].grad is not None

    def test_triplet_needs_negatives(self):
        mcfg, state = self.make(Method.TRIPLET)
        with pytest.raises(ValueError, match=r"^triplet batches take a stack of 3 views, "
                                             r"got shape \(2, 6, 8\)$"):
            method_batch_loss(state, mcfg, self.pairs)
        out, _ = method_batch_loss(state, mcfg, self.triplets)
        assert np.isfinite(out.value)

    def test_pair_methods_take_two_views(self):
        mcfg, state = self.make(Method.SIMCLR)
        for views in (self.triplets, self.anchors):
            with pytest.raises(ValueError, match="^simclr batches take a stack of 2 views"):
                method_batch_loss(state, mcfg, views)

    def test_prediction_loss_in_range(self):
        for method in (Method.BYOL, Method.SIMSIAM):
            mcfg, state = self.make(method)
            out, _ = method_batch_loss(state, mcfg, self.pairs)
            assert 0.0 <= out.value <= 4.0

    def test_frozen_targets_reproduce_loss(self):
        cases = [(Method.MOCOV2, {}), (Method.BYOL, {}), (Method.SIMSIAM, {}),
                 (Method.SIMSIAM, {"symmetric": False})]
        for method, overrides in cases:
            mcfg, state = self.make(method, **overrides)
            out1, targets = method_batch_loss(state, mcfg, self.pairs)
            zero_grads(state.params.values())
            out2, again = method_batch_loss(state, mcfg, self.pairs, frozen=targets)
            assert out1.node.data.tobytes() == out2.node.data.tobytes(), (method, overrides)
            assert [t.tobytes() for t in again] == [t.tobytes() for t in targets], method

    def test_simsiam_target_is_online_output(self):
        # A symmetric SimSiam step reuses its online projections as targets:
        # they must be the target forward's bits, and the running statistics
        # must be those of the four-forward step, whose online forwards
        # update them for anchors first, then partners.
        mcfg, state = self.make(Method.SIMSIAM)
        enc = mcfg.encoder
        want = [forward(state, enc, rows, branch="target").data
                for rows in (self.partners, self.anchors)]
        ref = init_state(enc, seed=1)
        for rows in (self.anchors, self.partners):
            predictor_forward(ref, enc, l2_normalize_rows(forward(ref, enc, rows)))
        _, used = method_batch_loss(state, mcfg, self.pairs)
        assert [t.tobytes() for t in used] == [w.tobytes() for w in want]
        assert state.bn_running.keys() == ref.bn_running.keys()
        for key, a in ref.bn_running.items():
            assert state.bn_running[key].tobytes() == a.tobytes(), key
        online = forward(state, enc, self.partners, training=True).data
        np.testing.assert_array_equal(used[0], online)

    # Each forward as (branch, views embedded): the online views run as one
    # stack, and so do the targets.
    @pytest.mark.parametrize("method, overrides, forwards", [
        (Method.SIMCLR, {}, [("online", 2)]),
        (Method.MOCOV2, {}, [("online", 1), ("target", 1)]),
        (Method.SIMSIAM, {}, [("online", 2)]),
        (Method.SIMSIAM, {"symmetric": False}, [("online", 1), ("target", 1)]),
        (Method.BYOL, {}, [("online", 2), ("target", 2)]),
    ], ids=["simclr", "mocov2", "simsiam", "simsiam_one_way", "byol"])
    def test_encoder_forwards_per_step(self, monkeypatch, method, overrides, forwards):
        calls = []

        def counted(state, cfg, batch, branch="online", training=True, **kw):
            calls.append((branch, batch.shape[0]))
            return forward(state, cfg, batch, branch, training, **kw)

        monkeypatch.setattr(vgssl.methods, "forward", counted)
        mcfg, state = self.make(method, **overrides)
        method_batch_loss(state, mcfg, self.pairs)
        assert calls == forwards

    def test_methods_without_targets_report_none(self):
        for method in (Method.SIMCLR, Method.BARLOW_TWINS, Method.VICREG, Method.TRIPLET):
            mcfg, state = self.make(method)
            views = self.triplets if method is Method.TRIPLET else self.pairs
            _, targets = method_batch_loss(state, mcfg, views)
            assert targets == (), method

    @pytest.mark.parametrize("method, overrides, count", [
        (Method.MOCOV2, {}, 1),
        (Method.SIMSIAM, {"symmetric": False}, 1),
        (Method.BYOL, {}, 2),
        (Method.SIMSIAM, {}, 2),
    ], ids=["mocov2", "simsiam_one_way", "byol", "simsiam"])
    def test_one_target_array_per_target_view(self, method, overrides, count):
        mcfg, state = self.make(method, **overrides)
        _, targets = method_batch_loss(state, mcfg, self.pairs)
        assert isinstance(targets, tuple)
        assert len(targets) == count
        assert all(t.shape == (6, 5) for t in targets)

    def test_identical_negative_rows_are_legal(self):
        # An identical pair repeats one row on both sides.
        mcfg, state = self.make(Method.SIMCLR)
        anchors = self.anchors.copy()
        partners = self.partners.copy()
        anchors[3] = partners[3] = self.negatives[0]
        out, _ = method_batch_loss(state, mcfg, np.stack([anchors, partners]))
        assert np.isfinite(out.value)


# Nodes on one training step's tape at criterion 7's encoder (input 32,
# trunk (64, 64), two projection layers of 64) and batch 20: parameters,
# one run node per encoder or predictor pass over the stacked views, and
# for a loss that couples views, one view node and one fused affine (its
# output layer) per view; row-norm and Barlow Twins diagonal nodes and the
# loss primitives.  The prediction losses take both directions as one stack.
# Constants (input rows, target outputs, wrapped scalars) are not counted.
TAPE_NODES = {
    Method.SIMCLR: 27,
    Method.MOCOV2: 23,
    Method.BYOL: 28,
    Method.SIMSIAM: 28,
    Method.BARLOW_TWINS: 35,
    Method.VICREG: 70,
    Method.TRIPLET: 29,
}


@pytest.mark.parametrize("method", list(TAPE_NODES), ids=lambda m: m.value)
def test_training_step_tape_size(method):
    rng = np.random.default_rng(0)
    a, p, n = (rng.normal(size=(20, 32)) for _ in range(3))
    mcfg = method_config(method, input_dim=32, embed_dim=64, proj_layers=2, eta=1.0)
    state = init_state(mcfg.encoder, seed=0)
    views = np.stack([a, p, n] if method is Method.TRIPLET else [a, p])
    out, _ = method_batch_loss(state, mcfg, views)
    assert len(out.node._topo()) == TAPE_NODES[method]


class TestAudit:
    @pytest.mark.parametrize("method", PAIR_METHODS)
    def test_all_mechanisms_check_out(self, method):
        checks = audit_gradient_flow(method)
        failing = [k for k, v in checks.items() if not v]
        assert checks["ok"], f"{method.value}: failing checks {failing}"

    def test_triplet_not_in_table(self):
        with pytest.raises(ValueError):
            audit_gradient_flow(Method.TRIPLET)

    def test_audit_is_method_specific(self):
        sim = audit_gradient_flow(Method.SIMCLR)
        byol = audit_gradient_flow(Method.BYOL)
        assert "no_predictor_params" in sim
        assert "predictor_params_learn" in byol

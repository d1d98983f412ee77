"""Fused tape nodes give the bits of the primitive chains they replace.

The oracles below are those chains, composed from autodiff primitives.
Each property draws a batch, possibly with repeated rows, and a random
upstream gradient, and compares the forward value and every input's
gradient by their bytes.  A one-layer encoder run, an affine with its
ReLU, is also run with some inputs as constants, and with none live,
which is the path an eval-mode forward takes.  The input ``x`` also
feeds a second term of the loss, so its gradient is already populated
when the fused node adds to it, as in a training step where a tensor
has several consumers.

An encoder run over a stack of views is checked against the same chains
run view by view (``TestStackedRun``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vgssl.autodiff import Value, as_value
from vgssl.encoder import (
    BN_EPS,
    BN_MOMENTUM,
    EncoderConfig,
    _batchnorm_train,
    _layers,
    _run,
    forward,
    init_state,
    predictor_forward,
)
from vgssl.gradcheck import _hinge_signature, _kink_margin
from vgssl.losses import DegenerateInputError, _diagonal, l2_normalize_rows


def one_layer_run(h, W, b, relu=False):
    """An encoder run of one affine layer ``h @ W + b``, then its ReLU if
    ``relu``: the node a per-view forward ends in."""
    layer = ("out", W.shape[0], W.shape[1], None, relu)
    return _run([layer], {"out.W": W, "out.b": b}, h, {}, True, True)


def affine_chain(h, W, b):
    return h @ W + b


def affine_relu_chain(h, W, b):
    return (h @ W + b).relu()


def diagonal_chain(c):
    return (c * np.eye(c.shape[0])).sum(axis=1, keepdims=True)


def batchnorm_chain(x, gamma, beta):
    mu = x.mean(axis=0, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=0, keepdims=True)
    xhat = centered / (var + BN_EPS).sqrt()
    return xhat * gamma + beta, mu.data, var.data


def l2_chain(x):
    norms_sq = (x * x).sum(axis=1, keepdims=True)
    return x / norms_sq.sqrt()


@st.composite
def batches(draw):
    """(rng, rows): a seeded generator and a batch with repeated rows."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.normal(size=(draw(st.integers(1, n)), d)) * rng.uniform(0.1, 10.0)
    rows = distinct[rng.integers(0, len(distinct), size=n)]
    return rng, rows


def run(fn, arrays, seed, live=None):
    """Forward ``fn`` on fresh leaves where ``live`` says so (all by
    default) and on the caller's arrays as constants elsewhere; backprop a
    random upstream gradient plus a second term through the first leaf.
    Returns the outputs and the leaves' gradients."""
    live = live or [True] * len(arrays)
    inputs = [Value(a.copy()) if on else as_value(a) for a, on in zip(arrays, live)]
    leaves = [v for v in inputs if not v._const]
    out = fn(*inputs)
    y = out[0] if isinstance(out, tuple) else out
    extra = [np.asarray(a) for a in out[1:]] if isinstance(out, tuple) else []
    if leaves:
        rng = np.random.default_rng(seed)
        upstream = rng.normal(size=y.shape)
        other = rng.normal(size=leaves[0].shape)
        ((y * upstream).sum() + (leaves[0] * other).sum()).backward()
    return [y.data, *extra, *(v.grad for v in leaves)]


def chain_forward(cfg, predictor, params, running, h):
    """The layers of ``_layers`` on one view ``h``, as primitive chains."""
    for prefix, _, _, bn, relu in _layers(cfg):
        if prefix.startswith("pred.") != predictor:
            continue
        h = affine_chain(h, params[f"{prefix}.W"], params[f"{prefix}.b"])
        if bn is not None:
            h, mu, var = batchnorm_chain(h, params[f"{bn}.gamma"], params[f"{bn}.beta"])
            for key, batch in ((f"{bn}.mean", mu), (f"{bn}.var", var)):
                running[key] = (1 - BN_MOMENTUM) * running[key] + BN_MOMENTUM * batch
        if relu:
            h = h.relu()
    return h


def loss_of(outs, upstream, order, fortran):
    """Each view's output against its upstream gradient, the terms added
    in ``order``; view s's gradient arrives Fortran-ordered (through a
    transpose) where ``fortran[s]``."""
    loss = None
    for s in order:
        y, u = outs[s], upstream[s]
        term = (y.T * as_value(u.T.copy())).sum() if fortran[s] else (y * as_value(u)).sum()
        loss = term if loss is None else loss + term
    return loss


def stacked_and_chains(cfg, predictor, x, rng, live, per_view, homes=False):
    """(fused, chains): the outputs, parameter gradients, input gradients,
    running statistics and hinge summary of one encoder run over ``x``
    (one batch, or a stack of views), then of the same layers run view by
    view as primitive chains, from the same parameters and upstream
    gradients.  The upstream gradient reaches a stacked run as one array,
    whose views the chains take in view order; a per-view run's views are
    added in a random order, and some arrive Fortran-ordered."""
    stacked = x.ndim == 3
    views = x if stacked else x[None]
    fused_state = init_state(cfg, seed=int(rng.integers(2**32)))
    for name, v in fused_state.params.items():
        if name.endswith(".W"):  # some units exactly 0
            v.data[:, rng.random(v.shape[1]) < 0.2] = 0.0
        elif name.endswith(".b"):
            v.data[rng.random(v.shape[0]) < 0.3] = 0.0
        else:  # batchnorm's scale and shift, away from 1 and 0
            v.data[...] = rng.normal(size=v.shape)
    chain_state = init_state(cfg, seed=0)
    for name, v in chain_state.params.items():
        v.data = fused_state.params[name].data.copy()
    if homes:  # gradients written into arrays an optimizer owns
        for state in (fused_state, chain_state):
            for v in state.params.values():
                v._grad_home = np.empty_like(v.data)
    upstream = rng.normal(size=views.shape[:2] + (cfg.embed_dim,))
    fortran = rng.random(len(views)) < 0.5
    # The term added last reaches the parameters first.  A stacked run adds
    # its views' contributions in view order, so its chains' terms go in
    # reverse; a per-view run follows whatever order its views arrive in.
    order = rng.permutation(len(views)) if per_view else range(len(views) - 1, -1, -1)

    fused_x = Value(x.copy()) if live else x
    if predictor:
        out = predictor_forward(fused_state, cfg, as_value(fused_x))
    else:
        out = forward(fused_state, cfg, fused_x, per_view=per_view)
    if per_view:
        outs = out
        loss = loss_of(outs, upstream, order, fortran)
    elif stacked:
        outs = list(out.data)
        loss = (out * as_value(upstream)).sum()
    else:
        outs = [out.data]
        loss = loss_of([out], upstream, [0], fortran)
    fused_hinges = (_kink_margin(loss), int(_hinge_signature(loss).sum()))
    loss.backward()

    chain_x = [Value(v.copy()) if live else v for v in views]
    chain_outs = [chain_forward(cfg, predictor, chain_state.params, chain_state.bn_running,
                                as_value(v)) for v in chain_x]
    chain_loss = loss_of(chain_outs, upstream, order, fortran if per_view or not stacked
                         else [False] * len(views))
    chain_hinges = (_kink_margin(chain_loss), int(_hinge_signature(chain_loss).sum()))
    chain_loss.backward()

    def results(outs, state, input_grads, hinges):
        return [*(np.asarray(getattr(o, "data", o)) for o in outs),
                *(np.asarray(v.grad if v.grad is not None else np.nan)
                  for v in state.params.values()),
                *input_grads, *state.bn_running.values(), np.array(hinges)]

    fused_grads = list(fused_x.grad if stacked else [fused_x.grad]) if live else []
    return (results(outs, fused_state, fused_grads, fused_hinges),
            results(chain_outs, chain_state, [v.grad for v in chain_x] if live else [],
                    chain_hinges))


def assert_same_bytes(fused, chain):
    assert len(fused) == len(chain)
    for a, b in zip(fused, chain):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestFusedNodes:
    @settings(max_examples=150)
    @given(batches(), st.integers(1, 70))
    def test_affine(self, batch, width):
        rng, h = batch
        W = rng.normal(size=(h.shape[1], width))
        b = rng.normal(size=width)
        seed = int(rng.integers(2**32))
        assert_same_bytes(run(one_layer_run, [h, W, b], seed),
                          run(affine_chain, [h, W, b], seed))

    @settings(max_examples=150)
    @given(batches(), st.integers(1, 70), st.lists(st.booleans(), min_size=3, max_size=3))
    def test_affine_relu(self, batch, width, live):
        rng, h = batch
        W = rng.normal(size=(h.shape[1], width))
        b = rng.normal(size=width)
        # Units that are exactly 0 for every row (a zero column and bias),
        # and a zero input row, which is exactly 0 wherever the bias is.
        dead = rng.random(width) < 0.3
        W[:, dead] = 0.0
        b[dead] = 0.0
        b[rng.random(width) < 0.2] = 0.0
        h[rng.integers(len(h))] = 0.0
        seed = int(rng.integers(2**32))
        arrays = [h, W, b]
        copies = [a.copy() for a in arrays]
        fused = run(lambda *a: one_layer_run(*a, relu=True), arrays, seed, live)
        assert_same_bytes(fused, run(affine_relu_chain, arrays, seed, live))
        assert all(a.tobytes() == c.tobytes() for a, c in zip(arrays, copies))

    @settings(max_examples=150)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_diagonal(self, d, seed):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=(d, d))
        c[rng.random((d, d)) < 0.2] = 0.0
        assert_same_bytes(run(lambda x: _diagonal(x, np.eye(d)), [c], seed),
                          run(diagonal_chain, [c], seed))

    @settings(max_examples=150)
    @given(batches(), st.integers(1, 70))
    def test_training_batchnorm(self, batch, width):
        # A network whose only layers are an affine with batchnorm and its
        # ReLU, then the output affine, run on one batch.
        rng, x = batch
        cfg = EncoderConfig(input_dim=x.shape[1], hidden_dims=(), embed_dim=width,
                            proj_layers=2, proj_batchnorm=True)
        fused, chain = stacked_and_chains(cfg, False, x, rng, live=True, per_view=False)
        assert_same_bytes(fused, chain)

    @settings(max_examples=150)
    @given(batches())
    def test_l2_normalize_rows(self, batch):
        rng, x = batch
        seed = int(rng.integers(2**32))
        assert_same_bytes(run(l2_normalize_rows, [x], seed), run(l2_chain, [x], seed))

    def test_fused_node_is_one_node(self):
        rng = np.random.default_rng(0)
        x = Value(rng.normal(size=(4, 3)))
        gamma, beta = Value(np.ones((1, 3))), Value(np.zeros((1, 3)))
        W, b = Value(rng.normal(size=(3, 2))), Value(np.zeros(2))
        for relu in (False, True):
            out = one_layer_run(x, W, b, relu)
            assert out._op == "run" and out._parents == (x, W, b)
        c = Value(rng.normal(size=(3, 3)))
        assert _diagonal(c, np.eye(3))._parents == (c,)
        assert l2_normalize_rows(x)._parents == (x,)
        # A run over the trunk and a batchnorm head is one node.
        cfg = EncoderConfig(input_dim=3, hidden_dims=(4,), embed_dim=2, proj_layers=2,
                            proj_batchnorm=True)
        state = init_state(cfg, seed=0)
        out = forward(state, cfg, x)
        assert out._op == "run" and out._parents[0] is x
        assert set(out._parents[1:]) == set(state.params.values())
        assert len(out._parents) == 1 + len(state.params)

    @pytest.mark.parametrize(
        "row, scale, message",
        [(3, 0.0, "row 3 has norm 0.000e+00, cannot normalize"),
         (1, 1e-13, "row 1 has norm 1.000e-13, cannot normalize")],
    )
    def test_degenerate_row_raises(self, row, scale, message):
        x = np.ones((5, 4))
        x[row] = 0.0
        x[row, 0] = scale
        with pytest.raises(DegenerateInputError) as err:
            l2_normalize_rows(Value(x))
        assert str(err.value) == message

    def test_batch_of_one_raises(self):
        for x in (np.ones((1, 3)), np.ones((2, 1, 3))):
            with pytest.raises(ValueError, match="batch of at least 2"):
                _batchnorm_train(x, np.ones((1, 3)), np.zeros((1, 3)))


class TestStackedRun:
    """An encoder run over a stack of views, (S, N, D), or over one batch,
    gives the bits of the same layers run view by view as primitive chains:
    outputs, every parameter's and the input's gradient, the running
    statistics and the hinge inputs."""

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2, 3]),
           st.lists(st.integers(1, 70), max_size=2), st.integers(1, 3), st.booleans(),
           st.sampled_from(["network", "per_view", "predictor"]), st.booleans(),
           st.booleans())
    def test_stacked_run_gives_the_per_view_chains_bits(
        self, seed, n_views, hidden, proj_layers, bn, kind, live, homes
    ):
        rng = np.random.default_rng(seed)
        d, e = int(rng.integers(1, 71)), int(rng.integers(1, 71))
        cfg = EncoderConfig(input_dim=d, hidden_dims=tuple(hidden), embed_dim=e,
                            proj_layers=proj_layers, proj_batchnorm=bn,
                            predictor=kind == "predictor")
        n = int(rng.integers(2, 13))
        width = e if kind == "predictor" else d
        # Rows repeat, so batchnorm sees columns of zero variance too.
        distinct = rng.normal(size=(int(rng.integers(1, n + 1)), width))
        rows = distinct[rng.integers(0, len(distinct), size=(max(n_views, 1), n))]
        x = rows if n_views else rows[0]
        per_view = kind == "per_view" and n_views > 0
        fused, chain = stacked_and_chains(cfg, kind == "predictor", x, rng, live, per_view,
                                          homes)
        assert_same_bytes(fused, chain)

    def test_a_per_view_run_ends_in_one_output_node_per_view(self):
        cfg = EncoderConfig(input_dim=3, hidden_dims=(4,), embed_dim=2)
        state = init_state(cfg, seed=0)
        outs = forward(state, cfg, np.ones((3, 5, 3)), per_view=True)
        assert [(v._op, v.shape) for v in outs] == [("run", (5, 2))] * 3
        assert {v._parents[0]._op for v in outs} == {"view"}
        # Off the tape the views' outputs are constants with the same bits,
        # and ``data`` stacks them as a stacked forward's output holds them.
        evals = forward(state, cfg, np.ones((3, 5, 3)), training=False, per_view=True)
        assert all(e._const for e in evals)
        stacked = forward(state, cfg, np.ones((3, 5, 3)), training=False)
        assert evals.data.tobytes() == stacked.data.tobytes() == outs.data.tobytes()
        # Two views' gradients are a stacked run's (with two views the
        # order they add in cannot matter).
        rng = np.random.default_rng(0)
        x, upstream = rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 5, 2))
        grads = []
        for per_view in (True, False):
            state = init_state(cfg, seed=0)
            out = forward(state, cfg, x, per_view=per_view)
            loss = (loss_of(out, upstream, range(2), [False] * 2) if per_view
                    else (out * as_value(upstream)).sum())
            loss.backward()
            grads.append([v.grad.tobytes() for v in state.params.values()])
        assert grads[0] == grads[1]
        with pytest.raises(ValueError, match="per-view forward takes a stack of views"):
            forward(state, cfg, np.ones((5, 3)), per_view=True)
        # A net with no layer passes each view through.
        cfg = EncoderConfig(input_dim=3, hidden_dims=(), embed_dim=3, identity_projection=True)
        x = Value(rng.normal(size=(2, 5, 3)))
        outs = forward(init_state(cfg, seed=0), cfg, x, per_view=True)
        assert [o.data.tobytes() for o in outs] == [v.tobytes() for v in x.data]

"""Fused tape nodes give the bits of the primitive chains they replace.

The oracles below are those chains, composed from autodiff primitives.
Each property draws a batch, possibly with repeated rows, and a random
upstream gradient, and compares the forward value and every input's
gradient by their bytes.  The affine+ReLU node is also run with some
inputs as constants, and with none live, which is the path an eval-mode
forward takes.  The input ``x`` also feeds a second term of the
loss, so its gradient is already populated when the fused node adds to
it, as in a training step where a tensor has several consumers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vgssl.autodiff import Value, as_value
from vgssl.encoder import BN_EPS, _affine, _batchnorm_train
from vgssl.losses import DegenerateInputError, _diagonal, l2_normalize_rows


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
        assert_same_bytes(run(_affine, [h, W, b], seed), run(affine_chain, [h, W, b], seed))

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
        fused = run(lambda *a: _affine(*a, relu=True), arrays, seed, live)
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
    @given(batches())
    def test_training_batchnorm(self, batch):
        rng, x = batch
        gamma = rng.normal(size=(1, x.shape[1]))
        beta = rng.normal(size=(1, x.shape[1]))
        seed = int(rng.integers(2**32))
        assert_same_bytes(
            run(_batchnorm_train, [x, gamma, beta], seed),
            run(batchnorm_chain, [x, gamma, beta], seed),
        )

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
        assert _affine(x, W, b)._parents == (x, W, b)
        assert _affine(x, W, b, relu=True)._parents == (x, W, b)
        c = Value(rng.normal(size=(3, 3)))
        assert _diagonal(c, np.eye(3))._parents == (c,)
        assert _batchnorm_train(x, gamma, beta)[0]._parents == (x, gamma, beta)
        assert l2_normalize_rows(x)._parents == (x,)

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
        x = Value(np.ones((1, 3)))
        with pytest.raises(ValueError, match="batch of at least 2"):
            _batchnorm_train(x, Value(np.ones((1, 3))), Value(np.zeros((1, 3))))

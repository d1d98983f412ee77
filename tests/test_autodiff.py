"""Tape correctness for the reverse-mode engine."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vgssl.autodiff import Value, as_value, zero_grads
from vgssl.encoder import init_state
from vgssl.losses import Method
from vgssl.methods import method_batch_loss, method_config


def fd_grad(fn, arrays, h=1e-5):
    """Central finite differences of scalar fn w.r.t. each array."""
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = fn(arrays)
            flat[i] = orig - h
            lo = fn(arrays)
            flat[i] = orig
            gf[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def assert_close_to_fd(build, arrays, h=1e-5, tol=1e-4):
    vals = [Value(a.copy()) for a in arrays]
    loss = build(vals)
    loss.backward()

    def scalar(arrs):
        return build([Value(a) for a in arrs]).item()

    fd = fd_grad(scalar, [a.copy() for a in arrays], h=h)
    for v, g in zip(vals, fd):
        denom = max(np.max(np.abs(g)), 1e-12)
        rel = np.max(np.abs(v.grad - g)) / denom
        assert rel < tol, f"rel err {rel:.3e} exceeds {tol}"


class TestElementwise:
    def test_add_mul_chain_fd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(4, 3))
            assert_close_to_fd(lambda vs: ((vs[0] * vs[1] + vs[0]) * vs[1]).sum(), [a, b])

    def test_div_neg_fd(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(3, 5))
            b = rng.normal(size=(3, 5)) + 3.0  # keep away from zero
            assert_close_to_fd(lambda vs: (-(vs[0] / vs[1])).sum(), [a, b])

    def test_exp_log_sqrt_fd(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.uniform(0.5, 2.0, size=(6,))
            assert_close_to_fd(lambda vs: (vs[0].exp().log() * vs[0].sqrt()).sum(), [a])

    def test_scalar_broadcasting_fd(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(1, 3))
        assert_close_to_fd(lambda vs: ((vs[0] + vs[1]) * (vs[0] - 2.0)).sum(), [a, b])

    def test_python_scalar_ops(self):
        x = Value(np.array([2.0]))
        y = 3.0 * x + 1.0 - x / 2.0
        y.sum().backward()
        assert y.data[0] == pytest.approx(6.0)
        assert x.grad[0] == pytest.approx(2.5)


class TestLinearAlgebra:
    def test_matmul_fd(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(3, 5))
            assert_close_to_fd(lambda vs: (vs[0] @ vs[1]).sum(), [a, b])

    def test_matmul_transpose_fd(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 3))
        assert_close_to_fd(lambda vs: (vs[0].T @ vs[0]).sum(), [a])

    def test_matmul_shape_mismatch(self):
        a = Value(np.zeros((2, 3)))
        b = Value(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            _ = a @ b

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            _ = Value(np.zeros(3)) @ Value(np.zeros((3, 2)))


class TestReductionsAndShape:
    def test_sum_gradient_is_ones(self):
        x = Value(np.arange(6.0).reshape(2, 3))
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_axis_keepdims_fd(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 3))
        assert_close_to_fd(
            lambda vs: (vs[0].sum(axis=1, keepdims=True) * vs[0]).sum(), [a]
        )
        assert_close_to_fd(lambda vs: (vs[0].sum(axis=0) * 2.0).sum(), [a])

    def test_mean_fd(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 4))
        assert_close_to_fd(lambda vs: (vs[0].mean(axis=0) * vs[0].mean()).sum(), [a])

    def test_slice_fd(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 4, 2))
        assert_close_to_fd(lambda vs: (vs[0][:2] * vs[0][1:]).sum() + vs[0][2, 1:].sum(), [a])

    def test_slice_gradient_is_the_upstream_in_place(self):
        x = Value(np.arange(12.0).reshape(3, 4))
        g = np.random.default_rng(9).normal(size=(2, 4))
        (x[:2] * as_value(g)).sum().backward()
        assert x.grad[:2].tobytes() == g.tobytes() and not x.grad[2].any()
        assert as_value(x.data)[1:]._const


class TestHinge:
    def test_maximum_active_and_clamped(self):
        x = Value(np.array([-1.0, 0.5, 2.0]))
        y = x.maximum(1.0).sum()
        y.backward()
        np.testing.assert_array_equal(x.grad, [0, 0, 1])

    def test_subgradient_zero_at_kink(self):
        x = Value(np.array([1.0]))
        x.maximum(1.0).sum().backward()
        assert x.grad[0] == 0.0

    def test_relu_fd_away_from_kink(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(6,))
            a[np.abs(a) < 1e-2] = 0.1  # keep clear of the kink for FD
            assert_close_to_fd(lambda vs: (vs[0].relu() * vs[0]).sum(), [a])


class TestStopGradient:
    def test_identity_forward(self):
        x = Value(np.array([1.0, 2.0]))
        y = x.detach()
        np.testing.assert_array_equal(y.data, x.data)
        assert y.is_leaf

    def test_blocks_gradient(self):
        # d/dx [x * sg(x)] = sg(x), i.e. the detached branch is a constant.
        x = Value(np.array([3.0, -2.0]))
        (x * x.detach()).sum().backward()
        np.testing.assert_array_equal(x.grad, x.data)

    def test_detached_branch_gets_no_grad(self):
        x = Value(np.array([1.0]))
        d = x.detach()
        (x * d).sum().backward()
        assert x.grad is not None
        assert d.grad is not None  # d participates as a leaf constant
        assert x.grad[0] == pytest.approx(1.0)


class TestBackwardContract:
    def test_nonscalar_loss_rejected(self):
        x = Value(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_repeated_backward_rejected(self):
        x = Value(np.array([1.0]))
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError):
            loss.backward()

    def test_second_tape_blocked_until_grads_cleared(self):
        x = Value(np.array([2.0]))
        (x * 3.0).sum().backward()
        with pytest.raises(RuntimeError):
            (x * 5.0).sum().backward()
        zero_grads([x])
        (x * 5.0).sum().backward()
        assert x.grad[0] == pytest.approx(5.0)

    def test_leaf_map_returned(self):
        x = Value(np.array([1.0, 2.0]))
        y = Value(np.array([3.0, 4.0]))
        leaves = ((x * y).sum()).backward()
        assert x in leaves and y in leaves
        np.testing.assert_array_equal(leaves[x], y.data)

    def test_diamond_graph_accumulates(self):
        # f = (x + x) * x touches x along three paths; grad = 4x.
        x = Value(np.array([3.0]))
        ((x + x) * x).sum().backward()
        assert x.grad[0] == pytest.approx(12.0)

    def test_shared_subexpression(self):
        x = Value(np.array([2.0]))
        s = x * x
        (s + s).sum().backward()
        assert x.grad[0] == pytest.approx(8.0)

    def test_deterministic_gradients(self):
        def run():
            rng = np.random.default_rng(42)
            a = Value(rng.normal(size=(5, 4)))
            b = Value(rng.normal(size=(4, 3)))
            loss = ((a @ b).relu().mean() * (a * a).sum()).sum()
            loss.backward()
            return a.grad.copy(), b.grad.copy()

        g1 = run()
        g2 = run()
        np.testing.assert_array_equal(g1[0], g2[0])
        np.testing.assert_array_equal(g1[1], g2[1])


def reference_topo(root):
    """The ``(node, flag)`` stack walk that ``_topo`` replaced: a node is
    pushed once unexpanded and, when popped, again as expanded above its
    parents, which are pushed in reverse so they pop in recorded order."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in reversed(node._parents):
            if id(p) not in seen:
                stack.append((p, False))
    return order


@st.composite
def tapes(draw):
    """A random tape's output: each node lists up to four earlier nodes or
    constants as parents, so parents are shared and may repeat."""
    nodes = [as_value(0.0) for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(1, 30))):
        picks = draw(st.lists(st.integers(0, len(nodes) - 1), max_size=4)) if nodes else []
        nodes.append(Value(0.0, tuple(nodes[i] for i in picks)))
    return nodes[-1]


class TestTopologicalOrder:
    @settings(max_examples=300, deadline=None)
    @given(tapes())
    def test_order_matches_the_reference_walk(self, root):
        assert root._topo() == reference_topo(root)

    def test_a_parent_listed_twice_is_visited_once(self):
        x = Value(np.array([2.0]))
        y = x * x
        assert y._parents == (x, x)
        assert y._topo() == [x, y]

    def test_training_tapes_match_the_reference_walk(self):
        rng = np.random.default_rng(0)
        a, p, n = (rng.normal(size=(6, 8)) for _ in range(3))
        for method in Method:
            mcfg = method_config(method, input_dim=8, hidden_dims=(10,), embed_dim=5,
                                 proj_layers=2)
            views = np.stack([a, p, n] if method is Method.TRIPLET else [a, p])
            out, _ = method_batch_loss(init_state(mcfg.encoder, seed=0), mcfg, views)
            assert out.node._topo() == reference_topo(out.node), method

    def test_a_deep_chain_needs_no_recursion(self):
        x = Value(np.array([1.0]))
        y = x
        for _ in range(5000):  # past the interpreter's recursion limit
            y = y * 1.0
        assert len(y._topo()) == 5001


def every_op(x, w):
    """One result per op kind, each built from the previous results."""
    h = ((x @ w) + 1.0 - x.T.T * 0.5) / 2.0
    c = h.exp().log().sqrt() * -h.maximum(1.0)
    return [h, c, c.sum(axis=1).mean()]


class TestTapeLifetime:
    def test_tape_freed_without_cyclic_gc(self):
        # Every op's closure, in one graph; with the collector off, only
        # reference counting can free the intermediates once the loss goes.
        rng = np.random.default_rng(7)
        x = Value(rng.uniform(0.5, 1.5, size=(3, 4)))
        w = Value(rng.uniform(0.5, 1.5, size=(4, 4)))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            loss = every_op(x, w)[-1]
            loss.backward()
            tape = [v for v in loss._topo() if not v.is_leaf]
            assert {v._op for v in tape} == {
                "add", "sub", "mul", "div", "neg", "matmul", "transpose", "exp",
                "log", "sqrt", "maximum", "sum",
            }
            refs = [weakref.ref(v.data) for v in tape]
            del tape
            del loss
            assert [r() is None for r in refs] == [True] * len(refs)
        finally:
            if was_enabled:
                gc.enable()
        assert x.grad is not None and w.grad is not None


class TestNoTape:
    def test_every_op_gives_a_leaf_with_the_recorded_bits(self):
        # The same ops on constants build no tape and compute the same bits.
        rng = np.random.default_rng(7)
        x = Value(rng.uniform(0.5, 1.5, size=(3, 4)))
        w = Value(rng.uniform(0.5, 1.5, size=(4, 4)))
        recorded = every_op(x, w)
        bare = every_op(as_value(x.data), as_value(w.data))
        assert all(not r.is_leaf for r in recorded)
        for r, b in zip(recorded, bare):
            assert b.is_leaf and b._parents == () and b._backward is None
            assert np.array_equal(r.data, b.data)

    def test_hinge_mask_read_at_backward(self):
        # Subgradient 0 at the kink, for either sign of the adjoint.
        x = Value(np.array([-1.0, 0.0, 2.0, 3.0]))
        (x.maximum(0.0) * np.array([1.0, 1.0, -2.0, 5.0])).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, -2.0, 5.0])


class TestConstants:
    @pytest.mark.parametrize("operand", [2.5, np.array([1.0, -2.0, 4.0])],
                             ids=["scalar", "array"])
    @pytest.mark.parametrize("op", [
        lambda x, c: x + c, lambda x, c: c + x, lambda x, c: x - c,
        lambda x, c: c - x, lambda x, c: x * c, lambda x, c: c * x,
        lambda x, c: x / c, lambda x, c: c / x,
    ], ids=["x+c", "c+x", "x-c", "c-x", "x*c", "c*x", "x/c", "c/x"])
    def test_wrapped_operand_records_one_node(self, op, operand):
        x = Value(np.array([0.5, 1.5, -3.0]))
        c = as_value(operand)
        y = op(x, c)
        assert y._parents == (x,) and y._backward is not None
        loss = y.sum()
        assert len(loss._topo()) == 3  # x, y and the sum
        loss.backward()
        assert x.grad is not None
        assert c.grad is None and c.is_leaf

    @pytest.mark.parametrize("operand", [2.5, np.array([1.0, -2.0, 4.0])],
                             ids=["scalar", "array"])
    def test_raw_operand_is_wrapped_as_a_constant(self, operand):
        x = Value(np.array([0.5, 1.5, -3.0]))
        for y in (x + operand, x - operand, x * operand, x / operand):
            assert y._parents == (x,)

    def test_constant_results_stay_off_the_tape(self):
        x = Value(np.array([1.0, 2.0]))
        c = as_value(np.array([3.0, 4.0]))
        k = (c * 2.0).exp()  # parents all constants
        assert k.is_leaf and k._backward is None
        bare = as_value(x.data) * as_value(x.data)
        assert bare.is_leaf and bare._backward is None
        loss = (x * k + x * bare).sum()
        assert len(loss._topo()) == 5  # x, two products, their sum, the sum
        loss.backward()
        assert k.grad is None and bare.grad is None and c.grad is None
        np.testing.assert_array_equal(x.grad, k.data + bare.data)

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b,
    ], ids=["+", "-", "*", "/"])
    @pytest.mark.parametrize("left", [np.array([3.0, -4.0]), np.float64(2.5)],
                             ids=["ndarray", "numpy_scalar"])
    def test_numpy_operand_on_the_left_defers_to_value(self, op, left):
        # numpy defers to the reflected operator instead of broadcasting
        # it over the Value element by element into an object array.
        v = Value(np.array([1.0, 2.0]))
        w = Value(np.array([1.0, 2.0]))
        y = op(left, v)
        ref = op(as_value(left), w)
        assert type(y) is Value and y._op == ref._op and y._parents == (v,)
        np.testing.assert_array_equal(y.data, ref.data)
        y.sum().backward()
        ref.sum().backward()
        np.testing.assert_array_equal(v.grad, w.grad)

    def test_ndarray_matmul_value_records_one_node(self):
        a = np.array([[1.0, 2.0], [3.0, -1.0]])
        v = Value(np.array([[0.5], [2.0]]))
        y = a @ v
        assert type(y) is Value and y._op == "matmul" and y._parents == (v,)
        np.testing.assert_array_equal(y.data, a @ v.data)
        y.sum().backward()
        np.testing.assert_array_equal(v.grad, a.T @ np.ones((2, 1)))

    def test_user_leaves_and_detached_values_take_gradients(self):
        x = Value(np.array([1.0, -2.0]))
        w = Value(np.array([0.5, 0.25]))
        d = x.detach()
        (x * w * d + 1.0).sum().backward()
        np.testing.assert_array_equal(w.grad, x.data * d.data)
        np.testing.assert_array_equal(d.grad, x.data * w.data)
        assert x.grad is not None

    def test_backward_on_a_constant_raises(self):
        with pytest.raises(RuntimeError, match="constant"):
            (as_value(np.array([2.0])) * 3.0).sum().backward()


class TestRandomizedComposites:
    def test_property_fd_agreement(self):
        """Random small expression trees agree with central differences."""
        rng = np.random.default_rng(123)
        for trial in range(20):
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 10))
            a = rng.normal(size=(n, d))
            w = rng.normal(size=(d, d)) * 0.5

            def build(vs):
                h = (vs[0] @ vs[1]).relu()
                z = h * h + vs[0] * 0.3
                q = (z.sum(axis=1, keepdims=True) + 1.5).sqrt()
                return ((z / q).exp() * 0.01).sum()

            assert_close_to_fd(build, [a, w])

    def test_as_value_passthrough(self):
        v = Value(np.array([1.0]))
        assert as_value(v) is v
        w = as_value(2.0)
        assert isinstance(w, Value) and w.item() == 2.0

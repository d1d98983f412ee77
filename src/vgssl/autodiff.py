"""Minimal reverse-mode differentiation over dense float64 arrays.

A ``Value`` wraps a numpy array and records, for every operation that
produced it, a closure that routes the output adjoint to its parents.
``backward`` on a scalar-shaped Value walks the tape in reverse
topological order exactly once and populates ``grad`` on every reachable
node.  Everything is double precision; there are no views that alias
storage, so gradient accumulation is plain ``+=`` on dense buffers.

A closure takes the output gradient as its argument and never refers to
its own output node, only to the parents and plain arrays.  References
therefore run from outputs to inputs alone, the tape holds no cycle, and
a graph is freed by reference counting the moment its output is dropped,
without waiting for the cyclic garbage collector.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Value",
    "as_value",
    "stop_gradient",
    "concat",
    "backward",
    "zero_grads",
]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes, then sum axes that were size 1.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad.reshape(shape)


class Value:
    """Dense real tensor participating in reverse-mode differentiation."""

    __slots__ = ("data", "grad", "_parents", "_backward", "_op", "_aux", "_backward_ran")

    def __init__(self, data, parents: tuple["Value", ...] = (), op: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = op
        self._aux = None  # op metadata, e.g. the hinge threshold
        self._backward_ran = False

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def is_leaf(self) -> bool:
        return not self._parents

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar value of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Value(shape={self.shape}, op={self._op or 'leaf'!r})"

    # -- graph construction helpers ------------------------------------

    def detach(self) -> "Value":
        """Forward identity with no tape connection (stop-gradient)."""
        return Value(self.data.copy())

    # -- elementwise arithmetic (numpy broadcasting rules) --------------

    def __add__(self, other) -> "Value":
        other = as_value(other)
        out = Value(self.data + other.data, (self, other), "add")

        def bwd(g):
            self._accum(_unbroadcast(g, self.shape))
            other._accum(_unbroadcast(g, other.shape))

        out._backward = bwd
        return out

    def __sub__(self, other) -> "Value":
        other = as_value(other)
        out = Value(self.data - other.data, (self, other), "sub")

        def bwd(g):
            self._accum(_unbroadcast(g, self.shape))
            other._accum(_unbroadcast(-g, other.shape))

        out._backward = bwd
        return out

    def __mul__(self, other) -> "Value":
        other = as_value(other)
        out = Value(self.data * other.data, (self, other), "mul")

        def bwd(g):
            self._accum(_unbroadcast(g * other.data, self.shape))
            other._accum(_unbroadcast(g * self.data, other.shape))

        out._backward = bwd
        return out

    def __truediv__(self, other) -> "Value":
        other = as_value(other)
        out = Value(self.data / other.data, (self, other), "div")

        def bwd(g):
            self._accum(_unbroadcast(g / other.data, self.shape))
            other._accum(
                _unbroadcast(-g * self.data / (other.data * other.data), other.shape)
            )

        out._backward = bwd
        return out

    def __neg__(self) -> "Value":
        out = Value(-self.data, (self,), "neg")

        def bwd(g):
            self._accum(-g)

        out._backward = bwd
        return out

    def __radd__(self, other) -> "Value":
        return as_value(other) + self

    def __rsub__(self, other) -> "Value":
        return as_value(other) - self

    def __rmul__(self, other) -> "Value":
        return as_value(other) * self

    def __rtruediv__(self, other) -> "Value":
        return as_value(other) / self

    # -- linear algebra --------------------------------------------------

    def __matmul__(self, other) -> "Value":
        other = as_value(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError(
                f"matmul expects 2-d operands, got {self.shape} @ {other.shape}"
            )
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"matmul shape mismatch: {self.shape} @ {other.shape}")
        out = Value(self.data @ other.data, (self, other), "matmul")

        def bwd(g):
            self._accum(g @ other.data.T)
            other._accum(self.data.T @ g)

        out._backward = bwd
        return out

    @property
    def T(self) -> "Value":
        if self.data.ndim != 2:
            raise ValueError(f"transpose expects a 2-d value, got shape {self.shape}")
        out = Value(self.data.T.copy(), (self,), "transpose")

        def bwd(g):
            self._accum(g.T)

        out._backward = bwd
        return out

    # -- nonlinearities --------------------------------------------------

    def exp(self) -> "Value":
        y = np.exp(self.data)
        out = Value(y, (self,), "exp")

        def bwd(g):
            self._accum(g * y)

        out._backward = bwd
        return out

    def log(self) -> "Value":
        out = Value(np.log(self.data), (self,), "log")

        def bwd(g):
            self._accum(g / self.data)

        out._backward = bwd
        return out

    def sqrt(self) -> "Value":
        y = np.sqrt(self.data)
        out = Value(y, (self,), "sqrt")

        def bwd(g):
            self._accum(g / (2.0 * y))

        out._backward = bwd
        return out

    def maximum(self, threshold: float) -> "Value":
        """Elementwise hinge max(x, threshold); subgradient 0 at the kink."""
        out = Value(np.maximum(self.data, threshold), (self,), "maximum")
        out._aux = float(threshold)
        mask = (self.data > threshold).astype(np.float64)

        def bwd(g):
            self._accum(g * mask)

        out._backward = bwd
        return out

    def relu(self) -> "Value":
        return self.maximum(0.0)

    # -- reductions --------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Value":
        out = Value(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        shape = self.shape

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, shape).copy())

        out._backward = bwd
        return out

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Value":
        n = self.data.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape manipulation -------------------------------------------------

    def reshape(self, *shape: int) -> "Value":
        old = self.shape
        out = Value(self.data.reshape(shape), (self,), "reshape")

        def bwd(g):
            self._accum(g.reshape(old))

        out._backward = bwd
        return out

    def broadcast_to(self, shape: Sequence[int]) -> "Value":
        shape = tuple(shape)
        out = Value(np.broadcast_to(self.data, shape).copy(), (self,), "broadcast")
        old = self.shape

        def bwd(g):
            self._accum(_unbroadcast(g, old))

        out._backward = bwd
        return out

    def __getitem__(self, idx) -> "Value":
        out = Value(self.data[idx].copy(), (self,), "slice")
        shape = self.shape

        def bwd(g):
            full = np.zeros(shape, dtype=np.float64)
            np.add.at(full, idx, g)
            self._accum(full)

        out._backward = bwd
        return out

    # -- backward pass --------------------------------------------------------

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def _topo(self) -> list["Value"]:
        order: list[Value] = []
        seen: set[int] = set()
        stack: list[tuple[Value, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            # Reversed so parents are visited in recorded order.
            for p in reversed(node._parents):
                if id(p) not in seen:
                    stack.append((p, False))
        return order

    def backward(self) -> dict["Value", np.ndarray]:
        """Populate ``grad`` on every reachable node; return the leaf map.

        Raises if the value is not scalar-shaped, or if any reachable node
        already carries a gradient (call ``zero_grads`` between passes).
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        order = self._topo()
        if self._backward_ran or any(v.grad is not None for v in order):
            raise RuntimeError(
                "gradients already populated on this tape; reset with zero_grads "
                "before calling backward again"
            )
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
        self._backward_ran = True
        return {v: v.grad for v in order if v.is_leaf and v.grad is not None}


def as_value(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


def stop_gradient(x: Value) -> Value:
    """Forward identity; contributes zero gradient to its inputs."""
    return as_value(x).detach()


def concat(values: Sequence[Value], axis: int = 0) -> Value:
    vals = [as_value(v) for v in values]
    out = Value(np.concatenate([v.data for v in vals], axis=axis), tuple(vals), "concat")
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)
    ndim = out.data.ndim

    def bwd(g):
        for v, a, b in zip(vals, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * ndim
            idx[axis] = slice(a, b)
            v._accum(g[tuple(idx)])

    out._backward = bwd
    return out


def backward(loss: Value) -> dict[Value, np.ndarray]:
    """Module-level spelling of ``loss.backward()``."""
    return loss.backward()


def zero_grads(values: Iterable[Value]) -> None:
    """Clear gradient slots so a new backward pass may run."""
    for v in values:
        v.grad = None
        v._backward_ran = False

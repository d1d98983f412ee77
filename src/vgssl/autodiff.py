"""Minimal reverse-mode differentiation over dense float64 arrays.

A ``Value`` wraps a numpy array and records, for every operation that
produced it, a closure that routes the output adjoint to its parents.
``backward`` on a scalar-shaped Value walks the tape in reverse
topological order exactly once and populates ``grad`` on every reachable
node.  Everything is double precision; there are no views that alias
storage, so gradient accumulation is plain ``+=`` on dense buffers.  A
contribution may have any shape that broadcasts to its value's (a row of
column sums, say): numpy broadcasts it as it is copied or added, with the
bits an explicitly broadcast copy would give.

A closure takes the output gradient as its argument and never refers to
its own output node, only to the parents and plain arrays.  References
therefore run from outputs to inputs alone, the tape holds no cycle, and
a graph is freed by reference counting the moment its output is dropped,
without waiting for the cyclic garbage collector.

Constants stay off the tape.  A constant is a scalar or array that an op
wraps (``x * 0.5``, ``x - shift``), or any result whose parents are all
constants.  Every op builds its result through ``_node``, the one place
that attaches parents and a backward closure: it drops constant parents
and returns a constant when none is left, and closures skip them, so a
constant has no parents, no backward closure and never a ``grad``; a
backward pass computes nothing for it, and each intermediate of a chain
of constants is freed as soon as the next op has consumed it.  A forward
that must record no tape wraps the arrays it reads with ``as_value`` and
runs the same ops, which compute the same bits.  A leaf the
caller makes with ``Value(...)``, ``detach()`` output included, is not a
constant and receives its gradient.  ``backward`` on a constant raises.

A fused op (one node standing for a chain of primitives, such as the
encoder's affine layer) must reproduce its chain's arithmetic: the same
numpy operations in the same order, including the order in which
contributions accumulate into each input's ``grad``, so that the fused
tape gives the chain's bits.  Its closure takes the chain's place in the
reverse topological order, which keeps the order across nodes.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Value",
    "as_value",
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

    __slots__ = (
        "data", "grad", "_parents", "_backward", "_op", "_aux", "_const", "_grad_home",
    )

    # An ndarray on the left of an operator defers to the reflected method
    # below instead of broadcasting it over the Value element by element.
    __array_ufunc__ = None

    def __init__(self, data, parents: tuple["Value", ...] = (), op: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = op
        self._aux = None  # op metadata: a hinge's threshold, a fused ReLU's input
        self._const = False  # off the tape; see the module docstring
        # An array of this shape that the first gradient contribution is
        # written into, instead of a fresh array: a view into an optimizer's
        # flat gradient buffer.
        self._grad_home: np.ndarray | None = None

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

        def bwd(g):
            if not self._const:
                self._accum(_unbroadcast(g, self.shape))
            if not other._const:
                other._accum(_unbroadcast(g, other.shape))

        return _node(self.data + other.data, (self, other), "add", bwd)

    def __sub__(self, other) -> "Value":
        other = as_value(other)

        def bwd(g):
            if not self._const:
                self._accum(_unbroadcast(g, self.shape))
            if not other._const:
                other._accum(_unbroadcast(-g, other.shape))

        return _node(self.data - other.data, (self, other), "sub", bwd)

    def __mul__(self, other) -> "Value":
        other = as_value(other)

        def bwd(g):
            if not self._const:
                self._accum(_unbroadcast(g * other.data, self.shape))
            if not other._const:
                other._accum(_unbroadcast(g * self.data, other.shape))

        return _node(self.data * other.data, (self, other), "mul", bwd)

    def __truediv__(self, other) -> "Value":
        other = as_value(other)

        def bwd(g):
            if not self._const:
                self._accum(_unbroadcast(g / other.data, self.shape))
            if not other._const:
                other._accum(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.shape)
                )

        return _node(self.data / other.data, (self, other), "div", bwd)

    def __neg__(self) -> "Value":
        def bwd(g):
            self._accum(-g)

        return _node(-self.data, (self,), "neg", bwd)

    def __radd__(self, other) -> "Value":
        return as_value(other) + self

    def __rsub__(self, other) -> "Value":
        return as_value(other) - self

    def __rmul__(self, other) -> "Value":
        return as_value(other) * self

    def __rtruediv__(self, other) -> "Value":
        return as_value(other) / self

    def __rmatmul__(self, other) -> "Value":
        return as_value(other) @ self

    # -- linear algebra --------------------------------------------------

    def __matmul__(self, other) -> "Value":
        other = as_value(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError(
                f"matmul expects 2-d operands, got {self.shape} @ {other.shape}"
            )
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"matmul shape mismatch: {self.shape} @ {other.shape}")

        def bwd(g):
            if not self._const:
                self._accum(g @ other.data.T)
            if not other._const:
                other._accum(self.data.T @ g)

        return _node(self.data @ other.data, (self, other), "matmul", bwd)

    @property
    def T(self) -> "Value":
        if self.data.ndim != 2:
            raise ValueError(f"transpose expects a 2-d value, got shape {self.shape}")

        def bwd(g):
            self._accum(g.T)

        return _node(self.data.T.copy(), (self,), "transpose", bwd)

    # -- nonlinearities --------------------------------------------------

    def exp(self) -> "Value":
        y = np.exp(self.data)

        def bwd(g):
            self._accum(g * y)

        return _node(y, (self,), "exp", bwd)

    def log(self) -> "Value":
        def bwd(g):
            self._accum(g / self.data)

        return _node(np.log(self.data), (self,), "log", bwd)

    def sqrt(self) -> "Value":
        y = np.sqrt(self.data)

        def bwd(g):
            self._accum(g / (2.0 * y))

        return _node(y, (self,), "sqrt", bwd)

    def maximum(self, threshold: float) -> "Value":
        """Elementwise hinge max(x, threshold); subgradient 0 at the kink."""

        def bwd(g):
            self._accum(g * (self.data > threshold))

        out = _node(np.maximum(self.data, threshold), (self,), "maximum", bwd)
        out._aux = float(threshold)
        return out

    def relu(self) -> "Value":
        return self.maximum(0.0)

    # -- reductions --------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Value":
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(g)

        return _node(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum", bwd)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Value":
        n = self.data.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- backward pass --------------------------------------------------------

    def _accum(self, g: np.ndarray) -> None:
        """Add ``g``, broadcast to this value's shape, into ``grad``.

        The first contribution is copied into ``_grad_home`` if there is
        one, else into a fresh array; later ones are added in place.  A
        full-shape copy keeps ``g``'s memory layout (a transpose's gradient
        stays Fortran-ordered), which the matrix products downstream read.
        """
        if self.grad is None:
            grad = self._grad_home
            if grad is None:
                if g.shape == self.data.shape:
                    self.grad = np.array(g, dtype=np.float64)
                    return
                grad = np.empty(self.data.shape)
            grad[...] = g
            self.grad = grad
        else:
            self.grad += g

    def _first_grad_home(self) -> np.ndarray | None:
        """``_grad_home`` while no gradient has arrived, else None: where a
        closure may write its first contribution itself, with ``out=``."""
        return self._grad_home if self.grad is None else None

    def _topo(self) -> list["Value"]:
        """Every node this one depends on, itself last: the depth-first
        post-order, with each node's parents visited in recorded order."""
        order: list[Value] = []
        seen = {self}
        path = [self]  # the nodes being expanded, each below its consumer
        parents = [iter(self._parents)]  # each one's parents still to visit
        while parents:
            for p in parents[-1]:
                if p not in seen:
                    seen.add(p)
                    if p._parents:
                        path.append(p)
                        parents.append(iter(p._parents))
                        break
                    order.append(p)
            else:
                parents.pop()
                order.append(path.pop())
        return order

    def backward(self) -> dict["Value", np.ndarray]:
        """Populate ``grad`` on every reachable node; return the leaf map.

        Raises if the value is not scalar-shaped, is a constant, or if any
        reachable node already carries a gradient (call ``zero_grads``
        between passes).
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._const:
            raise RuntimeError("backward on a constant: no leaf of it takes a gradient")
        order = self._topo()
        if any(v.grad is not None for v in order):
            raise RuntimeError(
                "gradients already populated on this tape; reset with zero_grads "
                "before calling backward again"
            )
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
        return {v: v.grad for v in order if v.is_leaf and v.grad is not None}


def _constant(data) -> Value:
    """A leaf that never takes a gradient; see the module docstring."""
    out = Value(data)
    out._const = True
    return out


def _node(
    data: np.ndarray,
    parents: tuple[Value, ...],
    op: str,
    bwd: Callable[[np.ndarray], None],
) -> Value:
    """An op's result: on the tape with its non-constant parents, or a
    constant when every parent is a constant.

    ``bwd`` must skip the constant parents; it runs only if one is not.
    """
    live = tuple([p for p in parents if not p._const])
    if not live:
        return _constant(data)
    out = Value(data, live, op)
    out._backward = bwd
    return out


def as_value(x) -> Value:
    """``x`` itself if it is a Value, else ``x`` wrapped as a constant."""
    return x if isinstance(x, Value) else _constant(x)


def zero_grads(values: Iterable[Value]) -> None:
    """Clear gradient slots so a new backward pass may run."""
    for v in values:
        v.grad = None

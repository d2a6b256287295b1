"""Reverse-mode automatic differentiation on dense numpy arrays.

Every operation builds a node recording its parents and a closure mapping the
output gradient to parent gradients (broadcast-aware). Calling ``backward()``
on a scalar walks the tape in reverse topological order. Double precision
throughout; constants do not extend the tape.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

DEBUG_CHECK = False  # when True, layer boundaries reject non-finite values


class AutodiffUsageError(RuntimeError):
    """Backward called on a non-scalar or otherwise misused tape."""


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None

    # --- bookkeeping ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        if self.data.size != 1:
            raise AutodiffUsageError(f"backward requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None:
                continue
            for parent, grad in zip(node._parents, node._backward(node.grad)):
                if parent.requires_grad and grad is not None:
                    parent.grad = grad if parent.grad is None else parent.grad + grad

    # --- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def bw(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

        return _node(a.data + b.data, (a, b), bw)

    __radd__ = __add__

    def __neg__(self):
        a = self
        return _node(-a.data, (a,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def bw(g):
            return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

        return _node(a.data * b.data, (a, b), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def bw(g):
            return (
                _unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
            )

        return _node(a.data / b.data, (a, b), bw)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent: float):
        a = self
        e = float(exponent)

        def bw(g):
            return (g * e * np.power(a.data, e - 1.0),)

        return _node(np.power(a.data, e), (a,), bw)

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self, other
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise AutodiffUsageError(
                f"matmul expects 2-d operands, got {a.shape} @ {b.shape}"
            )

        def bw(g):
            return g @ b.data.T, a.data.T @ g

        return _node(a.data @ b.data, (a, b), bw)

    # --- elementwise functions ------------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)
        return _node(out_data, (a,), lambda g: (g * out_data,))

    def log(self):
        a = self
        return _node(np.log(a.data), (a,), lambda g: (g / a.data,))

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)
        return _node(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))

    def sqrt(self):
        return self**0.5

    def clip(self, lo: float, hi: float):
        """Clamp values; gradient is 1 inside [lo, hi] and 0 outside."""
        a = self
        mask = (a.data >= lo) & (a.data <= hi)
        return _node(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))

    # --- reductions & shaping -------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self

        def bw(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).copy(),)
            g2 = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g2, a.shape).copy(),)

        return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        a = self
        return _node(a.data.reshape(*shape), (a,), lambda g: (g.reshape(a.shape),))

    @property
    def T(self):
        a = self
        return _node(a.data.T, (a,), lambda g: (g.T,))

    def __getitem__(self, index):
        a = self

        def bw(g):
            buf = np.zeros_like(a.data)
            np.add.at(buf, index, g)
            return (buf,)

        return _node(a.data[index], (a,), bw)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def minimum(a, b) -> Tensor:
    """Elementwise minimum; on ties the gradient routes to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data

    def bw(g):
        return _unbroadcast(g * take_a, a.shape), _unbroadcast(g * ~take_a, b.shape)

    return _node(np.minimum(a.data, b.data), (a, b), bw)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Select by a constant boolean mask; gradients route branch-wise only.

    Both branches are evaluated eagerly, so callers must keep them finite even
    where deselected.
    """
    condition = np.asarray(condition, dtype=bool)
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        return (
            _unbroadcast(g * condition, a.shape),
            _unbroadcast(g * ~condition, b.shape),
        )

    return _node(np.where(condition, a.data, b.data), (a, b), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def check_finite(tensor: Tensor, context: str = "") -> Tensor:
    if DEBUG_CHECK and not np.isfinite(tensor.data).all():
        raise FloatingPointError(f"non-finite values{' in ' + context if context else ''}")
    return tensor

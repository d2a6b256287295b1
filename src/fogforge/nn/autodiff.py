"""Reverse-mode automatic differentiation on dense numpy arrays.

Every operation builds a node recording its parents and a closure mapping the
output gradient to parent gradients (broadcast-aware). Calling ``backward()``
on a scalar walks the tape in reverse topological order. Double precision
throughout; constants do not extend the tape.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np


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
        return float(self.data.item())

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

    def __mul__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def bw(g):
            return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

        return _node(a.data * b.data, (a, b), bw)

    __rmul__ = __mul__

    def __pow__(self, exponent: float):
        a = self
        e = float(exponent)

        def bw(g):
            return (g * e * np.power(a.data, e - 1.0),)

        return _node(np.power(a.data, e), (a,), bw)

    def __matmul__(self, other):
        """Two equal stacks ``(B, n, k) @ (B, k, m)``, multiplied graph by graph."""
        other = as_tensor(other)
        a, b = self, other
        if a.data.ndim < 3 or a.shape[:-2] != b.shape[:-2]:
            raise AutodiffUsageError(f"matmul expects two equal stacks, got {a.shape} @ {b.shape}")

        def bw(g):
            grad_a = g @ b.data.swapaxes(-1, -2) if a.requires_grad else None
            return grad_a, a.data.swapaxes(-1, -2) @ g if b.requires_grad else None

        return _node(a.data @ b.data, (a, b), bw)

    # --- elementwise functions ------------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)
        return _node(out_data, (a,), lambda g: (g * out_data,))

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)
        return _node(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))

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

    def __getitem__(self, index):
        a = self

        def bw(g):
            buf = np.zeros_like(a.data)
            np.add.at(buf, index, g)
            return (buf,)

        return _node(a.data[index], (a,), bw)


# False only inside ``no_grad``, which always restores it
_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no tape inside the block: every result is a constant, so each
    intermediate array is freed as soon as nothing reads it."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def affine(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """``x @ w + bias`` for rows ``(..., n, k)`` and a ``(k, m)`` weight: one
    2-d product and one tape node. The bias is added in place to the fresh
    product, so an affine layer makes one ``(rows, m)`` array, not two."""
    rows = x.data.reshape(-1, x.data.shape[-1])
    out = rows @ w.data
    out += bias.data

    def bw(g):
        g_rows = g.reshape(-1, g.shape[-1])
        grad_x = (g_rows @ w.data.T).reshape(x.shape) if x.requires_grad else None
        grad_w = rows.T @ g_rows if w.requires_grad else None
        return grad_x, grad_w, _unbroadcast(g, bias.shape)

    return _node(out.reshape(*x.shape[:-1], w.data.shape[1]), (x, w, bias), bw)


def minimum(a, b) -> Tensor:
    """Elementwise minimum; on ties the gradient routes to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data

    def bw(g):
        return _unbroadcast(g * take_a, a.shape), _unbroadcast(g * ~take_a, b.shape)

    return _node(np.minimum(a.data, b.data), (a, b), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)

"""Adam with bias correction and global-norm clipping."""

from __future__ import annotations

import numpy as np

from fogforge.model import ConfigurationError
from fogforge.nn.autodiff import Tensor


class Adam:
    beta1, beta2 = 0.9, 0.999
    eps = 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        if lr <= 0:
            raise ConfigurationError("learning rate must be > 0")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        # a non-finite step is reported by the caller's parameter check, not
        # by numpy's warning
        with np.errstate(invalid="ignore", over="ignore"):
            for k, p in enumerate(self.params):
                g = p.grad
                if g is None:
                    g = np.zeros_like(p.data)
                self.m[k] = b1 * self.m[k] + (1 - b1) * g
                self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
                m_hat = self.m[k] / (1 - b1**self.t)
                v_hat = self.v[k] / (1 - b2**self.t)
                p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_global_norm(params: list[Tensor], max_norm: float | None) -> float:
    """Scale all gradients so their joint L2 norm is at most `max_norm`.

    Returns the pre-clip norm; a `max_norm` of None only measures it.
    """
    if max_norm is not None and not max_norm > 0:
        raise ConfigurationError("max_norm must be > 0")
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if max_norm is not None and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm

"""Adam with bias correction, step-decay schedule, global-norm clipping."""

from __future__ import annotations

import numpy as np

from fogforge.model import ConfigurationError
from fogforge.nn.autodiff import Tensor


class Adam:
    def __init__(
        self,
        params: list[Tensor],
        lr: float = 0.022,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ConfigurationError("learning rate must be > 0")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
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


class StepDecay:
    """Multiply the learning rate by `gamma` every `interval` calls to step()."""

    def __init__(self, optimizer: Adam, gamma: float = 0.9, interval: int = 1):
        if not 0 < gamma <= 1 or interval < 1:
            raise ConfigurationError("need 0 < gamma <= 1 and interval >= 1")
        self.optimizer = optimizer
        self.gamma = gamma
        self.interval = interval
        self.count = 0

    def step(self) -> None:
        self.count += 1
        if self.count % self.interval == 0:
            self.optimizer.lr *= self.gamma


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

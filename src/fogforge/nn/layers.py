"""Dense layers, batch normalization, MLP stacks, and masked categorical helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fogforge.model import ConfigurationError
from fogforge.nn.autodiff import Tensor, _node, affine, as_tensor


class Module:
    """Base with recursive parameter discovery over attributes.

    Attribute iteration is name-sorted so parameter ordering is stable across
    runs; lists of submodules are indexed by position.
    """

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def _children(self):
        for name in sorted(vars(self)):
            value = vars(self)[name]
            if isinstance(value, (Module, Tensor)):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for k, item in enumerate(value):
                    if isinstance(item, (Module, Tensor)):
                        yield f"{name}.{k}", item

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for name, value in self._children():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor):
                if value.requires_grad:
                    params[full] = value
            else:
                params.update(value.named_parameters(prefix=f"{full}."))
        return params

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.named_parameters().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        expected = set(params)
        if expected != set(state):
            missing = expected - set(state)
            extra = set(state) - expected
            raise ConfigurationError(
                f"state mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        for name, tensor in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != tensor.data.shape:
                raise ConfigurationError(
                    f"shape mismatch for {name}: {value.shape} vs {tensor.data.shape}"
                )
            tensor.data = value.copy()


class Linear(Module):
    """Affine map with uniform fan-in init, bound 1/sqrt(input_dim)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        if in_dim < 1 or out_dim < 1:
            raise ConfigurationError("linear dims must be >= 1")
        bound = 1.0 / np.sqrt(in_dim)
        self.w = Tensor(rng.uniform(-bound, bound, size=(in_dim, out_dim)), requires_grad=True)
        self.b = Tensor(rng.uniform(-bound, bound, size=(out_dim,)), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        """Maps the last axis of ``x``; leading axes are rows (one 2-d product)."""
        x = as_tensor(x)
        if x.data.ndim < 2 or x.data.shape[-1] != self.w.data.shape[0]:
            raise ConfigurationError(
                f"linear expects (..., {self.w.data.shape[0]}), got {x.shape}"
            )
        return affine(x, self.w, self.b)


class BatchNorm(Module):
    """Per-feature normalization by the statistics of the rows (biased variance).

    The statistics run over the second-to-last axis: over the whole batch of a
    2-d ``(rows, features)`` input, and over each graph's own nodes of a
    stacked ``(graphs, nodes, features)`` input (GraphNorm without the learned
    mean shift, Cai et al., ICML 2021).
    """

    eps = 1e-5

    def __init__(self, features: int):
        self.gamma = Tensor(np.ones(features), requires_grad=True)
        self.beta = Tensor(np.zeros(features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        """One tape node. The forward takes the elementwise steps of
        ``(x - mean) / sqrt(var + eps) * gamma + beta`` in that order; the
        backward is the closed form of that expression's gradient."""
        x = as_tensor(x)
        gamma, beta = self.gamma, self.beta
        inv_n = 1.0 / x.data.shape[-2]
        centered = x.data + -(x.data.sum(axis=-2, keepdims=True) * inv_n)
        var = np.power(centered, 2.0).sum(axis=-2, keepdims=True) * inv_n
        std = np.power(var + self.eps, 0.5)
        xhat = centered / std

        def bw(g):
            g_xhat = g * gamma.data
            dx = (
                g_xhat
                - g_xhat.mean(axis=-2, keepdims=True)
                - xhat * (g_xhat * xhat).mean(axis=-2, keepdims=True)
            ) / std
            features = g.shape[-1]
            g_rows = g.reshape(-1, features)
            return dx, (g_rows * xhat.reshape(-1, features)).sum(axis=0), g_rows.sum(axis=0)

        return _node(xhat * gamma.data + beta.data, (x, gamma, beta), bw)


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    batch_norm: bool = False

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.output_dim < 1 or any(h < 1 for h in self.hidden_dims):
            raise ConfigurationError(f"all MLP dims must be >= 1: {self}")


class Mlp(Module):
    """Affine stack: hidden layers are followed by batch norm (when enabled)
    and tanh; the output layer is linear."""

    def __init__(self, spec: MlpSpec, rng: np.random.Generator):
        self.spec = spec
        dims = [spec.input_dim, *spec.hidden_dims, spec.output_dim]
        self.linears = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        self.norms = [BatchNorm(d) for d in spec.hidden_dims] if spec.batch_norm else []

    def forward(self, x: Tensor) -> Tensor:
        for i, linear in enumerate(self.linears[:-1]):
            x = linear(x)
            if self.norms:
                x = self.norms[i](x)
            x = x.tanh()
        return self.linears[-1](x)


# --- masked categorical utilities --------------------------------------------

def masked_log_softmax(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise log-probabilities over entries where `mask` is true; others are
    exactly 0. ``scores`` is one row ``(n,)`` or a batch of rows ``(B, n)``;
    a row's padding is a false entry of its mask.

    One tape node. Each row's max-shift constant is taken over its masked
    entries only, and deselected scores are replaced by 0 *before*
    exponentiation, so no overflow or 0 * inf reaches either pass. The
    backward is the closed form ``m * (g - p * sum(m * g))`` per row with
    ``p`` the probabilities, so deselected entries get exactly 0.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ConfigurationError("mask selects no entries")
    shift = np.where(mask, scores.data, -np.inf).max(axis=-1, keepdims=True)
    centered = np.where(mask, scores.data + -shift, 0.0)
    denom = np.where(mask, np.exp(centered), 0.0).sum(axis=-1, keepdims=True)
    out = np.where(mask, centered + -np.log(denom), 0.0)

    def bw(g):
        g = np.where(mask, g, 0.0)
        probs = np.where(mask, np.exp(out), 0.0)
        return (g - probs * g.sum(axis=-1, keepdims=True),)

    return _node(out, (scores,), bw)


def masked_entropy(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Shannon entropy of each row's masked categorical distribution.

    Deselected log-probabilities are 0, so their terms exp(0) * 0 vanish.
    """
    logp = masked_log_softmax(scores, mask)
    return -(logp.exp() * logp).sum(axis=-1)

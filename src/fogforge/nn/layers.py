"""Dense layers, batch normalization, MLP stacks, and masked softmax helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fogforge.model import ConfigurationError
from fogforge.nn.autodiff import Tensor, as_tensor, check_finite, where


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
        x = as_tensor(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.w.data.shape[0]:
            raise ConfigurationError(
                f"linear expects (N, {self.w.data.shape[0]}), got {x.shape}"
            )
        return x @ self.w + self.b


class BatchNorm(Module):
    """Per-feature normalization by the statistics of the batch (biased variance)."""

    def __init__(self, features: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(features), requires_grad=True)
        self.beta = Tensor(np.zeros(features), requires_grad=True)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        mu = x.mean(axis=0, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=0, keepdims=True)
        xhat = (x - mu) / (var + self.eps).sqrt()
        return xhat * self.gamma + self.beta


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
        return check_finite(self.linears[-1](x), "mlp output")


# --- masked categorical utilities --------------------------------------------

def masked_log_softmax(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Log-probabilities over entries where `mask` is true; others are 0.

    The max-shift constant is taken over masked entries only and detached, and
    deselected scores are replaced *before* exponentiation so no overflow or
    0 * inf can leak into the backward pass.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ConfigurationError("mask selects no entries")
    shift = float(scores.data[mask].max())
    zeros = np.zeros_like(scores.data)
    centered = where(mask, scores - shift, zeros)
    denom = where(mask, centered.exp(), zeros).sum()
    return where(mask, centered - denom.log(), zeros)


def masked_softmax(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Probabilities over masked entries; deselected entries are exactly 0."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ConfigurationError("mask selects no entries")
    shift = float(scores.data[mask].max())
    zeros = np.zeros_like(scores.data)
    centered = where(mask, scores - shift, zeros)
    exp = where(mask, centered.exp(), zeros)
    return exp / exp.sum()


def masked_entropy(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Shannon entropy of the masked categorical distribution."""
    probs = masked_softmax(scores, mask)
    logp = masked_log_softmax(scores, mask)
    zeros = np.zeros_like(scores.data)
    return -where(np.asarray(mask, dtype=bool), probs * logp, zeros).sum()

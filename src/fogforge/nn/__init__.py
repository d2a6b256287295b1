"""Minimal differentiable tensor core used by the policy networks."""

from fogforge.nn.autodiff import (
    AutodiffUsageError,
    Tensor,
    as_tensor,
    concat,
    minimum,
    no_grad,
)
from fogforge.nn.layers import (
    BatchNorm,
    Linear,
    Mlp,
    MlpSpec,
    Module,
    masked_entropy,
    masked_log_softmax,
)
from fogforge.nn.optim import Adam, clip_global_norm

__all__ = [
    "Adam",
    "AutodiffUsageError",
    "BatchNorm",
    "Linear",
    "Mlp",
    "MlpSpec",
    "Module",
    "Tensor",
    "as_tensor",
    "clip_global_norm",
    "concat",
    "masked_entropy",
    "masked_log_softmax",
    "minimum",
    "no_grad",
]

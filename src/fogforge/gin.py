"""Graph isomorphism network over the service dependency graph.

Each round aggregates (1 + epsilon) * self + sum of neighbors and feeds the
result through that round's MLP; node embeddings are mean-pooled into a graph
embedding. Aggregation treats edges as undirected so priority information
flows both ways along dependencies.

One forward encodes a batch of B graphs with the same node count T. The rows
stay (B, T, features) inside: the MLPs' affine layers run on all B*T rows as
one product, while the neighbour sums, the normalization and the pool run
over each graph's own nodes, so a graph's embedding does not depend on the
other graphs in its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fogforge.model import ConfigurationError, is_count
from fogforge.nn import Mlp, MlpSpec, Module, Tensor, as_tensor


# Largest width and depth a config may ask for, checked before anything is
# built: 16x the default encoder width, 8x the default head width and over 3x
# the deepest default stack. The largest model they admit has 88 M parameters
# at 81 tasks (0.66 GiB of float64, before gradients and Adam's moments); far
# past them, numpy refuses the dimension or the memory runs out.
MAX_WIDTH = 512
MAX_DEPTH = 16


def check_sizes(config, widths: tuple[str, ...], depths: tuple[str, ...]) -> None:
    """Each named field of ``config`` must be an int in [1, MAX_WIDTH] or [1, MAX_DEPTH]."""
    for names, top in ((widths, MAX_WIDTH), (depths, MAX_DEPTH)):
        for name in names:
            value = getattr(config, name)
            if not (is_count(value) and 1 <= value <= top):
                raise ConfigurationError(f"{name} must be an int in [1, {top}], got {value!r}")


@dataclass(frozen=True)
class GinConfig:
    """Encoder shape.

    ``hidden_dim`` defaults to 32 so the service head's input, the
    concatenation of graph and node embeddings, is 64 wide. ``mlp_layers``
    counts affine layers per round; each hidden one is followed by
    normalization over each graph's own nodes, which keeps the encoder
    permutation-invariant and makes repeated forward passes agree exactly.
    """

    node_feature_dim: int = 5
    hidden_dim: int = 32
    k_iterations: int = 2
    mlp_layers: int = 4
    batch_norm: bool = True

    def __post_init__(self) -> None:
        check_sizes(self, ("node_feature_dim", "hidden_dim"), ("k_iterations", "mlp_layers"))


@dataclass
class GraphEmbedding:
    node_embeddings: Tensor  # (graphs * tasks, hidden_dim), graph by graph
    graph_embedding: Tensor  # (graphs, hidden_dim), arithmetic mean over each graph's nodes


class GinEncoder(Module):
    def __init__(self, config: GinConfig, rng: np.random.Generator):
        self.config = config
        self.input_mlp = self._make_mlp(config.node_feature_dim, rng)
        self.round_mlps = [self._make_mlp(config.hidden_dim, rng) for _ in range(config.k_iterations)]
        self.epsilons = [
            Tensor(np.zeros(1), requires_grad=True) for _ in range(config.k_iterations)
        ]

    def _make_mlp(self, in_dim: int, rng: np.random.Generator) -> Mlp:
        cfg = self.config
        hidden = tuple(cfg.hidden_dim for _ in range(cfg.mlp_layers - 1))
        # no norm on the output layer: normalizing there would pin the node
        # mean to the norm bias and erase the pooled graph embedding
        return Mlp(
            MlpSpec(
                input_dim=in_dim,
                hidden_dims=hidden,
                output_dim=cfg.hidden_dim,
                batch_norm=cfg.batch_norm,
            ),
            rng,
        )

    def forward(self, node_features, adjacency: np.ndarray) -> GraphEmbedding:
        """Encode B graphs of T nodes: ``node_features`` are their (B*T, F)
        rows, graph by graph, and ``adjacency`` is (B, T, T); a (T, T)
        adjacency is a batch of one graph."""
        x = as_tensor(node_features)
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if adjacency.ndim == 2:
            adjacency = adjacency[np.newaxis]
        if adjacency.ndim != 3 or adjacency.shape[1] != adjacency.shape[2]:
            raise ConfigurationError(
                f"adjacency must be (tasks, tasks) or (graphs, tasks, tasks), got {adjacency.shape}"
            )
        graphs, tasks = adjacency.shape[:2]
        features = self.config.node_feature_dim
        if x.data.shape != (graphs * tasks, features):
            raise ConfigurationError(
                f"node features must be ({graphs * tasks}, {features}) for "
                f"{graphs} graph(s) of {tasks} tasks, got {x.shape}"
            )
        adj = Tensor(adjacency)

        h = self.input_mlp(x.reshape(graphs, tasks, features))
        for eps, mlp in zip(self.epsilons, self.round_mlps):
            aggregated = (1.0 + eps) * h + adj @ h
            h = mlp(aggregated)
        return GraphEmbedding(
            node_embeddings=h.reshape(graphs * tasks, self.config.hidden_dim),
            graph_embedding=h.mean(axis=1),
        )

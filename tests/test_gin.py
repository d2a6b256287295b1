"""Graph encoder: aggregation semantics, permutation behavior, gradients."""

import numpy as np
import pytest

from gradcheck import finite_difference, max_rel_error

from fogforge.env import PlacementEnv
from fogforge.gin import GinConfig, GinEncoder
from fogforge.model import ConfigurationError, WeightVector
from fogforge.nn import Tensor
from fogforge.scenarios import ScenarioConfig, generate_scenario


def random_graph(rng, tasks, feat_dim=5):
    features = rng.random((tasks, feat_dim))
    adjacency = np.zeros((tasks, tasks))
    for _ in range(tasks * 2):
        u, v = rng.integers(0, tasks, size=2)
        if u != v:
            adjacency[u, v] = adjacency[v, u] = 1.0
    return features, adjacency


def test_no_edges_identity_mlps_pass_features_through():
    config = GinConfig(node_feature_dim=4, hidden_dim=4, k_iterations=2, mlp_layers=1, batch_norm=False)
    encoder = GinEncoder(config, np.random.default_rng(0))
    for mlp in [encoder.input_mlp, *encoder.round_mlps]:
        mlp.linears[0].w.data = np.eye(4)
        mlp.linears[0].b.data = np.zeros(4)
    x = np.random.default_rng(1).random((6, 4))
    out = encoder(x, np.zeros((6, 6)))
    np.testing.assert_allclose(out.node_embeddings.data, x, atol=1e-12)
    np.testing.assert_allclose(out.graph_embedding.data, x.mean(axis=0, keepdims=True), atol=1e-12)


def test_single_node_graph_pools_to_itself():
    encoder = GinEncoder(GinConfig(node_feature_dim=3), np.random.default_rng(2))
    out = encoder(np.array([[0.3, 0.7, 0.1]]), np.zeros((1, 1)))
    np.testing.assert_allclose(
        out.graph_embedding.data, out.node_embeddings.data, atol=1e-12
    )


def test_neighbor_sum_matters():
    config = GinConfig(node_feature_dim=2, hidden_dim=8)
    encoder = GinEncoder(config, np.random.default_rng(3))
    x = np.random.default_rng(4).random((4, 2))
    empty = encoder(x, np.zeros((4, 4)))
    path = np.zeros((4, 4))
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        path[u, v] = path[v, u] = 1.0
    connected = encoder(x, path)
    assert np.abs(empty.graph_embedding.data - connected.graph_embedding.data).max() > 1e-8


def test_permutation_invariance_and_equivariance():
    rng = np.random.default_rng(5)
    encoder = GinEncoder(GinConfig(), rng)
    for _ in range(30):
        tasks = int(rng.integers(2, 10))
        features, adjacency = random_graph(rng, tasks)
        base = encoder(features, adjacency)

        perm = rng.permutation(tasks)
        shuffled = encoder(features[perm], adjacency[np.ix_(perm, perm)])
        np.testing.assert_allclose(
            shuffled.graph_embedding.data, base.graph_embedding.data, atol=1e-9
        )
        np.testing.assert_allclose(
            shuffled.node_embeddings.data, base.node_embeddings.data[perm], atol=1e-9
        )


def random_batch(rng, graphs, tasks, feat_dim=5):
    """``graphs`` random graphs of ``tasks`` nodes as (graphs*tasks, feat_dim)
    rows and a (graphs, tasks, tasks) adjacency stack."""
    parts = [random_graph(rng, tasks, feat_dim) for _ in range(graphs)]
    return np.concatenate([f for f, _ in parts]), np.stack([a for _, a in parts])


def test_batched_graphs_encode_as_they_do_alone():
    rng = np.random.default_rng(11)
    encoder = GinEncoder(GinConfig(), rng)
    for graphs, tasks in ((2, 1), (3, 5), (8, 9)):
        features, adjacency = random_batch(rng, graphs, tasks)
        batch = encoder(features, adjacency)
        assert batch.node_embeddings.shape == (graphs * tasks, 32)
        assert batch.graph_embedding.shape == (graphs, 32)
        for b in range(graphs):
            rows = slice(b * tasks, (b + 1) * tasks)
            alone = encoder(features[rows], adjacency[b])
            np.testing.assert_allclose(
                batch.node_embeddings.data[rows], alone.node_embeddings.data, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                batch.graph_embedding.data[b], alone.graph_embedding.data[0], rtol=0, atol=1e-12
            )


def test_per_graph_permutation_invariance_in_a_batch():
    rng = np.random.default_rng(12)
    encoder = GinEncoder(GinConfig(), rng)
    for _ in range(30):
        graphs, tasks = int(rng.integers(2, 6)), int(rng.integers(2, 10))
        features, adjacency = random_batch(rng, graphs, tasks)
        base = encoder(features, adjacency)
        # every graph gets its own node order
        perms = [rng.permutation(tasks) for _ in range(graphs)]
        order = np.concatenate([b * tasks + perm for b, perm in enumerate(perms)])
        shuffled_adjacency = np.stack([a[np.ix_(p, p)] for a, p in zip(adjacency, perms)])
        shuffled = encoder(features[order], shuffled_adjacency)
        np.testing.assert_allclose(
            shuffled.graph_embedding.data, base.graph_embedding.data, atol=1e-9
        )
        np.testing.assert_allclose(
            shuffled.node_embeddings.data, base.node_embeddings.data[order], atol=1e-9
        )


def test_batched_encoder_gradients():
    # aggregation, per-graph norms and per-graph pooling together, over three
    # graphs of different content
    rng = np.random.default_rng(13)
    config = GinConfig(node_feature_dim=3, hidden_dim=4, k_iterations=2, mlp_layers=2)
    encoder = GinEncoder(config, rng)
    features, adjacency = random_batch(rng, 3, 4, feat_dim=3)
    target = rng.random((3, 4))
    node_weights = rng.normal(size=(12, 4))

    def loss_fn(x=features):
        out = encoder(x, adjacency)
        return ((out.graph_embedding - target) ** 2).sum() + (out.node_embeddings * node_weights).sum()

    loss_fn().backward()
    for name, param in encoder.named_parameters().items():
        analytic = param.grad.copy()
        saved = param.data.copy()

        def f(values):
            param.data = values
            result = loss_fn().item()
            param.data = saved
            return result

        assert max_rel_error(analytic, finite_difference(f, saved)) < 1e-4, name
        param.zero_grad()
    x = Tensor(features, requires_grad=True)
    loss_fn(x).backward()
    assert max_rel_error(x.grad, finite_difference(lambda v: loss_fn(v).item(), features)) < 1e-4


def test_forward_is_deterministic():
    rng = np.random.default_rng(6)
    encoder = GinEncoder(GinConfig(), rng)
    features, adjacency = random_graph(rng, 7)
    a = encoder(features, adjacency)
    b = encoder(features, adjacency)
    np.testing.assert_array_equal(a.graph_embedding.data, b.graph_embedding.data)
    np.testing.assert_array_equal(a.node_embeddings.data, b.node_embeddings.data)


def test_epsilon_and_parameter_gradients():
    rng = np.random.default_rng(7)
    config = GinConfig(node_feature_dim=3, hidden_dim=4, k_iterations=2, mlp_layers=2)
    encoder = GinEncoder(config, rng)
    features, adjacency = random_graph(rng, 5, feat_dim=3)
    target = rng.random((1, 4))

    def loss_fn():
        out = encoder(features, adjacency)
        return ((out.graph_embedding - target) ** 2).sum()

    loss_fn().backward()
    params = encoder.named_parameters()
    assert any(name.startswith("epsilons.") for name in params)
    for name, param in params.items():
        analytic = param.grad.copy()
        saved = param.data.copy()

        def f(values):
            param.data = values
            result = loss_fn().item()
            param.data = saved
            return result

        assert max_rel_error(analytic, finite_difference(f, saved)) < 1e-4, name
        param.zero_grad()


def test_input_feature_gradients():
    rng = np.random.default_rng(8)
    encoder = GinEncoder(GinConfig(node_feature_dim=3, hidden_dim=4, mlp_layers=2), rng)
    features, adjacency = random_graph(rng, 4, feat_dim=3)

    x = Tensor(features, requires_grad=True)
    (encoder(x, adjacency).graph_embedding ** 2).sum().backward()
    numeric = finite_difference(
        lambda v: float((encoder(v, adjacency).graph_embedding.data ** 2).sum()), features
    )
    assert max_rel_error(x.grad, numeric) < 1e-4


def test_env_features_compose_with_encoder():
    scenario = generate_scenario(ScenarioConfig(device_count=4, app_rows=(3,)), seed=0)
    env = PlacementEnv(scenario.applications[0], scenario.devices, WeightVector(0.5, 0.5))
    state = env.reset()
    encoder = GinEncoder(GinConfig(), np.random.default_rng(9))
    out = encoder(state.node_features, state.adjacency)
    assert out.node_embeddings.data.shape == (9, 32)
    assert out.graph_embedding.data.shape == (1, 32)


def test_shape_validation():
    encoder = GinEncoder(GinConfig(node_feature_dim=5), np.random.default_rng(10))
    with pytest.raises(ConfigurationError):
        encoder(np.ones((4, 3)), np.zeros((4, 4)))
    with pytest.raises(ConfigurationError):
        encoder(np.ones((4, 5)), np.zeros((3, 3)))
    with pytest.raises(ConfigurationError):  # 2 graphs of 3 tasks need 6 rows
        encoder(np.ones((4, 5)), np.zeros((2, 3, 3)))
    with pytest.raises(ConfigurationError):
        encoder(np.ones((6, 5)), np.zeros((2, 3, 2)))
    with pytest.raises(ConfigurationError):
        GinConfig(k_iterations=0)

"""Tensor core: gradients vs finite differences, layers, optimizer."""

import numpy as np
import pytest

from gradcheck import finite_difference, max_rel_error

from fogforge.model import ConfigurationError
from fogforge.nn import (
    Adam,
    AutodiffUsageError,
    BatchNorm,
    Linear,
    Mlp,
    MlpSpec,
    Tensor,
    clip_global_norm,
    concat,
    masked_entropy,
    masked_log_softmax,
    minimum,
    no_grad,
)
from fogforge.nn.autodiff import _node, _unbroadcast

TOL = 1e-4


def check_grad(build_loss, x0):
    """Compare autodiff gradient of build_loss(Tensor) against central differences."""
    t = Tensor(x0, requires_grad=True)
    loss = build_loss(t)
    loss.backward()
    numeric = finite_difference(lambda x: build_loss(Tensor(x, requires_grad=True)).item(), x0)
    assert t.grad is not None
    assert max_rel_error(t.grad, numeric) < TOL


def test_elementwise_op_gradients():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 4))
    pos = np.abs(x0) + 0.5
    cases = [
        (lambda t: (t * 3.0 + 1.0).sum(), x0),
        (lambda t: (t - t * t).sum(), x0),
        (lambda t: (-t).sum(), x0),
        (lambda t: (t**3).sum(), x0),
        (lambda t: (t**0.5).sum(), pos),
        (lambda t: t.exp().sum(), x0),
        (lambda t: t.tanh().sum(), x0),
        (lambda t: t.mean(), x0),
        (lambda t: t.sum(axis=0).sum(), x0),
        (lambda t: t.mean(axis=1, keepdims=True).sum(), x0),
        (lambda t: t.reshape(12, 1).sum(), x0),
        (lambda t: t[1:, ::2].sum(), x0),
        (lambda t: (t[0] * t[2]).sum(), x0),
        (lambda t: (t[np.array([0, 2, 0, 1])] ** 2).sum(), x0),
    ]
    for build, point in cases:
        check_grad(build, point)


# --- reference ops --------------------------------------------------------------
# The composed references below need division and log, which no package path
# uses; each is one tape node, built the way the package's own ops are.

def divide(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        return (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        )

    return _node(a.data / b.data, (a, b), bw)


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def test_broadcast_gradients():
    rng = np.random.default_rng(1)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4,))
    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    (a * b + b).sum().backward()
    num_a = finite_difference(lambda x: float((x * b0 + b0).sum()), a0)
    num_b = finite_difference(lambda x: float((a0 * x + x).sum()), b0)
    assert max_rel_error(a.grad, num_a) < TOL
    assert max_rel_error(b.grad, num_b) < TOL
    assert b.grad.shape == (4,)


def test_matmul_gradients():
    # a stack of one (1, 3, 5) @ (1, 5, 2); layers multiply by a weight through affine
    rng = np.random.default_rng(2)
    a0 = rng.normal(size=(1, 3, 5))
    b0 = rng.normal(size=(1, 5, 2))
    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    (a @ b).sum().backward()
    assert max_rel_error(a.grad, finite_difference(lambda x: float((x @ b0).sum()), a0)) < TOL
    assert max_rel_error(b.grad, finite_difference(lambda x: float((a0 @ x).sum()), b0)) < TOL
    with pytest.raises(AutodiffUsageError):
        Tensor(np.ones(3), requires_grad=True) @ Tensor(np.ones(3))


def test_batched_matmul_gradients():
    # graph-by-graph neighbour sums (B, T, T) @ (B, T, F), with B = 3 different graphs
    rng = np.random.default_rng(21)
    adj0 = (rng.random((3, 4, 4)) < 0.5).astype(float)
    h0 = rng.normal(size=(3, 4, 2))
    w0 = rng.normal(size=(2, 5))
    weights = rng.normal(size=(3, 4, 2))
    check_grad(lambda t: ((Tensor(adj0) @ t) * weights).sum(), h0)
    check_grad(lambda t: ((t @ Tensor(h0)) * weights).sum(), adj0)
    stacked = (Tensor(adj0) @ Tensor(h0)).data
    for b in range(3):  # each graph multiplies as it would alone
        np.testing.assert_array_equal(stacked[b], adj0[b] @ h0[b])
    with pytest.raises(AutodiffUsageError):
        Tensor(h0) @ Tensor(rng.normal(size=(4, 2, 5)))  # stacks of different lengths
    with pytest.raises(AutodiffUsageError):
        Tensor(h0) @ Tensor(w0)  # a weight matrix goes through affine


def test_per_graph_mean_pool_gradients():
    rng = np.random.default_rng(22)
    x0 = rng.normal(size=(3, 5, 2))
    weights = rng.normal(size=(3, 2))
    check_grad(lambda t: (t.mean(axis=1) * weights).sum(), x0)
    pooled = Tensor(x0).mean(axis=1).data
    for b in range(3):
        np.testing.assert_allclose(pooled[b], x0[b].mean(axis=0), rtol=0, atol=1e-15)


def test_clip_minimum_gradients():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(6,)) * 2.0
    x0 = x0 + np.sign(x0) * 0.1  # keep away from clip boundaries and ties
    check_grad(lambda t: t.clip(-1.0, 1.0).sum(), x0)
    other = np.linspace(-1, 1, 6)
    check_grad(lambda t: minimum(t, other).sum(), x0)


def test_clip_zero_gradient_outside_range():
    t = Tensor(np.array([-5.0, 0.0, 5.0]), requires_grad=True)
    t.clip(-1.0, 1.0).sum().backward()
    np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])


def test_concat_gradient():
    rng = np.random.default_rng(4)
    a0, b0 = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    (concat([a, b], axis=0) ** 2).sum().backward()
    assert max_rel_error(a.grad, 2 * a0) < TOL
    assert max_rel_error(b.grad, 2 * b0) < TOL


def test_quadratic_and_constant_loss():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    (p**2).sum().backward()
    np.testing.assert_allclose(p.grad, [2.0, -4.0, 6.0])

    q = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (q * 0.0).sum().backward()
    np.testing.assert_array_equal(q.grad, [0.0, 0.0])


def test_gradient_accumulates_across_backward_calls():
    p = Tensor(np.array([2.0]), requires_grad=True)
    (p * 3.0).sum().backward()
    (p * 3.0).sum().backward()
    np.testing.assert_allclose(p.grad, [6.0])


def test_no_grad_records_no_tape():
    mlp = Mlp(MlpSpec(2, (3,), 1, batch_norm=True), np.random.default_rng(3))
    x = Tensor(np.array([[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]]))
    with no_grad():
        constant = mlp(x).sum()
    assert not constant.requires_grad
    assert constant._parents == () and constant._backward is None
    recorded = mlp(x).sum()
    assert recorded.requires_grad and recorded._parents
    assert constant.item() == recorded.item()
    with pytest.raises(ValueError):  # recording resumes after an error in the block
        with no_grad():
            raise ValueError
    assert mlp(x).sum().requires_grad


def tape(root):
    """Every node reachable from ``root`` through ``_parents``."""
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def test_backward_releases_interior_nodes_and_keeps_leaf_gradients():
    mlp = Mlp(MlpSpec(2, (3,), 1, batch_norm=True), np.random.default_rng(4))
    x = Tensor(np.array([[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]]), requires_grad=True)
    loss = (mlp(x) ** 2).sum()
    nodes = tape(loss)
    interior = [n for n in nodes if n._backward is not None]
    leaves = [n for n in nodes if n.requires_grad and n._backward is None]
    assert len(interior) > 5 and {id(n) for n in leaves} == {
        id(p) for p in [x, *mlp.parameters()]
    }
    loss.backward()
    for node in interior:
        assert node.grad is None and node._parents == ()
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def test_backward_through_a_released_graph_raises():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    hidden = (p * 3.0).tanh()
    loss = (hidden * hidden).sum()
    loss.backward()
    first = p.grad.copy()
    with pytest.raises(AutodiffUsageError, match="released graph"):
        loss.backward()
    with pytest.raises(AutodiffUsageError, match="released graph"):
        (hidden * 2.0).sum().backward()  # a new graph on a released interior node
    (p * 1.0).sum().backward()  # the leaf itself still starts new graphs
    np.testing.assert_array_equal(p.grad, first + 1.0)


def test_backward_requires_scalar():
    t = Tensor(np.ones(4), requires_grad=True)
    with pytest.raises(AutodiffUsageError):
        (t * 2.0).backward()


# --- layers -------------------------------------------------------------------

def test_linear_identity_and_zero():
    rng = np.random.default_rng(5)
    layer = Linear(3, 3, rng)
    layer.w.data = np.eye(3)
    layer.b.data = np.zeros(3)
    x = rng.normal(size=(4, 3))
    np.testing.assert_allclose(layer(Tensor(x)).data, x)

    layer.w.data = np.zeros((3, 3))
    np.testing.assert_allclose(layer(Tensor(x)).data, 0.0)


@pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3)])
def test_linear_is_one_node_equal_to_matmul_plus_bias(shape):
    rng = np.random.default_rng(8)
    layer = Linear(3, 2, rng)
    x0 = rng.normal(size=shape)
    weights = rng.normal(size=(*shape[:-1], 2))
    x = Tensor(x0, requires_grad=True)
    y = layer(x)
    assert len(y._parents) == 3  # one node: x, w and b
    (y * weights).sum().backward()
    # plain numpy on the flattened rows, bit for bit, forward and backward
    w, b = layer.w.data, layer.b.data
    rows, weights_rows = x0.reshape(-1, 3), weights.reshape(-1, 2)
    np.testing.assert_array_equal(y.data, (rows @ w + b).reshape(*shape[:-1], 2))
    np.testing.assert_array_equal(x.grad, (weights_rows @ w.T).reshape(shape))
    np.testing.assert_array_equal(layer.w.grad, rows.T @ weights_rows)
    np.testing.assert_array_equal(layer.b.grad, weights_rows.sum(0))


def test_linear_init_bounds():
    rng = np.random.default_rng(6)
    layer = Linear(16, 8, rng)
    bound = 1.0 / 4.0
    assert np.abs(layer.w.data).max() <= bound
    assert np.abs(layer.b.data).max() <= bound
    assert np.abs(layer.w.data).std() > 0


def test_linear_shape_error():
    layer = Linear(3, 2, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        layer(Tensor(np.ones((4, 5))))


def test_mlp_matches_straight_line_recomputation():
    rng = np.random.default_rng(7)
    mlp = Mlp(MlpSpec(input_dim=4, hidden_dims=(6,), output_dim=2), rng)
    x = rng.normal(size=(5, 4))
    manual = np.tanh(x @ mlp.linears[0].w.data + mlp.linears[0].b.data)
    manual = manual @ mlp.linears[1].w.data + mlp.linears[1].b.data
    np.testing.assert_allclose(mlp(Tensor(x)).data, manual, rtol=1e-12)


def test_mlp_parameter_gradients():
    rng = np.random.default_rng(8)
    for use_bn in (False, True):
        mlp = Mlp(
            MlpSpec(4, (5, 5), 2, batch_norm=use_bn), rng
        )
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 2))

        def loss_fn():
            out = mlp(Tensor(x))
            return ((out - target) ** 2).mean()

        loss_fn().backward()
        for name, param in mlp.named_parameters().items():
            analytic = param.grad.copy()
            saved = param.data.copy()

            def f(values):
                param.data = values
                result = loss_fn().item()
                param.data = saved
                return result

            numeric = finite_difference(f, saved)
            assert max_rel_error(analytic, numeric) < TOL, name
            param.zero_grad()


def test_batchnorm_training_statistics():
    rng = np.random.default_rng(9)
    bn = BatchNorm(4)
    x = rng.normal(loc=3.0, scale=2.0, size=(64, 4))
    out = bn(Tensor(x)).data
    assert np.abs(out.mean(axis=0)).max() < 1e-6
    biased_var = out.var(axis=0)
    assert np.abs(biased_var - 1.0).max() < 1e-3  # eps slightly shrinks variance


def composed_batchnorm(bn, x):
    """Batch norm as a graph of elementwise tape ops: the reference for the fused node."""
    mu = x.mean(axis=0, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=0, keepdims=True)
    xhat = divide(x - mu, (var + bn.eps) ** 0.5)
    return xhat * bn.gamma + bn.beta


def test_fused_batchnorm_matches_composed_graph():
    rng = np.random.default_rng(10)
    for rows, features in ((1, 3), (2, 4), (5, 3), (81, 32)):
        bn = BatchNorm(features)
        bn.gamma.data = rng.normal(size=features) + 1.0
        bn.beta.data = rng.normal(size=features)
        x0 = rng.normal(loc=2.0, scale=3.0, size=(rows, features))
        weights = rng.normal(size=(rows, features))
        grads = []
        for norm in (bn, lambda t: composed_batchnorm(bn, t)):
            bn.zero_grad()
            x = Tensor(x0, requires_grad=True)
            out = norm(x)
            (out * out * weights).sum().backward()
            grads.append((out.data, x.grad, bn.gamma.grad, bn.beta.grad))
        (fused, *fused_grads), (composed, *composed_grads) = grads
        np.testing.assert_array_equal(fused, composed)  # same ops in the same order
        for a, b in zip(fused_grads, composed_grads):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
    x = Tensor(x0, requires_grad=True)
    assert bn(x)._parents == (x, bn.gamma, bn.beta)  # one tape node


def test_batchnorm_normalises_each_graph_over_its_nodes():
    # (graphs, nodes, features): each graph is normalised by its own statistics,
    # exactly as a 2-d batch holding only that graph's rows
    rng = np.random.default_rng(23)
    bn = BatchNorm(3)
    bn.gamma.data = rng.normal(size=3) + 1.5
    bn.beta.data = rng.normal(size=3)
    x0 = rng.normal(size=(4, 5, 3)) * rng.uniform(0.5, 3.0, size=(4, 1, 1)) + rng.normal(size=(4, 1, 3))
    out = bn(Tensor(x0)).data
    for b in range(4):
        np.testing.assert_array_equal(out[b], bn(Tensor(x0[b])).data)
    weights = rng.normal(size=x0.shape)
    check_grad(lambda t: (bn(t) ** 3 * weights).sum(), x0)
    for param in (bn.gamma, bn.beta):
        bn.zero_grad()
        (bn(Tensor(x0)) ** 3 * weights).sum().backward()
        analytic = param.grad.copy()
        saved = param.data.copy()

        def f(values):
            param.data = values
            result = float((bn(Tensor(x0)).data ** 3 * weights).sum())
            param.data = saved
            return result

        assert max_rel_error(analytic, finite_difference(f, saved)) < TOL


def test_state_dict_round_trip():
    rng = np.random.default_rng(11)
    spec = MlpSpec(3, (4,), 2, batch_norm=True)
    mlp = Mlp(spec, rng)
    state = mlp.state_dict()

    clone = Mlp(spec, np.random.default_rng(999))
    clone.load_state_dict(state)
    x = rng.normal(size=(5, 3))
    np.testing.assert_array_equal(mlp(Tensor(x)).data, clone(Tensor(x)).data)

    bad = dict(state)
    bad.pop(sorted(bad)[0])
    with pytest.raises(ConfigurationError):
        clone.load_state_dict(bad)


# --- masked categorical -------------------------------------------------------

def composed_masked_log_softmax(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Reference: the masked log-softmax built from elementwise tape ops.

    A constant 0/1 mask multiplied in replaces a select; deselected scores are
    zeroed before exponentiation, as in the fused op, so every value on the
    tape stays finite.
    """
    keep = np.asarray(mask, dtype=np.float64)
    shift = float(scores.data[mask].max())
    centered = (scores - shift) * keep
    denom = (centered.exp() * keep).sum()
    return (centered - log(denom)) * keep


def test_fused_masked_log_softmax_matches_composed_graph():
    rng = np.random.default_rng(12)
    for trial in range(40):
        n = int(rng.integers(1, 12))
        x0 = rng.normal(size=n) * 5.0
        mask = rng.random(n) < 0.6
        mask[int(rng.integers(n))] = True
        if trial % 4 == 0:  # huge deselected scores must not leak into either pass
            x0[~mask] = rng.choice([1000.0, -1000.0], size=int((~mask).sum()))
        weights = rng.normal(size=n)

        fused_in = Tensor(x0, requires_grad=True)
        fused = masked_log_softmax(fused_in, mask)
        assert fused._parents == (fused_in,)  # one tape node
        ref_in = Tensor(x0, requires_grad=True)
        ref = composed_masked_log_softmax(ref_in, mask)
        np.testing.assert_array_equal(fused.data, ref.data)
        assert (fused.data[~mask] == 0.0).all()

        (fused * weights).sum().backward()
        (ref * weights).sum().backward()
        assert (fused_in.grad[~mask] == 0.0).all()
        assert max_rel_error(fused_in.grad, ref_in.grad) < 1e-9


def test_masked_softmax_properties():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        scores = Tensor(rng.normal(size=n) * 5.0, requires_grad=True)
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[int(rng.integers(n))] = True
        logp = masked_log_softmax(scores, mask)
        probs = np.where(mask, np.exp(logp.data), 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (logp.data[~mask] == 0.0).all()
        assert (probs[~mask] == 0.0).all()


def test_masked_softmax_huge_deselected_scores_stay_finite():
    scores = Tensor(np.array([1.0, 1000.0, -1000.0, 2.0]), requires_grad=True)
    mask = np.array([True, False, False, True])
    logp = masked_log_softmax(scores, mask)
    picked = logp[np.array([0])].sum()
    picked.backward()
    assert np.isfinite(logp.data).all()
    assert np.isfinite(scores.grad).all()
    assert scores.grad[1] == 0.0 and scores.grad[2] == 0.0


def test_masked_softmax_single_choice():
    scores = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    mask = np.array([False, True])
    logp = masked_log_softmax(scores, mask)
    assert logp.data[1] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(np.where(mask, np.exp(logp.data), 0.0), [0.0, 1.0])


def test_masked_categorical_gradients():
    rng = np.random.default_rng(14)
    mask = np.array([True, True, False, True, False])
    x0 = rng.normal(size=5)
    check_grad(lambda t: masked_log_softmax(t, mask)[np.array([1])].sum(), x0)
    check_grad(lambda t: (masked_log_softmax(t, mask) * np.arange(5.0)).sum(), x0)
    check_grad(lambda t: masked_entropy(t, mask), x0)


def padded_rows(rng, widths, n):
    """Score rows of different real widths padded to ``n``, with selection
    masks that are false on the padding and on some real entries."""
    scores = rng.normal(size=(len(widths), n)) * 3.0
    mask = np.zeros(scores.shape, dtype=bool)
    for row, width in enumerate(widths):
        mask[row, :width] = rng.random(width) < 0.7
        mask[row, int(rng.integers(width))] = True
        scores[row, width:] = rng.choice([1000.0, -1000.0], size=n - width)  # padding
    return scores, mask


def test_row_wise_masked_categorical_with_padding():
    rng = np.random.default_rng(24)
    for _ in range(10):
        scores, mask = padded_rows(rng, [6, 3, 1, 4], 6)
        scores[1] -= 2000.0  # each row shifts by its own max, so no row underflows
        weights = rng.normal(size=scores.shape)
        check_grad(lambda t: (masked_log_softmax(t, mask) * weights).sum(), scores)
        check_grad(lambda t: (masked_entropy(t, mask) * np.arange(1.0, 5.0)).sum(), scores)
        logp = masked_log_softmax(Tensor(scores), mask).data
        entropy = masked_entropy(Tensor(scores), mask).data
        assert entropy.shape == (4,)
        assert (logp[~mask] == 0.0).all()
        for row in range(4):  # each row is the one-row distribution of its own entries
            alone = masked_log_softmax(Tensor(scores[row]), mask[row]).data
            np.testing.assert_allclose(logp[row], alone, rtol=0, atol=1e-12)
            one = masked_entropy(Tensor(scores[row]), mask[row]).item()
            assert entropy[row] == pytest.approx(one, rel=1e-12, abs=1e-12)
        t = Tensor(scores, requires_grad=True)
        masked_entropy(t, mask).sum().backward()
        assert (t.grad[~mask] == 0.0).all()  # padding never receives gradient
    with pytest.raises(ConfigurationError):  # one empty row is enough to refuse
        masked_log_softmax(Tensor(np.ones((2, 3))), np.array([[True, False, False]] + [[False] * 3]))


def test_masked_softmax_empty_mask_rejected():
    with pytest.raises(ConfigurationError):
        masked_log_softmax(Tensor(np.ones(3)), np.zeros(3, dtype=bool))
    with pytest.raises(ConfigurationError):
        masked_entropy(Tensor(np.ones(3)), np.zeros(3, dtype=bool))


# --- optimizer ----------------------------------------------------------------

def test_adam_first_step_closed_form():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=0.022)
    p.grad = np.array([1.0])
    opt.step()
    # bias-corrected first step moves by ~lr regardless of gradient scale
    assert p.data[0] == pytest.approx(1.0 - 0.022, abs=1e-6)


def test_adam_zero_gradient_keeps_params():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam([p], lr=0.022)
    p.grad = None
    opt.step()
    np.testing.assert_allclose(p.data, [1.0, 2.0], atol=1e-15)

    # accumulated momentum decays once gradients stop
    p.grad = np.array([1.0, 1.0])
    opt.step()
    m_after = opt.m[0].copy()
    p.grad = None
    opt.step()
    assert (np.abs(opt.m[0]) < np.abs(m_after)).all()


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(500):
        opt.zero_grad()
        loss = (p**2).sum()
        loss.backward()
        opt.step()
    assert np.abs(p.data).max() < 1e-2


def test_clip_global_norm():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([2.0, 0.0, 0.0])
    b.grad = np.array([0.0, 0.0])
    norm = clip_global_norm([a, b], 1.0)
    assert norm == pytest.approx(2.0)
    np.testing.assert_allclose(a.grad, [1.0, 0.0, 0.0])

    a.grad = np.array([0.05, 0.05, 0.05])
    clip_global_norm([a, b], 1.0)
    np.testing.assert_allclose(a.grad, [0.05, 0.05, 0.05])

    a.grad = np.array([3.0, 4.0, 0.0])
    assert clip_global_norm([a, b], None) == 5.0  # None measures without clipping
    np.testing.assert_array_equal(a.grad, [3.0, 4.0, 0.0])
    for bad in (0.0, float("nan")):
        with pytest.raises(ConfigurationError, match="max_norm"):
            clip_global_norm([a, b], bad)

    rng = np.random.default_rng(15)
    for _ in range(20):
        a.grad = rng.normal(size=3) * 10
        b.grad = rng.normal(size=2) * 10
        clip_global_norm([a, b], 1.0)
        total = np.sqrt((a.grad**2).sum() + (b.grad**2).sum())
        assert total <= 1.0 + 1e-12

"""The array objective kernel and the environment against per-edge references.

Apps are random DAGs on rows x cols grids (not only square ones), and device
pools use distinct but non-contiguous, unordered ids, so every id -> position
translation is exercised.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_model import slow_objectives

from fogforge.env import Action, PlacementEnv
from fogforge.model import (
    Application,
    Device,
    NormBounds,
    Placement,
    WeightVector,
    _Instance,
    batch_objectives,
    evaluate,
    latency_contribution_matrix,
)

PROPERTY = settings(max_examples=150, deadline=None)


@st.composite
def apps(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4))
    ops = tuple(
        tuple(float(draw(st.integers(0, 6))) for _ in range(cols)) for _ in range(rows)
    )
    services = [(i, j) for i in range(rows) for j in range(cols)]
    pairs = st.tuples(st.integers(0, len(services) - 1), st.integers(0, len(services) - 1))
    extra = {
        (services[a], services[b])  # row-major index order keeps the graph acyclic
        for a, b in draw(st.lists(pairs, max_size=6))
        if a < b
    }
    edges = set(Application.chain_edges(rows, cols)) | extra
    return Application(rows=rows, cols=cols, ops=ops, edges=tuple(sorted(edges)))


@st.composite
def device_pools(draw):
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True))
    return tuple(
        Device(
            id=dev_id,
            speed=float(draw(st.integers(1, 3))),
            latency=float(draw(st.integers(0, 50))),
            cost=float(draw(st.integers(0, 40))),
            is_cloud=(k == 0),
        )
        for k, dev_id in enumerate(ids)
    )


def assignments(app, devices, data, count):
    ids = [d.id for d in devices]
    rows = data.draw(st.lists(
        st.lists(st.sampled_from(ids), min_size=app.service_count, max_size=app.service_count),
        min_size=count,
        max_size=count,
    ))
    return np.array(rows, dtype=np.int64).reshape(count, app.service_count)


def edge_reference(app, placement, devices):
    """Target-device latency summed per cross-device inbound edge, edge by edge."""
    latency = {d.id: d.latency for d in devices}
    matrix = np.zeros((app.rows, app.cols))
    for src, dst in app.edges:
        if placement.assignment[src] != placement.assignment[dst]:
            matrix[dst] += latency[placement.assignment[dst]]
    return matrix


def latency_feature(app, placement, devices):
    """Row-head access plus inbound edge charges, over their largest possible value."""
    latency = {d.id: d.latency for d in devices}
    charged = edge_reference(app, placement, devices)
    slots = np.zeros((app.rows, app.cols))
    for _, dst in app.edges:
        slots[dst] += 1
    charged[:, 0] += [latency[placement.assignment[(i, 0)]] for i in range(app.rows)]
    slots[:, 0] += 1
    bound = max(latency.values()) * slots
    return np.divide(charged, bound, out=np.zeros_like(charged), where=bound > 0).reshape(-1)


@PROPERTY
@given(apps(), device_pools(), st.data())
def test_kernel_matches_reference_walks(app, devices, data):
    batch = assignments(app, devices, data, count=data.draw(st.integers(1, 8)))
    times, costs = batch_objectives(app, devices, batch)
    for row, t, c in zip(batch, times, costs):
        placement = Placement.from_vector(app, row)
        want_t, want_c = slow_objectives(app, placement, devices)
        assert t == pytest.approx(want_t, abs=1e-9)
        assert c == pytest.approx(want_c, abs=1e-9)
        assert tuple(evaluate(app, placement, devices)) == (t, c)
        np.testing.assert_allclose(
            latency_contribution_matrix(app, placement, devices),
            edge_reference(app, placement, devices),
            rtol=0,
            atol=1e-9,
        )


@PROPERTY
@given(apps(), device_pools(), st.data())
def test_env_eligibility_and_telescoping(app, devices, data):
    env = PlacementEnv(app, devices, WeightVector(0.5, 0.5), bounds=NormBounds(1.0, 1.0))
    preds = {s: [src for src, dst in app.edges if dst == s] for s in env.services}
    start = env.reset()
    state, r_time, r_cost, done = start, 0.0, 0.0, False
    while not done:
        placed = {s for s, flag in zip(env.services, state.node_features[:, 2]) if flag}
        want = [s not in placed and all(p in placed for p in preds[s]) for s in env.services]
        assert env.eligible_services().tolist() == want
        assert state.eligible_mask.tolist() == want
        t, c = slow_objectives(app, env.placement(), devices)
        assert (state.t_app, state.cost) == (pytest.approx(t, abs=1e-9), pytest.approx(c, abs=1e-9))
        assert (state.t_app, state.cost) == tuple(evaluate(app, env.placement(), devices))
        np.testing.assert_allclose(
            state.node_features[:, 1], latency_feature(app, env.placement(), devices), atol=1e-12
        )

        k = data.draw(st.sampled_from(np.flatnonzero(want).tolist()))
        dev = data.draw(st.sampled_from([d.id for d in devices]))
        state, reward, done = env.step(Action(env.services[k], dev))
        r_time += reward.r_time
        r_cost += reward.r_cost
    t_final, c_final = slow_objectives(app, env.placement(), devices)
    assert (state.t_app, state.cost) == tuple(evaluate(app, env.placement(), devices))
    assert r_time == pytest.approx(start.t_app - t_final, abs=1e-9)
    assert r_cost == pytest.approx(start.cost - c_final, abs=1e-9)
    assert not env.eligible_services().any()


def test_column_major_totals_add_in_numpy_row_order():
    """``_Instance.totals`` sums a column-major matrix column by column, bit
    for bit as numpy's ``.sum(axis=1)`` sums each row of the C-ordered copy.

    Widths 2-7 reach the one-at-a-time branch, 8-128 the 8-partial branch and
    129-300 the halving branch; a width-1 matrix is C-ordered too. Ties, mixed
    magnitudes and signed zeros make any other order of additions show. This
    was checked on numpy 2.4.6; a numpy build that sums rows in another order
    fails here.
    """
    rng = np.random.default_rng(0)
    for width in range(1, 301):
        rows = rng.standard_normal((48, width)) * 10.0 ** rng.integers(-9, 10, size=(48, width))
        rows[rng.random(rows.shape) < 0.25] = 1.0
        rows[rng.random(rows.shape) < 0.05] = -0.0
        rows[0] = -0.0  # numpy starts from 0.0, so this row sums to 0.0
        columns = np.asfortranarray(rows)
        assert columns.flags.c_contiguous == (width == 1)
        heads = np.asfortranarray(rows[:, :3])
        times, costs = _Instance.totals(columns, heads, columns, columns)
        want_times, want_costs = _Instance.totals(rows, np.ascontiguousarray(heads), rows, rows)
        assert costs.tobytes() == rows.sum(axis=1).tobytes() == want_costs.tobytes(), width
        assert times.tobytes() == want_times.tobytes(), width

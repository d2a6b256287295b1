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
    ConfigurationError,
    Device,
    Placement,
    WeightVector,
    _Instance,
    analytic_bounds,
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
    bounds = analytic_bounds(app, devices)
    if bounds.max_time <= 0 or bounds.max_cost <= 0:
        # the env normalises by the analytic bounds, so it refuses such a pool
        with pytest.raises(ConfigurationError, match="bounds must be positive"):
            PlacementEnv(app, devices, WeightVector(0.5, 0.5))
        return
    env = PlacementEnv(app, devices, WeightVector(0.5, 0.5))
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


def left_to_right(matrix):
    """Each row's values added one at a time in Python, starting from 0.0."""
    sums = []
    for row in matrix.tolist():
        total = 0.0
        for value in row:
            total += value
        sums.append(total)
    return np.array(sums)


def test_totals_add_each_row_left_to_right_in_every_layout():
    """``_Instance.totals`` adds each row left to right from 0.0, bit for bit,
    whether the term matrices are C-ordered, column-major or strided views.

    Ties, mixed magnitudes and signed zeros make any other order of additions
    show: summing right to left moves some row at most widths. Width 0 is an
    app without edges; a row of -0.0 sums to 0.0, as it does from 0.0.
    """
    rng = np.random.default_rng(0)
    reordered = 0
    for width in range(0, 301):
        rows = rng.standard_normal((48, width)) * 10.0 ** rng.integers(-9, 10, size=(48, width))
        rows[rng.random(rows.shape) < 0.25] = 1.0
        rows[rng.random(rows.shape) < 0.05] = -0.0
        rows[0] = -0.0
        wide = np.zeros((96, 2 * width))
        wide[::2, ::2] = rows
        want = left_to_right(rows)
        want_times = want + left_to_right(rows[:, :3]) + want
        reordered += want.tobytes() != left_to_right(rows[:, ::-1]).tobytes()
        for layout in (rows, np.asfortranarray(rows), wide[::2, ::2]):
            np.testing.assert_array_equal(layout, rows)
            times, costs = _Instance.totals(layout, layout[:, :3], layout, layout)
            assert costs.tobytes() == want.tobytes(), (width, layout.flags)
            assert times.tobytes() == want_times.tobytes(), (width, layout.flags)
    assert reordered > 250

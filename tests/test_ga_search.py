"""Where weighted optima lie, and a GA test that only a searching GA passes.

On uniform-op apps every weighted optimum is a single-device placement, and
the solvers' seeded start holds one single-device chromosome per device, so
on such apps the GA's start already holds its answer. The apps here that
can tell a searching GA from its start therefore have per-service ops.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fogforge.evolutionary import EvoConfig, ga_solve
from fogforge.model import (
    Application,
    Device,
    WeightVector,
    analytic_bounds,
    batch_objectives,
    brute_force_oracle,
)


def single_device_objectives(app, devices, weights):
    """Weighted objective of each placement that puts every service on one device."""
    ids = np.array([d.id for d in devices], dtype=np.int64)
    times, costs = batch_objectives(app, devices, np.repeat(ids[:, None], app.service_count, axis=1))
    norms = analytic_bounds(app, devices)
    return weights.w_time * (times / norms.max_time) + weights.w_cost * (costs / norms.max_cost)


@st.composite
def uniform_op_instances(draw):
    """1-3 x 1-3 grids with one op count for every service, extra edges
    between services ordered by (column, row), and 2-4 devices of mixed
    speed, latency and cost."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    op = draw(st.sampled_from([0.0, 1.0, 2.0, 3.5]))
    services = [(i, j) for i in range(rows) for j in range(cols)]
    chain = Application.chain_edges(rows, cols)
    pairs = [
        (a, b) for a in services for b in services if (a[1], a[0]) < (b[1], b[0]) and (a, b) not in chain
    ]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)) if pairs else []
    app = Application(rows=rows, ops=((op,) * cols,) * rows, edges=chain + tuple(extra), cols=cols)
    n_dev = draw(st.integers(2, 4))
    value = st.sampled_from([0.0, 1.0, 2.5, 10.0, 20.0]) | st.floats(0.0, 50.0)
    devices = [
        Device(k, draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])), draw(value), draw(value))
        for k in range(n_dev)
    ]
    return app, devices


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    uniform_op_instances(),
    st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=3),
)
def test_uniform_op_weighted_optima_are_single_device(instance, w_times):
    """No weighted optimum of a uniform-op app is below its best single-device placement.

    Proof sketch, for any weights >= 0 and one op count for every service:
    - A service on device d adds a_d = w_c·cost_d/C + w_t·(ops/speed_d)/T,
      the same for every service.
    - Split each row chain into maximal runs on one device. Each run pays
      b_d = w_t·latency_d/T once: either the row head's latency, or the
      crossing edge into the run. Extra edges only add.
    - A row of m services then scores at least Σ over runs of
      (len·a_d + b_d). Since len ≤ m, that is at least min_d (m·a_d + b_d).
    - So every placement scores at least rows · min_d (m·a_d + b_d). The
      best single-device placement scores exactly that.
    Device speeds, latencies, costs and extra edges may be anything.
    """
    app, devices = instance
    norms = analytic_bounds(app, devices)
    assume(norms.max_time > 0 and norms.max_cost > 0)
    weights = [WeightVector(w, 1.0 - w) for w in w_times]
    result = brute_force_oracle(app, devices, weights=weights)
    for optimum in result.weighted:
        best_single = single_device_objectives(app, devices, optimum.weights).min()
        assert optimum.objective >= best_single


# Mixed-op 3x3 chain apps on 4 devices: the first three of numpy
# default_rng(123) draws (ops in 0-5; speeds in {0.5, 1, 2, 3}; latencies in
# {1, 10, ..., 50}; costs in {1, 10, ..., 40}) whose oracle (0.5, 0.5)
# optimum beats every single-device placement, found at draws 15, 25 and 90.
# Each entry is (ops, [(speed, latency, cost) per device]).
MIXED_OP_APPS = [
    (
        ((3.0, 2.0, 2.0), (0.0, 5.0, 1.0), (1.0, 0.0, 1.0)),
        [(1.0, 10.0, 40.0), (0.5, 20.0, 20.0), (2.0, 30.0, 20.0), (0.5, 10.0, 30.0)],
    ),
    (
        ((3.0, 2.0, 5.0), (4.0, 4.0, 3.0), (0.0, 2.0, 4.0)),
        [(3.0, 50.0, 40.0), (2.0, 20.0, 10.0), (0.5, 40.0, 10.0), (0.5, 10.0, 10.0)],
    ),
    (
        ((3.0, 1.0, 4.0), (5.0, 4.0, 4.0), (5.0, 0.0, 3.0)),
        [(2.0, 20.0, 30.0), (1.0, 1.0, 40.0), (2.0, 10.0, 40.0), (0.5, 50.0, 20.0)],
    ),
]


def test_ga_searches_past_its_seeded_start():
    """Over the three apps at ``EvoConfig(seed=s)``, s = 0-9, the GA reached
    the oracle's optimum on 3 + 10 + 0 = 13 of 30 runs and improved on its
    generation-0 best on 3 + 10 + 7 = 20. A GA whose offspring copy their
    parents never leaves its generation-0 population and scores 0 on both."""
    weights = WeightVector(0.5, 0.5)
    reached = improved = 0
    for ops, specs in MIXED_OP_APPS:
        app = Application(rows=3, ops=ops, edges=Application.chain_edges(3))
        devices = [Device(k, *spec) for k, spec in enumerate(specs)]
        optimum = brute_force_oracle(app, devices, weights=[weights]).weighted[0].objective
        assert optimum < single_device_objectives(app, devices, weights).min()
        for seed in range(10):
            result = ga_solve(app, devices, weights, EvoConfig(seed=seed))
            reached += result.objective == optimum
            improved += result.history[-1] < result.history[0]
    assert reached >= 10
    assert improved >= 16

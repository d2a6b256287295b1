"""Array Pareto kernels against the plain references in ``pareto_reference``.

Points come from small integer grids, so ties on one objective and exact
duplicates are common. The oracle is checked against a full
``itertools.product`` enumeration scored by ``batch_objectives``.
"""

import itertools

import numpy as np
import pareto_reference as ref
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from fogforge.evolutionary import (
    _environmental_selection,
    _rank_and_crowd,
    crowding_distance,
    fast_nondominated_sort,
)
from fogforge.env import Action, PlacementEnv
from fogforge.model import (
    Application,
    ConfigurationError,
    Device,
    ObjectivePoint,
    WeightVector,
    analytic_bounds,
    batch_objectives,
    brute_force_oracle,
    evaluate,
    hypervolume_2d,
    pareto_front,
    pareto_indices,
    weighted_objective,
)

PROPERTY = settings(max_examples=200, deadline=None)

coordinate = st.integers(min_value=0, max_value=6).map(float)
point_lists = st.lists(st.tuples(coordinate, coordinate), min_size=0, max_size=60)
signed_coordinate = st.sampled_from([0.0, -0.0, 1.0, 2.25, 2.5])
mixed_coordinate = coordinate | signed_coordinate


@PROPERTY
@given(st.lists(st.tuples(mixed_coordinate, mixed_coordinate), min_size=0, max_size=60))
def test_sort_matches_dominance_matrix(points):
    """Integer grids make ties and repeats; 0.0 against -0.0 and non-integer
    values check that equal points share a rank by float equality."""
    assert fast_nondominated_sort(points).tolist() == ref.nondominated_sort(points).tolist()


@PROPERTY
@given(point_lists)
def test_pareto_front_matches_set_reference(points):
    assert pareto_front(points) == ref.pareto_front(points)


@PROPERTY
@given(point_lists)
def test_pareto_indices_pick_first_occurrence(points):
    pts = np.array(points, dtype=np.float64).reshape(-1, 2)
    idx = pareto_indices(pts[:, 0], pts[:, 1])
    assert [ObjectivePoint(*pts[i]) for i in idx] == ref.pareto_front(points)
    assert [points.index(points[i]) for i in idx] == idx.tolist()


@PROPERTY
@given(
    point_lists | st.lists(st.tuples(mixed_coordinate, mixed_coordinate), max_size=60),
    st.sampled_from([0.0, 2.0, 3.5, 6.0, 9.0, np.inf]),
    st.sampled_from([0.0, 2.0, 3.5, 6.0, 9.0, np.inf]),
)
def test_hypervolume_matches_running_total_bit_for_bit(points, ref_time, ref_cost):
    """Reference points inside the grid leave some front points outside, on
    its edge or past it."""
    reference = ObjectivePoint(ref_time, ref_cost)
    got = hypervolume_2d(points, reference)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(ref.hypervolume_2d(points, reference)).tobytes()


NAN = float("nan")


@pytest.mark.parametrize("points", [[(1.0, NAN), (2.0, 1.0), (0.5, 5.0)], [(2.0, 1.0), (NAN, 0.0)]])
@pytest.mark.parametrize(
    "call",
    [
        fast_nondominated_sort,
        crowding_distance,
        pareto_front,
        lambda points: hypervolume_2d(points, ObjectivePoint(9.0, 9.0)),
    ],
    ids=["fast_nondominated_sort", "crowding_distance", "pareto_front", "hypervolume_2d"],
)
def test_nan_points_are_refused(call, points):
    """NaN compares false both ways, so no dominance order holds it: unchecked,
    the sort ranks the non-dominated (2, 1) 2 and the front drops it."""
    with pytest.raises(ConfigurationError, match="NaN"):
        call(points)


@st.composite
def kernel_points(draw):
    """Point lists drawn from a small pool, so repeats are many, with ties in
    one coordinate, +inf and non-integers; never -0.0 or NaN, which NSGA-II's
    points cannot hold."""
    coordinate = st.sampled_from([0.0, 1.0, 2.5, 3.0, np.inf]) | st.floats(0.0, 6.0).map(
        lambda x: x + 0.0  # -0.0 becomes 0.0
    )
    pool = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@PROPERTY
@given(kernel_points())
def test_rank_and_crowd_matches_sort_crowding_and_repeats(points):
    pts = np.array(points, dtype=np.float64)
    want_ranks = ref.nondominated_sort(pts)
    # +inf makes inf - inf and inf / inf in both, which must agree as NaN bits too
    with np.errstate(invalid="ignore"):
        ranks, crowding, repeats = _rank_and_crowd(pts)
        want_crowding = ref.group_crowding_distance(pts, want_ranks)
    assert ranks.tolist() == want_ranks.tolist()
    assert crowding.tobytes() == want_crowding.tobytes()
    assert repeats.tolist() == ref.repeats(pts).tolist()


@PROPERTY
@given(point_lists.filter(len), st.data())
def test_environmental_selection_keeps_ranks(points, data):
    """Survivors keep their ranks, and a repeated point survives only once
    every distinct point has."""
    pts = np.array(points, dtype=np.float64)
    ranks, crowding, repeats = _rank_and_crowd(pts)
    size = data.draw(st.integers(min_value=1, max_value=len(pts)))
    survivors = _environmental_selection(ranks, crowding, repeats, size)
    assert ranks[survivors].tolist() == ref.nondominated_sort(pts[survivors]).tolist()
    assert repeats[survivors].sum() == max(0, size - np.count_nonzero(~repeats))


@PROPERTY
@given(point_lists)
def test_crowding_matches_per_front_reference(points):
    pts = np.array(points, dtype=np.float64).reshape(-1, 2)
    got = crowding_distance(pts)
    want = ref.crowding_distance(pts, ref.nondominated_sort(pts))
    assert got.tobytes() == want.tobytes()



def test_batch_objectives_sums_signed_zeros_to_positive_zero():
    """NSGA-II finds repeated points by float equality, which is byte
    equality only without -0.0: every total is summed onto +0.0, so all
    -0.0 ops, latencies and costs still give +0.0, in either layout and in
    the oracle's blocks."""
    app = Application(
        rows=2,
        ops=((-0.0, -0.0), (-0.0, -0.0)),
        edges=Application.chain_edges(2) + (((0, 0), (1, 1)),),
    )
    devices = [Device(3, speed=1.0, latency=-0.0, cost=-0.0), Device(5, speed=2.0, latency=-0.0, cost=-0.0)]
    vectors = np.array(list(itertools.product([3, 5], repeat=app.service_count)), dtype=np.int64)
    for assignments in (vectors, np.asfortranarray(vectors)):
        times, costs = batch_objectives(app, devices, assignments)
        assert times.tolist() == costs.tolist() == [0.0] * len(vectors)
        assert not np.signbit(times).any() and not np.signbit(costs).any()
    for chunk in (2, 16):
        assert not np.signbit(brute_force_oracle(app, devices, chunk=chunk).front).any()


small_value = st.integers(min_value=0, max_value=4).map(float)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 2).map(float), small_value, small_value), min_size=1, max_size=3),
    st.lists(small_value, min_size=4, max_size=4),
    st.integers(min_value=1, max_value=90),
)
def test_oracle_does_not_depend_on_chunk(specs, ops, chunk):
    app = Application(
        rows=2,
        ops=(tuple(ops[:2]), tuple(ops[2:])),
        edges=Application.chain_edges(2) + (((0, 0), (1, 1)),),
    )
    devices = [Device(id=10 + k, speed=s, latency=lat, cost=c) for k, (s, lat, c) in enumerate(specs)]
    result = brute_force_oracle(app, devices, chunk=chunk)

    # every placement in lexicographic order over device positions
    vectors = np.array(
        list(itertools.product([d.id for d in devices], repeat=app.service_count)), dtype=np.int64
    )
    times, costs = batch_objectives(app, devices, vectors)
    points = [ObjectivePoint(float(t), float(c)) for t, c in zip(times, costs)]
    assert result.front == ref.pareto_front(points)
    want = [vectors[points.index(p)].tolist() for p in result.front]
    assert [p.to_vector(app).tolist() for p in result.front_placements] == want


def tied_or_real(low, high, *ties):
    """A value from a few shared constants, which makes ties, or any float in range."""
    return st.one_of(st.sampled_from(ties), st.floats(low, high))


@st.composite
def oracle_instances(draw):
    """Up to 4 services on up to 4 devices, with extra edges in either row-major
    direction, non-integer values and device ids that are permuted with holes."""
    rows = draw(st.integers(1, 2))
    cols = draw(st.integers(1, 4 // rows))
    services = [(i, j) for i in range(rows) for j in range(cols)]
    ops = tuple(tuple(draw(tied_or_real(0.0, 4.0, 0.0, 1.0)) for _ in range(cols)) for _ in range(rows))
    # ranking services by (column, shuffled row) keeps every row chain and
    # extra edge acyclic while letting extra edges point to an earlier row
    row_rank = draw(st.permutations(range(rows)))
    rank = {(i, j): (j, row_rank[i]) for i, j in services}
    pairs = [(a, b) for a in services for b in services if rank[a] < rank[b]]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)) if pairs else []
    edges = draw(st.permutations(sorted(set(Application.chain_edges(rows, cols)) | set(extra))))
    app = Application(rows=rows, ops=ops, edges=tuple(edges), cols=cols)

    n_dev = draw(st.integers(1, 3 if len(services) == 4 else 4))
    ids = draw(st.lists(st.integers(0, 40), min_size=n_dev, max_size=n_dev, unique=True))
    speeds = draw(st.lists(tied_or_real(0.5, 3.0, 1.0), min_size=n_dev, max_size=n_dev))
    latencies = draw(st.lists(tied_or_real(0.0, 4.0, 0.0, 1.0), min_size=n_dev, max_size=n_dev))
    costs = draw(st.lists(tied_or_real(0.5, 4.0, 1.0, 2.0), min_size=n_dev, max_size=n_dev))
    if draw(st.booleans()):  # the nearer, the dearer: long fronts
        latencies, costs = sorted(latencies), sorted(costs, reverse=True)
    specs = list(zip(speeds, latencies, costs))
    if draw(st.booleans()):  # twin devices: distinct placements with equal points
        specs[-1] = specs[0]
    devices = [Device(i, *spec) for i, spec in zip(ids, specs)]
    return app, devices


@settings(max_examples=60, deadline=None)
@given(
    oracle_instances(),
    st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99), min_size=1, max_size=2),
)
def test_oracle_matches_enumeration_at_every_chunk(instance, w_times):
    """A zero weight lets a dominated placement tie the weighted minimum; the
    first placement reaching it must still win."""
    app, devices = instance
    weights = [WeightVector(w, 1.0 - w) for w in w_times]
    norms = analytic_bounds(app, devices)
    assume(norms.max_time > 0)

    # every placement in lexicographic order over device positions
    vectors = np.array(
        list(itertools.product([d.id for d in devices], repeat=app.service_count)), dtype=np.int64
    )
    times, costs = batch_objectives(app, devices, vectors)
    points = [ObjectivePoint(float(t), float(c)) for t, c in zip(times, costs)]
    front = ref.pareto_front(points)
    placements = [vectors[points.index(p)].tolist() for p in front]
    weighted = []
    for w in weights:
        objs = [weighted_objective(p, w, norms) for p in points]
        first = objs.index(min(objs))
        weighted.append((w, vectors[first].tolist(), points[first], objs[first]))
    target(float(len(front)), label="front points")

    # chunk sizes from one row to past the whole enumeration cover every split
    for chunk in range(1, len(vectors) + 2):
        result = brute_force_oracle(app, devices, weights=weights, chunk=chunk)
        assert result.enumerated == len(vectors)
        assert result.front == front
        assert [p.to_vector(app).tolist() for p in result.front_placements] == placements
        assert [
            (o.weights, o.placement.to_vector(app).tolist(), o.point, o.objective)
            for o in result.weighted
        ] == weighted


def test_oracle_matches_enumeration_on_a_long_front():
    """Devices on a latency/cost trade-off give a front of 12 points, where
    the block screen against the front's last point and the searchsorted
    test against the rest both decide: one block, six blocks and 1,296."""
    app = Application(
        rows=2,
        ops=((1.0, 2.0, 1.5), (0.5, 1.0, 2.0)),
        edges=Application.chain_edges(2, 3) + (((0, 1), (1, 2)),),
        cols=3,
    )
    devices = [
        Device(10 + 3 * k, speed=1.0 + 0.5 * k, latency=9.0 - 1.7 * k, cost=0.5 + 0.3 * k * k)
        for k in range(6)
    ]
    weights = [WeightVector(0.0, 1.0), WeightVector(0.5, 0.5), WeightVector(1.0, 0.0)]
    norms = analytic_bounds(app, devices)

    # every placement in lexicographic order over device positions
    vectors = np.array(
        list(itertools.product([d.id for d in devices], repeat=app.service_count)), dtype=np.int64
    )
    times, costs = batch_objectives(app, devices, vectors)
    front_idx = pareto_indices(times, costs)
    front = [ObjectivePoint(t, c) for t, c in zip(times[front_idx].tolist(), costs[front_idx].tolist())]
    assert len(front) >= 8
    weighted = []
    for w in weights:
        objs = w.w_time * (times / norms.max_time) + w.w_cost * (costs / norms.max_cost)
        first = int(np.argmin(objs))  # the first placement reaching the minimum
        weighted.append((w, vectors[first].tolist(), ObjectivePoint(times[first], costs[first]), objs[first]))

    for chunk in (6**6, 6**5, 6**2):
        result = brute_force_oracle(app, devices, weights=weights, chunk=chunk)
        assert result.front == front
        assert [p.to_vector(app).tolist() for p in result.front_placements] == vectors[front_idx].tolist()
        assert [
            (o.weights, o.placement.to_vector(app).tolist(), o.point, o.objective)
            for o in result.weighted
        ] == weighted


def test_oracle_scores_non_integer_values_as_every_other_path():
    """Nine services with non-integer values, where the order of additions
    moves bits: the oracle's column-major blocks at every block size, the C-
    ordered ``batch_objectives`` enumeration, ``evaluate`` and an env stepped
    to each front placement give the same bits."""
    app = Application(
        rows=3,
        ops=((1.5, 2.25, 0.7), (3.1, 0.4, 2.6), (1.9, 0.35, 4.2)),
        edges=Application.chain_edges(3) + (((0, 2), (1, 1)),),
    )
    devices = [
        Device(7, speed=3.0, latency=0.3, cost=2.9),
        Device(2, speed=1.3, latency=1.7, cost=1.1),
        Device(11, speed=0.7, latency=4.9, cost=0.45, is_cloud=True),
    ]
    weights = [WeightVector(0.5, 0.5), WeightVector(0.3, 0.7)]
    norms = analytic_bounds(app, devices)
    vectors = np.array(
        list(itertools.product([d.id for d in devices], repeat=app.service_count)), dtype=np.int64
    )
    times, costs = batch_objectives(app, devices, vectors)
    points = [ObjectivePoint(float(t), float(c)) for t, c in zip(times, costs)]
    front = ref.pareto_front(points)
    placements = [vectors[points.index(p)].tolist() for p in front]
    weighted = []
    for w in weights:
        objs = [weighted_objective(p, w, norms) for p in points]
        first = objs.index(min(objs))
        weighted.append((w, vectors[first].tolist(), points[first], objs[first]))
    assert len(front) > 20

    # block sizes of one, five and all nine services
    for chunk in (3, 243, 19_683):
        result = brute_force_oracle(app, devices, weights=weights, chunk=chunk)
        assert np.array(result.front).tobytes() == np.array(front).tobytes()
        assert [p.to_vector(app).tolist() for p in result.front_placements] == placements
        assert [
            (o.weights, o.placement.to_vector(app).tolist(), o.point, o.objective)
            for o in result.weighted
        ] == weighted

    for placement, point in zip(result.front_placements, result.front):
        assert np.array(evaluate(app, placement, devices)).tobytes() == np.array(point).tobytes()
        env = PlacementEnv(app, devices, weights[0])
        for service in env.services:  # row-major order places predecessors first
            state, _, _ = env.step(Action(service, placement.assignment[service]))
        assert np.array([state.t_app, state.cost]).tobytes() == np.array(point).tobytes()

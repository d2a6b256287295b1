"""Objective evaluation, Pareto utilities, and the exhaustive oracle."""

import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest

import fogforge.model
from fogforge.agents import AgentConfig, PolicyModel, load_checkpoint, save_checkpoint
from fogforge.gin import GinConfig
from fogforge.model import (
    Application,
    ConfigurationError,
    Device,
    InstanceTooLargeError,
    InvalidPlacementError,
    NormBounds,
    ObjectivePoint,
    Placement,
    WeightVector,
    _Instance,
    analytic_bounds,
    batch_objectives,
    brute_force_oracle,
    dominates,
    evaluate,
    from_json,
    hypervolume_2d,
    latency_contribution_matrix,
    pareto_front,
    placement_cost,
    read_json,
    response_time,
    weighted_objective,
)
from fogforge.scenarios import ScenarioConfig, generate_scenario
from fogforge.training import TrainConfig


def make_app(rows, ops=0.0, extra_edges=()):
    grid = tuple(tuple(float(ops) for _ in range(rows)) for _ in range(rows))
    return Application(rows=rows, ops=grid, edges=Application.chain_edges(rows) + tuple(extra_edges))


def random_app(rng, rows, max_extra=4):
    ops = tuple(tuple(float(rng.integers(0, 5)) for _ in range(rows)) for _ in range(rows))
    edges = set(Application.chain_edges(rows))
    services = [(i, j) for i in range(rows) for j in range(rows)]
    if len(services) > 1:
        for _ in range(int(rng.integers(0, max_extra + 1))):
            a, b = sorted(rng.choice(len(services), size=2, replace=False))
            edges.add((services[a], services[b]))  # index order keeps the graph acyclic
    return Application(rows=rows, ops=ops, edges=tuple(sorted(edges)))


def random_devices(rng, count):
    return [
        Device(
            id=k,
            speed=float(rng.integers(1, 4)),
            latency=float(rng.integers(0, 50)),
            cost=float(rng.integers(0, 40)),
            is_cloud=(k == 0),
        )
        for k in range(count)
    ]


def slow_objectives(app, placement, devices):
    """Per-service accumulation, written independently of the library's array kernel."""
    dev = {d.id: d for d in devices}
    time = 0.0
    cost = 0.0
    for i in range(app.rows):
        for j in range(app.cols):
            here = dev[placement.assignment[(i, j)]]
            time += app.ops[i][j] / here.speed
            cost += here.cost
            if j == 0:
                time += here.latency
            for src, dst in app.edges:
                if dst == (i, j) and placement.assignment[src] != placement.assignment[dst]:
                    time += here.latency
    return time, cost


# --- worked three-row example -------------------------------------------------

WORKED_EXTRAS = (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (2, 0)), ((0, 2), (2, 1)))


def worked_example():
    app = make_app(3, ops=0.0, extra_edges=WORKED_EXTRAS)
    devices = [
        Device(id=0, speed=1.0, latency=2.0, cost=0.0, is_cloud=True),
        Device(id=1, speed=1.0, latency=6.0, cost=0.0),
        Device(id=2, speed=1.0, latency=10.0, cost=0.0),
        Device(id=3, speed=1.0, latency=3.0, cost=0.0),
    ]
    placement = Placement.from_vector(app, [0, 0, 0, 1, 1, 1, 2, 2, 3])
    return app, devices, placement


def test_worked_example_response_time():
    app, devices, placement = worked_example()
    assert response_time(app, placement, devices) == pytest.approx(53.0, abs=1e-12)


def test_worked_example_latency_matrix():
    app, devices, placement = worked_example()
    matrix = latency_contribution_matrix(app, placement, devices)
    expected = np.array([[0.0, 0.0, 0.0], [6.0, 6.0, 0.0], [10.0, 10.0, 3.0]])
    np.testing.assert_allclose(matrix, expected)


def test_worked_example_single_device_collapses_edges():
    app, devices, _ = worked_example()
    solo = Placement.uniform(app, 2)
    # only the three row heads pay latency
    assert response_time(app, solo, devices) == pytest.approx(30.0)
    assert latency_contribution_matrix(app, solo, devices).sum() == 0.0


# --- evaluation properties ----------------------------------------------------

def test_response_time_matches_independent_walk():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = int(rng.integers(1, 4))
        app = random_app(rng, rows)
        devices = random_devices(rng, int(rng.integers(1, 5)))
        vec = rng.integers(0, len(devices), size=app.service_count)
        placement = Placement.from_vector(app, vec)
        t, c = slow_objectives(app, placement, devices)
        assert response_time(app, placement, devices) == pytest.approx(t, abs=1e-9)
        assert placement_cost(app, placement, devices) == pytest.approx(c, abs=1e-9)


def test_batch_objectives_matches_scalar_path():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows = int(rng.integers(1, 4))
        app = random_app(rng, rows)
        devices = random_devices(rng, int(rng.integers(1, 5)))
        batch = rng.integers(0, len(devices), size=(16, app.service_count))
        times, costs = batch_objectives(app, devices, batch)
        for row, t, c in zip(batch, times, costs):
            want_t, want_c = slow_objectives(app, Placement.from_vector(app, row), devices)
            assert t == pytest.approx(want_t, abs=1e-9)
            assert c == pytest.approx(want_c, abs=1e-9)


def test_latency_matrix_total_plus_access_equals_latency_part():
    rng = np.random.default_rng(13)
    for _ in range(100):
        app = random_app(rng, 3)
        devices = random_devices(rng, 4)
        placement = Placement.from_vector(app, rng.integers(0, 4, size=9))
        dev = {d.id: d for d in devices}
        exec_time = sum(
            app.ops[i][j] / dev[placement.assignment[(i, j)]].speed
            for i in range(3)
            for j in range(3)
        )
        access = sum(dev[placement.assignment[(i, 0)]].latency for i in range(3))
        matrix = latency_contribution_matrix(app, placement, devices)
        assert exec_time + access + matrix.sum() == pytest.approx(
            slow_objectives(app, placement, devices)[0], abs=1e-9
        )


def test_placement_errors():
    app = make_app(2)
    devices = [Device(id=0, speed=1.0, latency=1.0, cost=1.0, is_cloud=True)]
    with pytest.raises(InvalidPlacementError):
        response_time(app, Placement({(0, 0): 0}), devices)
    with pytest.raises(InvalidPlacementError):
        response_time(app, Placement.uniform(app, 99), devices)
    with pytest.raises(InvalidPlacementError):
        Placement.from_vector(app, [0, 0, 0])
    with pytest.raises(InvalidPlacementError):
        batch_objectives(app, devices, np.array([[0, 0, 0, 7]]))
    with pytest.raises(InvalidPlacementError):
        batch_objectives(app, devices, np.array([[0, 0, -1, 0]]))


def test_device_ids_translate_to_positions():
    app = make_app(2, ops=3.0, extra_edges=[((0, 0), (1, 1))])
    base = random_devices(np.random.default_rng(5), 3)
    for ids in ((2, 1, 0), (0, 7, 3)):  # permuted, and with holes
        devices = [
            Device(id=i, speed=d.speed, latency=d.latency, cost=d.cost) for i, d in zip(ids, base)
        ]
        for vec in itertools.product(ids, repeat=app.service_count):
            placement = Placement.from_vector(app, vec)
            assert evaluate(app, placement, devices) == pytest.approx(
                slow_objectives(app, placement, devices), abs=1e-9
            )
    with pytest.raises(InvalidPlacementError):  # id 1 falls in a hole of the id table
        batch_objectives(app, devices, np.array([[0, 1, 0, 0]]))


def test_duplicate_device_ids_rejected():
    # with a repeated id every evaluator used to score the last device holding it
    app = Application(rows=1, cols=2, ops=((0.0, 0.0),), edges=Application.chain_edges(1, 2))
    devices = [
        Device(id=0, speed=1.0, latency=50.0, cost=20.0, is_cloud=True),
        Device(id=1, speed=1.0, latency=1.0, cost=1.0),
        Device(id=1, speed=1.0, latency=40.0, cost=40.0),
    ]
    on_one = Placement.uniform(app, 1)
    for call in (
        lambda: evaluate(app, on_one, devices),
        lambda: latency_contribution_matrix(app, on_one, devices),
        lambda: batch_objectives(app, devices, np.array([[1, 1]])),
        lambda: brute_force_oracle(app, devices),
    ):
        with pytest.raises(ConfigurationError, match="duplicate device ids"):
            call()


def test_device_ids_must_fit_int64():
    Device(id=2**63 - 1, speed=1.0, latency=0.0, cost=1.0)
    with pytest.raises(ConfigurationError, match=f"device {2**63}: id"):
        Device(id=2**63, speed=1.0, latency=0.0, cost=1.0)


def test_application_validation():
    with pytest.raises(ConfigurationError):
        Application(rows=2, ops=((0.0, 0.0),), edges=Application.chain_edges(2))
    with pytest.raises(ConfigurationError):  # missing chain edge
        Application(rows=2, ops=((0.0, 0.0), (0.0, 0.0)), edges=(((0, 0), (0, 1)),))
    with pytest.raises(ConfigurationError, match="cycle"):  # through an extra back edge
        make_app(2, extra_edges=[((0, 1), (0, 0))])
    with pytest.raises(ConfigurationError, match="cycle"):  # extra edges only
        make_app(3, extra_edges=[((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (0, 0))])
    with pytest.raises(ConfigurationError):
        make_app(2, extra_edges=[((0, 0), (5, 5))])
    with pytest.raises(ConfigurationError, match="duplicate"):  # would be charged twice
        make_app(2, extra_edges=[((0, 0), (0, 1))])
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ConfigurationError, match="ops"):
            Application(rows=1, cols=2, ops=((0.0, bad),), edges=Application.chain_edges(1, 2))


def test_rectangular_grid():
    app = Application(
        rows=1, cols=3, ops=((0.0, 0.0, 0.0),), edges=Application.chain_edges(1, 3)
    )
    assert app.service_count == 3
    assert list(app.services()) == [(0, 0), (0, 1), (0, 2)]
    assert app.service_index((0, 2)) == 2
    devices = [
        Device(id=0, speed=1.0, latency=60.0, cost=0.0, is_cloud=True),
        Device(id=1, speed=1.0, latency=15.0, cost=0.0),
    ]
    # chain split across the two devices: head access + both edges cross
    split = Placement.from_vector(app, [1, 0, 1])
    assert response_time(app, split, devices) == pytest.approx(15 + 60 + 15)
    times, costs = batch_objectives(app, devices, np.array([[1, 0, 1], [0, 0, 0]]))
    np.testing.assert_allclose(times, [90.0, 60.0])


def test_device_validation():
    with pytest.raises(ConfigurationError):
        Device(id=0, speed=0.0, latency=1.0, cost=1.0)
    with pytest.raises(ConfigurationError):
        Device(id=0, speed=1.0, latency=-1.0, cost=1.0)
    with pytest.raises(ConfigurationError, match="id"):
        Device(id=-1, speed=1.0, latency=1.0, cost=1.0)
    for speed, latency, cost in (
        (np.inf, 1.0, 1.0),
        (np.nan, 1.0, 1.0),
        (1.0, np.nan, 1.0),
        (1.0, np.inf, 1.0),
        (1.0, 1.0, np.nan),
        (1.0, 1.0, np.inf),
    ):
        with pytest.raises(ConfigurationError, match="finite"):
            Device(id=0, speed=speed, latency=latency, cost=cost)


# --- scalarization ------------------------------------------------------------

def test_weighted_objective_and_weight_checks():
    norms = NormBounds(max_time=100.0, max_cost=50.0)
    point = ObjectivePoint(time=25.0, cost=10.0)
    assert weighted_objective(point, WeightVector(0.5, 0.5), norms) == pytest.approx(
        0.5 * 0.25 + 0.5 * 0.2
    )
    assert weighted_objective(point, WeightVector(1.0, 0.0), norms) == pytest.approx(0.25)
    with pytest.raises(ConfigurationError):
        weighted_objective(point, WeightVector(0.7, 0.7), norms)
    with pytest.raises(ConfigurationError):
        weighted_objective(point, WeightVector(-0.5, 1.5), norms)
    with pytest.raises(ConfigurationError):
        weighted_objective(point, WeightVector(0.5, 0.5), NormBounds(0.0, 50.0))


def test_analytic_bounds_are_upper_bounds():
    rng = np.random.default_rng(17)
    for _ in range(100):
        app = random_app(rng, int(rng.integers(1, 4)))
        devices = random_devices(rng, int(rng.integers(1, 5)))
        bounds = analytic_bounds(app, devices)
        for _ in range(10):
            p = Placement.from_vector(app, rng.integers(0, len(devices), app.service_count))
            t, c = evaluate(app, p, devices)
            assert t <= bounds.max_time + 1e-9
            assert c <= bounds.max_cost + 1e-9


# --- Pareto utilities ---------------------------------------------------------

def test_dominates_truth_table():
    a = ObjectivePoint(1.0, 5.0)
    assert dominates(a, ObjectivePoint(2.0, 5.0))
    assert dominates(a, ObjectivePoint(1.0, 6.0))
    assert dominates(a, ObjectivePoint(2.0, 6.0))
    assert not dominates(a, a)
    assert not dominates(a, ObjectivePoint(0.5, 6.0))
    assert not dominates(ObjectivePoint(0.5, 6.0), a)


def scan_front(points):
    """Quadratic reference implementation of the non-dominated subset."""
    unique = sorted(set(points))
    return [p for p in unique if not any(dominates(q, p) for q in unique if q != p)]


def test_pareto_front_matches_quadratic_scan():
    rng = np.random.default_rng(19)
    for _ in range(100):
        pts = [
            ObjectivePoint(float(rng.integers(0, 10)), float(rng.integers(0, 10)))
            for _ in range(int(rng.integers(1, 40)))
        ]
        got = pareto_front(pts)
        assert got == scan_front(pts)
        assert got == sorted(got)
        assert len(got) == len(set(got))


def test_pareto_front_collapses_duplicates():
    pts = [ObjectivePoint(1.0, 1.0)] * 5 + [ObjectivePoint(2.0, 0.5)] * 3
    assert pareto_front(pts) == [ObjectivePoint(1.0, 1.0), ObjectivePoint(2.0, 0.5)]


def grid_hypervolume(points, ref):
    """Exact dominated area for integer-coordinate points by unit-cell counting."""
    area = 0
    for x in range(int(ref.time)):
        for y in range(int(ref.cost)):
            if any(p.time <= x and p.cost <= y for p in points):
                area += 1
    return float(area)


def test_hypervolume_matches_cell_counting():
    rng = np.random.default_rng(23)
    ref = ObjectivePoint(12.0, 12.0)
    for _ in range(50):
        pts = [
            ObjectivePoint(float(rng.integers(0, 15)), float(rng.integers(0, 15)))
            for _ in range(int(rng.integers(1, 10)))
        ]
        assert hypervolume_2d(pts, ref) == pytest.approx(grid_hypervolume(pts, ref))


def test_hypervolume_ignores_points_outside_reference():
    ref = ObjectivePoint(10.0, 10.0)
    assert hypervolume_2d([ObjectivePoint(11.0, 1.0)], ref) == 0.0
    assert hypervolume_2d([ObjectivePoint(10.0, 1.0)], ref) == 0.0
    assert hypervolume_2d([ObjectivePoint(4.0, 4.0)], ref) == pytest.approx(36.0)


# --- exhaustive oracle --------------------------------------------------------

def test_oracle_enumeration_count_and_front():
    rng = np.random.default_rng(29)
    app = random_app(rng, 2)
    devices = random_devices(rng, 2)
    result = brute_force_oracle(app, devices)
    assert result.enumerated == 16

    all_points = []
    for code in range(16):
        vec = [(code >> (3 - k)) & 1 for k in range(4)]
        all_points.append(evaluate(app, Placement.from_vector(app, vec), devices))
    assert result.front == pareto_front(all_points)
    for placement, point in zip(result.front_placements, result.front):
        assert evaluate(app, placement, devices) == pytest.approx(point)


def test_oracle_weighted_argmin_matches_scan():
    rng = np.random.default_rng(31)
    for _ in range(10):
        app = random_app(rng, 2)
        devices = random_devices(rng, 3)
        norms = analytic_bounds(app, devices)
        weights = [WeightVector(0.5, 0.5), WeightVector(1.0, 0.0), WeightVector(0.0, 1.0)]
        result = brute_force_oracle(app, devices, weights=weights, chunk=17)

        for wopt in result.weighted:
            best = min(
                weighted_objective(
                    evaluate(app, Placement.from_vector(app, [a, b, c, d]), devices),
                    wopt.weights,
                    norms,
                )
                for a in range(3)
                for b in range(3)
                for c in range(3)
                for d in range(3)
            )
            assert wopt.objective == pytest.approx(best, abs=1e-12)
            direct = weighted_objective(
                evaluate(app, wopt.placement, devices), wopt.weights, norms
            )
            assert direct == pytest.approx(wopt.objective, abs=1e-12)


def test_oracle_chunking_invariance():
    rng = np.random.default_rng(37)
    app = random_app(rng, 2)
    devices = random_devices(rng, 3)
    big = brute_force_oracle(app, devices, chunk=100_000)
    small = brute_force_oracle(app, devices, chunk=7)
    assert big.front == small.front


def test_oracle_builds_its_instance_once(monkeypatch):
    rng = np.random.default_rng(43)
    app = random_app(rng, 2)
    devices = random_devices(rng, 3)
    expected = brute_force_oracle(app, devices, weights=[WeightVector(0.5, 0.5)])
    builds = []
    build = _Instance.build

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(_Instance, "build", counted)
    result = brute_force_oracle(app, devices, weights=[WeightVector(0.5, 0.5)], chunk=17)
    assert len(builds) == 1
    assert result == expected


def test_oracle_reuses_row_sums_when_a_block_start_repeats(monkeypatch):
    # equal speeds and costs: every block has the same execution and cost
    # start; the head start is the first service's latency, which changes
    # only when it moves to the next device, every 3 of the 9 blocks
    app = make_app(2, ops=1.0)
    devices = [Device(id=k, speed=1.0, latency=0.5 * k, cost=2.0) for k in range(3)]
    weights = [WeightVector(0.5, 0.5), WeightVector(0.0, 1.0)]
    expected = brute_force_oracle(app, devices, weights=weights)  # one block
    calls = []
    row_sums = fogforge.model._row_sums

    def counted(columns, start):
        calls.append(columns.shape)
        return row_sums(columns, start)

    monkeypatch.setattr(fogforge.model, "_row_sums", counted)
    result = brute_force_oracle(app, devices, weights=weights, chunk=9)
    assert result == expected
    blocks = 9
    # per block: four start sums and the refilled edge columns; the execution
    # and cost columns once, the head columns once per head start
    assert len(calls) == 5 * blocks + 1 + 1 + 3


def test_oracle_results_follow_relabelled_device_ids():
    rng = np.random.default_rng(47)
    app = random_app(rng, 2)
    devices = random_devices(rng, 4)
    weights = [WeightVector(0.5, 0.5), WeightVector(1.0, 0.0)]
    new_id = {0: 9, 1: 2, 2: 6, 3: 0}  # permuted, with holes
    relabelled = [
        Device(new_id[d.id], d.speed, d.latency, d.cost, d.is_cloud) for d in devices
    ]

    def renamed(placement):
        return Placement({s: new_id[d] for s, d in placement.assignment.items()})

    base = brute_force_oracle(app, devices, weights=weights, chunk=11)
    result = brute_force_oracle(app, relabelled, weights=weights, chunk=11)
    assert result.front == base.front
    assert result.front_placements == [renamed(p) for p in base.front_placements]
    for got, want in zip(result.weighted, base.weighted):
        assert (got.point, got.objective) == (want.point, want.objective)
        assert got.placement == renamed(want.placement)
    for placement, point in zip(result.front_placements, result.front):
        assert evaluate(app, placement, relabelled) == point
    for optimum in result.weighted:
        assert evaluate(app, optimum.placement, relabelled) == optimum.point


def test_oracle_cap():
    app = make_app(3)
    devices = random_devices(np.random.default_rng(41), 4)
    with pytest.raises(InstanceTooLargeError):
        brute_force_oracle(app, devices, cap=1000)
    for cap in (0, -1, 2.5, True, "10"):  # a cap must be an int >= 1
        with pytest.raises(ConfigurationError, match="cap"):
            brute_force_oracle(app, devices, cap=cap)


def test_from_json_round_trips_asdict(tmp_path):
    def round_trip(kind, value):
        assert from_json(kind, json.loads(json.dumps(asdict(value))), "x") == value

    round_trip(TrainConfig, TrainConfig())
    round_trip(TrainConfig, TrainConfig.desk())
    scenario = generate_scenario(ScenarioConfig(device_count=4, app_rows=(2,)), seed=3)
    round_trip(ScenarioConfig, scenario.config)
    devices = json.loads(json.dumps([asdict(d) for d in scenario.devices]))
    assert from_json(tuple[Device, ...], devices, "devices") == scenario.devices
    agent = AgentConfig(gin=GinConfig(hidden_dim=4, batch_norm=False), head_width=8)
    path = tmp_path / "model.json"
    save_checkpoint(PolicyModel(6, agent, np.random.default_rng(0)), path)
    round_trip(AgentConfig, load_checkpoint(path).config)


@pytest.mark.parametrize(
    "raw, where",
    [
        ({"scenario": {"cloud_latency": "50"}}, "config.scenario.cloud_latency"),
        ({"scenario": {"app_rows": [3, 2.0]}}, r"config.scenario.app_rows\[1\]"),
        ({"learning_rate": True}, "config.learning_rate"),
        ({"episodes": 3.0}, "config.episodes"),
        ({"ppo": {"grad_clip_norm": "1"}}, "config.ppo.grad_clip_norm"),
        ({"agent": {"gin": {"batch_norm": 1}}}, "config.agent.gin.batch_norm"),
        ({"agent": {"gin": []}}, "config.agent.gin must be a JSON object"),
        ({"weights": [0.5]}, "config.weights must be a list of 2 values"),
        ({"weights": [0.5, "0.5"]}, r"config.weights\[1\]"),
        ({"scenario": {"op_count": 10**400}}, "config.scenario.op_count must be a number"),
        ({"scenario": {"extra": 1}}, r"config.scenario has unknown fields \['extra'\]"),
        ([], "config must be a JSON object"),
    ],
)
def test_from_json_names_the_field_of_a_wrong_json_type(raw, where):
    with pytest.raises(ConfigurationError, match=where):
        from_json(TrainConfig, raw, "config")


def test_from_json_type_rules():
    assert from_json(float, 2, "x") == 2.0 and type(from_json(float, 2, "x")) is float
    assert from_json(float | None, None, "x") is None
    assert from_json(WeightVector, [1, 0], "w") == WeightVector(1.0, 0.0)
    assert from_json(GinConfig, {"hidden_dim": 4, "note": "x"}, "gin", ignore_unknown=True) == (
        GinConfig(hidden_dim=4)
    )
    with pytest.raises(ConfigurationError, match="d.speed is missing"):
        from_json(Device, {"id": 1, "latency": 1.0, "cost": 1.0}, "d")
    assert from_json(list[str], ["a"], "x") == ["a"]
    assert from_json(dict, {"k": [1]}, "x") == {"k": [1]}
    for kind, value in ((int, True), (int, 1.0), (float, False), (float, "1"), (bool, 0),
                        (str, 1), (str, None), (dict, []), (list[str], ("a",)), (list[str], [1])):
        with pytest.raises(ConfigurationError, match="x(\\[0\\])? must be"):
            from_json(kind, value, "x")


def test_read_json_refuses_nesting_too_deep_to_decode(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)  # json.loads raises RecursionError
    with pytest.raises(ConfigurationError, match="deep.json: scenario file is not valid JSON"):
        read_json(path, "scenario file")

"""Environment mechanics: eligibility, difference rewards, telescoping."""

import numpy as np
import pytest

from fogforge.env import Action, IllegalActionError, PlacementEnv, rollout_random
from fogforge.model import (
    Application,
    Device,
    WeightVector,
    placement_cost,
    response_time,
)
from fogforge.scenarios import Scenario, ScenarioConfig, generate_scenario

HALF = WeightVector(0.5, 0.5)


def chain3_scenario():
    """Three-service chain, zero ops: the worked reward-evolution example."""
    app = Application(rows=1, cols=3, ops=((0.0, 0.0, 0.0),), edges=Application.chain_edges(1, 3))
    devices = (
        Device(id=0, speed=1.0, latency=60.0, cost=1.0, is_cloud=True),
        Device(id=1, speed=1.0, latency=15.0, cost=1.0),
        Device(id=2, speed=1.0, latency=2.0, cost=1.0),
        Device(id=3, speed=1.0, latency=30.0, cost=1.0),
    )
    config = ScenarioConfig(device_count=3, app_rows=(1,), op_count=0.0)
    return Scenario(config=config, devices=devices, applications=(app,))


def grid_scenario(seed=0, **overrides):
    defaults = dict(device_count=4, app_rows=(3,))
    defaults.update(overrides)
    return generate_scenario(ScenarioConfig(**defaults), seed=seed)


def test_reset_all_on_cloud():
    scenario = grid_scenario(op_count=0.0)
    env = PlacementEnv(scenario, HALF)
    state = env.reset()
    assert state.t_app == pytest.approx(150.0)  # 3 row heads x cloud latency 50
    assert not state.placed_mask.any()
    assert (state.assignment == scenario.cloud.id).all()
    assert state.cost == pytest.approx(9 * scenario.cloud.cost)
    assert state.step_count == 0


def test_reset_is_reproducible():
    env = PlacementEnv(grid_scenario(seed=3), HALF)
    a = env.reset()
    rollout_random(env, np.random.default_rng(0))
    b = env.reset()
    np.testing.assert_array_equal(a.service_features, b.service_features)
    np.testing.assert_array_equal(a.device_features, b.device_features)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    assert a.t_app == b.t_app and a.cost == b.cost


def test_reward_evolution_example():
    env = PlacementEnv(chain3_scenario(), HALF)
    state = env.reset()
    assert state.t_app == pytest.approx(60.0)

    moves = [Action((0, 0), 1), Action((0, 1), 2), Action((0, 2), 3)]
    expected_t = [75.0, 77.0, 47.0]
    expected_r = [-15.0, -2.0, 30.0]
    times, rewards = [], []
    done = False
    for action in moves:
        state, reward, done = env.step(action)
        times.append(state.t_app)
        rewards.append(reward.r_time)
    assert done
    assert times == pytest.approx(expected_t)
    assert rewards == pytest.approx(expected_r)
    # cumulative reward with the initial -60 accounts for the final time
    assert -(-60.0 + sum(rewards)) == pytest.approx(47.0)


def test_eligibility_respects_dependencies():
    extras = (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (2, 0)), ((0, 2), (2, 1)))
    ops = tuple(tuple(0.0 for _ in range(3)) for _ in range(3))
    app = Application(rows=3, ops=ops, edges=Application.chain_edges(3) + extras)
    devices = (
        Device(id=0, speed=1.0, latency=50.0, cost=1.0, is_cloud=True),
        Device(id=1, speed=1.0, latency=1.0, cost=1.0),
    )
    config = ScenarioConfig(device_count=1, op_count=0.0)
    env = PlacementEnv(Scenario(config=config, devices=devices, applications=(app,)), HALF)
    env.reset()

    first = env.eligible_services()
    assert [env.services[k] for k in np.flatnonzero(first)] == [(0, 0)]

    env.step(Action((0, 0), 1))
    second = env.eligible_services()
    assert [env.services[k] for k in np.flatnonzero(second)] == [(0, 1), (1, 0)]


def test_eligibility_chain_and_terminal():
    env = PlacementEnv(chain3_scenario(), HALF)
    env.reset()
    env.step(Action((0, 0), 0))
    mask = env.eligible_services()
    assert [env.services[k] for k in np.flatnonzero(mask)] == [(0, 1)]
    env.step(Action((0, 1), 0))
    env.step(Action((0, 2), 0))
    assert not env.eligible_services().any()


def test_noop_move_zero_reward():
    scenario = grid_scenario()
    env = PlacementEnv(scenario, HALF)
    env.reset()
    mask = env.eligible_services()
    svc = env.services[int(np.flatnonzero(mask)[0])]
    _, reward, _ = env.step(Action(svc, scenario.cloud.id))
    assert reward.r_time == 0.0
    assert reward.r_cost == 0.0
    assert reward.r_total == 0.0


def test_illegal_actions_raise():
    env = PlacementEnv(chain3_scenario(), HALF)
    env.reset()
    with pytest.raises(IllegalActionError):
        env.step(Action((0, 1), 0))  # predecessor not placed yet
    with pytest.raises(IllegalActionError):
        env.step(Action((0, 0), 99))  # no such device
    with pytest.raises(IllegalActionError):
        env.step(Action((5, 5), 0))  # no such service
    env.step(Action((0, 0), 1))
    with pytest.raises(IllegalActionError):
        env.step(Action((0, 0), 1))  # already placed


def test_trajectory_length_equals_service_count():
    rng = np.random.default_rng(5)
    for seed in range(5):
        env = PlacementEnv(grid_scenario(seed=seed), HALF)
        trace = rollout_random(env, rng)
        assert len(trace) == 9


def test_telescoping_identity():
    rng = np.random.default_rng(11)
    for seed in range(20):
        scenario = grid_scenario(seed=seed, device_count=5)
        env = PlacementEnv(scenario, HALF)
        start = env.reset()
        trace = rollout_random(env, rng)
        final = env.placement()
        t_final = response_time(scenario.applications[0], final, scenario.devices)
        c_final = placement_cost(scenario.applications[0], final, scenario.devices)
        assert sum(r.r_time for _, r in trace) == pytest.approx(
            start.t_app - t_final, abs=1e-9
        )
        assert sum(r.r_cost for _, r in trace) == pytest.approx(
            start.cost - c_final, abs=1e-9
        )


def test_reward_weighting():
    scenario = grid_scenario(seed=2)
    bounds = scenario.bounds()
    for weights in [WeightVector(1.0, 0.0), WeightVector(0.25, 0.75)]:
        env = PlacementEnv(scenario, weights)
        env.reset()
        trace = rollout_random(env, np.random.default_rng(7))
        for _, r in trace:
            expected = (
                weights.w_time * r.r_time / bounds.max_time
                + weights.w_cost * r.r_cost / bounds.max_cost
            )
            assert r.r_total == pytest.approx(expected, abs=1e-12)


def test_state_shapes_and_ranges():
    scenario = grid_scenario(seed=8, device_count=6)
    env = PlacementEnv(scenario, HALF)
    state = env.reset()
    assert state.service_features.shape == (9, 3)
    assert state.device_features.shape == (3, 27)
    rng = np.random.default_rng(13)
    done = False
    while not done:
        assert (state.service_features >= 0).all() and (state.service_features <= 1).all()
        assert (state.device_features >= 0).all() and (state.device_features <= 1).all()
        mask = env.eligible_services()
        svc = env.services[int(rng.choice(np.flatnonzero(mask)))]
        dev = int(rng.choice(env.device_ids))
        state, _, done = env.step(Action(svc, dev))
    assert state.placed_mask.all()
    assert (state.service_features[:, 2] == 1.0).all()


def test_device_feature_replication():
    scenario = grid_scenario(seed=4, device_count=5)
    env = PlacementEnv(scenario, HALF)
    state = env.reset()
    rollups = state.device_features
    # lat/speed/cost rows are constant across the three replicated columns
    for t in range(9):
        block = rollups[:, 3 * t : 3 * t + 3]
        assert (block == block[:, :1]).all()
    max_lat = max(d.latency for d in scenario.devices)
    np.testing.assert_allclose(
        rollups[0, ::3], [scenario.cloud.latency / max_lat] * 9
    )


def test_static_graph_helpers():
    scenario = grid_scenario(seed=6)
    env = PlacementEnv(scenario, HALF)
    app = scenario.applications[0]
    assert env.adjacency.shape == (9, 9)
    np.testing.assert_array_equal(env.adjacency, env.adjacency.T)
    assert env.adjacency.sum() == 2 * len(app.edges)
    assert env.degree_features.shape == (9, 2)
    assert env.degree_features.min() >= 0 and env.degree_features.max() <= 1
    indeg = np.array([sum(dst == s for _, dst in app.edges) for s in env.services], dtype=float)
    outdeg = np.array([sum(src == s for src, _ in app.edges) for s in env.services], dtype=float)
    np.testing.assert_array_equal(
        env.degree_features, np.stack([indeg / indeg.max(), outdeg / outdeg.max()], axis=1)
    )
    for src, dst in app.edges:
        u, v = app.service_index(src), app.service_index(dst)
        assert env.adjacency[u, v] == env.adjacency[v, u] == 1.0



def test_device_classes_rebuild_the_feature_rows():
    app = grid_scenario().applications[0]
    distinct = (Device(id=0, speed=1.0, latency=50.0, cost=20.0, is_cloud=True),) + tuple(
        Device(id=k, speed=1.0 + k, latency=10.0 * k, cost=30.0 - k) for k in range(1, 6)
    )
    all_distinct = Scenario(
        config=ScenarioConfig(device_count=5), devices=distinct, applications=(app,)
    )
    generated = [grid_scenario(seed=s, device_count=n) for s in range(3) for n in (20, 1000)]
    for scenario in [*generated, all_distinct]:
        env = PlacementEnv(scenario, HALF)
        assert env.device_class_of.shape == (len(scenario.devices),)
        np.testing.assert_array_equal(
            env.device_classes[env.device_class_of], env.device_features_all
        )
        assert len(np.unique(env.device_classes, axis=0)) == len(env.device_classes)
        if scenario is all_distinct:
            assert len(env.device_classes) == len(distinct)
        elif len(scenario.devices) == 1001:
            assert len(env.device_classes) < 100  # 6 latencies x 5 costs, plus the cloud

"""Environment mechanics: eligibility, difference rewards, telescoping."""

import copy
from dataclasses import fields, replace

import numpy as np
import pytest

from fogforge.env import Action, EnvState, IllegalActionError, PlacementEnv, rollout_random
from fogforge.model import (
    Application,
    ConfigurationError,
    Device,
    WeightVector,
    placement_cost,
    response_time,
)
from fogforge.scenarios import Scenario, ScenarioConfig, generate_scenario

HALF = WeightVector(0.5, 0.5)


def chain3_env():
    """Three-service chain, zero ops: the worked reward-evolution example."""
    app = Application(rows=1, cols=3, ops=((0.0, 0.0, 0.0),), edges=Application.chain_edges(1, 3))
    devices = (
        Device(id=0, speed=1.0, latency=60.0, cost=1.0, is_cloud=True),
        Device(id=1, speed=1.0, latency=15.0, cost=1.0),
        Device(id=2, speed=1.0, latency=2.0, cost=1.0),
        Device(id=3, speed=1.0, latency=30.0, cost=1.0),
    )
    return PlacementEnv(app, devices, HALF)


def grid_scenario(seed=0, **overrides):
    defaults = dict(device_count=4, app_rows=(3,))
    defaults.update(overrides)
    return generate_scenario(ScenarioConfig(**defaults), seed=seed)


def test_reset_all_on_cloud():
    scenario = grid_scenario(op_count=0.0)
    env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)
    state = env.reset()
    assert state.t_app == pytest.approx(150.0)  # 3 row heads x cloud latency 50
    assert not state.node_features[:, 2].any()
    assert set(env.placement().assignment.values()) == {scenario.cloud.id}
    assert state.cost == pytest.approx(9 * scenario.cloud.cost)


def test_reset_is_reproducible():
    scenario = grid_scenario(seed=3)
    env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)
    a = env.reset()
    rollout_random(env, np.random.default_rng(0))
    b = env.reset()
    np.testing.assert_array_equal(a.node_features, b.node_features)
    np.testing.assert_array_equal(a.host_latency, b.host_latency)
    np.testing.assert_array_equal(a.eligible_mask, b.eligible_mask)
    assert a.t_app == b.t_app and a.cost == b.cost


def test_first_step_without_reset_matches_step_after_reset():
    scenario = grid_scenario(seed=9)
    app, devices = scenario.applications[0], scenario.devices
    fresh = PlacementEnv(app, devices, HALF)
    explicit = PlacementEnv(app, devices, HALF)
    explicit.reset()
    service = explicit.services[int(np.flatnonzero(explicit.eligible_services())[0])]
    fog = next(d.id for d in devices if not d.is_cloud)
    got, got_reward, _ = fresh.step(Action(service, fog))
    want, want_reward, _ = explicit.step(Action(service, fog))
    for field in fields(EnvState):
        np.testing.assert_array_equal(
            getattr(got, field.name), getattr(want, field.name), err_msg=field.name
        )
    assert got_reward == want_reward and got_reward.r_total != 0.0


def test_non_positive_bounds_fail_when_the_env_is_built():
    # every device costs 0, so the analytic cost bound is 0
    scenario = grid_scenario(seed=5, cost_choices=(0.0,), cloud_cost=0.0)
    assert scenario.bounds().max_cost == 0.0
    with pytest.raises(ConfigurationError, match="bounds must be positive"):
        PlacementEnv(scenario.applications[0], scenario.devices, HALF)


def test_reward_evolution_example():
    env = chain3_env()
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
    env = PlacementEnv(app, devices, HALF)
    env.reset()

    first = env.eligible_services()
    assert [env.services[k] for k in np.flatnonzero(first)] == [(0, 0)]

    env.step(Action((0, 0), 1))
    second = env.eligible_services()
    assert [env.services[k] for k in np.flatnonzero(second)] == [(0, 1), (1, 0)]


def test_eligibility_chain_and_terminal():
    env = chain3_env()
    env.reset()
    env.step(Action((0, 0), 0))
    mask = env.eligible_services()
    assert [env.services[k] for k in np.flatnonzero(mask)] == [(0, 1)]
    env.step(Action((0, 1), 0))
    env.step(Action((0, 2), 0))
    assert not env.eligible_services().any()


def test_noop_move_zero_reward():
    scenario = grid_scenario()
    env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)
    env.reset()
    mask = env.eligible_services()
    svc = env.services[int(np.flatnonzero(mask)[0])]
    _, reward, _ = env.step(Action(svc, scenario.cloud.id))
    assert reward.r_time == 0.0
    assert reward.r_cost == 0.0
    assert reward.r_total == 0.0


def test_illegal_actions_raise():
    env = chain3_env()
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
        scenario = grid_scenario(seed=seed)
        env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)
        trace = rollout_random(env, rng)
        assert len(trace) == 9


def test_telescoping_identity():
    rng = np.random.default_rng(11)
    for seed in range(20):
        scenario = grid_scenario(seed=seed, device_count=5)
        env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)
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
        env = PlacementEnv(scenario.applications[0], scenario.devices, weights)
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
    env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)
    state = env.reset()
    assert state.node_features.shape == (9, 5)
    assert state.host_latency.shape == (9,)
    rng = np.random.default_rng(13)
    done = False
    while not done:
        assert (state.node_features >= 0).all() and (state.node_features <= 1).all()
        assert (state.host_latency >= 0).all() and (state.host_latency <= 1).all()
        mask = env.eligible_services()
        svc = env.services[int(rng.choice(np.flatnonzero(mask)))]
        dev = int(rng.choice(env.device_ids))
        state, _, done = env.step(Action(svc, dev))
    assert (state.node_features[:, 2] == 1.0).all()


def test_host_latency_tracks_each_service_host():
    scenario = grid_scenario(seed=4, device_count=5)
    max_lat = max(d.latency for d in scenario.devices)
    normalised = {d.id: d.latency / max_lat for d in scenario.devices}
    env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)

    def expected():
        hosts = env.placement().assignment
        return [normalised[hosts[s]] for s in env.services]

    state = env.reset()
    np.testing.assert_array_equal(state.host_latency, [scenario.cloud.latency / max_lat] * 9)
    trace = rollout_random(env, np.random.default_rng(17))
    state = env.reset()
    moved = 0
    for action, _ in trace:  # replay the random episode, checking every step
        state, _, _ = env.step(action)
        np.testing.assert_array_equal(state.host_latency, expected())
        moved += action.device != scenario.cloud.id
    assert moved > 0


def test_kept_states_are_snapshots():
    """A state handed out earlier in the episode never changes, and it holds
    references to the env's static arrays rather than copies of them."""
    scenario = grid_scenario(seed=6, device_count=5)
    env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)
    kept = []

    def keep(method):
        def call(*args):
            out = method(*args)
            state = out if isinstance(out, EnvState) else out[0]
            kept.append((state, copy.deepcopy(state)))
            return out

        return call

    env.reset, env.step = keep(env.reset), keep(env.step)
    rollout_random(env, np.random.default_rng(19))
    assert len(kept) == 1 + env.task_count
    assert not kept[0][0].node_features[:, 2].any() and kept[-1][0].node_features[:, 2].all()
    for state, snapshot in kept:
        for field in fields(EnvState):
            np.testing.assert_array_equal(
                getattr(state, field.name), getattr(snapshot, field.name), err_msg=field.name
            )
        np.testing.assert_array_equal(state.node_features[:, 3:], env.degree_features)
        assert state.adjacency is env.adjacency
        assert state.device_classes is env.device_classes
        assert state.device_class_of is env.device_class_of


def test_device_pool_needs_exactly_one_cloud():
    scenario = grid_scenario(seed=5)
    app, devices = scenario.applications[0], scenario.devices
    no_cloud = tuple(replace(d, is_cloud=False) for d in devices)
    two_clouds = devices + (Device(id=99, speed=1.0, latency=50.0, cost=20.0, is_cloud=True),)
    for pool, found in ((no_cloud, 0), (two_clouds, 2)):
        with pytest.raises(ConfigurationError, match=f"exactly one cloud, found {found}"):
            PlacementEnv(app, pool, HALF)


def test_static_graph_helpers():
    scenario = grid_scenario(seed=6)
    env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)
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
        env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)
        assert env.device_class_of.shape == (len(scenario.devices),)
        np.testing.assert_array_equal(
            env.device_classes[env.device_class_of], env.device_rows
        )
        assert len(np.unique(env.device_classes, axis=0)) == len(env.device_classes)
        if scenario is all_distinct:
            assert len(env.device_classes) == len(distinct)
        elif len(scenario.devices) == 1001:
            assert len(env.device_classes) < 100  # 6 latencies x 5 costs, plus the cloud

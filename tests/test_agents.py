"""Policy heads, masking, PPO mechanics, checkpoints."""

import numpy as np
import pytest

from fogforge.agents import (
    AgentConfig,
    DivergenceError,
    PolicyModel,
    PpoHyper,
    Transition,
    collect_trajectory,
    load_checkpoint,
    make_observation,
    ppo_update,
    save_checkpoint,
    trajectory_returns,
)
from fogforge.env import PlacementEnv
from fogforge.gin import GinConfig
from fogforge.model import ConfigurationError, Device, WeightVector
from fogforge.nn import Adam
from fogforge.scenarios import Scenario, ScenarioConfig, generate_scenario

HALF = WeightVector(0.5, 0.5)

SMALL = AgentConfig(
    gin=GinConfig(node_feature_dim=5, hidden_dim=8, k_iterations=2, mlp_layers=2),
    actor_hidden_layers=2,
    critic_hidden_layers=2,
    head_width=16,
)


def make_env(seed=0, device_count=3, rows=3, **kw):
    scenario = generate_scenario(
        ScenarioConfig(device_count=device_count, app_rows=(rows,), **kw), seed=seed
    )
    return PlacementEnv(scenario, HALF)


def fresh(env, seed=0, config=SMALL):
    return PolicyModel(env.task_count, config, np.random.default_rng(seed))


def test_single_eligible_service_is_forced():
    env = make_env(extra_edge_prob=0.0, rows=2)
    model = fresh(env)
    state = env.reset()
    obs = make_observation(env, state)
    # chain heads (0,0) and (1,0) eligible; restrict to one by masking
    obs.eligible[:] = False
    obs.eligible[0] = True
    svc, logp = model.select_service(obs, mode="sample", rng=np.random.default_rng(1))
    assert svc == 0
    assert logp == pytest.approx(0.0, abs=1e-12)


def test_uniform_scores_sample_uniformly_and_respect_mask():
    env = make_env(extra_edge_prob=0.0)
    model = fresh(env)
    for p in model.actor_s.parameters():
        p.data = np.zeros_like(p.data)  # identical scores for every node
    obs = make_observation(env, env.reset())
    eligible = np.flatnonzero(obs.eligible)
    assert len(eligible) == 3  # the three row heads

    rng = np.random.default_rng(2)
    counts = np.zeros(env.task_count)
    draws = 30_000
    for _ in range(draws):
        svc, _ = model.select_service(obs, mode="sample", rng=rng)
        counts[svc] += 1
    assert counts[~obs.eligible].sum() == 0  # masked services never sampled
    np.testing.assert_allclose(counts[eligible] / draws, 1 / 3, atol=0.02)


def test_single_device_forced():
    cloud = Device(id=0, speed=1.0, latency=50.0, cost=20.0, is_cloud=True)
    scenario = Scenario(
        config=ScenarioConfig(device_count=1, app_rows=(2,)),
        devices=(cloud,),
        applications=(generate_scenario(ScenarioConfig(device_count=1, app_rows=(2,)), 0).applications[0],),
    )
    env = PlacementEnv(scenario, HALF)
    model = fresh(env)
    obs = make_observation(env, env.reset())
    dev, logp = model.select_device(obs, 0, mode="sample", rng=np.random.default_rng(3))
    assert dev == 0
    assert logp == pytest.approx(0.0, abs=1e-12)


def test_identical_devices_get_identical_probabilities():
    cloud = Device(id=0, speed=1.0, latency=50.0, cost=20.0, is_cloud=True)
    twin_a = Device(id=1, speed=1.0, latency=10.0, cost=5.0)
    twin_b = Device(id=2, speed=1.0, latency=10.0, cost=5.0)
    scenario = Scenario(
        config=ScenarioConfig(device_count=2, app_rows=(2,)),
        devices=(cloud, twin_a, twin_b),
        applications=(generate_scenario(ScenarioConfig(device_count=2, app_rows=(2,)), 1).applications[0],),
    )
    env = PlacementEnv(scenario, HALF)
    model = fresh(env)
    obs = make_observation(env, env.reset())
    ev1 = model.evaluate_actions(obs, 0, 1)
    ev2 = model.evaluate_actions(obs, 0, 2)
    assert ev1["logp_d"].item() == pytest.approx(ev2["logp_d"].item(), abs=1e-9)


def test_greedy_mode_is_deterministic():
    env = make_env(seed=4)
    model = fresh(env, seed=4)
    first, _ = collect_trajectory(model, env, mode="greedy")
    second, _ = collect_trajectory(model, env, mode="greedy")
    assert [(t.service_index, t.device_pos) for t in first] == [
        (t.service_index, t.device_pos) for t in second
    ]


def test_trajectory_record_and_replay_consistency():
    env = make_env(seed=5)
    model = fresh(env, seed=5)
    transitions, final_state = collect_trajectory(
        model, env, rng=np.random.default_rng(6)
    )
    assert len(transitions) == env.task_count
    assert transitions[-1].done and not any(t.done for t in transitions[:-1])
    assert final_state.placed_mask.all()
    for t in transitions:
        ev = model.evaluate_actions(t.obs, t.service_index, t.device_pos)
        assert ev["logp_s"].item() == pytest.approx(t.logp_service, abs=1e-12)
        assert ev["logp_d"].item() == pytest.approx(t.logp_device, abs=1e-12)
        assert ev["value_s"].item() == pytest.approx(t.value_service, abs=1e-12)
        assert ev["value_d"].item() == pytest.approx(t.value_device, abs=1e-12)


def test_returns_are_suffix_sums():
    assert trajectory_returns([1.0, 2.0, 3.0]) == [6.0, 5.0, 3.0]
    assert trajectory_returns([]) == []


def test_first_epoch_ratio_is_one():
    env = make_env(seed=7)
    model = fresh(env, seed=7)
    rng = np.random.default_rng(8)
    trajectories = [collect_trajectory(model, env, rng=rng)[0] for _ in range(2)]
    opt = Adam(model.parameters(), lr=1e-3)
    report = ppo_update(model, trajectories, PpoHyper(update_epochs=1), opt)
    assert report.mean_ratio_s_first_epoch == pytest.approx(1.0, abs=1e-9)
    assert report.mean_ratio_d_first_epoch == pytest.approx(1.0, abs=1e-9)


def test_update_moves_parameters():
    env = make_env(seed=9)
    model = fresh(env, seed=9)
    rng = np.random.default_rng(10)
    before = {k: v.data.copy() for k, v in model.named_parameters().items()}
    trajectories = [collect_trajectory(model, env, rng=rng)[0] for _ in range(2)]
    ppo_update(model, trajectories, PpoHyper(), Adam(model.parameters(), lr=0.01))
    moved = [
        name
        for name, param in model.named_parameters().items()
        if not np.array_equal(before[name], param.data)
    ]
    assert moved  # at least some parameters moved


def test_clipped_ratio_blocks_policy_gradient():
    env = make_env(seed=11)
    model = fresh(env, seed=11)
    transitions, _ = collect_trajectory(model, env, rng=np.random.default_rng(12))
    doctored = []
    for t in transitions:
        doctored.append(
            Transition(
                obs=t.obs,
                service_index=t.service_index,
                device_pos=t.device_pos,
                # stored log-probs shifted so the new/old ratio is ~1.5 > 1.25
                logp_service=t.logp_service - np.log(1.5),
                logp_device=t.logp_device - np.log(1.5),
                value_service=t.value_service,
                value_device=t.value_device,
                reward=100.0,  # keeps every advantage positive
                done=t.done,
            )
        )
    hyper = PpoHyper(update_epochs=1, policy_coef=3.0, value_coef=0.0, entropy_coef=0.0)
    opt = Adam(model.parameters(), lr=0.0001)
    ppo_update(model, [doctored], hyper, opt)
    # clipped surrogate active everywhere: no gradient reaches any parameter
    for name, param in model.named_parameters().items():
        assert param.grad is not None, name
        assert np.abs(param.grad).max() == 0.0, name


def bandit_setup():
    """Single service, cloud vs one near device: picking the device pays off."""
    app = generate_scenario(ScenarioConfig(device_count=1, app_rows=(1,)), 0).applications[0]
    devices = (
        Device(id=0, speed=1.0, latency=50.0, cost=10.0, is_cloud=True),
        Device(id=1, speed=1.0, latency=1.0, cost=10.0),
    )
    scenario = Scenario(
        config=ScenarioConfig(device_count=1, app_rows=(1,)), devices=devices, applications=(app,)
    )
    return PlacementEnv(scenario, WeightVector(1.0, 0.0))


def device_probability(model, obs, pos):
    return float(np.exp(model.evaluate_actions(obs, 0, pos)["logp_d"].item()))


def test_bandit_favors_rewarding_device():
    env = bandit_setup()
    model = fresh(env, seed=13)
    rng = np.random.default_rng(14)
    obs0 = make_observation(env, env.reset())
    p_start = device_probability(model, obs0, 1)
    opt = Adam(model.parameters(), lr=0.01)
    for _ in range(50):
        trajectories = [collect_trajectory(model, env, rng=rng)[0] for _ in range(8)]
        ppo_update(model, trajectories, PpoHyper(), opt)
    p_end = device_probability(model, obs0, 1)
    assert p_end > p_start
    assert p_end > 0.9


def test_task_count_mismatch_rejected():
    env_small = make_env(rows=2)
    env_big = make_env(rows=3)
    model = fresh(env_big)
    obs = make_observation(env_small, env_small.reset())
    with pytest.raises(ConfigurationError):
        model.select_service(obs, mode="greedy")


def test_divergent_update_aborts():
    env = make_env(seed=15)
    model = fresh(env, seed=15)
    transitions, _ = collect_trajectory(model, env, rng=np.random.default_rng(16))
    model.actor_s.linears[0].w.data[0, 0] = np.nan
    with pytest.raises(DivergenceError):
        ppo_update(model, [transitions], PpoHyper(), Adam(model.parameters()))


def test_non_finite_parameters_abort_update():
    env = make_env(seed=15)
    model = fresh(env, seed=15)
    transitions, _ = collect_trajectory(model, env, rng=np.random.default_rng(16))
    optimizer = Adam(model.parameters())
    optimizer.lr = np.inf  # finite loss, but the step leaves non-finite weights
    with pytest.raises(DivergenceError, match="parameters"):
        ppo_update(model, [transitions], PpoHyper(), optimizer)


def test_checkpoint_round_trip(tmp_path):
    env = make_env(seed=17)
    model = fresh(env, seed=17)
    obs = make_observation(env, env.reset())
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    clone = load_checkpoint(path)

    assert clone.task_count == model.task_count
    for (n1, p1), (n2, p2) in zip(
        sorted(model.named_parameters().items()), sorted(clone.named_parameters().items())
    ):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)

    ev_a = model.evaluate_actions(obs, 0, 0)
    ev_b = clone.evaluate_actions(obs, 0, 0)
    assert ev_a["logp_s"].item() == ev_b["logp_s"].item()
    assert ev_a["logp_d"].item() == ev_b["logp_d"].item()


def test_checkpoint_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="no such checkpoint"):
        load_checkpoint(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigurationError, match="corrupt"):
        load_checkpoint(bad)
    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"format_version": 1}')
    with pytest.raises(ConfigurationError, match="malformed"):
        load_checkpoint(truncated)

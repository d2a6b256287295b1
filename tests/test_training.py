"""Training loop, checkpoint selection, parameter transfer, and the sweep."""

from dataclasses import replace

import numpy as np
import pytest

from fogforge.agents import AgentConfig, PolicyModel, PpoHyper
from fogforge.gin import GinConfig
from fogforge.model import ConfigurationError, Device, WeightVector, evaluate, pareto_front
from fogforge.scenarios import ScenarioConfig, generate_scenario
from fogforge.training import (
    SWEEP_SCHEDULE,
    ScenarioDataset,
    TrainConfig,
    build_datasets,
    evaluate_policy,
    infer_placement,
    sweep,
    train,
    transfer_parameters,
)

SMALL_AGENT = AgentConfig(
    gin=GinConfig(hidden_dim=8, k_iterations=2, mlp_layers=2),
    actor_hidden_layers=2,
    critic_hidden_layers=2,
    head_width=16,
)


def tiny_config(**overrides):
    base = dict(
        episodes=4,
        envs_per_episode=2,
        eval_interval=2,
        train_size=3,
        test_size=2,
        validation_size=2,
        scenario=ScenarioConfig(device_count=4, app_rows=(3,)),
        agent=SMALL_AGENT,
        seed=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny():
    config = tiny_config()
    return config, build_datasets(config)


# --- config and datasets ------------------------------------------------------


def test_default_config_full_scale():
    config = TrainConfig()
    assert config.episodes == 150
    assert config.envs_per_episode == 40
    assert config.weights == WeightVector(0.5, 0.5)


def test_desk_config_overrides():
    config = TrainConfig.desk()
    assert config.episodes == 60
    assert config.envs_per_episode == 8
    assert config.scenario.device_count == 20
    assert config.scenario.app_rows == (3,)


def test_config_validation():
    with pytest.raises(ConfigurationError, match="episodes"):
        tiny_config(episodes=-1)
    with pytest.raises(ConfigurationError, match="envs_per_episode"):
        tiny_config(envs_per_episode=0)
    with pytest.raises(ConfigurationError, match="eval_interval"):
        tiny_config(eval_interval=0)
    with pytest.raises(ConfigurationError, match="dataset sizes"):
        tiny_config(test_size=0)
    for size in (2.0, "2"):
        with pytest.raises(ConfigurationError, match="dataset sizes"):
            tiny_config(validation_size=size)
    with pytest.raises(ConfigurationError, match="threads"):
        tiny_config(threads=0)
    with pytest.raises(ConfigurationError, match="threads"):
        tiny_config(threads=2)
    with pytest.raises(ConfigurationError, match="weights"):
        tiny_config(weights=WeightVector(0.9, 0.5))
    # PPO's real-number fields refuse bools, strings and None by name
    for field, value in (
        ("policy_coef", True),
        ("value_coef", "2.0"),
        ("entropy_coef", None),
        ("clip_ratio", "0.2"),
        ("clip_ratio", True),
        ("grad_clip_norm", True),
        ("grad_clip_norm", "1.0"),
    ):
        with pytest.raises(ConfigurationError, match=field):
            PpoHyper(**{field: value})
    assert PpoHyper(clip_ratio=np.float64(0.2), policy_coef=1).clip_ratio == 0.2


@pytest.mark.parametrize(
    "field, value",
    [
        ("learning_rate", 0.0),
        ("learning_rate", -0.1),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("lr_decay_gamma", 0.0),
        ("lr_decay_gamma", 1.5),
        ("lr_decay_gamma", float("nan")),
        ("lr_decay_interval", 0),
        ("learning_rate", True),
        ("learning_rate", "0.1"),
        ("learning_rate", None),
        ("lr_decay_gamma", True),
        ("lr_decay_gamma", "0.9"),
        ("episodes", 2.0),
        ("envs_per_episode", True),
        ("eval_interval", 1.5),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", True),
    ],
)
def test_optimizer_and_count_validation(field, value):
    with pytest.raises(ConfigurationError, match=field):
        tiny_config(**{field: value})


def test_datasets_disjoint_by_seed(tiny):
    config, datasets = tiny
    seeds = {
        "train": {sc.seed for sc in datasets.train},
        "test": {sc.seed for sc in datasets.test},
        "validation": {sc.seed for sc in datasets.validation},
    }
    assert len(seeds["train"]) == config.train_size
    assert not seeds["train"] & seeds["test"]
    assert not seeds["train"] & seeds["validation"]
    assert not seeds["test"] & seeds["validation"]
    assert datasets.task_count == 9


def test_dataset_split_validation():
    scenario = generate_scenario(ScenarioConfig(device_count=2, app_rows=(3,)), seed=0)
    other = generate_scenario(ScenarioConfig(device_count=2, app_rows=(2,)), seed=1)
    with pytest.raises(ConfigurationError, match="non-empty"):
        ScenarioDataset(train=(scenario,), test=(), validation=(scenario,))
    with pytest.raises(ConfigurationError, match="service counts"):
        ScenarioDataset(train=(scenario,), test=(other,), validation=(scenario,))


# --- training loop ------------------------------------------------------------


def test_zero_episodes_returns_initialized_model(tiny):
    config, datasets = tiny
    result = train(tiny_config(episodes=0), datasets)
    assert result.metrics == []
    assert result.best_test_metric is None
    assert result.episodes_trained == 0
    assert not result.diverged
    assert result.model.task_count == 9


def test_training_metrics_deterministic(tiny):
    config, datasets = tiny
    a = train(config, datasets)
    b = train(config, datasets)
    assert a.metrics == b.metrics
    assert a.best_test_metric == b.best_test_metric
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_metrics_rows_carry_learning_diagnostics(tiny):
    config, datasets = tiny
    result = train(config, datasets)
    assert len(result.metrics) == config.episodes
    for row in result.metrics:
        for key in ("grad_norm", "mean_ratio_s_first_epoch", "mean_ratio_d_first_epoch"):
            assert isinstance(row[key], float) and np.isfinite(row[key]), (key, row)
        assert len(row["total_losses"]) == config.ppo.update_epochs
        assert all(isinstance(x, float) and np.isfinite(x) for x in row["total_losses"])
        assert row["grad_norm"] > 0.0
        # rollouts and the first epoch score with the same parameters
        assert row["mean_ratio_s_first_epoch"] == pytest.approx(1.0, abs=1e-9)
        assert row["mean_ratio_d_first_epoch"] == pytest.approx(1.0, abs=1e-9)


def test_lr_decays_after_every_interval(tiny):
    config, datasets = tiny
    result = train(replace(config, lr_decay_interval=3, lr_decay_gamma=0.5), datasets, episodes=7)
    lr = config.learning_rate
    # the row of every third episode already carries the decayed rate
    assert [row["lr"] for row in result.metrics] == [lr, lr, lr / 2, lr / 2, lr / 2, lr / 4, lr / 4]


def test_best_checkpoint_is_monotone_and_restored(tiny):
    config, datasets = tiny
    result = train(config, datasets)
    best_seen = [row["best_test_metric"] for row in result.metrics if "best_test_metric" in row]
    assert best_seen
    assert all(b <= a + 1e-12 for a, b in zip(best_seen, best_seen[1:]))
    # returned model is the best snapshot, so re-evaluating reproduces the metric
    score = evaluate_policy(result.model, datasets.test, config.weights)
    assert score == pytest.approx(result.best_test_metric, abs=1e-12)


def test_eval_runs_on_final_episode(tiny):
    config, datasets = tiny
    result = train(tiny_config(episodes=3, eval_interval=10), datasets)
    assert "test_metric" in result.metrics[-1]


def test_train_rejects_mismatched_model(tiny):
    config, datasets = tiny
    wrong = PolicyModel(4, config.agent, np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="tasks"):
        train(config, datasets, model=wrong)


def test_divergence_aborts_marked(tiny):
    config, datasets = tiny
    model = PolicyModel(9, config.agent, np.random.default_rng(1))
    # poison a critic weight: rollouts still sample fine, the update sees NaN
    model.critic_s.linears[-1].b.data[:] = np.nan
    result = train(config, datasets, model=model)
    assert result.diverged
    assert result.metrics[-1]["diverged"] is True
    assert result.episodes_trained == 0


def test_divergent_rollout_returns_start_parameters(tiny):
    config, datasets = tiny
    model = PolicyModel(9, config.agent, np.random.default_rng(1))
    # a NaN service score makes the first rollout's log-probabilities non-finite
    model.actor_s.linears[-1].b.data[:] = np.nan
    start = {k: v.copy() for k, v in model.state_dict().items()}
    result = train(config, datasets, model=model)
    assert result.diverged
    assert "log-probabilities" in result.metrics[-1]["error"]
    assert result.episodes_trained == 0
    for key, value in start.items():
        assert np.array_equal(result.model.state_dict()[key], value, equal_nan=True)


# --- inference and transfer ---------------------------------------------------


def test_untrained_model_inference_is_legal(tiny):
    config, datasets = tiny
    model = PolicyModel(9, config.agent, np.random.default_rng(3))
    scenario = datasets.validation[0]
    app = scenario.applications[0]
    placement = infer_placement(model, app, scenario.devices)
    ids = {d.id for d in scenario.devices}
    assert set(placement.assignment) == set(app.services())
    assert set(placement.assignment.values()) <= ids
    evaluate(app, placement, scenario.devices)  # must not raise


def test_inference_dimension_mismatch(tiny):
    config, datasets = tiny
    model = PolicyModel(9, config.agent, np.random.default_rng(3))
    small = generate_scenario(ScenarioConfig(device_count=3, app_rows=(2,)), seed=5)
    with pytest.raises(ConfigurationError, match="tasks"):
        infer_placement(model, small.applications[0], small.devices)


def test_inference_needs_exactly_one_cloud(tiny):
    config, datasets = tiny
    model = PolicyModel(9, config.agent, np.random.default_rng(3))
    scenario = datasets.validation[0]
    devices = scenario.devices
    no_cloud = tuple(replace(d, is_cloud=False) for d in devices)
    two_clouds = devices + (Device(id=99, speed=1.0, latency=50.0, cost=20.0, is_cloud=True),)
    for pool, found in ((no_cloud, 0), (two_clouds, 2)):
        with pytest.raises(ConfigurationError, match=f"exactly one cloud, found {found}"):
            infer_placement(model, scenario.applications[0], pool)


def test_trained_inference_near_optimal_on_dominant_device():
    from fogforge.model import Device, brute_force_oracle
    from fogforge.scenarios import Scenario

    sc = ScenarioConfig(device_count=2, app_rows=(3,), op_count=0.0)
    app = generate_scenario(sc, seed=0).applications[0]
    devices = (
        Device(id=0, speed=1.0, latency=50.0, cost=20.0, is_cloud=True),
        Device(id=1, speed=1.0, latency=1.0, cost=1.0),  # dominant on both axes
        Device(id=2, speed=1.0, latency=30.0, cost=10.0),
    )
    scenario = Scenario(config=sc, devices=devices, applications=(app,))
    datasets = ScenarioDataset(train=[scenario], test=[scenario], validation=[scenario])
    config = TrainConfig(
        episodes=30, envs_per_episode=8, eval_interval=2,
        train_size=1, test_size=1, validation_size=1,
        scenario=sc, agent=SMALL_AGENT, ppo=PpoHyper(grad_clip_norm=1.0), seed=2,
    )
    result = train(config, datasets)
    point = evaluate(app, infer_placement(result.model, app, devices), devices)
    best = brute_force_oracle(app, devices).front[0]
    assert point.time <= 1.1 * best.time
    assert point.cost <= 1.1 * best.cost


def test_transfer_preserves_greedy_behavior(tiny):
    config, datasets = tiny
    parent = train(config, datasets).model
    child = transfer_parameters(parent)
    for scenario in datasets.validation:
        app = scenario.applications[0]
        assert (
            infer_placement(child, app, scenario.devices).assignment
            == infer_placement(parent, app, scenario.devices).assignment
        )
    for key, value in parent.state_dict().items():
        assert np.array_equal(child.state_dict()[key], value)


def test_evaluate_policy_matches_manual(tiny):
    config, datasets = tiny
    model = PolicyModel(9, config.agent, np.random.default_rng(9))
    from fogforge.model import weighted_objective

    manual = []
    for sc in datasets.test:
        app = sc.applications[0]
        point = evaluate(app, infer_placement(model, app, sc.devices), sc.devices)
        manual.append(weighted_objective(point, config.weights, sc.bounds()))
    assert evaluate_policy(model, datasets.test, config.weights) == float(np.mean(manual))


# --- sweep --------------------------------------------------------------------


def test_sweep_plan_default_shape():
    mid, lo, hi = WeightVector(0.5, 0.5), WeightVector(0.25, 0.75), WeightVector(0.75, 0.25)
    assert SWEEP_SCHEDULE == (
        (mid, None),
        (lo, mid),
        (hi, mid),
        (WeightVector(0.0, 1.0), lo),
        (WeightVector(1.0, 0.0), hi),
    )
    # every parent is trained before its children, and no weighting repeats
    trained = [weights for weights, _ in SWEEP_SCHEDULE]
    assert len(set(trained)) == len(trained)
    for k, (_, parent) in enumerate(SWEEP_SCHEDULE):
        assert parent is None or parent in trained[:k]


def test_sweep_emits_five_points(tiny):
    config, datasets = tiny
    result = sweep(config, datasets)
    assert len(result.solutions) == 5
    assert result.failures == []
    target = datasets.validation[0]
    app = target.applications[0]
    for solution in result.solutions:
        assert evaluate(app, solution.placement, target.devices) == solution.point
    front = pareto_front([s.point for s in result.solutions])
    assert result.front == front
    for solution in result.solutions:
        assert solution.dominated == (solution.point not in front)


def test_sweep_transfer_budget_accounting(tiny):
    config, datasets = tiny
    result = sweep(config, datasets)
    scratch_total = 5 * config.episodes
    expected = config.episodes + 4 * (config.episodes // 2)
    total_episodes = sum(r.episodes_trained for r in result.results.values())
    assert total_episodes == expected
    assert total_episodes < scratch_total

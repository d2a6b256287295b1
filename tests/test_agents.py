"""Policy heads, masking, PPO mechanics, checkpoints."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import finite_difference, max_rel_error

from fogforge.agents import (
    AgentConfig,
    DivergenceError,
    PolicyModel,
    PpoHyper,
    Rollout,
    _choose,
    collect_trajectory,
    load_checkpoint,
    ppo_update,
    save_checkpoint,
)
from fogforge.env import PlacementEnv
from fogforge.gin import MAX_DEPTH, MAX_WIDTH, GinConfig
from fogforge.model import ConfigurationError, Device, WeightVector
from fogforge.nn import Adam, Tensor, concat, masked_log_softmax, minimum
from fogforge.scenarios import ScenarioConfig, generate_scenario
from fogforge.training import TrainConfig, build_datasets

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
    return PlacementEnv(scenario.applications[0], scenario.devices, HALF)


def fresh(env, seed=0, config=SMALL):
    return PolicyModel(env.task_count, config, np.random.default_rng(seed))


ARRAYS = ("service_index", "device_pos", "logp_s", "logp_d", "rewards")


def serial_rollouts(model, envs, rngs, mode="sample"):
    """One-env rollouts run one after another, stacked into one record in
    env order; an env or generator listed twice runs twice."""
    parts = [collect_trajectory(model, [env], [rng], mode) for env, rng in zip(envs, rngs)]
    return Rollout(
        states=[row for part in parts for row in part.states],
        finals=[final for part in parts for final in part.finals],
        **{name: np.concatenate([getattr(part, name) for part in parts]) for name in ARRAYS},
    )


def recorded(rollout):
    """Every recorded (state, service, device), env by env, in step order."""
    return [
        (state, int(rollout.service_index[k, t]), int(rollout.device_pos[k, t]))
        for k, row in enumerate(rollout.states)
        for t, state in enumerate(row)
    ]


def test_single_eligible_service_is_forced():
    env = make_env(extra_edge_prob=0.0, rows=2)
    model = fresh(env)
    obs = env.reset()
    # chain heads (0,0) and (1,0) eligible; restrict to one by masking
    obs.eligible_mask[:] = False
    obs.eligible_mask[0] = True
    svc, _, logp, _ = model.act([obs], mode="sample", rngs=[np.random.default_rng(1)])
    assert svc[0] == 0
    assert logp[0] == pytest.approx(0.0, abs=1e-12)


def test_uniform_scores_sample_uniformly_and_respect_mask():
    env = make_env(extra_edge_prob=0.0)
    model = fresh(env)
    for p in model.actor_s.parameters():
        p.data = np.zeros_like(p.data)  # identical scores for every node
    obs = env.reset()
    eligible = np.flatnonzero(obs.eligible_mask)
    assert len(eligible) == 3  # the three row heads

    rng = np.random.default_rng(2)
    svc, *_ = model.act([obs], mode="sample", rngs=[rng])
    assert obs.eligible_mask[svc[0]]
    # the draws below reuse one pass's scores instead of rerunning the GIN each time
    scores = model._decide([obs], mode="greedy").service_scores
    np.testing.assert_array_equal(scores.data, scores.data[0, 0])
    mask = obs.eligible_mask[np.newaxis]
    logp = masked_log_softmax(scores, mask)
    counts = np.zeros(env.task_count)
    draws = 30_000
    for _ in range(draws):
        counts[_choose(scores, logp, mask, "sample", [rng])[0]] += 1
    assert counts[~obs.eligible_mask].sum() == 0  # masked services never sampled
    np.testing.assert_allclose(counts[eligible] / draws, 1 / 3, atol=0.02)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 4),
    columns=st.integers(1, 1001),
    spread=st.sampled_from([0.0, 1.0, 30.0, 800.0]),
    holes=st.sampled_from([0.0, 0.3, 0.9]),
)
def test_sampling_draws_what_rng_choice_draws(seed, rows, columns, spread, holes):
    # padded rows, masked entries inside a row, and scores so far apart that
    # exp underflows to a zero probability under the mask
    data = np.random.default_rng(seed)
    scores = Tensor(data.normal(0.0, 1.0, (rows, columns)) * spread)
    mask = data.random((rows, columns)) >= holes
    for k in range(rows):
        mask[k, data.integers(1, columns + 1):] = False  # padding
        mask[k, data.integers(0, columns)] = True
    logp = masked_log_softmax(scores, mask)
    probs = np.where(mask, np.exp(logp.data), 0.0)
    streams = [np.random.default_rng([seed, k]) for k in range(rows)]
    twins = [np.random.default_rng([seed, k]) for k in range(rows)]
    picks = _choose(scores, logp, mask, "sample", streams)
    expected = [rng.choice(len(p), p=p / p.sum()) for p, rng in zip(probs, twins)]
    assert picks.tolist() == expected
    # each draw takes one number from its row's stream, as choice does
    assert [rng.random() for rng in streams] == [rng.random() for rng in twins]


def test_service_head_scores_eligible_services_only():
    envs = two_pools_env_pair(seed=3) + [make_env(seed=3, device_count=5, rows=2)]
    model = fresh(envs[0], seed=3)
    rows = []
    forward = model.actor_s.forward

    def counting(x):
        rows.append(x.shape[0])
        return forward(x)

    model.actor_s.forward = counting
    rollout = collect_trajectory(model, envs, [np.random.default_rng(s) for s in (1, 2, 3)])
    steps = envs[0].task_count
    eligible = [sum(int(row[t].eligible_mask.sum()) for row in rollout.states) for t in range(steps)]
    assert rows == eligible  # one pass per step, one row per eligible service
    assert sum(eligible) < len(envs) * steps * steps
    rows.clear()
    states, services, devices = zip(*recorded(rollout))
    model.evaluate_actions(states, services, devices)
    assert rows == [sum(eligible)]


def test_critics_run_only_when_actions_are_evaluated():
    env = make_env(seed=9)
    model = fresh(env, seed=9)
    calls = []
    for name in ("critic_s", "critic_d"):
        forward = getattr(model, name).forward

        def counting(x, name=name, forward=forward):
            calls.append(name)
            return forward(x)

        getattr(model, name).forward = counting
    for mode, rngs in (("sample", [np.random.default_rng(0)]), ("greedy", None)):
        rollout = collect_trajectory(model, [env], rngs, mode)
    assert calls == []  # act never scores a value
    state, service, device = recorded(rollout)[0]
    ev = model.evaluate_actions([state], [service], [device])
    assert calls == ["critic_s", "critic_d"]
    assert np.isfinite(ev["value_s"].data).all() and np.isfinite(ev["value_d"].data).all()


def test_single_device_forced():
    cloud = Device(id=0, speed=1.0, latency=50.0, cost=20.0, is_cloud=True)
    app = generate_scenario(ScenarioConfig(device_count=1, app_rows=(2,)), 0).applications[0]
    env = PlacementEnv(app, (cloud,), HALF)
    model = fresh(env)
    obs = env.reset()
    _, dev, _, logp = model.act([obs], mode="sample", rngs=[np.random.default_rng(3)])
    assert dev[0] == 0
    assert logp[0] == pytest.approx(0.0, abs=1e-12)


def test_identical_devices_get_identical_probabilities():
    cloud = Device(id=0, speed=1.0, latency=50.0, cost=20.0, is_cloud=True)
    twin_a = Device(id=1, speed=1.0, latency=10.0, cost=5.0)
    twin_b = Device(id=2, speed=1.0, latency=10.0, cost=5.0)
    app = generate_scenario(ScenarioConfig(device_count=2, app_rows=(2,)), 1).applications[0]
    env = PlacementEnv(app, (cloud, twin_a, twin_b), HALF)
    model = fresh(env)
    obs = env.reset()
    ev1 = model.evaluate_actions([obs], [0], [1])
    ev2 = model.evaluate_actions([obs], [0], [2])
    assert ev1["logp_d"].item() == pytest.approx(ev2["logp_d"].item(), abs=1e-9)
    # entropies are those of the distributions the log-probs describe
    p_d = np.exp([model.evaluate_actions([obs], [0], [k])["logp_d"].item() for k in range(3)])
    assert ev1["entropy_d"].item() == pytest.approx(-(p_d * np.log(p_d)).sum(), abs=1e-12)
    eligible = np.flatnonzero(obs.eligible_mask)
    p_s = np.exp([model.evaluate_actions([obs], [s], [0])["logp_s"].item() for s in eligible])
    assert ev1["entropy_s"].item() == pytest.approx(-(p_s * np.log(p_s)).sum(), abs=1e-12)


def test_class_scores_match_a_full_device_pass():
    env = make_env(seed=0, device_count=1000, rows=9)
    model = PolicyModel(env.task_count, AgentConfig(), np.random.default_rng(0))
    actions = recorded(collect_trajectory(model, [env], mode="greedy"))
    assert len(env.device_classes) < len(env.device_ids) == 1001
    for state, service, device in actions[:: len(actions) // 8]:
        d = model._decide([state], [service], [device])
        candidate = state.node_features[service, :3]
        rows = np.concatenate(
            [
                env.device_rows,
                np.tile(candidate, (1001, 1)),
                np.tile(state.host_latency, (1001, 1)),
            ],
            axis=1,
        )
        full = model.actor_d(Tensor(rows)).data.reshape(1001)
        np.testing.assert_allclose(d.device_scores.data[0], full, rtol=0, atol=1e-12)
        assert device == np.argmax(full)


def test_device_head_gradients_through_shared_classes():
    cloud = Device(id=0, speed=1.0, latency=50.0, cost=20.0, is_cloud=True)
    pool = (cloud,) + tuple(
        Device(id=k, speed=1.0, latency=latency, cost=cost)
        for k, (latency, cost) in enumerate([(10, 5), (10, 5), (30, 1), (10, 5), (30, 1)], start=1)
    )
    config = ScenarioConfig(device_count=5, app_rows=(2,))
    app = generate_scenario(config, 2).applications[0]
    env = PlacementEnv(app, pool, HALF)
    assert len(env.device_classes) == 3
    model = fresh(env, seed=21)
    obs = env.reset()
    service = int(np.flatnonzero(obs.eligible_mask)[0])
    for key in ("logp_d", "entropy_d"):  # device 2 shares its class with devices 1 and 4
        model.zero_grad()
        model.evaluate_actions([obs], [service], [2])[key].backward()
        for name, param in model.actor_d.named_parameters().items():
            saved = param.data.copy()

            def f(values):
                param.data = values
                out = model.evaluate_actions([obs], [service], [2])[key].item()
                param.data = saved
                return out

            assert max_rel_error(param.grad, finite_difference(f, saved)) < 1e-4, (key, name)


def two_pools_env_pair(seed=0):
    """Two envs of the same 2x2 app on pools of different sizes and device
    classes, so a batch of their states pads the device rows."""
    cloud = Device(id=0, speed=1.0, latency=50.0, cost=20.0, is_cloud=True)
    specs = ([(10, 5), (10, 5), (30, 1), (10, 5), (30, 1)], [(20, 2), (40, 1), (5, 9)])
    config = ScenarioConfig(device_count=5, app_rows=(2,))
    app = generate_scenario(config, seed).applications[0]
    envs = []
    for spec in specs:
        pool = (cloud,) + tuple(
            Device(id=k, speed=1.0, latency=latency, cost=cost)
            for k, (latency, cost) in enumerate(spec, start=1)
        )
        envs.append(PlacementEnv(app, pool, HALF))
    return envs


def test_offset_class_gather_gradients_over_padded_pools():
    envs = two_pools_env_pair()
    model = fresh(envs[0], seed=23)
    states = [env.reset() for env in envs]
    services = [int(np.flatnonzero(state.eligible_mask)[-1]) for state in states]
    devices = [2, 3]
    assert [len(env.device_classes) for env in envs] == [3, 4]
    d = model._decide(states, services, devices)
    assert d.device_mask.tolist() == [[True] * 6, [True] * 4 + [False] * 2]
    batched = model.evaluate_actions(states, services, devices)
    for k, state in enumerate(states):  # each row scores as its state alone
        alone = model.evaluate_actions([state], [services[k]], [devices[k]])
        for key, value in alone.items():
            assert batched[key].data[k] == pytest.approx(value.item(), rel=1e-12, abs=1e-12), key
    weights = np.array([0.7, -1.3])

    def loss():
        ev = model.evaluate_actions(states, services, devices)
        return ((ev["logp_d"] + ev["entropy_d"] * 0.5) * weights).sum()

    model.zero_grad()
    loss().backward()
    for name, param in model.actor_d.named_parameters().items():
        saved = param.data.copy()

        def f(values):
            param.data = values
            out = loss().item()
            param.data = saved
            return out

        assert max_rel_error(param.grad, finite_difference(f, saved)) < 1e-4, name


def test_lockstep_rollouts_over_padded_pools_sample_per_env_streams():
    envs = two_pools_env_pair(seed=1)
    model = fresh(envs[0], seed=24)
    lockstep = collect_trajectory(model, envs, [np.random.default_rng(s) for s in (5, 6)])
    serial = serial_rollouts(model, envs, [np.random.default_rng(s) for s in (5, 6)])
    assert_same_episodes(lockstep, serial)
    assert [f.weighted for f in lockstep.finals] == [f.weighted for f in serial.finals]


def assert_same_episodes(lockstep, serial):
    """Same actions and rewards; log-probs equal up to the batch's rounding."""
    for key in ("service_index", "device_pos", "rewards"):
        assert np.array_equal(getattr(lockstep, key), getattr(serial, key)), key
    for key in ("logp_s", "logp_d"):
        assert getattr(lockstep, key) == pytest.approx(getattr(serial, key), rel=1e-12, abs=1e-12)


def test_greedy_mode_is_deterministic():
    env = make_env(seed=4)
    model = fresh(env, seed=4)
    first = collect_trajectory(model, [env], mode="greedy")
    second = collect_trajectory(model, [env], mode="greedy")
    assert np.array_equal(first.service_index, second.service_index)
    assert np.array_equal(first.device_pos, second.device_pos)
    for state, service, device in recorded(first):  # the highest-scoring eligible choices
        d = model._decide([state], [service], [device])
        masked = np.where(state.eligible_mask, d.service_scores.data[0], -np.inf)
        assert service == np.argmax(masked)
        assert device == np.argmax(d.device_scores.data[0])


def test_trajectory_record_and_replay_consistency():
    envs = two_pools_env_pair(seed=2) + [two_pools_env_pair(seed=2)[0]]
    model = fresh(envs[0], seed=5)
    rngs = [np.random.default_rng(s) for s in (6, 7, 8)]
    rollout = collect_trajectory(model, envs, rngs)
    steps = envs[0].task_count
    for name in ARRAYS:
        assert getattr(rollout, name).shape == (3, steps), name
    assert [len(row) for row in rollout.states] == [steps] * 3 and len(rollout.finals) == 3
    for k, final in enumerate(rollout.finals):  # every service placed once
        assert sorted(rollout.service_index[k]) == list(range(steps))
        assert (final.node_features[:, 2] == 1.0).all()
    # each step's batch re-scores to exactly the log-probs it recorded
    for t in range(steps):
        ev = model.evaluate_actions(
            [row[t] for row in rollout.states], rollout.service_index[:, t], rollout.device_pos[:, t]
        )
        assert np.array_equal(ev["logp_s"].data, rollout.logp_s[:, t])
        assert np.array_equal(ev["logp_d"].data, rollout.logp_d[:, t])
    # and so does each recorded action alone, from a one-env rollout
    single = collect_trajectory(model, envs[:1], [np.random.default_rng(6)])
    for t, (state, service, device) in enumerate(recorded(single)):
        ev = model.evaluate_actions([state], [service], [device])
        assert ev["logp_s"].item() == single.logp_s[0, t]
        assert ev["logp_d"].item() == single.logp_d[0, t]


def test_rewards_telescope_to_start_minus_final_score():
    envs = [make_env(seed=s, device_count=4) for s in (20, 21, 22)]
    model = fresh(envs[0], seed=20)
    rollout = collect_trajectory(model, envs, [np.random.default_rng(s) for s in (20, 21, 22)])
    for k, (row, final) in enumerate(zip(rollout.states, rollout.finals)):
        after = [state.weighted for state in row[1:]] + [final.weighted]
        for t, state in enumerate(row):  # each reward is the drop in the weighted score
            assert rollout.rewards[k, t] == state.weighted - after[t]
        assert sum(rollout.rewards[k]) == pytest.approx(row[0].weighted - final.weighted, abs=1e-12)


@pytest.mark.parametrize("clip", [0.0, -1.0, float("nan"), float("inf")])
def test_grad_clip_norm_validation(clip):
    with pytest.raises(ConfigurationError, match="grad_clip_norm"):
        PpoHyper(grad_clip_norm=clip)
    assert PpoHyper(grad_clip_norm=None).grad_clip_norm is None
    assert PpoHyper(grad_clip_norm=0.5).grad_clip_norm == 0.5


@pytest.mark.parametrize("coef", ["policy_coef", "value_coef", "entropy_coef"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_loss_coefficient_validation(coef, value):
    with pytest.raises(ConfigurationError, match="loss coefficients"):
        PpoHyper(**{coef: value})


@pytest.mark.parametrize(
    "make",
    [
        lambda: PpoHyper(update_epochs=1.5),
        lambda: AgentConfig(head_width=2.5),
        lambda: AgentConfig(actor_hidden_layers=True),
        lambda: GinConfig(hidden_dim=8.0),
    ],
)
def test_non_int_dims_rejected(make):
    with pytest.raises(ConfigurationError, match="int"):
        make()


@pytest.mark.parametrize(
    "kind, field, value",
    [
        (GinConfig, "hidden_dim", 10**19),
        (GinConfig, "node_feature_dim", MAX_WIDTH + 1),
        (GinConfig, "k_iterations", MAX_DEPTH + 1),
        (GinConfig, "mlp_layers", 10**19),
        (AgentConfig, "head_width", MAX_WIDTH + 1),
        (AgentConfig, "actor_hidden_layers", 10**19),
        (AgentConfig, "critic_hidden_layers", MAX_DEPTH + 1),
    ],
)
def test_oversized_dims_rejected_naming_the_field(kind, field, value):
    # the checks run before any parameter or layer tuple is built
    with pytest.raises(ConfigurationError, match=f"^{field} must be an int in \\[1, "):
        kind(**{field: value})


def test_largest_dims_accepted():
    config = AgentConfig(
        gin=GinConfig(hidden_dim=MAX_WIDTH, k_iterations=MAX_DEPTH, mlp_layers=MAX_DEPTH),
        actor_hidden_layers=MAX_DEPTH,
        critic_hidden_layers=MAX_DEPTH,
        head_width=MAX_WIDTH,
    )
    assert config.gin.hidden_dim == config.head_width == MAX_WIDTH


@pytest.mark.parametrize("head", ["actor_s", "actor_d"])
@pytest.mark.parametrize("mode", ["sample", "greedy"])
def test_non_finite_scores_raise_divergence(head, mode):
    env = make_env(seed=19)
    model = fresh(env, seed=19)
    getattr(model, head).linears[-1].b.data[:] = np.nan
    with pytest.raises(DivergenceError, match="log-probabilities"):
        collect_trajectory(model, [env], [np.random.default_rng(0)], mode=mode)


def test_first_epoch_ratio_is_one():
    env = make_env(seed=7)
    model = fresh(env, seed=7)
    rng = np.random.default_rng(8)
    rollout = serial_rollouts(model, [env] * 2, [rng] * 2)
    opt = Adam(model.parameters(), lr=1e-3)
    report = ppo_update(model, rollout, PpoHyper(update_epochs=1), opt)
    assert report.mean_ratio_s_first_epoch == pytest.approx(1.0, abs=1e-9)
    assert report.mean_ratio_d_first_epoch == pytest.approx(1.0, abs=1e-9)


def reference_ppo_loss(model, rollout, hyper):
    """Reference: the PPO loss of one epoch, built action by action from
    one-state passes and scalar tape nodes, with each return summed by a
    reverse loop, as ``ppo_update`` computed it before it batched the
    actions. Returns the total and its six components."""
    lo, hi = 1.0 - hyper.clip_ratio, 1.0 + hyper.clip_ratio
    surrogates = {"s": [], "d": []}
    values = {"s": [], "d": []}
    entropies = {"s": [], "d": []}
    for k, row in enumerate(rollout.states):
        returns = [0.0] * len(row)
        acc = 0.0
        for t in reversed(range(len(row))):
            acc += rollout.rewards[k, t]
            returns[t] = acc
        for t, (state, ret) in enumerate(zip(row, returns)):
            service, device = rollout.service_index[k, t], rollout.device_pos[k, t]
            ev = model.evaluate_actions([state], [service], [device])
            for head, logp_old in (("s", rollout.logp_s[k, t]), ("d", rollout.logp_d[k, t])):
                ratio = (ev[f"logp_{head}"] - logp_old).exp()
                advantage = ret - ev[f"value_{head}"].item()
                surrogates[head].append(
                    minimum(ratio * advantage, ratio.clip(lo, hi) * advantage)
                )
                values[head].append((ev[f"value_{head}"] - ret) ** 2)
                entropies[head].append(ev[f"entropy_{head}"])

    def mean(scalars):
        return concat([v.reshape(1) for v in scalars]).mean()

    components = {}
    head_losses = {}
    for head in ("s", "d"):
        policy_loss = -mean(surrogates[head])
        value_loss = mean(values[head])
        entropy = mean(entropies[head])
        head_losses[head] = (
            hyper.policy_coef * policy_loss
            + hyper.value_coef * value_loss
            - hyper.entropy_coef * entropy
        )
        components[f"policy_loss_{head}"] = policy_loss.item()
        components[f"value_loss_{head}"] = value_loss.item()
        components[f"entropy_{head}"] = entropy.item()
    return (head_losses["s"] + head_losses["d"]) * 0.5, components


def desk_rollouts(seed, lockstep):
    """The first episode's rollouts of a seeded desk run, with the envs and
    streams ``train`` draws: in lockstep as ``train`` rolls them, or one env
    at a time."""
    config = TrainConfig.desk(seed=seed)
    datasets = build_datasets(config)
    rng = np.random.default_rng(config.seed)
    model = PolicyModel(datasets.task_count, config.agent, rng)
    picks = rng.integers(0, len(datasets.train), size=config.envs_per_episode)
    streams = rng.spawn(config.envs_per_episode)
    scenarios = [datasets.train[p] for p in picks]
    envs = [PlacementEnv(sc.applications[0], sc.devices, config.weights) for sc in scenarios]
    if lockstep:
        rollout = collect_trajectory(model, envs, streams)
    else:
        rollout = serial_rollouts(model, envs, streams)
    return config, model, rollout


def test_vector_loss_matches_per_transition_reference():
    # lockstep rollouts take the actions serial one-env rollouts take
    for seed in range(3):
        _, _, lockstep = desk_rollouts(seed, lockstep=True)
        _, _, serial = desk_rollouts(seed, lockstep=False)
        assert_same_episodes(lockstep, serial)

    config, model, rollout = desk_rollouts(0, lockstep=True)
    actions = recorded(rollout)
    # one batched pass scores every action as its own one-state pass does
    batched = model.evaluate_actions(*(list(column) for column in zip(*actions)))
    for k, (state, service, device) in enumerate(actions):
        single = model.evaluate_actions([state], [service], [device])
        for key, value in single.items():
            assert batched[key].shape == (len(actions),), key
            assert batched[key].data[k] == pytest.approx(value.item(), rel=1e-12, abs=1e-12), key

    # one unclipped epoch, so the gradients left behind are the raw loss gradients
    hyper = dataclasses.replace(config.ppo, update_epochs=1, grad_clip_norm=None)
    total, expected = reference_ppo_loss(model, rollout, hyper)
    total.backward()
    reference_grads = {k: p.grad.copy() for k, p in model.named_parameters().items()}
    model.zero_grad()

    report = ppo_update(model, rollout, hyper, Adam(model.parameters(), lr=1e-3))
    for key, value in expected.items():
        assert getattr(report, key) == pytest.approx(value, rel=1e-12, abs=1e-12), key
    assert report.total_losses[0] == pytest.approx(total.item(), rel=1e-12, abs=1e-12)
    for name, param in model.named_parameters().items():
        assert max_rel_error(param.grad, reference_grads[name]) < 1e-9, name


def test_update_moves_parameters():
    env = make_env(seed=9)
    model = fresh(env, seed=9)
    rng = np.random.default_rng(10)
    before = {k: v.data.copy() for k, v in model.named_parameters().items()}
    rollout = serial_rollouts(model, [env] * 2, [rng] * 2)
    report = ppo_update(model, rollout, PpoHyper(), Adam(model.parameters(), lr=0.01))
    # the second epoch runs on moved parameters; the report keeps the first's ratios
    assert report.mean_ratio_s_first_epoch == pytest.approx(1.0, abs=1e-9)
    assert report.mean_ratio_d_first_epoch == pytest.approx(1.0, abs=1e-9)
    moved = [
        name
        for name, param in model.named_parameters().items()
        if not np.array_equal(before[name], param.data)
    ]
    assert moved  # at least some parameters moved


def test_clipped_ratio_blocks_policy_gradient():
    env = make_env(seed=11)
    model = fresh(env, seed=11)
    rollout = collect_trajectory(model, [env], [np.random.default_rng(12)])
    doctored = dataclasses.replace(
        rollout,
        # stored log-probs shifted so the new/old ratio is ~1.5 > 1.25
        logp_s=rollout.logp_s - np.log(1.5),
        logp_d=rollout.logp_d - np.log(1.5),
        rewards=np.full_like(rollout.rewards, 100.0),  # keeps every advantage positive
    )
    hyper = PpoHyper(update_epochs=1, policy_coef=3.0, value_coef=0.0, entropy_coef=0.0)
    opt = Adam(model.parameters(), lr=0.0001)
    ppo_update(model, doctored, hyper, opt)
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
    return PlacementEnv(app, devices, WeightVector(1.0, 0.0))


def device_probability(model, obs, pos):
    return float(np.exp(model.evaluate_actions([obs], [0], [pos])["logp_d"].item()))


def test_bandit_favors_rewarding_device():
    env = bandit_setup()
    model = fresh(env, seed=13)
    rng = np.random.default_rng(14)
    obs0 = env.reset()
    p_start = device_probability(model, obs0, 1)
    opt = Adam(model.parameters(), lr=0.01)
    for _ in range(50):
        ppo_update(model, serial_rollouts(model, [env] * 8, [rng] * 8), PpoHyper(), opt)
    p_end = device_probability(model, obs0, 1)
    assert p_end > p_start
    assert p_end > 0.9


def test_task_count_mismatch_rejected():
    env_small = make_env(rows=2)
    env_big = make_env(rows=3)
    model = fresh(env_big)
    obs = env_small.reset()
    with pytest.raises(ConfigurationError):
        model.act([obs], mode="greedy")


def test_divergent_update_aborts():
    env = make_env(seed=15)
    model = fresh(env, seed=15)
    rollout = collect_trajectory(model, [env], [np.random.default_rng(16)])
    model.actor_s.linears[0].w.data[0, 0] = np.nan
    with pytest.raises(DivergenceError):
        ppo_update(model, rollout, PpoHyper(), Adam(model.parameters(), lr=0.022))


def test_overflowing_loss_raises_divergence():
    env = make_env(seed=15)
    model = fresh(env, seed=15)
    # finite critic values whose squared error overflows: the loss, not the
    # pass, is the first non-finite number, and it must not surface as a warning
    model.critic_s.linears[-1].b.data[:] = 1e300
    rollout = collect_trajectory(model, [env], [np.random.default_rng(16)])
    state, service, device = recorded(rollout)[0]
    assert np.isfinite(model.evaluate_actions([state], [service], [device])["value_s"].item())
    with pytest.raises(DivergenceError, match="non-finite loss"):
        ppo_update(model, rollout, PpoHyper(), Adam(model.parameters(), lr=0.022))


def test_non_finite_parameters_abort_update():
    env = make_env(seed=15)
    model = fresh(env, seed=15)
    rollout = collect_trajectory(model, [env], [np.random.default_rng(16)])
    optimizer = Adam(model.parameters(), lr=0.022)
    optimizer.lr = np.inf  # finite loss, but the step leaves non-finite weights
    with pytest.raises(DivergenceError, match="parameters"):
        ppo_update(model, rollout, PpoHyper(), optimizer)


def test_checkpoint_round_trip(tmp_path):
    env = make_env(seed=17)
    model = fresh(env, seed=17)
    obs = env.reset()
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    clone = load_checkpoint(path)

    assert clone.task_count == model.task_count
    for (n1, p1), (n2, p2) in zip(
        sorted(model.named_parameters().items()), sorted(clone.named_parameters().items())
    ):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)

    ev_a = model.evaluate_actions([obs], [0], [0])
    ev_b = clone.evaluate_actions([obs], [0], [0])
    assert ev_a["logp_s"].item() == ev_b["logp_s"].item()
    assert ev_a["logp_d"].item() == ev_b["logp_d"].item()


def test_checkpoint_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="no such checkpoint"):
        load_checkpoint(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigurationError, match="checkpoint is not valid JSON"):
        load_checkpoint(bad)
    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"format_version": 1}')
    with pytest.raises(ConfigurationError, match="malformed"):
        load_checkpoint(truncated)

    good = tmp_path / "good.json"
    save_checkpoint(fresh(make_env(seed=18), seed=18), good)
    name = "actor_s.linears.0.b"

    def doctored(edit, match):
        payload = json.loads(good.read_text())
        edit(payload)
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match=match):
            load_checkpoint(path)

    doctored(lambda p: p["state"][name].pop(), "malformed")  # one value short of its shape
    doctored(lambda p: p["state"][name].__setitem__(0, "x"), "malformed")
    doctored(lambda p: p["state"][name].__setitem__(0, float("nan")), "non-finite")
    # int() would load 9.7 or "9" as 9 tasks, and true > 1 is false
    for key in ("task_count", "format_version"):
        for value in (9.7, "9", True):
            doctored(lambda p: p.__setitem__(key, value), "malformed")
    doctored(lambda p: p["config"]["gin"].__setitem__("batch_norm", 0), "malformed")
    doctored(lambda p: p["config"].__setitem__("head_width", 16.0), "malformed")
    doctored(lambda p: p["config"]["gin"].__setitem__("node_feature_dim", 4), "malformed")
    doctored(lambda p: p["config"].__setitem__("future_knob", 1), "malformed")
    doctored(lambda p: p.__setitem__("format_version", 2), "newer than supported")


@settings(max_examples=25, deadline=None)
@given(
    task_count=st.integers(1, 9),
    hidden_dim=st.integers(1, 6),
    k_iterations=st.integers(1, 3),
    mlp_layers=st.integers(1, 3),
    batch_norm=st.booleans(),
    actor_layers=st.integers(1, 3),
    critic_layers=st.integers(1, 3),
    head_width=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_checkpoint_save_load_save_is_byte_identical(
    tmp_path_factory, task_count, hidden_dim, k_iterations, mlp_layers, batch_norm,
    actor_layers, critic_layers, head_width, seed,
):
    config = AgentConfig(
        gin=GinConfig(hidden_dim=hidden_dim, k_iterations=k_iterations,
                      mlp_layers=mlp_layers, batch_norm=batch_norm),
        actor_hidden_layers=actor_layers,
        critic_hidden_layers=critic_layers,
        head_width=head_width,
    )
    model = PolicyModel(task_count, config, np.random.default_rng(seed))
    directory = tmp_path_factory.mktemp("ckpt")
    first, second = directory / "first.json", directory / "second.json"
    save_checkpoint(model, first)
    clone = load_checkpoint(first)
    save_checkpoint(clone, second)
    assert first.read_bytes() == second.read_bytes()
    assert clone.task_count == task_count and clone.config == config
    state = clone.state_dict()
    for name, value in model.state_dict().items():
        assert np.array_equal(state[name], value), name

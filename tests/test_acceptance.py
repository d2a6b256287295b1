"""Release gate: twelve end-to-end checks, one test (one line) per criterion.

Each test exercises a user-visible guarantee at its stated tolerance: the
worked objective example, the reward ledger, telescoping, solver-vs-oracle
equivalence, baseline ordering, the desk-scale learning signal, sweep output,
gradient integrity, encoder invariance, inference latency, and byte-level
determinism. Run with ``pytest -v tests/test_acceptance.py``.
"""

import itertools
import json
import time

import numpy as np
import pytest

from gradcheck import finite_difference, max_rel_error

from fogforge.agents import AgentConfig, PolicyModel
from fogforge.baselines import StrategyKind, run_baseline
from fogforge.cli import main
from fogforge.env import Action, PlacementEnv, rollout_random
from fogforge.evolutionary import EvoConfig, ga_solve, nsga2_solve
from fogforge.gin import GinConfig, GinEncoder
from fogforge.model import (
    Application,
    Device,
    Placement,
    WeightVector,
    batch_objectives,
    brute_force_oracle,
    evaluate,
    latency_contribution_matrix,
    pareto_front,
    response_time,
    weighted_objective,
)
from fogforge.nn import (
    BatchNorm,
    Linear,
    Mlp,
    MlpSpec,
    Tensor,
    masked_entropy,
    masked_log_softmax,
    minimum,
)
from fogforge.reports import read_solutions
from fogforge.scenarios import Scenario, ScenarioConfig, generate_scenario
from fogforge.training import TrainConfig, build_datasets, infer_placement, train

HALF = WeightVector(0.5, 0.5)

SMALL_AGENT = {
    "gin": {"hidden_dim": 8, "k_iterations": 2, "mlp_layers": 2},
    "actor_hidden_layers": 2,
    "critic_hidden_layers": 2,
    "head_width": 16,
}

TINY_TRAIN = {
    "episodes": 2,
    "envs_per_episode": 2,
    "eval_interval": 1,
    "train_size": 2,
    "test_size": 2,
    "validation_size": 2,
    "scenario": {"device_count": 2, "app_rows": [3]},
    "agent": SMALL_AGENT,
}


def mean_weighted(placement_fn, scenarios, weights):
    """Mean normalized weighted objective of one placement per scenario."""
    values = []
    for scenario in scenarios:
        app = scenario.applications[0]
        placement = placement_fn(scenario)
        point = evaluate(app, placement, scenario.devices)
        values.append(weighted_objective(point, weights, scenario.bounds()))
    return float(np.mean(values))


def test_criterion_01_worked_example_time_and_latency_matrix():
    grid = tuple(tuple(0.0 for _ in range(3)) for _ in range(3))
    extras = (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (2, 0)), ((0, 2), (2, 1)))
    app = Application(rows=3, ops=grid, edges=Application.chain_edges(3) + extras)
    devices = [
        Device(id=0, speed=1.0, latency=2.0, cost=0.0, is_cloud=True),
        Device(id=1, speed=1.0, latency=6.0, cost=0.0),
        Device(id=2, speed=1.0, latency=10.0, cost=0.0),
        Device(id=3, speed=1.0, latency=3.0, cost=0.0),
    ]
    placement = Placement.from_vector(app, [0, 0, 0, 1, 1, 1, 2, 2, 3])
    assert response_time(app, placement, devices) == 53.0
    matrix = latency_contribution_matrix(app, placement, devices)
    np.testing.assert_array_equal(
        matrix, [[0.0, 0.0, 0.0], [6.0, 6.0, 0.0], [10.0, 10.0, 3.0]]
    )


def test_criterion_02_reward_ledger_exact_integers():
    app = Application(rows=1, cols=3, ops=((0.0, 0.0, 0.0),), edges=Application.chain_edges(1, 3))
    devices = (
        Device(id=0, speed=1.0, latency=60.0, cost=1.0, is_cloud=True),
        Device(id=1, speed=1.0, latency=15.0, cost=1.0),
        Device(id=2, speed=1.0, latency=2.0, cost=1.0),
        Device(id=3, speed=1.0, latency=30.0, cost=1.0),
    )
    scenario = Scenario(
        config=ScenarioConfig(device_count=3, app_rows=(1,), op_count=0.0),
        devices=devices,
        applications=(app,),
    )
    env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)
    state = env.reset()
    rewards = [-state.t_app]
    times = [state.t_app]
    for action in [Action((0, 0), 1), Action((0, 1), 2), Action((0, 2), 3)]:
        state, reward, _ = env.step(action)
        rewards.append(reward.r_time)
        times.append(state.t_app)
    assert rewards == [-60.0, -15.0, -2.0, 30.0]
    assert times == [60.0, 75.0, 77.0, 47.0]
    assert -sum(rewards) == 47.0


def test_criterion_03_telescoping_over_1000_trajectories():
    rng = np.random.default_rng(0)
    total = 0
    for seed in range(200):
        scenario = generate_scenario(
            ScenarioConfig(device_count=2 + seed % 5, app_rows=(3,)), seed=seed
        )
        app = scenario.applications[0]
        env = PlacementEnv(scenario.applications[0], scenario.devices, HALF)
        for _ in range(5):
            start = env.reset()
            trace = rollout_random(env, rng)
            final = env.placement()
            point = evaluate(app, final, scenario.devices)
            assert sum(r.r_time for _, r in trace) == pytest.approx(
                start.t_app - point.time, abs=1e-9
            )
            assert sum(r.r_cost for _, r in trace) == pytest.approx(
                start.cost - point.cost, abs=1e-9
            )
            total += 1
    assert total == 1000


def test_criterion_04_evolutionary_solvers_match_oracle():
    begin = time.monotonic()
    front_hits = 0
    argmin_hits = 0
    scenarios = 10
    for seed in range(700, 700 + scenarios):
        scenario = generate_scenario(ScenarioConfig(device_count=2, app_rows=(3,)), seed=seed)
        app = scenario.applications[0]
        oracle = brute_force_oracle(app, scenario.devices, weights=[HALF])
        nsga = nsga2_solve(
            app, scenario.devices, EvoConfig(population_size=50, generations=100, seed=seed)
        )
        if nsga.front == oracle.front:
            front_hits += 1
        ga = ga_solve(
            app, scenario.devices, HALF,
            EvoConfig(population_size=50, generations=100, seed=seed),
        )
        if abs(ga.objective - oracle.weighted[0].objective) <= 1e-9:
            argmin_hits += 1
    elapsed = time.monotonic() - begin
    assert front_hits >= 9, f"NSGA-II matched the oracle front in {front_hits}/{scenarios}"
    assert argmin_hits >= 9, f"GA matched the weighted argmin in {argmin_hits}/{scenarios}"
    assert elapsed < 300.0


def test_criterion_05_dominant_device_anchors_single_front_point():
    app = generate_scenario(ScenarioConfig(device_count=2, app_rows=(3,)), seed=0).applications[0]
    devices = (
        Device(id=0, speed=1.0, latency=50.0, cost=20.0, is_cloud=True),
        Device(id=1, speed=1.0, latency=1.0, cost=1.0),  # best on both axes
        Device(id=2, speed=1.0, latency=30.0, cost=10.0),
    )
    oracle = brute_force_oracle(app, devices)
    assert len(oracle.front) == 1
    edge = evaluate(app, run_baseline(StrategyKind.GREEDY_EDGE, app, devices), devices)
    cheap = evaluate(app, run_baseline(StrategyKind.GREEDY_COST, app, devices), devices)
    assert edge == cheap == oracle.front[0]


def test_criterion_06_baseline_ordering_at_desk_scale():
    scenarios = [
        generate_scenario(ScenarioConfig(device_count=20, app_rows=(3,)), seed=300 + i)
        for i in range(20)
    ]
    greedy = mean_weighted(
        lambda s: run_baseline(StrategyKind.GREEDY_EDGE, s.applications[0], s.devices),
        scenarios, HALF,
    )
    cloud = mean_weighted(
        lambda s: run_baseline(StrategyKind.ALL_IN_CLOUD, s.applications[0], s.devices),
        scenarios, HALF,
    )
    seeds = iter(range(900, 920))
    random = mean_weighted(
        lambda s: run_baseline(
            StrategyKind.RANDOM_DEVICES, s.applications[0], s.devices, seed=next(seeds)
        ),
        scenarios, HALF,
    )
    assert greedy <= cloud <= random
    assert greedy < random


def test_criterion_07_training_beats_reference_baselines():
    wins = 0
    seeds = 5
    for seed in range(seeds):
        config = TrainConfig.desk(seed=seed)
        datasets = build_datasets(config)
        begin = time.monotonic()
        result = train(config, datasets)
        elapsed = time.monotonic() - begin
        assert elapsed <= 900.0, f"seed {seed} took {elapsed:.0f}s"
        cloud = mean_weighted(
            lambda s: run_baseline(StrategyKind.ALL_IN_CLOUD, s.applications[0], s.devices),
            datasets.test, config.weights,
        )
        counter = itertools.count(7000 + 100 * seed)
        random = mean_weighted(
            lambda s: run_baseline(
                StrategyKind.RANDOM_DEVICES, s.applications[0], s.devices, seed=next(counter)
            ),
            datasets.test, config.weights,
        )
        if result.best_test_metric <= cloud and result.best_test_metric < random:
            wins += 1
    assert wins >= 4, f"trained policy beat both references in {wins}/{seeds} seeds"


def test_criterion_08_sweep_emits_five_weighted_solutions(tmp_path):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(TINY_TRAIN))
    run = tmp_path / "run"
    assert main(["sweep", "--config", str(config_path), "--seed", "31",
                 "--threads", "1", "--out", str(run)]) == 0
    rows = read_solutions(run / "solutions.csv")
    assert len(rows) == 5
    assert {(r.w_time, r.w_cost) for r in rows} == {
        (0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0)
    }
    # every reported point must be achievable by some total placement
    config = TrainConfig(
        episodes=2, envs_per_episode=2, eval_interval=1,
        train_size=2, test_size=2, validation_size=2,
        scenario=ScenarioConfig(device_count=2, app_rows=(3,)),
        agent=AgentConfig(
            gin=GinConfig(hidden_dim=8, k_iterations=2, mlp_layers=2),
            actor_hidden_layers=2, critic_hidden_layers=2, head_width=16,
        ),
        seed=31,
    )
    target = build_datasets(config).validation[0]
    app = target.applications[0]
    ids = [d.id for d in target.devices]
    grids = np.array(list(itertools.product(ids, repeat=app.service_count)))
    times, costs = batch_objectives(app, target.devices, grids)
    for row in rows:
        gap = np.abs(times - row.time) + np.abs(costs - row.cost)
        assert float(gap.min()) < 1e-9
    # the flagged subset is exactly the non-dominated subset of the 5 points
    front = set(pareto_front([r.point for r in rows]))
    for row in rows:
        assert row.dominated == (row.point not in front)


def test_criterion_09_gradients_match_finite_differences():
    tol = 1e-4
    rng = np.random.default_rng(99)

    def check_params(module, loss_fn, label):
        loss_fn().backward()
        for name, param in module.named_parameters().items():
            analytic = param.grad.copy()
            saved = param.data.copy()

            def f(values):
                param.data = values
                out = loss_fn().item()
                param.data = saved
                return out

            assert max_rel_error(analytic, finite_difference(f, saved)) < tol, (label, name)
            param.zero_grad()

    for case in range(50):  # dense layers inside a tanh MLP
        mlp = Mlp(MlpSpec(3, (4,), 2), np.random.default_rng(case))
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))
        check_params(mlp, lambda: ((mlp(Tensor(x)) - target) ** 2).mean(), f"mlp{case}")

    for case in range(50):  # batch norm: parameters and inputs
        bn = BatchNorm(3)
        bn.gamma.data = rng.normal(size=3) + 1.5
        bn.beta.data = rng.normal(size=3)
        x = rng.normal(size=(5, 3)) * 2.0
        check_params(bn, lambda: (bn(Tensor(x)) ** 3).sum(), f"bn{case}")
        xt = Tensor(x, requires_grad=True)
        (bn(xt) ** 3).sum().backward()
        numeric = finite_difference(lambda v: float((bn(Tensor(v)).data ** 3).sum()), x)
        assert max_rel_error(xt.grad, numeric) < tol, f"bn-input{case}"

    for case in range(50):  # graph encoder incl. the learned self-loop weights
        config = GinConfig(node_feature_dim=3, hidden_dim=4, k_iterations=2,
                           mlp_layers=1, batch_norm=False)
        encoder = GinEncoder(config, np.random.default_rng(case))
        tasks = int(rng.integers(2, 6))
        features = rng.random((tasks, 3))
        adjacency = np.zeros((tasks, tasks))
        for _ in range(tasks):
            u, v = rng.integers(0, tasks, size=2)
            if u != v:
                adjacency[u, v] = adjacency[v, u] = 1.0
        check_params(
            encoder,
            lambda: (encoder(features, adjacency).graph_embedding ** 2).sum(),
            f"gin{case}",
        )

    for case in range(50):  # masked softmax log-probabilities and entropy
        n = int(rng.integers(2, 8))
        scores = rng.normal(size=n) * 3.0
        mask = rng.random(n) < 0.6
        if mask.sum() < 2:
            mask[:2] = True
        picked = int(rng.choice(np.flatnonzero(mask)))

        def logp_loss(t):
            return masked_log_softmax(t, mask)[np.array([picked])].sum()

        t = Tensor(scores, requires_grad=True)
        logp_loss(t).backward()
        numeric = finite_difference(
            lambda v: logp_loss(Tensor(v, requires_grad=True)).item(), scores
        )
        assert max_rel_error(t.grad, numeric) < tol, f"softmax{case}"
        t2 = Tensor(scores, requires_grad=True)
        masked_entropy(t2, mask).backward()
        numeric = finite_difference(
            lambda v: masked_entropy(Tensor(v, requires_grad=True), mask).item(), scores
        )
        assert max_rel_error(t2.grad, numeric) < tol, f"entropy{case}"

    clip = 0.25
    done = 0
    while done < 50:  # clipped-ratio policy surrogate
        n = int(rng.integers(2, 6))
        scores = rng.normal(size=n) * 2.0
        mask = np.ones(n, dtype=bool)
        action = int(rng.integers(n))
        logp_old = float(
            masked_log_softmax(Tensor(scores), mask).data[action] + rng.normal() * 0.3
        )
        advantage = float(rng.normal())

        def surrogate(t):
            logp = masked_log_softmax(t, mask)[np.array([action])].sum()
            ratio = (logp - logp_old).exp()
            clipped = ratio.clip(1.0 - clip, 1.0 + clip)
            return -minimum(ratio * advantage, clipped * advantage).sum()

        ratio_now = float(
            np.exp(masked_log_softmax(Tensor(scores), mask).data[action] - logp_old)
        )
        # skip draws parked on the clip kink where the derivative jumps
        if min(abs(ratio_now - (1.0 - clip)), abs(ratio_now - (1.0 + clip))) < 1e-3:
            continue
        t = Tensor(scores, requires_grad=True)
        surrogate(t).backward()
        numeric = finite_difference(
            lambda v: surrogate(Tensor(v, requires_grad=True)).item(), scores
        )
        assert max_rel_error(t.grad, numeric) < tol, f"surrogate{done}"
        done += 1


def test_criterion_10_graph_embedding_permutation_invariant():
    rng = np.random.default_rng(5)
    encoder = GinEncoder(GinConfig(), rng)
    for _ in range(100):
        tasks = int(rng.integers(2, 12))
        features = rng.random((tasks, 5))
        adjacency = np.zeros((tasks, tasks))
        for _ in range(tasks * 2):
            u, v = rng.integers(0, tasks, size=2)
            if u != v:
                adjacency[u, v] = adjacency[v, u] = 1.0
        base = encoder(features, adjacency).graph_embedding.data
        perm = rng.permutation(tasks)
        shuffled = encoder(features[perm], adjacency[np.ix_(perm, perm)]).graph_embedding.data
        np.testing.assert_allclose(shuffled, base, atol=1e-9)


def test_criterion_11_inference_latency_at_scale():
    scenario = generate_scenario(ScenarioConfig(device_count=1000, app_rows=(9,)), seed=0)
    app = scenario.applications[0]
    assert app.service_count == 81 and len(scenario.devices) == 1001
    model = PolicyModel(app.service_count, AgentConfig(), np.random.default_rng(0))
    begin = time.perf_counter()
    placement = infer_placement(model, app, scenario.devices)
    elapsed = time.perf_counter() - begin
    assert len(placement.assignment) == 81
    assert elapsed < 1.0, f"inference took {elapsed:.3f}s"


def test_criterion_12_rerun_same_seed_byte_identical(tmp_path):
    scenario_path = tmp_path / "scen.json"
    assert main(["generate", "--devices", "2", "--rows", "3", "--seed", "7",
                 "--out", str(scenario_path)]) == 0
    evo = ["evo", "--algorithm", "nsga2", "--scenario", str(scenario_path),
           "--population", "24", "--generations", "20", "--seed", "13", "--threads", "1"]
    assert main(evo + ["--out", str(tmp_path / "evo_a")]) == 0
    assert main(evo + ["--out", str(tmp_path / "evo_b")]) == 0
    assert (tmp_path / "evo_a/solutions.csv").read_bytes() == (
        tmp_path / "evo_b/solutions.csv"
    ).read_bytes()

    config_path = tmp_path / "train.json"
    config_path.write_text(json.dumps(TINY_TRAIN))
    cmd = ["train", "--config", str(config_path), "--seed", "13", "--threads", "1"]
    assert main(cmd + ["--out", str(tmp_path / "train_a")]) == 0
    assert main(cmd + ["--out", str(tmp_path / "train_b")]) == 0
    assert (tmp_path / "train_a/solutions.csv").read_bytes() == (
        tmp_path / "train_b/solutions.csv"
    ).read_bytes()

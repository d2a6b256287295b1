"""Training orchestrator: episode loop, checkpoint selection, weight sweep.

``train`` runs synchronous PPO over a seeded scenario dataset and keeps the
parameter snapshot with the best greedy test-set score. ``sweep`` trains one
model per objective-weight vector, warm-starting each child from its
neighboring parent (the middle model first, then outward), so the whole
five-point solution set costs far fewer episodes than five independent runs.
``infer_placement`` is the deployment path: greedy rollout of a trained model
on a single application.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .agents import (
    AgentConfig,
    DivergenceError,
    PolicyModel,
    PpoHyper,
    collect_trajectory,
    ppo_update,
)
from .env import PlacementEnv
from .model import (
    Application,
    ConfigurationError,
    Device,
    ObjectivePoint,
    Placement,
    WeightVector,
    evaluate,
    pareto_front,
)
from .nn import Adam, StepDecay
from .scenarios import Scenario, ScenarioConfig, dataset_seeds, generate_scenario


@dataclass(frozen=True)
class TrainConfig:
    """Episode budget, dataset sizes, and the weight vector to train under.

    Defaults mirror the full-scale setup (150 episodes of 40 environments);
    ``desk()`` is the small configuration used for fast end-to-end runs.
    """

    episodes: int = 150
    envs_per_episode: int = 40
    weights: WeightVector = WeightVector(0.5, 0.5)
    seed: int = 0
    eval_interval: int = 10
    train_size: int = 20
    test_size: int = 8
    validation_size: int = 8
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    ppo: PpoHyper = field(default_factory=PpoHyper)
    learning_rate: float = 0.022
    lr_decay_gamma: float = 0.9
    lr_decay_interval: int = 10
    threads: int = 1  # rollouts run serially; kept so saved configs still load

    def __post_init__(self) -> None:
        if self.episodes < 0:
            raise ConfigurationError("episodes must be >= 0")
        if self.envs_per_episode < 1:
            raise ConfigurationError("envs_per_episode must be >= 1")
        if self.eval_interval < 1:
            raise ConfigurationError("eval_interval must be >= 1")
        if min(self.train_size, self.test_size, self.validation_size) < 1:
            raise ConfigurationError("dataset sizes must be >= 1")
        if self.threads != 1:
            raise ConfigurationError("threads must be 1: rollouts run serially")
        self.weights.check()

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        """Small-scale defaults: 20 fog devices, 3x3 apps, 60 episodes x 8 envs.

        Desk runs clip gradients; at this scale the unclipped updates
        occasionally collapse the policy onto one bad device for good.
        """
        base = dict(
            episodes=60,
            envs_per_episode=8,
            eval_interval=5,
            scenario=ScenarioConfig(device_count=20, app_rows=(3,)),
            ppo=PpoHyper(grad_clip_norm=1.0),
        )
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class ScenarioDataset:
    train: tuple[Scenario, ...]
    test: tuple[Scenario, ...]
    validation: tuple[Scenario, ...]

    def __post_init__(self) -> None:
        if not (self.train and self.test and self.validation):
            raise ConfigurationError("every dataset split must be non-empty")
        counts = {
            sc.applications[0].service_count
            for split in (self.train, self.test, self.validation)
            for sc in split
        }
        if len(counts) != 1:
            raise ConfigurationError(f"splits mix service counts: {sorted(counts)}")

    @property
    def task_count(self) -> int:
        return self.train[0].applications[0].service_count


def build_datasets(config: TrainConfig) -> ScenarioDataset:
    """Disjoint seeded train/test/validation scenario sets."""
    train_seeds, test_seeds, val_seeds = dataset_seeds(
        config.seed, config.train_size, config.test_size, config.validation_size
    )
    gen = lambda seeds: tuple(generate_scenario(config.scenario, seed=s) for s in seeds)
    return ScenarioDataset(train=gen(train_seeds), test=gen(test_seeds), validation=gen(val_seeds))


# --- inference ----------------------------------------------------------------

def _wrapper_scenario(app: Application, devices: Sequence[Device]) -> Scenario:
    return Scenario(
        config=ScenarioConfig(device_count=max(1, len(devices) - 1)),
        devices=tuple(devices),
        applications=(app,),
    )


def infer_placement(model: PolicyModel, app: Application, devices: Sequence[Device]) -> Placement:
    """Greedy rollout of the trained policy; always a valid total placement.

    Requires the device pool to contain the cloud device (the initial host)
    and the application to match the model's trained task count.
    """
    env = PlacementEnv(_wrapper_scenario(app, devices), WeightVector(0.5, 0.5))
    collect_trajectory(model, env, mode="greedy")
    return env.placement()


def evaluate_policy(
    model: PolicyModel, scenarios: Sequence[Scenario], weights: WeightVector
) -> float:
    """Mean weighted objective of greedy placements over ``scenarios``.

    Greedy picks do not depend on the env's weights (observations carry none),
    and the env scores its final state against the scenario's own bounds.
    """
    finals = [
        collect_trajectory(model, PlacementEnv(sc, weights), mode="greedy")[1] for sc in scenarios
    ]
    return float(np.mean([final.weighted for final in finals]))


# --- training loop ------------------------------------------------------------

@dataclass
class TrainResult:
    model: PolicyModel
    metrics: list[dict]
    best_test_metric: float | None
    best_episode: int | None
    episodes_trained: int
    diverged: bool


def train(
    config: TrainConfig,
    datasets: ScenarioDataset | None = None,
    model: PolicyModel | None = None,
    episodes: int | None = None,
) -> TrainResult:
    """PPO training with periodic greedy evaluation on the test split.

    Returns the model restored to the snapshot with the best (lowest) test
    mean weighted objective. On divergence the update is aborted and the last
    good snapshot is returned with ``diverged`` set.
    """
    if datasets is None:
        datasets = build_datasets(config)
    rng = np.random.default_rng(config.seed)
    if model is None:
        model = PolicyModel(datasets.task_count, config.agent, rng)
    elif model.task_count != datasets.task_count:
        raise ConfigurationError(
            f"model trained for {model.task_count} tasks, dataset has {datasets.task_count}"
        )
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    scheduler = StepDecay(optimizer, gamma=config.lr_decay_gamma, interval=config.lr_decay_interval)
    budget = config.episodes if episodes is None else episodes

    metrics: list[dict] = []
    best_metric: float | None = None
    best_episode: int | None = None
    best_state: dict[str, np.ndarray] | None = None
    diverged = False
    trained = 0

    for episode in range(budget):
        picks = rng.integers(0, len(datasets.train), size=config.envs_per_episode)
        streams = rng.spawn(config.envs_per_episode)
        rolled = [
            collect_trajectory(model, PlacementEnv(datasets.train[p], config.weights), stream)
            for p, stream in zip(picks, streams)
        ]
        trajectories = [transitions for transitions, _ in rolled]
        finals = [final for _, final in rolled]

        try:
            report = ppo_update(model, trajectories, config.ppo, optimizer)
        except DivergenceError as exc:
            diverged = True
            metrics.append({"episode": episode, "diverged": True, "error": str(exc)})
            break
        scheduler.step()
        trained = episode + 1

        row = {
            "episode": episode,
            "mean_reward": float(np.mean([sum(t.reward for t in traj) for traj in trajectories])),
            "mean_weighted": float(np.mean([s.weighted for s in finals])),
            "policy_loss_s": report.policy_loss_s,
            "policy_loss_d": report.policy_loss_d,
            "value_loss_s": report.value_loss_s,
            "value_loss_d": report.value_loss_d,
            "entropy_s": report.entropy_s,
            "entropy_d": report.entropy_d,
            "lr": optimizer.lr,
        }
        if (episode + 1) % config.eval_interval == 0 or episode == budget - 1:
            test_metric = evaluate_policy(model, datasets.test, config.weights)
            if best_metric is None or test_metric < best_metric:
                best_metric = test_metric
                best_episode = episode
                best_state = {k: v.copy() for k, v in model.state_dict().items()}
            row["test_metric"] = test_metric
            row["best_test_metric"] = best_metric
        metrics.append(row)

    if best_state is not None:
        model.load_state_dict(best_state)
    return TrainResult(
        model=model,
        metrics=metrics,
        best_test_metric=best_metric,
        best_episode=best_episode,
        episodes_trained=trained,
        diverged=diverged,
    )


def transfer_parameters(parent: PolicyModel, child: PolicyModel | None = None) -> PolicyModel:
    """Exact parameter copy into a fresh (or given) model; optimizer state is
    never carried over because the child creates its own optimizer."""
    if child is None:
        child = PolicyModel(parent.task_count, parent.config, np.random.default_rng(0))
    elif child.task_count != parent.task_count or child.config != parent.config:
        raise ConfigurationError("parent and child architectures differ")
    child.load_state_dict({k: v.copy() for k, v in parent.state_dict().items()})
    return child


# --- weight sweep -------------------------------------------------------------

@dataclass(frozen=True)
class SweepStage:
    weights: WeightVector
    parent: WeightVector | None = None


@dataclass(frozen=True)
class SweepPlan:
    """Stage order for the scalar decomposition: middle model first, children
    warm-started from their nearest trained neighbor."""

    stages: tuple[SweepStage, ...]

    def __post_init__(self) -> None:
        seen: set[WeightVector] = set()
        for stage in self.stages:
            stage.weights.check()
            if stage.weights in seen:
                raise ConfigurationError(f"duplicate sweep stage {stage.weights}")
            if stage.parent is not None and stage.parent not in seen:
                raise ConfigurationError(
                    f"stage {stage.weights} names parent {stage.parent} before it is trained"
                )
            seen.add(stage.weights)

    @classmethod
    def default(cls) -> "SweepPlan":
        mid = WeightVector(0.5, 0.5)
        lo = WeightVector(0.25, 0.75)
        hi = WeightVector(0.75, 0.25)
        return cls(
            stages=(
                SweepStage(mid),
                SweepStage(lo, parent=mid),
                SweepStage(hi, parent=mid),
                SweepStage(WeightVector(0.0, 1.0), parent=lo),
                SweepStage(WeightVector(1.0, 0.0), parent=hi),
            )
        )


@dataclass
class SweepSolution:
    weights: WeightVector
    point: ObjectivePoint
    placement: Placement
    dominated: bool


@dataclass
class SweepResult:
    solutions: list[SweepSolution]
    front: list[ObjectivePoint]
    results: dict[WeightVector, TrainResult]
    validation_metrics: dict[WeightVector, float]
    failures: list[tuple[WeightVector, str]]
    total_episodes: int


def sweep(
    config: TrainConfig,
    datasets: ScenarioDataset | None = None,
    plan: SweepPlan | None = None,
    target: Scenario | None = None,
) -> SweepResult:
    """Train one model per weight vector and read off their placements.

    Children train for half the root's episode budget. Every trained model
    places the ``target`` application (default: first validation scenario);
    those objective points form the emitted solution set, with dominated
    points flagged rather than dropped.
    """
    if datasets is None:
        datasets = build_datasets(config)
    if plan is None:
        plan = SweepPlan.default()
    if target is None:
        target = datasets.validation[0]

    results: dict[WeightVector, TrainResult] = {}
    validation_metrics: dict[WeightVector, float] = {}
    failures: list[tuple[WeightVector, str]] = []
    total_episodes = 0

    for index, stage in enumerate(plan.stages):
        stage_config = replace(config, weights=stage.weights, seed=config.seed + index)
        if stage.parent is None:
            start, budget = None, config.episodes
        else:
            if stage.parent not in results:
                failures.append((stage.weights, f"parent stage {stage.parent} unavailable"))
                continue
            start = transfer_parameters(results[stage.parent].model)
            budget = config.episodes // 2
        try:
            result = train(stage_config, datasets, model=start, episodes=budget)
        except ConfigurationError as exc:
            failures.append((stage.weights, str(exc)))
            continue
        results[stage.weights] = result
        total_episodes += result.episodes_trained
        validation_metrics[stage.weights] = evaluate_policy(
            result.model, datasets.validation, stage.weights
        )

    app = target.applications[0]
    solutions: list[SweepSolution] = []
    for stage in plan.stages:
        if stage.weights not in results:
            continue
        placement = infer_placement(results[stage.weights].model, app, target.devices)
        point = evaluate(app, placement, target.devices)
        solutions.append(SweepSolution(stage.weights, point, placement, dominated=False))
    front = pareto_front([s.point for s in solutions])
    for solution in solutions:
        solution.dominated = solution.point not in front
    return SweepResult(
        solutions=solutions,
        front=front,
        results=results,
        validation_metrics=validation_metrics,
        failures=failures,
        total_episodes=total_episodes,
    )

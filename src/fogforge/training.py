"""Training orchestrator: episode loop, checkpoint selection, weight sweep.

``train`` runs synchronous PPO over a seeded scenario dataset and keeps the
parameter snapshot with the best greedy test-set score. ``sweep`` trains one
model per weight vector of the fixed five-stage ``SWEEP_SCHEDULE``,
warm-starting each child from its neighboring parent (the middle model
first, then outward), so the whole five-point solution set costs far fewer
episodes than five independent runs.
``infer_placement`` is the deployment path: greedy rollout of a trained model
on a single application.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
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
    is_count,
    is_real,
    pareto_front,
)
from .nn import Adam
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
        counts = {
            "episodes": 0, "envs_per_episode": 1, "eval_interval": 1, "lr_decay_interval": 1, "seed": 0
        }
        for name, low in counts.items():
            value = getattr(self, name)
            if not (is_count(value) and value >= low):
                raise ConfigurationError(f"{name} must be an int >= {low}: {value!r}")
        sizes = (self.train_size, self.test_size, self.validation_size)
        if not all(is_count(n) and n >= 1 for n in sizes):
            raise ConfigurationError(f"dataset sizes must be ints >= 1: {sizes}")
        lr, gamma = self.learning_rate, self.lr_decay_gamma
        if not (is_real(lr) and math.isfinite(lr) and lr > 0):
            raise ConfigurationError(f"learning_rate must be a finite real number > 0: {lr!r}")
        if not (is_real(gamma) and 0 < gamma <= 1):
            raise ConfigurationError(f"lr_decay_gamma must be a real number in (0, 1]: {gamma!r}")
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

def infer_placement(model: PolicyModel, app: Application, devices: Sequence[Device]) -> Placement:
    """Greedy rollout of the trained policy; always a valid total placement.

    Requires the device pool to contain exactly one cloud (the initial host)
    and the application to match the model's trained task count.
    """
    env = PlacementEnv(app, devices, WeightVector(0.5, 0.5))
    collect_trajectory(model, [env], mode="greedy")
    return env.placement()


def evaluate_policy(
    model: PolicyModel, scenarios: Sequence[Scenario], weights: WeightVector
) -> float:
    """Mean weighted objective of greedy placements over ``scenarios``.

    The scenarios are placed in lockstep. Greedy picks do not depend on the
    env's weights (the heads read none), and each env scores its final
    state against its scenario's own bounds.
    """
    envs = [PlacementEnv(sc.applications[0], sc.devices, weights) for sc in scenarios]
    rollout = collect_trajectory(model, envs, mode="greedy")
    return float(np.mean([final.weighted for final in rollout.finals]))


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
    mean weighted objective, or to the parameters it started from when no
    evaluation ran. A divergence in a rollout, the update or an evaluation
    ends training; the last good snapshot is returned with ``diverged`` set.
    The learning rate is multiplied by ``lr_decay_gamma`` after every
    ``lr_decay_interval``-th completed episode.
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
    budget = config.episodes if episodes is None else episodes

    metrics: list[dict] = []
    best_metric: float | None = None
    best_episode: int | None = None
    best_state = model.state_dict()
    diverged = False
    trained = 0

    for episode in range(budget):
        picks = rng.integers(0, len(datasets.train), size=config.envs_per_episode)
        streams = rng.spawn(config.envs_per_episode)
        eval_due = (episode + 1) % config.eval_interval == 0 or episode == budget - 1
        try:
            scenarios = [datasets.train[p] for p in picks]
            envs = [PlacementEnv(sc.applications[0], sc.devices, config.weights) for sc in scenarios]
            rollout = collect_trajectory(model, envs, streams)
            report = ppo_update(model, rollout, config.ppo, optimizer)
            trained = episode + 1
            test_metric = (
                evaluate_policy(model, datasets.test, config.weights) if eval_due else None
            )
        except DivergenceError as exc:
            diverged = True
            metrics.append({"episode": episode, "diverged": True, "error": str(exc)})
            break
        if trained % config.lr_decay_interval == 0:
            optimizer.lr *= config.lr_decay_gamma

        row = {
            "episode": episode,
            "mean_reward": float(np.mean([sum(rewards) for rewards in rollout.rewards])),
            "mean_weighted": float(np.mean([final.weighted for final in rollout.finals])),
            **asdict(report),
            "lr": optimizer.lr,
        }
        if test_metric is not None:
            if best_metric is None or test_metric < best_metric:
                best_metric = test_metric
                best_episode = episode
                best_state = model.state_dict()
            row["test_metric"] = test_metric
            row["best_test_metric"] = best_metric
        metrics.append(row)

    model.load_state_dict(best_state)
    return TrainResult(
        model=model,
        metrics=metrics,
        best_test_metric=best_metric,
        best_episode=best_episode,
        episodes_trained=trained,
        diverged=diverged,
    )


def transfer_parameters(parent: PolicyModel) -> PolicyModel:
    """Exact parameter copy into a fresh model; optimizer state is never
    carried over because the child creates its own optimizer."""
    child = PolicyModel(parent.task_count, parent.config, np.random.default_rng(0))
    child.load_state_dict(parent.state_dict())
    return child


# --- weight sweep -------------------------------------------------------------

# (weights, parent) in training order for the scalar decomposition: the middle
# model first, each child warm-started from its nearest trained neighbor
SWEEP_SCHEDULE: tuple[tuple[WeightVector, WeightVector | None], ...] = (
    (WeightVector(0.5, 0.5), None),
    (WeightVector(0.25, 0.75), WeightVector(0.5, 0.5)),
    (WeightVector(0.75, 0.25), WeightVector(0.5, 0.5)),
    (WeightVector(0.0, 1.0), WeightVector(0.25, 0.75)),
    (WeightVector(1.0, 0.0), WeightVector(0.75, 0.25)),
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
    failures: list[tuple[WeightVector, str]]


def sweep(config: TrainConfig, datasets: ScenarioDataset | None = None) -> SweepResult:
    """Train one model per ``SWEEP_SCHEDULE`` stage and read off their placements.

    Children train for half the root's episode budget. Every trained model
    places the first validation scenario's application; those objective
    points form the emitted solution set, with dominated points flagged
    rather than dropped. A stage whose training diverged keeps its fallback
    snapshot and is listed in ``failures``.
    """
    if datasets is None:
        datasets = build_datasets(config)
    results: dict[WeightVector, TrainResult] = {}
    failures: list[tuple[WeightVector, str]] = []

    for index, (weights, parent) in enumerate(SWEEP_SCHEDULE):
        stage_config = replace(config, weights=weights, seed=config.seed + index)
        if parent is None:
            start, budget = None, config.episodes
        else:
            start, budget = transfer_parameters(results[parent].model), config.episodes // 2
        result = results[weights] = train(stage_config, datasets, model=start, episodes=budget)
        if result.diverged:
            failures.append((weights, result.metrics[-1]["error"]))

    target = datasets.validation[0]
    app = target.applications[0]
    solutions: list[SweepSolution] = []
    for weights, result in results.items():
        placement = infer_placement(result.model, app, target.devices)
        point = evaluate(app, placement, target.devices)
        solutions.append(SweepSolution(weights, point, placement, dominated=False))
    front = pareto_front([s.point for s in solutions])
    for solution in solutions:
        solution.dominated = solution.point not in front
    return SweepResult(
        solutions=solutions,
        front=front,
        results=results,
        failures=failures,
    )

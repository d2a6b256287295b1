"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returns, in one process with no worker threads.
An operation always receives the same inputs within a run, so its outputs and
its exact counts must repeat from one operation to the next.

Sizes follow the acceptance gate and the ROADMAP baseline:

* ``train-desk``: ``train(TrainConfig.desk(seed))`` for 5 episodes per call
  (8 envs x 9 tasks on 21 devices, greedy test eval every 5 episodes).
* ``infer-large``: greedy ``infer_placement`` of an 81-service app on 1,001
  devices (acceptance criterion 11).
* ``solvers``: one round of ``brute_force_oracle`` over 5^9 placements (3x3
  app, 4 fog devices + cloud, one weight vector), then ``nsga2_solve`` and
  ``ga_solve`` at ``EvoConfig()`` defaults on a 3x3 app and 21 devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

# entry points are looked up on their modules at call time, so the wrappers
# that layertrace.py installs there are the ones called
from fogforge import evolutionary, training
from fogforge import model as fogmodel
from fogforge.agents import AgentConfig, PolicyModel
from fogforge.evolutionary import EvoConfig
from fogforge.model import WeightVector, analytic_bounds, evaluate, weighted_objective
from fogforge.scenarios import ScenarioConfig, generate_scenario
from fogforge.training import TrainConfig, build_datasets

HALF = WeightVector(0.5, 0.5)
TRAIN_EPISODES = 5
ORACLE_FOG_DEVICES = 4
EVOLVE_FOG_DEVICES = 20
INFER_FOG_DEVICES = 1000
INFER_ROWS = 9


@dataclass(frozen=True)
class Workload:
    name: str
    units_per_op: int  # units of work one operation performs (episodes for training)
    setup: Callable[[int], Any]
    warmup: Callable[[Any], None]
    execute: Callable[[Any], tuple[Any, dict[str, float]]]
    check: Callable[[Any, Any], tuple[list[str], dict[str, float], Any]]


def _timed(fn, *args, **kwargs) -> tuple[Any, float]:
    start = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - start


def _front_problems(app, devices, front, placements) -> list[str]:
    """A front must be sorted by time with strictly falling cost (hence
    mutually non-dominated), and each placement must re-evaluate to its point."""
    problems = []
    if len(front) != len(placements):
        problems.append(f"{len(front)} front points but {len(placements)} placements")
    for a, b in zip(front, front[1:]):
        if not (a.time < b.time and a.cost > b.cost):
            problems.append(f"front not sorted and non-dominated at {a} -> {b}")
            break
    for point, placement in zip(front, placements):
        if evaluate(app, placement, devices) != point:
            problems.append(f"front placement does not re-evaluate to {point}")
            break
    return problems


# --- train-desk -----------------------------------------------------------------

def _train_setup(seed: int):
    config = TrainConfig.desk(seed=seed, threads=1)
    return config, build_datasets(config)


def _train_warmup(state) -> None:
    config, datasets = state
    training.train(config, datasets, episodes=1)


def _train_execute(state):
    config, datasets = state
    result, elapsed = _timed(training.train, config, datasets, episodes=TRAIN_EPISODES)
    return result, {"train.episode_s": elapsed / TRAIN_EPISODES}


def _finite_row(row: dict) -> bool:
    return all(math.isfinite(v) for v in row.values() if isinstance(v, float))


def _train_check(state, result):
    problems = []
    if result.diverged:
        problems.append("training diverged")
    if result.episodes_trained != TRAIN_EPISODES or len(result.metrics) != TRAIN_EPISODES:
        problems.append(f"trained {result.episodes_trained} of {TRAIN_EPISODES} episodes")
    if not all(_finite_row(row) for row in result.metrics):
        problems.append("non-finite value in the training metrics")
    best = result.best_test_metric
    if best is None or not math.isfinite(best):
        problems.append(f"best test metric is {best}")
        best = float("nan")
    signature = (best, [sorted(row.items()) for row in result.metrics])
    return problems, {"train.test_weighted": best}, signature


# --- infer-large ----------------------------------------------------------------

def _infer_setup(seed: int):
    scenario = generate_scenario(
        ScenarioConfig(device_count=INFER_FOG_DEVICES, app_rows=(INFER_ROWS,)), seed=seed
    )
    app = scenario.applications[0]
    model = PolicyModel(app.service_count, AgentConfig(), np.random.default_rng(seed))
    return model, app, scenario.devices


def _infer_warmup(state) -> None:
    training.infer_placement(*state)


def _infer_execute(state):
    placement, elapsed = _timed(training.infer_placement, *state)
    return placement, {"infer.placement_s": elapsed}


def _infer_check(state, placement):
    _, app, devices = state
    problems = []
    if set(placement.assignment) != set(app.services()):
        problems.append("placement is not total")
    known = {d.id for d in devices}
    unknown = sorted(set(placement.assignment.values()) - known)
    if unknown:
        problems.append(f"placement uses unknown device ids {unknown[:5]}")
    quality = {}
    if not problems:
        point = evaluate(app, placement, devices)
        quality["infer.weighted"] = weighted_objective(point, HALF, analytic_bounds(app, devices))
    return problems, quality, sorted(placement.assignment.items())


# --- solvers --------------------------------------------------------------------

def _oracle_problems(app, devices, result) -> list[str]:
    expected = len(devices) ** app.service_count
    problems = []
    if result.enumerated != expected:
        problems.append(f"enumerated {result.enumerated} placements, expected {expected}")
    problems += _front_problems(app, devices, result.front, result.front_placements)
    norms = analytic_bounds(app, devices)
    optimum = result.weighted[0]
    if evaluate(app, optimum.placement, devices) != optimum.point:
        problems.append("weighted optimum does not re-evaluate to its point")
    if not math.isclose(weighted_objective(optimum.point, HALF, norms), optimum.objective,
                        rel_tol=1e-12, abs_tol=1e-12):
        problems.append("weighted optimum objective disagrees with weighted_objective")
    beaten = [p for p in result.front if weighted_objective(p, HALF, norms) < optimum.objective - 1e-12]
    if beaten:
        problems.append(f"front point {beaten[0]} beats the weighted optimum")
    return problems


def _evolve_problems(app, devices, nsga, ga) -> list[str]:
    problems = _front_problems(app, devices, nsga.front, nsga.front_placements)
    history = nsga.hypervolume_history
    if any(b < a for a, b in zip(history, history[1:])):
        problems.append("NSGA-II hypervolume history decreases")
    if evaluate(app, ga.placement, devices) != ga.point:
        problems.append("GA placement does not re-evaluate to its point")
    if any(b > a for a, b in zip(ga.history, ga.history[1:])):
        problems.append("GA best-objective history increases")
    if not ga.history or ga.history[-1] != ga.objective:
        problems.append("GA objective is not the last history entry")
    return problems


def _solvers_setup(seed: int):
    oracle_scenario = generate_scenario(
        ScenarioConfig(device_count=ORACLE_FOG_DEVICES, app_rows=(3,)), seed=seed
    )
    evo_scenario = generate_scenario(
        ScenarioConfig(device_count=EVOLVE_FOG_DEVICES, app_rows=(3,)), seed=seed
    )
    return (
        (oracle_scenario.applications[0], oracle_scenario.devices),
        (evo_scenario.applications[0], evo_scenario.devices),
        EvoConfig(seed=seed),
    )


def _solvers_warmup(state) -> None:
    (app, devices), (evo_app, evo_devices), _ = state
    fogmodel.brute_force_oracle(app, devices[:2], weights=[HALF])
    small = EvoConfig(population_size=20, generations=5)
    evolutionary.nsga2_solve(evo_app, evo_devices, small)
    evolutionary.ga_solve(evo_app, evo_devices, HALF, small)


def _solvers_execute(state):
    (app, devices), (evo_app, evo_devices), config = state
    oracle, oracle_s = _timed(fogmodel.brute_force_oracle, app, devices, weights=[HALF])
    nsga, nsga_s = _timed(evolutionary.nsga2_solve, evo_app, evo_devices, config)
    ga, ga_s = _timed(evolutionary.ga_solve, evo_app, evo_devices, HALF, config)
    timings = {
        "oracle.solve_s": oracle_s,
        "oracle.placements_per_s": oracle.enumerated / oracle_s,
        "nsga2.solve_s": nsga_s,
        "ga.solve_s": ga_s,
    }
    return (oracle, nsga, ga), timings


def _solvers_check(state, outputs):
    (app, devices), (evo_app, evo_devices), _ = state
    oracle, nsga, ga = outputs
    problems = _oracle_problems(app, devices, oracle) + _evolve_problems(evo_app, evo_devices, nsga, ga)
    norms = analytic_bounds(evo_app, evo_devices)
    quality = {
        "oracle.front_size": float(len(oracle.front)),
        "nsga2.hypervolume": nsga.hypervolume_history[-1] / (norms.max_time * norms.max_cost),
        "ga.objective": ga.objective,
    }
    optimum = oracle.weighted[0]
    signature = (
        oracle.enumerated, oracle.front, optimum.point, optimum.objective,
        nsga.front, nsga.hypervolume_history, ga.point, ga.objective, ga.history,
    )
    return problems, quality, signature


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-desk", TRAIN_EPISODES, _train_setup, _train_warmup, _train_execute, _train_check),
        Workload("infer-large", 1, _infer_setup, _infer_warmup, _infer_execute, _infer_check),
        Workload("solvers", 1, _solvers_setup, _solvers_warmup, _solvers_execute, _solvers_check),
    )
}

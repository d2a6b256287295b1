"""GA and NSGA-II against exact answers, for the source tree this file sits in.

Run ``python tests/solver_ablation.py [--evo-seeds N]`` from any directory;
it imports ``fogforge`` from the ``src/`` next to this ``tests/`` directory,
so a copy of the file in another checkout measures that checkout. It prints
two markdown tables.

* Desk: the 8 test scenarios of each of ``TrainConfig.desk`` seeds 0-4
  (21 devices, 3x3 apps), solved at ``EvoConfig(seed=s)`` for s = 0..N-1.
  NSGA-II fronts are compared with the exact front of ``exact_front.py``,
  and its hypervolume with the exact front's, both against the
  analytic-bound reference point. The GA's objective at weights
  (0.5, 0.5) is compared with the exact front's weighted minimum under the
  full pool's bounds. Solve times are medians of wall time in this process.
* Criterion 4: ``tests/test_acceptance.py``'s ten instances (seeds 700-709,
  2 fog devices and the cloud), with the ``EvoConfig`` seed offset by 0,
  1,000 and 2,000; the acceptance gate asks for 9 of 10 hits of each kind.

This is a measurement, not a test: pytest does not collect it.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
from exact_front import exact_front  # noqa: E402

from fogforge.evolutionary import EvoConfig, ga_solve, nsga2_solve  # noqa: E402
from fogforge.model import (  # noqa: E402
    ObjectivePoint,
    WeightVector,
    _weighted,
    analytic_bounds,
    brute_force_oracle,
    hypervolume_2d,
)
from fogforge.scenarios import ScenarioConfig, generate_scenario  # noqa: E402
from fogforge.training import TrainConfig, build_datasets  # noqa: E402

HALF = WeightVector(0.5, 0.5)
DESK_SEEDS = range(5)
CRITERION_4_SEEDS = range(700, 710)
CRITERION_4_OFFSETS = (0, 1_000, 2_000)


def timed(solve, *args):
    begin = time.perf_counter()
    result = solve(*args)
    return result, time.perf_counter() - begin


def desk_row(label, runs) -> str:
    """One table row over ``runs`` of (front hit, HV ratio, argmin hit,
    NSGA-II seconds, GA seconds)."""
    fronts, ratios, argmins, nsga_s, ga_s = zip(*runs)
    return (
        f"| {label} | {sum(fronts)}/{len(runs)} "
        f"| {statistics.fmean(ratios):.6f} ({min(ratios):.5f}) | {sum(argmins)}/{len(runs)} "
        f"| {statistics.median(nsga_s):.3f} s | {statistics.median(ga_s):.3f} s |"
    )


def desk_rows(evo_seeds: int) -> list[str]:
    scenarios = [sc for seed in DESK_SEEDS for sc in build_datasets(TrainConfig.desk(seed=seed)).test]
    exact = []
    for scenario in scenarios:
        app, devices = scenario.applications[0], scenario.devices
        norms = analytic_bounds(app, devices)
        front = exact_front(app, devices).front
        times, costs = np.array(front, dtype=np.float64).T
        ref = ObjectivePoint(norms.max_time, norms.max_cost)
        exact.append((front, ref, float(_weighted(times, costs, HALF, norms).min())))
    lines = [
        f"Desk: {len(scenarios)} scenarios (desk seeds {DESK_SEEDS[0]}-{DESK_SEEDS[-1]}), "
        f"EvoConfig(seed=s) for s = 0-{evo_seeds - 1}",
        "",
        "| EvoConfig seed | NSGA-II exact fronts | HV / exact, mean (min) | GA exact argmins "
        "| NSGA-II median solve | GA median solve |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    every_run = []
    for evo_seed in range(evo_seeds):
        config = EvoConfig(seed=evo_seed)
        runs = []
        for scenario, (front, ref, optimum) in zip(scenarios, exact):
            app, devices = scenario.applications[0], scenario.devices
            nsga, nsga_s = timed(nsga2_solve, app, devices, config)
            ga, ga_s = timed(ga_solve, app, devices, HALF, config)
            runs.append((
                nsga.front == front,
                hypervolume_2d(nsga.front, ref) / hypervolume_2d(front, ref),
                abs(ga.objective - optimum) <= 1e-9,
                nsga_s,
                ga_s,
            ))
        lines.append(desk_row(evo_seed, runs))
        every_run += runs
    lines.append(desk_row("all", every_run))
    return lines


def criterion_4_rows() -> list[str]:
    lines = [
        f"Criterion 4: {len(CRITERION_4_SEEDS)} instances, EvoConfig(population_size=50, "
        "generations=100, seed=instance seed + offset)",
        "",
        "| Seed offset | NSGA-II oracle fronts | GA oracle argmins |",
        "| --- | --- | --- |",
    ]
    for offset in CRITERION_4_OFFSETS:
        fronts = argmins = 0
        for seed in CRITERION_4_SEEDS:
            scenario = generate_scenario(ScenarioConfig(device_count=2, app_rows=(3,)), seed=seed)
            app, devices = scenario.applications[0], scenario.devices
            oracle = brute_force_oracle(app, devices, weights=[HALF])
            config = EvoConfig(population_size=50, generations=100, seed=seed + offset)
            fronts += nsga2_solve(app, devices, config).front == oracle.front
            ga = ga_solve(app, devices, HALF, config)
            argmins += abs(ga.objective - oracle.weighted[0].objective) <= 1e-9
        runs = len(CRITERION_4_SEEDS)
        lines.append(f"| {offset:,} | {fronts}/{runs} | {argmins}/{runs} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--evo-seeds", type=int, default=5, help="EvoConfig seeds 0..N-1 (default 5)")
    args = parser.parse_args(argv)
    if args.evo_seeds < 1:
        parser.error("--evo-seeds must be >= 1")
    print(f"source: {HERE.parent / 'src'}\n")
    print("\n".join(desk_rows(args.evo_seeds)))
    print()
    print("\n".join(criterion_4_rows()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Desk training against the exact weighted optimum, for the source tree this file sits in.

Run ``python tests/policy_quality.py [--seeds N]`` from any directory; it
imports ``fogforge`` from the ``src/`` next to this ``tests/`` directory, so
a copy of the file in another checkout measures that checkout. For each of
``TrainConfig.desk`` seeds 0..N-1 it trains with the defaults and prints one
markdown table row:

* Exact: the mean over the seed's 8 test scenarios of the weighted optimum
  at the training weights, from the exact front of ``exact_front.py``
  normalised by the full pool's ``analytic_bounds``;
* Best and Last: the greedy test metric (the same mean, for the policy's
  placements) of the best snapshot and of the last evaluation;
* Last ``entropy_d``: the device head's entropy in the last update, against
  ln 21 = 3.045 for a uniform choice over the 21 devices.

Training is seeded, so a tree prints the same table on every run of one
machine; a change that moves training at the ulp level can move every
column but Exact. This is a measurement, not a test: pytest does not
collect it.
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

from fogforge.model import _weighted, analytic_bounds  # noqa: E402
from fogforge.training import TrainConfig, build_datasets, train  # noqa: E402


def exact_metric(scenarios, weights) -> float:
    """Mean exact weighted optimum over ``scenarios``."""
    optima = []
    for scenario in scenarios:
        app, devices = scenario.applications[0], scenario.devices
        times, costs = np.array(exact_front(app, devices).front, dtype=np.float64).T
        optima.append(float(_weighted(times, costs, weights, analytic_bounds(app, devices)).min()))
    return statistics.fmean(optima)


def seed_row(seed: int) -> str:
    config = TrainConfig.desk(seed=seed)
    datasets = build_datasets(config)
    begin = time.perf_counter()
    result = train(config, datasets)
    seconds = time.perf_counter() - begin
    if result.diverged:
        return f"| {seed} | diverged: {result.metrics[-1]['error']} | | | | |"
    last = [row for row in result.metrics if "test_metric" in row][-1]
    return (
        f"| {seed} | {exact_metric(datasets.test, config.weights):.4f} "
        f"| {result.best_test_metric:.4f} | {last['test_metric']:.4f} "
        f"| {result.metrics[-1]['entropy_d']:.3f} | {seconds:.1f} s |"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="desk seeds 0..N-1 (default 5)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    print(f"source: {HERE.parent / 'src'}\n")
    print("| Desk seed | Exact | Best | Last | Last entropy_d | Train time |")
    print("| --- | --- | --- | --- | --- | --- |")
    for seed in range(args.seeds):
        print(seed_row(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

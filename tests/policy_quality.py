"""Trained policy against the exact weighted optimum, for the source tree this file sits in.

Run ``python tests/policy_quality.py [--seeds N] [--scale desk|full]
[--learning-rate R]`` from any directory; it imports ``fogforge`` from the
``src/`` next to this ``tests/`` directory, so a copy of the file in another
checkout measures that checkout. For each of seeds 0..N-1 it trains
``TrainConfig.desk`` (the default scale) or the full-scale ``TrainConfig()``
with the defaults at ``--learning-rate`` (default: the config's) and
prints one markdown table row. Both scales test on 3x3 apps over 21
devices, which ``exact_front.py`` solves exactly:

* Exact: the mean over the seed's 8 test scenarios of the weighted optimum
  at the training weights, from the exact front of ``exact_front.py``
  normalised by the full pool's ``analytic_bounds``;
* Min over evaluations: the lowest greedy test metric (the same mean, for
  the policy's placements) of any evaluation in the run;
* Last: the last evaluation's test metric, ``best_test_metric``, which is
  the metric of the parameters ``train`` returns;
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


def seed_row(seed: int, scale: str, learning_rate: float) -> str:
    make = TrainConfig.desk if scale == "desk" else TrainConfig
    config = make(seed=seed, learning_rate=learning_rate)
    datasets = build_datasets(config)
    result = train(config, datasets)
    if result.diverged:
        return f"| {seed} | diverged: {result.metrics[-1]['error']} | | | |"
    evaluated = [row["test_metric"] for row in result.metrics if "test_metric" in row]
    return (
        f"| {seed} | {exact_metric(datasets.test, config.weights):.4f} "
        f"| {min(evaluated):.4f} | {result.best_test_metric:.4f} "
        f"| {result.metrics[-1]['entropy_d']:.3f} |"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1 (default 5)")
    parser.add_argument(
        "--scale", choices=("desk", "full"), default="desk",
        help="TrainConfig.desk or the full-scale TrainConfig() (default desk)",
    )
    parser.add_argument(
        "--learning-rate", type=float, default=TrainConfig().learning_rate,
        help="Adam rate (default: TrainConfig's, %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    print(f"source: {HERE.parent / 'src'}; scale {args.scale}; learning rate {args.learning_rate}\n")
    print(f"| {args.scale.capitalize()} seed | Exact | Min over evaluations | Last | Last entropy_d |")
    print("| --- | --- | --- | --- | --- |")
    for seed in range(args.seeds):
        print(seed_row(seed, args.scale, args.learning_rate), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

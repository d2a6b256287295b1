"""Command-line harness.

Commands: generate, train, sweep, infer, baseline, evo, oracle, compare.
Every command is deterministic. The five that draw random numbers (generate,
train, sweep, baseline, evo) take --seed, which falls back to the
FOGFORGE_SEED environment variable; the others reject it. Exit codes:
0 success, 1 internal error, 2 usage or input error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .agents import DivergenceError, load_checkpoint, save_checkpoint
from .baselines import StrategyKind, run_baseline
from .evolutionary import EvoConfig, ga_solve, nsga2_solve
from .model import (
    ConfigurationError,
    InstanceTooLargeError,
    ObjectivePoint,
    WeightVector,
    brute_force_oracle,
    evaluate,
    from_json,
    read_json,
    weighted_objective,
    write_file,
)
from .reports import (
    RunManifest,
    SolutionRow,
    compare_solutions,
    read_solutions,
    svg_scatter,
    trajectory_rows,
    utc_stamp,
    write_comparison_csv,
    write_front_csv,
    write_json,
    write_manifest,
    write_metrics,
    write_solutions,
)
from .scenarios import Scenario, ScenarioConfig, generate_scenario, load_scenario, save_scenario
from .training import TrainConfig, build_datasets, infer_placement, sweep, train

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


class UsageError(ValueError):
    """A bad flag or config file that no library type rejects; ``main`` prints
    it, like ``ConfigurationError`` and ``InstanceTooLargeError``, as one
    ``error:`` line and exits 2."""


# --- shared helpers -----------------------------------------------------------

def resolve_seed(value: int | None) -> int:
    if value is None:
        raw = os.environ.get("FOGFORGE_SEED", "0")
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"FOGFORGE_SEED must be an integer, got {raw!r}") from None
    if value < 0:
        raise UsageError(f"seed must be >= 0, got {value}")
    return value


def parse_weights(raw: str) -> WeightVector:
    try:
        parts = [float(x) for x in raw.split(",")]
    except ValueError:
        raise UsageError(f"weights must be 'w_time,w_cost', got {raw!r}") from None
    if len(parts) != 2:
        raise UsageError(f"weights must be 'w_time,w_cost', got {raw!r}")
    return WeightVector(parts[0], parts[1]).check()


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def scenario_config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        device_count=args.devices,
        app_rows=(args.rows,),
        extra_edge_prob=args.edge_prob,
        cloud_latency=args.cloud_latency,
        cloud_cost=args.cloud_cost,
    )


def train_config_from_args(args: argparse.Namespace, seed: int) -> TrainConfig:
    """The --config file, if any, read strictly; then the flags and the seed on top."""
    raw = {} if args.config is None else read_json(args.config, "config file")
    flags = {
        "episodes": args.episodes,
        "envs_per_episode": args.envs,
        "eval_interval": args.eval_interval,
        "train_size": args.train_size,
        "test_size": args.test_size,
        "validation_size": args.validation_size,
        "weights": None if args.weights is None else parse_weights(args.weights),
    }
    scenario: dict = {}
    if args.devices is not None:
        scenario["device_count"] = args.devices
    if args.rows is not None:
        scenario["app_rows"] = (args.rows,)
    try:
        config = from_json(TrainConfig, raw, "config")
        return replace(
            config,
            seed=seed,
            scenario=replace(config.scenario, **scenario),
            **{k: v for k, v in flags.items() if v is not None},
        )
    except ConfigurationError as exc:
        raise UsageError(f"bad training config: {exc}") from None


class RunWriter:
    """Collects output paths and stamps the manifest once the command ends."""

    def __init__(self, run_dir: str, command: str, config: dict, seed: int | None):
        self.run_dir = Path(run_dir)  # write_file makes it with the first output
        self.command = command
        self.config = config
        self.seed = seed
        self.outputs: list[str] = []
        self.started = time.time()

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.run_dir / name

    def finish(self) -> None:
        finished = time.time()
        write_manifest(
            self.run_dir,
            RunManifest(
                command=self.command,
                config=self.config,
                seed=self.seed,
                version=__version__,
                started_at=utc_stamp(self.started),
                finished_at=utc_stamp(finished),
                duration_s=round(finished - self.started, 3),
                outputs=sorted(set(self.outputs)),
            ),
        )


def emit_placement_run(
    writer: RunWriter,
    scenario: Scenario,
    placement,
    weights: WeightVector,
) -> ObjectivePoint:
    """solutions.csv + trajectory.jsonl for a single-placement producer."""
    app = scenario.applications[0]
    point = evaluate(app, placement, scenario.devices)
    write_solutions(
        writer.path("solutions.csv"),
        [SolutionRow(time=point.time, cost=point.cost, w_time=weights.w_time, w_cost=weights.w_cost)],
    )
    write_metrics(writer.path("trajectory.jsonl"), trajectory_rows(scenario, placement, weights))
    return point


# --- commands -----------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    seed = resolve_seed(args.seed)
    config = scenario_config_from_args(args)
    scenario = generate_scenario(config, seed=seed)
    save_scenario(scenario, args.out)
    app = scenario.applications[0]
    print(
        f"wrote {args.out}: {len(scenario.devices)} devices "
        f"({config.device_count} fog + cloud), {app.service_count} services/app"
    )
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    seed = resolve_seed(args.seed)
    config = train_config_from_args(args, seed)
    writer = RunWriter(args.out, "train", asdict(config), seed)
    datasets = build_datasets(config)
    result = train(config, datasets)
    # written once training returns, so a refused config leaves no file
    write_json(writer.path("config.json"), asdict(config))
    write_metrics(writer.path("metrics.jsonl"), result.metrics)
    save_checkpoint(result.model, writer.path("checkpoints/best.json"))
    target = datasets.validation[0]
    app = target.applications[0]
    placement = infer_placement(result.model, app, target.devices)
    point = emit_placement_run(writer, target, placement, config.weights)
    writer.finish()
    print(
        f"trained {result.episodes_trained} episodes; best test metric "
        f"{result.best_test_metric}; validation point ({point.time}, {point.cost})"
    )
    if result.diverged:
        print("training diverged; kept last good checkpoint", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    seed = resolve_seed(args.seed)
    config = train_config_from_args(args, seed)
    writer = RunWriter(args.out, "sweep", asdict(config), seed)
    datasets = build_datasets(config)
    result = sweep(config, datasets)
    write_json(writer.path("config.json"), asdict(config))
    rows: list[dict] = []
    for weights, stage_result in result.results.items():
        save_checkpoint(
            stage_result.model,
            writer.path(f"checkpoints/w_{weights.w_time:.2f}_{weights.w_cost:.2f}.json"),
        )
        for metric_row in stage_result.metrics:
            rows.append({"w_time": weights.w_time, "w_cost": weights.w_cost, **metric_row})
    write_metrics(writer.path("metrics.jsonl"), rows)
    write_solutions(
        writer.path("solutions.csv"),
        [
            SolutionRow(time=s.point.time, cost=s.point.cost, w_time=s.weights.w_time,
                        w_cost=s.weights.w_cost, dominated=s.dominated)
            for s in result.solutions
        ],
    )
    writer.finish()
    print(f"sweep finished: {len(result.solutions)} solutions, {len(result.front)} on the front")
    for weights, reason in result.failures:
        print(f"stage {tuple(weights)} failed: {reason}", file=sys.stderr)
    if result.failures:
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    weights = WeightVector(0.5, 0.5) if args.weights is None else parse_weights(args.weights)
    config = {"checkpoint": args.checkpoint, "scenario": args.scenario}
    writer = None if args.out is None else RunWriter(args.out, "infer", config, None)
    scenario = load_scenario(args.scenario)
    model = load_checkpoint(args.checkpoint)
    app = scenario.applications[0]
    try:
        placement = infer_placement(model, app, scenario.devices)
    except DivergenceError as exc:
        raise DivergenceError(f"{args.checkpoint}: {exc}") from None
    point = evaluate(app, placement, scenario.devices)
    ordered = sorted(placement.assignment.items())
    print("placement:", " ".join(f"s{app.service_index(s)}->d{d}" for s, d in ordered))
    print(f"time: {point.time}")
    print(f"cost: {point.cost}")
    if writer is not None:
        emit_placement_run(writer, scenario, placement, weights)
        write_metrics(
            writer.path("metrics.jsonl"), [{"time": point.time, "cost": point.cost}]
        )
        writer.finish()
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    seed = resolve_seed(args.seed)
    scenario = load_scenario(args.scenario)
    kind = StrategyKind.parse(args.strategy)
    weights = parse_weights(args.weights)
    app = scenario.applications[0]
    writer = RunWriter(
        args.out, "baseline",
        {"strategy": kind.value, "scenario": args.scenario, "weights": list(weights)},
        seed,
    )
    placement = run_baseline(kind, app, scenario.devices, seed=seed)
    point = evaluate(app, placement, scenario.devices)
    # scored first: a pool with non-positive bounds is refused before any file
    score = weighted_objective(point, weights, scenario.bounds())
    emit_placement_run(writer, scenario, placement, weights)
    write_metrics(
        writer.path("metrics.jsonl"),
        [{"strategy": kind.value, "time": point.time, "cost": point.cost, "weighted": score}],
    )
    writer.finish()
    print(f"{kind.value}: time={point.time} cost={point.cost} weighted={score:.6f}")
    return EXIT_OK


def cmd_evo(args: argparse.Namespace) -> int:
    seed = resolve_seed(args.seed)
    scenario = load_scenario(args.scenario)
    if args.algorithm == "nsga2" and args.weights is not None:  # NSGA-II reads no weights
        raise UsageError("--weights applies to --algorithm ga only")
    config = EvoConfig(
        population_size=args.population,
        generations=args.generations,
        mutation_prob=args.mutation,
        seed=seed,
    )
    app = scenario.applications[0]
    writer = RunWriter(
        args.out, "evo",
        {"algorithm": args.algorithm, "scenario": args.scenario, "config": asdict(config)},
        seed,
    )
    if args.algorithm == "ga":
        weights = parse_weights("0.5,0.5" if args.weights is None else args.weights)
        result = ga_solve(app, scenario.devices, weights, config)
        emit_placement_run(writer, scenario, result.placement, weights)
        write_front_csv(writer.path("front.csv"), [result.point], [result.placement])
        write_metrics(
            writer.path("metrics.jsonl"),
            [{"generation": g, "best_objective": v} for g, v in enumerate(result.history)],
        )
        print(f"ga best: time={result.point.time} cost={result.point.cost} "
              f"objective={result.objective:.6f}")
    else:
        result = nsga2_solve(app, scenario.devices, config)
        write_solutions(
            writer.path("solutions.csv"),
            [SolutionRow(time=p.time, cost=p.cost) for p in result.front],
        )
        write_front_csv(writer.path("front.csv"), result.front, result.front_placements)
        write_metrics(
            writer.path("metrics.jsonl"),
            [{"generation": g, "hypervolume": v}
             for g, v in enumerate(result.hypervolume_history)],
        )
        print(f"nsga2 front: {len(result.front)} points")
    writer.finish()
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    app = scenario.applications[0]
    weight_list = [parse_weights(w) for w in args.weights] if args.weights else []
    writer = RunWriter(args.out, "oracle", {"scenario": args.scenario, "cap": args.cap}, None)
    result = brute_force_oracle(app, scenario.devices, weights=weight_list, cap=args.cap)
    rows = [SolutionRow(time=p.time, cost=p.cost) for p in result.front]
    for optimum in result.weighted:
        rows.append(
            SolutionRow(time=optimum.point.time, cost=optimum.point.cost,
                        w_time=optimum.weights.w_time, w_cost=optimum.weights.w_cost)
        )
    write_solutions(writer.path("solutions.csv"), rows)
    write_front_csv(writer.path("front.csv"), result.front, result.front_placements)
    write_metrics(
        writer.path("metrics.jsonl"),
        [{"enumerated": result.enumerated, "front_size": len(result.front)}],
    )
    writer.finish()
    print(f"oracle front: {len(result.front)} points over {result.enumerated} placements")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    labeled: dict[str, list[SolutionRow]] = {}
    for run_dir in args.runs:
        path = Path(run_dir)
        label = name = path.name or str(path)
        suffix = len(labeled)
        while label in labeled:  # a suffixed label may itself be taken
            label = f"{name}#{suffix}"
            suffix += 1
        labeled[label] = read_solutions(path / "solutions.csv")
    report = compare_solutions(labeled)
    writer = RunWriter(args.out, "compare", {"runs": list(args.runs)}, None)
    write_comparison_csv(writer.path("comparison.csv"), labeled)
    svg = svg_scatter(
        {m.label: m.points for m in report.methods}, title="solution comparison"
    )
    write_file(writer.path("comparison.svg"), svg + "\n")
    summary = {
        "joint_front_size": len(report.joint_front),
        "reference": list(report.reference),
        "hypervolume": {m.label: m.hypervolume for m in report.methods},
        "dominance": report.dominance,
    }
    write_json(writer.path("report.json"), summary)
    writer.finish()
    for method in report.methods:
        print(f"{method.label}: {len(method.points)} points, front {len(method.front)}, "
              f"hypervolume {method.hypervolume:.3f}")
    print(f"joint front: {len(report.joint_front)} points")
    return EXIT_OK


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogforge",
        description="Fog service placement workbench: scenarios, PPO training, "
        "baselines, genetic solvers, and exhaustive oracles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--threads", type=int, choices=(1,), default=1,
                       help="accepted for old scripts; rollouts run serially")

    p = sub.add_parser("generate", help="write a scenario JSON file")
    common(p)
    p.add_argument("--devices", type=positive_int, default=20, help="fog device count")
    p.add_argument("--rows", type=positive_int, default=3, help="application grid size n (n x n)")
    p.add_argument("--edge-prob", type=float, default=0.2)
    p.add_argument("--cloud-latency", type=float, default=50.0)
    p.add_argument("--cloud-cost", type=float, default=20.0)
    p.add_argument("--out", required=True, help="output scenario path")
    p.set_defaults(func=cmd_generate)

    for name, func in (("train", cmd_train), ("sweep", cmd_sweep)):
        p = sub.add_parser(name, help=f"{name} models and write a run directory")
        common(p)
        p.add_argument("--config", default=None, help="training config JSON")
        p.add_argument("--episodes", type=int, default=None)
        p.add_argument("--envs", type=positive_int, default=None)
        p.add_argument("--eval-interval", type=positive_int, default=None)
        p.add_argument("--train-size", type=positive_int, default=None)
        p.add_argument("--test-size", type=positive_int, default=None)
        p.add_argument("--validation-size", type=positive_int, default=None)
        p.add_argument("--devices", type=positive_int, default=None)
        p.add_argument("--rows", type=positive_int, default=None)
        p.add_argument("--weights", default=None, help="'w_time,w_cost'")
        p.add_argument("--out", required=True, help="run directory")
        p.set_defaults(func=func)

    p = sub.add_parser("infer", help="place one application with a trained model")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--weights", default=None,
                   help="'w_time,w_cost' (default 0.5,0.5) for the run directory's "
                        "solutions.csv and trajectory scores only; the placement "
                        "does not depend on it")
    p.add_argument("--out", default=None, help="optional run directory")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("baseline", help="run a control strategy")
    common(p)
    p.add_argument("--strategy", required=True,
                   help="one of: " + ", ".join(k.value for k in StrategyKind))
    p.add_argument("--scenario", required=True)
    p.add_argument("--weights", default="0.5,0.5")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evo", help="run the GA or NSGA-II solver")
    common(p)
    p.add_argument("--algorithm", choices=("ga", "nsga2"), required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--weights", default=None, help="GA objective weights (default 0.5,0.5)")
    p.add_argument("--population", type=positive_int, default=200)
    p.add_argument("--generations", type=int, default=200)
    p.add_argument("--mutation", type=float, default=0.15)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evo)

    p = sub.add_parser("oracle", help="exhaustive Pareto front by enumeration")
    common(p)
    p.add_argument("--scenario", required=True)
    p.add_argument("--weights", action="append", default=None,
                   help="optional weighted argmin (repeatable)")
    p.add_argument("--cap", type=positive_int, default=10_000_000,
                   help="largest placement count to enumerate (>= 1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="merge runs into one Pareto comparison")
    common(p)
    p.add_argument("runs", nargs="+", help="run directories with solutions.csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    for name in ("generate", "train", "sweep", "baseline", "evo"):  # each calls resolve_seed
        sub.choices[name].add_argument("--seed", type=int, default=None,
                                       help="RNG seed (default: FOGFORGE_SEED env var, else 0)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ConfigurationError, InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: exit codes, run artifacts, reproducibility."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fogforge import cli
from fogforge.agents import AgentConfig, PolicyModel, load_checkpoint, save_checkpoint
from fogforge.cli import main
from fogforge.evolutionary import MAX_POPULATION
from fogforge.gin import GinConfig
from fogforge.reports import read_manifest, read_solutions
from fogforge.scenarios import ScenarioConfig, generate_scenario, load_scenario, save_scenario

SRC = Path(__file__).resolve().parents[1] / "src"

TINY_TRAIN = {
    "episodes": 2,
    "envs_per_episode": 2,
    "eval_interval": 1,
    "train_size": 2,
    "test_size": 2,
    "validation_size": 2,
    "scenario": {"device_count": 3, "app_rows": [3]},
    "agent": {
        "gin": {"hidden_dim": 8, "k_iterations": 2, "mlp_layers": 2},
        "actor_hidden_layers": 2,
        "critic_hidden_layers": 2,
        "head_width": 16,
    },
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scen.json"
    assert main(["generate", "--devices", "2", "--rows", "3", "--seed", "7",
                 "--out", str(path)]) == 0
    return path


def tiny_checkpoint(path: Path, **overrides) -> Path:
    """A TINY_TRAIN-shaped model for 9 tasks, with ``overrides`` replacing
    whole parameter arrays by a constant."""
    config = AgentConfig(**{**TINY_TRAIN["agent"], "gin": GinConfig(**TINY_TRAIN["agent"]["gin"])})
    save_checkpoint(PolicyModel(9, config, np.random.default_rng(0)), path)
    payload = json.loads(path.read_text())
    for name, value in overrides.items():
        payload["state"][name] = np.full_like(payload["state"][name], value).tolist()
    path.write_text(json.dumps(payload))
    return path


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--seed", "5", "--devices", "4", "--out", str(a)]) == 0
    assert main(["generate", "--seed", "5", "--devices", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    scenario = load_scenario(a)
    assert len(scenario.devices) == 5  # 4 fog + cloud
    assert scenario.applications[0].service_count == 9


def test_generate_rejects_bad_rows(tmp_path):
    assert main(["generate", "--rows", "0", "--out", str(tmp_path / "x.json")]) == 2


def test_missing_scenario_is_usage_error(tmp_path):
    rc = main(["baseline", "--strategy", "all-in-cloud",
               "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "run")])
    assert rc == 2


def test_unknown_strategy_is_usage_error(tmp_path, scenario_file):
    rc = main(["baseline", "--strategy", "mystery",
               "--scenario", str(scenario_file), "--out", str(tmp_path / "run")])
    assert rc == 2


def test_bad_weights_is_usage_error(tmp_path, scenario_file):
    rc = main(["baseline", "--strategy", "all-in-cloud", "--weights", "0.9,0.9",
               "--scenario", str(scenario_file), "--out", str(tmp_path / "run")])
    assert rc == 2


def test_no_command_is_usage_error():
    assert main([]) == 2


def test_threads_other_than_one_is_usage_error(tmp_path, scenario_file):
    for threads in ("0", "2"):
        rc = main(["baseline", "--strategy", "all-in-cloud", "--threads", threads,
                   "--scenario", str(scenario_file), "--out", str(tmp_path / "run")])
        assert rc == 2


def test_version_flag():
    assert main(["--version"]) == 0


def test_baseline_run_dir(tmp_path, scenario_file):
    run = tmp_path / "run"
    rc = main(["baseline", "--strategy", "greedy-edge", "--seed", "1",
               "--scenario", str(scenario_file), "--out", str(run)])
    assert rc == 0
    rows = read_solutions(run / "solutions.csv")
    assert len(rows) == 1
    assert rows[0].w_time == pytest.approx(0.5)
    trajectory = [json.loads(line) for line in (run / "trajectory.jsonl").open()]
    assert trajectory[0]["step"] == 0
    assert len(trajectory) == 10  # pseudo step + 9 services
    manifest = read_manifest(run)
    assert manifest.command == "baseline"
    assert manifest.seed == 1
    assert "solutions.csv" in manifest.outputs


def test_all_in_cloud_reports_reset_time(tmp_path, scenario_file, capsys):
    from fogforge.env import PlacementEnv
    from fogforge.model import WeightVector

    run = tmp_path / "run"
    assert main(["baseline", "--strategy", "all-in-cloud",
                 "--scenario", str(scenario_file), "--out", str(run)]) == 0
    reported = float(capsys.readouterr().out.split("time=")[1].split()[0])
    scenario = load_scenario(scenario_file)
    env = PlacementEnv(scenario.applications[0], scenario.devices, WeightVector(0.5, 0.5))
    assert reported == env.reset().t_app
    metrics = [json.loads(line) for line in (run / "metrics.jsonl").open()]
    assert metrics[0]["time"] == reported


def test_every_run_command_writes_metrics(tmp_path, scenario_file):
    oracle = tmp_path / "oracle"
    assert main(["oracle", "--scenario", str(scenario_file), "--out", str(oracle)]) == 0
    assert (oracle / "metrics.jsonl").is_file()
    manifest = read_manifest(oracle)
    assert {"metrics.jsonl", "solutions.csv", "front.csv"} <= set(manifest.outputs)


def test_evo_rerun_byte_identical(tmp_path, scenario_file):
    args = ["evo", "--algorithm", "nsga2", "--scenario", str(scenario_file),
            "--population", "20", "--generations", "10", "--seed", "3", "--threads", "1"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/solutions.csv").read_bytes() == (tmp_path / "b/solutions.csv").read_bytes()
    assert (tmp_path / "a/front.csv").read_bytes() == (tmp_path / "b/front.csv").read_bytes()


def test_evo_ga_artifacts(tmp_path, scenario_file):
    run = tmp_path / "run"
    rc = main(["evo", "--algorithm", "ga", "--scenario", str(scenario_file),
               "--population", "20", "--generations", "15", "--seed", "2",
               "--weights", "0.25,0.75", "--out", str(run)])
    assert rc == 0
    rows = read_solutions(run / "solutions.csv")
    assert len(rows) == 1 and rows[0].w_cost == pytest.approx(0.75)
    metrics = [json.loads(line) for line in (run / "metrics.jsonl").open()]
    assert len(metrics) == 16
    best = [m["best_objective"] for m in metrics]
    assert all(b <= a + 1e-12 for a, b in zip(best, best[1:]))


def test_oracle_front_and_weighted_rows(tmp_path, scenario_file):
    run = tmp_path / "run"
    rc = main(["oracle", "--scenario", str(scenario_file),
               "--weights", "0.5,0.5", "--weights", "1.0,0.0", "--out", str(run)])
    assert rc == 0
    rows = read_solutions(run / "solutions.csv")
    front = [r for r in rows if r.w_time is None]
    weighted = [r for r in rows if r.w_time is not None]
    assert len(front) >= 1 and len(weighted) == 2
    assert {(w.w_time, w.w_cost) for w in weighted} == {(0.5, 0.5), (1.0, 0.0)}
    # weighted optima must sit on the exact front
    points = {(f.time, f.cost) for f in front}
    for w in weighted:
        assert (w.time, w.cost) in points


def test_oracle_cap_exceeded(tmp_path, scenario_file):
    rc = main(["oracle", "--scenario", str(scenario_file), "--cap", "10",
               "--out", str(tmp_path / "run")])
    assert rc == 2


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_oracle_cap_below_one_is_usage_error(tmp_path, scenario_file, capsys, cap):
    run = tmp_path / "run"
    rc = main(["oracle", "--scenario", str(scenario_file), "--cap", cap, "--out", str(run)])
    assert rc == 2
    assert "argument --cap: must be >= 1" in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize(
    "case",
    ["missing-scenario", "unknown-strategy", "oracle-cap", "missing-checkpoint", "odd-population"],
)
def test_input_errors_exit_2_with_one_error_line(tmp_path, scenario_file, capsys, case):
    scenario, out = str(scenario_file), str(tmp_path / "run")
    argv = {
        "missing-scenario": ["baseline", "--strategy", "all-in-cloud",
                             "--scenario", str(tmp_path / "nope.json"), "--out", out],
        "unknown-strategy": ["baseline", "--strategy", "mystery", "--scenario", scenario,
                             "--out", out],
        "oracle-cap": ["oracle", "--scenario", scenario, "--cap", "10", "--out", out],
        "missing-checkpoint": ["infer", "--checkpoint", str(tmp_path / "nope.json"),
                               "--scenario", scenario],
        "odd-population": ["evo", "--algorithm", "nsga2", "--scenario", scenario,
                           "--population", "21", "--out", out],
    }[case]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


BAD_FILE_CONTENT = {  # content that is UTF-8 but not what the reader expects
    "scenario": b'{"format_version": ',
    "checkpoint": b"{broken",
    "config": b'{"episodes": 2,}',
    "solutions": b"time,cost\n1.0,2.0\n",
}


@pytest.mark.parametrize("defect", ["missing", "directory", "non-utf8", "malformed"])
@pytest.mark.parametrize("source", BAD_FILE_CONTENT)
def test_bad_input_file_exits_2_naming_it(tmp_path, scenario_file, capsys, source, defect):
    bad = tmp_path / "input" / ("solutions.csv" if source == "solutions" else "input.json")
    if defect == "directory":
        bad.mkdir(parents=True)
    elif defect != "missing":
        bad.parent.mkdir()
        content = BAD_FILE_CONTENT[source]
        bad.write_bytes(b"\xff" + content if defect == "non-utf8" else content)
    checkpoint = tmp_path / "model.json"
    save_checkpoint(PolicyModel(9, AgentConfig(), np.random.default_rng(0)), checkpoint)
    run = tmp_path / "run"
    argv = {
        "scenario": ["infer", "--checkpoint", checkpoint, "--scenario", bad],
        "checkpoint": ["infer", "--checkpoint", bad, "--scenario", scenario_file],
        "config": ["train", "--config", bad],
        "solutions": ["compare", bad.parent, bad.parent],
    }[source]
    capsys.readouterr()
    assert main([*map(str, argv), "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(bad) in err
    assert not run.exists()


@pytest.mark.parametrize("value", [9.7, "9", True], ids=["fractional", "string", "bool"])
def test_infer_refuses_non_integer_task_count(tmp_path, scenario_file, capsys, value):
    checkpoint = tmp_path / "model.json"
    save_checkpoint(PolicyModel(9, AgentConfig(), np.random.default_rng(0)), checkpoint)
    payload = json.loads(checkpoint.read_text())
    payload["task_count"] = value  # int() would load 9.7 and "9" as 9 tasks
    checkpoint.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["infer", "--checkpoint", str(checkpoint), "--scenario", str(scenario_file)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "malformed" in err


@pytest.mark.parametrize(
    "defect",
    [
        "nan-latency", "negative-ops", "duplicate-edge", "negative-device-id", "non-numeric-speed",
        "fractional-device-id", "fractional-rows", "fractional-device-count",
        "fractional-app-rows", "fractional-edge-end", "fractional-seed",
        "integer-is-cloud", "string-is-cloud", "string-speed", "bool-cost", "string-ops",
        "string-config-latency", "bool-extra-edge-prob", "no-application", "two-applications",
    ],
)
def test_bad_scenario_values_are_usage_errors(tmp_path, scenario_file, defect, capsys):
    data = json.loads(scenario_file.read_text())
    if defect == "fractional-device-id":
        data["devices"][1]["id"] = 1.7  # would load as device 1
    elif defect == "fractional-rows":
        data["applications"][0]["rows"] = 3.6
    elif defect == "fractional-device-count":
        data["config"]["device_count"] = 4.9
    elif defect == "fractional-app-rows":
        data["config"]["app_rows"] = [3.0]
    elif defect == "fractional-edge-end":
        data["applications"][0]["edges"][0][3] = 1.0
    elif defect == "fractional-seed":
        data["seed"] = 2.5
    elif defect in ("integer-is-cloud", "string-is-cloud"):
        # the cloud would silently move to the fog device
        data["devices"][0]["is_cloud"] = 0 if defect == "integer-is-cloud" else False
        data["devices"][1]["is_cloud"] = 1 if defect == "integer-is-cloud" else "no"
    elif defect == "string-speed":
        data["devices"][1]["speed"] = "2"  # would load as 2.0
    elif defect == "bool-cost":
        data["devices"][1]["cost"] = True  # would load as 1.0
    elif defect == "string-ops":
        data["applications"][0]["ops"][0][0] = "3"
    elif defect == "string-config-latency":
        data["config"]["cloud_latency"] = "50"
    elif defect == "bool-extra-edge-prob":
        data["config"]["extra_edge_prob"] = True
    elif defect == "nan-latency":
        data["devices"][1]["latency"] = float("nan")  # json writes and reads NaN
    elif defect == "negative-device-id":
        data["devices"][1]["id"] = -1
    elif defect == "non-numeric-speed":
        data["devices"][1]["speed"] = "fast"
    elif defect == "negative-ops":
        data["applications"][0]["ops"][0][0] = -1.0
    elif defect == "no-application":
        data["applications"] = []  # every command reads applications[0]
    elif defect == "two-applications":  # the second one would be ignored
        data["applications"].append({"rows": 2, "ops": [[1.0, 1.0]] * 2,
                                     "edges": [[0, 0, 0, 1], [1, 0, 1, 1]]})
    else:
        data["applications"][0]["edges"].append(data["applications"][0]["edges"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["baseline", "--strategy", "all-in-cloud",
               "--scenario", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("defect", ["negative-speed", "no-application", "id-past-int64"])
def test_scenario_value_errors_name_the_file(tmp_path, scenario_file, defect, capsys):
    data = json.loads(scenario_file.read_text())
    if defect == "negative-speed":
        data["devices"][1]["speed"] = -1.0
    elif defect == "no-application":
        data["applications"] = []
    else:
        data["devices"][1]["id"] = 10**30  # does not fit the int64 id arrays
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["oracle", "--scenario", str(bad), "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}: ")
    assert defect != "id-past-int64" or f"device {10**30}:" in err
    assert not run.exists()


def test_large_device_id_places_normally(tmp_path, scenario_file):
    data = json.loads(scenario_file.read_text())
    assert len(data["devices"]) == 3
    old_id = data["devices"][-1]["id"]
    data["devices"][-1]["id"] = 10**12  # a table indexed by id would take 8 TB
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data))
    for name, path in (("base", scenario_file), ("big", big)):
        argv = ["oracle", "--scenario", str(path), "--weights", "0.5,0.5", "--out", str(tmp_path / name)]
        assert main(argv) == 0
    solutions = [(tmp_path / name / "solutions.csv").read_bytes() for name in ("base", "big")]
    assert solutions[0] == solutions[1]
    base, got = (
        [row.split(",") for row in (tmp_path / name / "front.csv").read_text().splitlines()[1:]]
        for name in ("base", "big")
    )
    renamed = {str(old_id): str(10**12)}
    want = [[t, c, " ".join(renamed.get(d, d) for d in genes.split())] for t, c, genes in base]
    assert got == want and str(10**12) in got[0][2]


def test_compare_runs(tmp_path, scenario_file):
    cloud, oracle, cmp_dir = tmp_path / "cloud", tmp_path / "oracle", tmp_path / "cmp"
    assert main(["baseline", "--strategy", "all-in-cloud",
                 "--scenario", str(scenario_file), "--out", str(cloud)]) == 0
    assert main(["oracle", "--scenario", str(scenario_file), "--out", str(oracle)]) == 0
    rc = main(["compare", str(cloud), str(oracle), "--out", str(cmp_dir)])
    assert rc == 0
    report = json.loads((cmp_dir / "report.json").read_text())
    assert report["dominance"]["oracle"]["oracle"] == 0
    assert set(report["hypervolume"]) == {"cloud", "oracle"}
    svg = (cmp_dir / "comparison.svg").read_text()
    assert svg.lstrip().startswith("<svg")
    lines = (cmp_dir / "comparison.csv").read_text().splitlines()
    assert lines[0] == "label,time,cost,joint_front_flag"


def test_compare_keeps_every_run_when_a_suffixed_label_is_taken(tmp_path, scenario_file):
    runs = [tmp_path / "x" / "a", tmp_path / "y" / "a#2", tmp_path / "z" / "a"]
    for run in runs:
        assert main(["baseline", "--strategy", "greedy-edge",
                     "--scenario", str(scenario_file), "--out", str(run)]) == 0
    out = tmp_path / "cmp"
    assert main(["compare", *map(str, runs), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["hypervolume"]) == ["a", "a#2", "a#3"]
    labels = [line.split(",")[0] for line in (out / "comparison.csv").read_text().splitlines()[1:]]
    assert sorted(labels) == ["a", "a#2", "a#3"]


def test_compare_run_with_itself(tmp_path, scenario_file):
    run, out = tmp_path / "run", tmp_path / "cmp"
    assert main(["oracle", "--scenario", str(scenario_file), "--out", str(run)]) == 0
    assert main(["compare", str(run), str(run), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(v == 0 for row in report["dominance"].values() for v in row.values())


def test_train_and_infer_roundtrip(tmp_path, scenario_file):
    config = tmp_path / "train.json"
    config.write_text(json.dumps(TINY_TRAIN))
    run = tmp_path / "run"
    rc = main(["train", "--config", str(config), "--seed", "9", "--out", str(run)])
    assert rc == 0
    assert (run / "metrics.jsonl").is_file()
    saved = json.loads((run / "config.json").read_text())
    assert saved["episodes"] == 2 and saved["seed"] == 9
    model = load_checkpoint(run / "checkpoints" / "best.json")
    assert model is not None
    rows = read_solutions(run / "solutions.csv")
    assert len(rows) == 1 and rows[0].w_time == pytest.approx(0.5)
    rc = main(["infer", "--checkpoint", str(run / "checkpoints" / "best.json"),
               "--scenario", str(scenario_file), "--out", str(tmp_path / "inf")])
    assert rc == 0
    inf_rows = read_solutions(tmp_path / "inf" / "solutions.csv")
    assert len(inf_rows) == 1


def test_train_flag_overrides(tmp_path):
    run = tmp_path / "run"
    config = tmp_path / "train.json"
    config.write_text(json.dumps(TINY_TRAIN))
    rc = main(["train", "--config", str(config), "--episodes", "1",
               "--weights", "0.25,0.75", "--seed", "4", "--out", str(run)])
    assert rc == 0
    saved = json.loads((run / "config.json").read_text())
    assert saved["episodes"] == 1
    assert saved["weights"] == [0.25, 0.75]


def test_env_var_seed(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("FOGFORGE_SEED", "21")
    assert main(["generate", "--devices", "3", "--out", str(a)]) == 0
    monkeypatch.delenv("FOGFORGE_SEED")
    assert main(["generate", "--devices", "3", "--seed", "21", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_var_seed_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("FOGFORGE_SEED", "pi")
    assert main(["generate", "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("command", ["generate", "train", "sweep", "evo", "baseline"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_seed_exits_2_before_writing(tmp_path, monkeypatch, scenario_file, command, source):
    config = tmp_path / "train.json"
    config.write_text(json.dumps(TINY_TRAIN))
    out = tmp_path / "out"
    args = {
        "generate": [],
        "train": ["--config", config],
        "sweep": ["--config", config],
        "evo": ["--algorithm", "ga", "--scenario", scenario_file],
        "baseline": ["--strategy", "random-devices", "--scenario", scenario_file],
    }[command]
    if source == "flag":
        args = [*args, "--seed", "-1"]
    else:
        monkeypatch.setenv("FOGFORGE_SEED", "-3")
    assert main([command, *map(str, args), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["oracle", "infer", "compare"])
def test_seed_is_refused_where_nothing_is_random(tmp_path, scenario_file, command):
    checkpoint, runs = tiny_checkpoint(tmp_path / "model.json"), tmp_path / "runs"
    assert main(["baseline", "--strategy", "all-in-cloud", "--scenario", str(scenario_file),
                 "--out", str(runs / "cloud")]) == 0
    args = {
        "oracle": ["--scenario", scenario_file],
        "infer": ["--checkpoint", checkpoint, "--scenario", scenario_file],
        "compare": [runs / "cloud", runs / "cloud"],
    }[command]
    refused, accepted = tmp_path / "refused", tmp_path / "accepted"
    assert main([command, *map(str, args), "--seed", "1", "--out", str(refused)]) == 2
    assert not refused.exists()
    assert main([command, *map(str, args), "--out", str(accepted)]) == 0


# --- bad input exits 2, divergence exits 3 ------------------------------------

BAD_TRAIN_CONFIGS = {
    "zero-learning-rate": {"learning_rate": 0},
    "nan-learning-rate": {"learning_rate": float("nan")},  # json writes and reads NaN
    "zero-lr-decay-gamma": {"lr_decay_gamma": 0},
    "zero-lr-decay-interval": {"lr_decay_interval": 0},
    "nan-policy-coef": {"ppo": {"policy_coef": float("nan")}},
    "fractional-device-count": {"scenario": {"device_count": 2.5}},
    "fractional-app-rows": {"scenario": {"device_count": 3, "app_rows": [2.5]}},
    "fractional-episodes": {"episodes": 2.5},
    "fractional-train-size": {"train_size": 2.0},
    "fractional-head-width": {"agent": {**TINY_TRAIN["agent"], "head_width": 2.5}},
    "scalar-scenario": {"scenario": 5},
    "scalar-agent": {"agent": "small"},
    "list-gin": {"agent": {**TINY_TRAIN["agent"], "gin": [8, 2, 2]}},
    "list-ppo": {"ppo": [1]},
    # JSON types that do not match the field's type
    "string-cloud-latency": {"scenario": {**TINY_TRAIN["scenario"], "cloud_latency": "50"}},
    "bool-learning-rate": {"learning_rate": True},
    "bool-entropy-coef": {"ppo": {"entropy_coef": False}},
    "bool-op-count": {"scenario": {**TINY_TRAIN["scenario"], "op_count": True}},
    "bool-latency-choice": {"scenario": {**TINY_TRAIN["scenario"], "latency_choices": [True, 2]}},
    "int-batch-norm": {
        "agent": {**TINY_TRAIN["agent"], "gin": {**TINY_TRAIN["agent"]["gin"], "batch_norm": 0}}
    },
    "unknown-field": {"episode": 2},
    # the policy reads the env's five node features
    "node-feature-dim": {
        "agent": {**TINY_TRAIN["agent"], "gin": {**TINY_TRAIN["agent"]["gin"],
                                                 "node_feature_dim": 4}}
    },
    # sizes past the bounds, rejected before any parameter is allocated
    "huge-hidden-dim": {
        "agent": {**TINY_TRAIN["agent"], "gin": {**TINY_TRAIN["agent"]["gin"],
                                                 "hidden_dim": 10**19}}
    },
    "huge-actor-layers": {"agent": {**TINY_TRAIN["agent"], "actor_hidden_layers": 10**19}},
    "wide-head": {"agent": {**TINY_TRAIN["agent"], "head_width": 513}},
    # scenario values the generator would turn into bad devices
    "negative-cloud-latency": {"scenario": {**TINY_TRAIN["scenario"], "cloud_latency": -5}},
    "negative-latency-choice": {"scenario": {**TINY_TRAIN["scenario"], "latency_choices": [-1.0]}},
    "nan-cost-choice": {"scenario": {**TINY_TRAIN["scenario"], "cost_choices": [float("nan")]}},
    "infinite-op-count": {"scenario": {**TINY_TRAIN["scenario"], "op_count": float("inf")}},
    "nan-device-speed": {"scenario": {**TINY_TRAIN["scenario"], "device_speed": float("nan")}},
    # every device costs 0, so the analytic cost bound is not positive
    "zero-cost-pool": {"scenario": {**TINY_TRAIN["scenario"], "cost_choices": [0.0],
                                    "cloud_cost": 0.0}},
}


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("override", BAD_TRAIN_CONFIGS.values(), ids=BAD_TRAIN_CONFIGS.keys())
def test_bad_training_config_exits_2_before_writing(tmp_path, command, override, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**TINY_TRAIN, **override}))
    run = tmp_path / "run"
    capsys.readouterr()
    assert main([command, "--config", str(config), "--out", str(run)]) == 2
    assert not run.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_oversized_dimension_error_names_the_field(tmp_path, capsys):
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({**TINY_TRAIN, **BAD_TRAIN_CONFIGS["huge-hidden-dim"]}))
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "hidden_dim must be an int in [1, 512], got 10000000000000000000" in err


@pytest.mark.parametrize(
    "body",
    [[1], 5, "train", {**TINY_TRAIN, "scenario": 5}],
    ids=["list", "number", "string", "scalar-scenario"],
)
@pytest.mark.parametrize("flags", [[], ["--devices", "3"]], ids=["plain", "devices-flag"])
def test_non_object_config_exits_2_before_writing(tmp_path, body, flags):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(body))
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), *flags, "--out", str(run)]) == 2
    assert not run.exists()


def run_cli(*args) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, as a user runs it: a numpy warning
    prints to stderr, where the tests look for it, instead of raising."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "fogforge.cli", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def start_parameters(seed: int) -> dict[str, np.ndarray]:
    """The parameters ``train`` builds for TINY_TRAIN at ``seed``."""
    agent = dict(TINY_TRAIN["agent"])
    agent = AgentConfig(gin=GinConfig(**agent.pop("gin")), **agent)
    return PolicyModel(9, agent, np.random.default_rng(seed)).state_dict()


def assert_same_parameters(model, expected):
    state = model.state_dict()
    assert state.keys() == expected.keys()
    for name, value in expected.items():
        assert np.array_equal(state[name], value), name


@pytest.mark.parametrize("epochs", [1, 2])
def test_diverged_train_exits_3_with_start_parameters(tmp_path, epochs):
    # one epoch diverges in the next forward pass, two inside the update
    config = tmp_path / "train.json"
    config.write_text(
        json.dumps({**TINY_TRAIN, "learning_rate": 1e300, "ppo": {"update_epochs": epochs}})
    )
    run = tmp_path / "run"
    proc = run_cli("train", "--config", config, "--seed", 5, "--out", run)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert_same_parameters(load_checkpoint(run / "checkpoints" / "best.json"), start_parameters(5))


@pytest.mark.parametrize(
    "command, override",
    [("train", {"ppo": {"update_epochs": 1}}), ("train", {"ppo": {"update_epochs": 2}}),
     ("sweep", {})],
    ids=["train-1-epoch", "train-2-epochs", "sweep"],
)
def test_divergence_reports_only_through_exit_3(tmp_path, command, override):
    # in process, under the suite's error::RuntimeWarning filter: a numpy
    # overflow warning on the way to the divergence would end the run with 1
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({**TINY_TRAIN, "learning_rate": 1e300, **override}))
    run = tmp_path / "run"
    assert main([command, "--config", str(config), "--seed", "5", "--out", str(run)]) == 3


def test_diverged_sweep_exits_3_and_lists_every_stage(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**TINY_TRAIN, "learning_rate": 1e300}))
    run = tmp_path / "run"
    proc = run_cli("sweep", "--config", config, "--seed", 5, "--out", run)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.count("failed:") == 5
    checkpoints = sorted((run / "checkpoints").glob("w_*.json"))
    assert len(checkpoints) == 5
    # the root keeps its start parameters and every child inherits them
    for path in checkpoints:
        assert_same_parameters(load_checkpoint(path), start_parameters(5))
    assert len(read_solutions(run / "solutions.csv")) == 5


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "run-dir"])
def test_infer_refuses_bad_weights_before_placing(tmp_path, scenario_file, capsys, out):
    checkpoint = tiny_checkpoint(tmp_path / "model.json")
    run = tmp_path / "run"
    for weights in ("garbage", ""):  # an empty flag is refused, not read as the default
        argv = ["infer", "--checkpoint", str(checkpoint), "--scenario", str(scenario_file),
                "--weights", weights]
        capsys.readouterr()
        assert main(argv + (["--out", str(run)] if out else [])) == 2, weights
        captured = capsys.readouterr()
        assert "placement:" not in captured.out, weights
        assert "weights" in captured.err, weights
        assert not run.exists(), weights


def test_infer_divergence_names_the_checkpoint(tmp_path, scenario_file):
    checkpoint = tiny_checkpoint(tmp_path / "model.json", **{"gin.input_mlp.linears.0.w": 1e308})
    run = tmp_path / "run"
    proc = run_cli("infer", "--checkpoint", checkpoint, "--scenario", scenario_file, "--out", run)
    assert proc.returncode == 3, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("divergence:")]
    assert len(lines) == 1 and str(checkpoint) in lines[0], proc.stderr
    assert not run.exists()


@pytest.mark.parametrize(
    "solver, args",
    [("brute_force_oracle", ["oracle"]),
     ("nsga2_solve", ["evo", "--algorithm", "nsga2", "--population", "20", "--generations", "5"]),
     ("run_baseline", ["baseline", "--strategy", "all-in-cloud"]),
     ("infer_placement", ["infer", "--checkpoint", "model.json"])],
    ids=["oracle", "evo", "baseline", "infer"],
)
def test_manifest_duration_counts_the_solve(tmp_path, monkeypatch, scenario_file, solver, args):
    tiny_checkpoint(tmp_path / "model.json")  # infer reads it relative to tmp_path
    monkeypatch.chdir(tmp_path)
    solve = getattr(cli, solver)

    def slow_solve(*a, **kw):
        time.sleep(0.2)
        return solve(*a, **kw)

    monkeypatch.setattr(cli, solver, slow_solve)
    run = tmp_path / "run"
    assert main([*args, "--scenario", str(scenario_file), "--out", str(run)]) == 0
    assert read_manifest(run).duration_s >= 0.2


@pytest.fixture
def zero_cost_file(tmp_path):
    """A pool where every device, the cloud included, costs 0."""
    path = tmp_path / "zero.json"
    config = ScenarioConfig(device_count=4, cost_choices=(0.0,), cloud_cost=0.0)
    save_scenario(generate_scenario(config, seed=3), path)
    return path


@pytest.mark.parametrize(
    "args",
    [["oracle", "--weights", "0.5,0.5"],
     ["evo", "--algorithm", "ga", "--population", "20", "--generations", "5"],
     ["baseline", "--strategy", "all-in-cloud"]],
    ids=["weighted-oracle", "ga", "baseline"],
)
def test_weighted_solvers_refuse_zero_cost_bounds(tmp_path, zero_cost_file, args):
    run = tmp_path / "run"
    assert main([*args, "--scenario", str(zero_cost_file), "--out", str(run)]) == 2
    assert not run.exists()


def test_evo_input_errors_leave_no_run_directory(tmp_path, zero_cost_file, scenario_file, capsys):
    ga = ["evo", "--algorithm", "ga", "--population", "20", "--generations", "5"]
    nsga2 = ["evo", "--algorithm", "nsga2", "--population", "20", "--generations", "5",
             "--scenario", str(scenario_file)]
    ga_run = [*ga, "--scenario", str(scenario_file)]
    cases = {
        "zero-cost-pool": ([*ga, "--scenario", str(zero_cost_file)], "cost"),
        "bad-weights": ([*ga_run, "--weights", "0.7,0.7"], "weights"),
        "empty-weights": ([*ga_run, "--weights", ""], "weights"),
        "nsga2-weights": ([*nsga2, "--weights", "0.9,0.1"], "--weights"),
        # the operators are fixed: a script passing an operator flag exits 2 naming it
        "nsga2-tournament": ([*nsga2, "--tournament", "7"], "--tournament"),
        "ga-crossover": ([*ga_run, "--crossover", "one-point"], "--crossover"),
        "ga-mutation-kind": ([*ga_run, "--mutation-kind", "per-gene"], "--mutation-kind"),
        "ga-tournament": ([*ga_run, "--tournament", "3"], "--tournament"),
    }
    for name, (args, named) in cases.items():
        run = tmp_path / name
        capsys.readouterr()
        assert main([*args, "--out", str(run)]) == 2, name
        assert not run.exists(), name
        assert named in capsys.readouterr().err, name


@pytest.mark.parametrize(
    "args, named",
    [(["--algorithm", "nsga2", "--population", str(2**62)], "population_size"),
     (["--algorithm", "nsga2", "--population", str(MAX_POPULATION + 1)], "population_size")],
    ids=["nsga2-population-2**62", "nsga2-population-bound+1"],
)
def test_evo_refuses_oversized_runs(tmp_path, scenario_file, capsys, args, named):
    run = tmp_path / "run"
    assert main(["evo", *args, "--scenario", str(scenario_file), "--out", str(run)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0], err
    assert not run.exists()


@pytest.mark.parametrize(
    "args",
    [["oracle"], ["evo", "--algorithm", "nsga2", "--population", "20", "--generations", "5"]],
    ids=["oracle", "nsga2"],
)
def test_unweighted_solvers_accept_zero_cost_pools(tmp_path, zero_cost_file, args):
    run = tmp_path / "run"
    assert main([*args, "--scenario", str(zero_cost_file), "--out", str(run)]) == 0
    assert all(row.cost == 0.0 for row in read_solutions(run / "solutions.csv"))

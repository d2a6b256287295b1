"""Command-line harness: exit codes, run artifacts, reproducibility."""

import json

import pytest

from fogforge.agents import load_checkpoint
from fogforge.cli import main
from fogforge.reports import read_manifest, read_solutions
from fogforge.scenarios import load_scenario

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
    env = PlacementEnv(load_scenario(scenario_file), WeightVector(0.5, 0.5))
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


@pytest.mark.parametrize(
    "defect",
    ["nan-latency", "negative-ops", "duplicate-edge", "negative-device-id", "non-numeric-speed"],
)
def test_bad_scenario_values_are_usage_errors(tmp_path, scenario_file, defect):
    data = json.loads(scenario_file.read_text())
    if defect == "nan-latency":
        data["devices"][1]["latency"] = float("nan")  # json writes and reads NaN
    elif defect == "negative-device-id":
        data["devices"][1]["id"] = -1
    elif defect == "non-numeric-speed":
        data["devices"][1]["speed"] = "fast"
    elif defect == "negative-ops":
        data["applications"][0]["ops"][0][0] = -1.0
    else:
        data["applications"][0]["edges"].append(data["applications"][0]["edges"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc = main(["baseline", "--strategy", "all-in-cloud",
               "--scenario", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 2


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

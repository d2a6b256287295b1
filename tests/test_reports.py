"""Run artifacts: solutions schema, trajectory replay, manifests, comparisons."""

import json
from xml.dom import minidom

import numpy as np
import pytest

from fogforge.model import (
    ConfigurationError,
    ObjectivePoint,
    Placement,
    WeightVector,
    evaluate,
)
from fogforge.reports import (
    RunManifest,
    SolutionRow,
    compare_solutions,
    read_manifest,
    read_solutions,
    svg_scatter,
    trajectory_rows,
    utc_stamp,
    write_comparison_csv,
    write_front_csv,
    write_manifest,
    write_solutions,
)
from fogforge.scenarios import ScenarioConfig, generate_scenario

HALF = WeightVector(0.5, 0.5)


def sample_scenario(seed=0, devices=3):
    return generate_scenario(ScenarioConfig(device_count=devices, app_rows=(3,)), seed=seed)


def random_placement(scenario, seed=0):
    rng = np.random.default_rng(seed)
    app = scenario.applications[0]
    ids = [d.id for d in scenario.devices]
    return Placement({s: ids[int(rng.integers(len(ids)))] for s in app.services()})


# --- solutions.csv ------------------------------------------------------------

def test_solutions_roundtrip(tmp_path):
    rows = [
        SolutionRow(time=53.0, cost=12.5, w_time=0.25, w_cost=0.75, dominated=True),
        SolutionRow(time=60.0, cost=9.0),
    ]
    path = tmp_path / "solutions.csv"
    write_solutions(path, rows)
    back = read_solutions(path)
    assert back == rows
    assert back[1].w_time is None and back[1].w_cost is None


def test_solutions_header_bytes(tmp_path):
    path = tmp_path / "solutions.csv"
    write_solutions(path, [SolutionRow(time=1.0, cost=2.0)])
    text = path.read_text()
    assert text.splitlines()[0] == "w_time,w_cost,time,cost,dominated_flag"
    assert "\r" not in text


def test_solutions_rewrite_identical(tmp_path):
    rows = [SolutionRow(time=1.0 / 3.0, cost=2.0 / 7.0, w_time=0.1, w_cost=0.9)]
    write_solutions(tmp_path / "a.csv", rows)
    write_solutions(tmp_path / "b.csv", rows)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_solutions_bad_header_rejected(tmp_path):
    path = tmp_path / "solutions.csv"
    path.write_text("time,cost\n1.0,2.0\n")
    with pytest.raises(ConfigurationError, match="unexpected columns"):
        read_solutions(path)


def test_solutions_malformed_row_rejected(tmp_path):
    path = tmp_path / "solutions.csv"
    # an unparsable or non-finite objective, or a flag other than 0 or 1
    bad = (",,oops,2.0,0", ",,nan,2.0,0", ",,1.0,inf,0", ",,-inf,2.0,1", ",,1.0,2.0,2", ",,1.0,2.0,")
    for row in bad:
        path.write_text(f"w_time,w_cost,time,cost,dominated_flag\n{row}\n")
        with pytest.raises(ConfigurationError, match="malformed row"):
            read_solutions(path)


def test_solutions_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="no such solutions"):
        read_solutions(tmp_path / "absent.csv")


def test_front_csv_chromosomes(tmp_path):
    scenario = sample_scenario(seed=1)
    placement = random_placement(scenario, seed=1)
    point = evaluate(scenario.applications[0], placement, scenario.devices)
    path = tmp_path / "front.csv"
    write_front_csv(path, [point], [placement])
    lines = path.read_text().splitlines()
    assert lines[0] == "time,cost,chromosome"
    genes = lines[1].split(",")[2].split(" ")
    ordered = sorted(placement.assignment.items())
    assert genes == [str(d) for _, d in ordered]


# --- trajectory replay --------------------------------------------------------

def test_trajectory_pseudo_step_charges_reset_state():
    scenario = sample_scenario(seed=3)
    placement = random_placement(scenario, seed=3)
    rows = trajectory_rows(scenario, placement, HALF)
    first = rows[0]
    assert first["step"] == 0
    assert first["service"] is None and first["device"] is None
    assert first["r_time"] == -first["t_app"]
    assert first["r_cost"] == -first["cost"]


def test_trajectory_covers_each_service_once():
    scenario = sample_scenario(seed=4, devices=4)
    placement = random_placement(scenario, seed=4)
    rows = trajectory_rows(scenario, placement, HALF)
    app = scenario.applications[0]
    assert len(rows) == app.service_count + 1
    placed = [r["service"] for r in rows[1:]]
    assert sorted(placed) == list(range(app.service_count))
    for row in rows[1:]:
        service = list(app.services())[row["service"]]
        assert row["device"] == placement.assignment[service]


def test_trajectory_rewards_telescope_to_final_point():
    for seed in range(6):
        scenario = sample_scenario(seed=seed, devices=4)
        placement = random_placement(scenario, seed=seed + 50)
        rows = trajectory_rows(scenario, placement, HALF)
        point = evaluate(scenario.applications[0], placement, scenario.devices)
        assert rows[-1]["t_app"] == pytest.approx(point.time, abs=1e-9)
        assert rows[-1]["cost"] == pytest.approx(point.cost, abs=1e-9)
        assert sum(r["r_time"] for r in rows) == pytest.approx(-point.time, abs=1e-9)
        assert sum(r["r_cost"] for r in rows) == pytest.approx(-point.cost, abs=1e-9)


def test_trajectory_all_cloud_is_all_noops():
    scenario = sample_scenario(seed=5)
    app = scenario.applications[0]
    placement = Placement({s: scenario.cloud.id for s in app.services()})
    rows = trajectory_rows(scenario, placement, HALF)
    # reset already sits on the cloud, so every replayed move changes nothing
    for row in rows[1:]:
        assert row["r_total"] == 0.0
        assert row["t_app"] == rows[0]["t_app"]


# --- manifest -----------------------------------------------------------------

def sample_manifest():
    return RunManifest(
        command="evo",
        config={"algorithm": "nsga2"},
        seed=7,
        version="0.1.0",
        started_at=utc_stamp(0.0),
        finished_at=utc_stamp(1.0),
        duration_s=1.0,
        outputs=["solutions.csv"],
    )


def test_manifest_roundtrip(tmp_path):
    manifest = sample_manifest()
    write_manifest(tmp_path, manifest)
    assert read_manifest(tmp_path) == manifest
    # manifests written while rollouts had a thread pool carry a threads key
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "threads": 1}))
    assert read_manifest(tmp_path) == manifest


def test_manifest_missing_or_malformed(tmp_path):
    with pytest.raises(ConfigurationError, match="no such manifest"):
        read_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(ConfigurationError, match="manifest is not valid JSON"):
        read_manifest(tmp_path)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda m: {**m, "seed": "x"}, r"manifest\.seed must be an integer"),
        (lambda m: {**m, "duration_s": "fast"}, r"manifest\.duration_s must be a number"),
        (lambda m: {**m, "outputs": 5}, r"manifest\.outputs must be a JSON list"),
        (lambda m: {**m, "outputs": ["a", 1]}, r"manifest\.outputs\[1\] must be a string"),
        (lambda m: {**m, "finished_at": None}, r"manifest\.finished_at must be a string"),
        (lambda m: {**m, "config": []}, r"manifest\.config must be a JSON object"),
        (lambda m: [m], "manifest must be a JSON object"),
    ],
    ids=["string-seed", "string-duration", "number-outputs", "number-output", "null-finished-at",
         "list-config", "top-level-list"],
)
def test_manifest_fields_are_type_checked(tmp_path, edit, field):
    path = write_manifest(tmp_path, sample_manifest())
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ConfigurationError, match=field):
        read_manifest(tmp_path)


def test_utc_stamp_format():
    assert utc_stamp(0.0) == "1970-01-01T00:00:00Z"


# --- comparison ---------------------------------------------------------------

def test_compare_self_scores_zero_dominance():
    rows = [SolutionRow(time=3.0, cost=9.0), SolutionRow(time=5.0, cost=4.0)]
    report = compare_solutions({"a": rows, "b": list(rows)})
    assert report.dominance == {"a": {"a": 0, "b": 0}, "b": {"a": 0, "b": 0}}
    hv = {m.label: m.hypervolume for m in report.methods}
    assert hv["a"] == pytest.approx(hv["b"])
    assert len(report.joint_front) == 2


def test_compare_strict_improvement_dominates():
    better = [SolutionRow(time=1.0, cost=1.0)]
    worse = [SolutionRow(time=2.0, cost=2.0), SolutionRow(time=0.5, cost=9.0)]
    report = compare_solutions({"better": better, "worse": worse})
    assert report.dominance["better"]["worse"] == 1  # (2,2) beaten, (0.5,9) not
    assert report.dominance["worse"]["better"] == 0
    assert report.reference.time == pytest.approx(3.0)
    assert report.reference.cost == pytest.approx(10.0)


def test_compare_needs_two_nonempty_sets():
    rows = [SolutionRow(time=1.0, cost=1.0)]
    with pytest.raises(ConfigurationError, match="at least two"):
        compare_solutions({"only": rows})
    with pytest.raises(ConfigurationError, match="empty"):
        compare_solutions({"a": rows, "b": []})


def test_comparison_csv_flags_joint_front(tmp_path):
    labeled = {
        "a": [SolutionRow(time=1.0, cost=5.0)],
        "b": [SolutionRow(time=4.0, cost=4.0), SolutionRow(time=2.0, cost=2.0)],
    }
    path = tmp_path / "comparison.csv"
    write_comparison_csv(path, labeled)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,time,cost,joint_front_flag"
    flags = {tuple(line.split(",")[:1] + line.split(",")[3:]) for line in lines[1:]}
    assert ("a", "1") in flags
    assert ("b", "0") in flags and ("b", "1") in flags


# --- svg ----------------------------------------------------------------------

def test_svg_scatter_three_series():
    series = {
        "policy": [ObjectivePoint(1.0, 9.0), ObjectivePoint(2.0, 7.0)],
        "oracle": [ObjectivePoint(1.0, 8.0)],
        "random": [ObjectivePoint(5.0, 5.0)],
    }
    svg = svg_scatter(series, title="demo")
    assert svg.startswith("<svg ") and svg.endswith("</svg>")
    for label in series:
        assert f">{label}</text>" in svg
    # one marker per point plus one legend dot per series
    assert svg.count("<circle") == 4 + 3
    assert ">demo</text>" in svg


def test_svg_scatter_escapes_markup_in_labels_and_title():
    # run directory names become series labels; "&" and "<" must not break the XML
    series = {"R&D": [ObjectivePoint(1.0, 2.0)], "<b>": [ObjectivePoint(2.0, 1.0)]}
    svg = svg_scatter(series, title="R&D vs <b>")
    texts = minidom.parseString(svg).getElementsByTagName("text")
    shown = {node.firstChild.data for node in texts}
    assert {"R&D", "<b>", "R&D vs <b>"} <= shown


def test_svg_scatter_degenerate_single_point():
    svg = svg_scatter({"one": [ObjectivePoint(3.0, 3.0)]}, title="one point")
    assert "<circle" in svg


def test_svg_scatter_rejects_empty():
    with pytest.raises(ConfigurationError, match="nothing to plot"):
        svg_scatter({"a": []}, title="empty")

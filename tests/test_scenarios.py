"""Scenario generation determinism, structure, and persistence."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogforge.model import Application, ConfigurationError, Device
from fogforge.scenarios import (
    Scenario,
    ScenarioConfig,
    dataset_seeds,
    generate_application,
    generate_devices,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_to_dict,
)


def test_generation_is_deterministic():
    config = ScenarioConfig(device_count=6, app_rows=(3,))
    a = generate_scenario(config, seed=123)
    b = generate_scenario(config, seed=123)
    assert scenario_to_dict(a) == scenario_to_dict(b)
    c = generate_scenario(config, seed=124)
    assert scenario_to_dict(a) != scenario_to_dict(c)


def test_device_structure():
    config = ScenarioConfig(device_count=10)
    devices = generate_devices(config, np.random.default_rng(0))
    assert len(devices) == 11
    cloud = devices[0]
    assert cloud.is_cloud and cloud.id == 0
    assert cloud.latency == config.cloud_latency and cloud.cost == config.cloud_cost
    for d in devices[1:]:
        assert not d.is_cloud
        assert d.latency in config.latency_choices
        assert d.cost in config.cost_choices
        assert d.speed == config.device_speed
    assert [d.id for d in devices] == list(range(11))


def candidate_sources(rows, service):
    i, j = service
    return {(a, b) for a in range(i) for b in range(rows)} | {(i, b) for b in range(j)}


def test_application_structure():
    config = ScenarioConfig(device_count=3, extra_edge_prob=0.5)
    rng = np.random.default_rng(1)
    for _ in range(100):
        app = generate_application(config, 3, rng)
        chain = set(Application.chain_edges(3))
        extras = set(app.edges) - chain
        assert chain <= set(app.edges)
        inbound = {}
        for src, dst in extras:
            assert src in candidate_sources(3, dst)
            inbound[dst] = inbound.get(dst, 0) + 1
        assert all(k == 1 for k in inbound.values())
        # first two services have no usable source beyond the chain
        assert all(dst not in {(0, 0), (0, 1)} for _, dst in extras)


def test_edge_probability_extremes():
    rng = np.random.default_rng(2)
    never = ScenarioConfig(device_count=1, extra_edge_prob=0.0)
    always = ScenarioConfig(device_count=1, extra_edge_prob=1.0)
    for _ in range(20):
        app = generate_application(never, 3, rng)
        assert set(app.edges) == set(Application.chain_edges(3))
    for _ in range(20):
        app = generate_application(always, 3, rng)
        extras = set(app.edges) - set(Application.chain_edges(3))
        # every service except (0,0) and (0,1) gains exactly one extra edge
        assert len(extras) == 7


def test_edge_frequency_tracks_probability():
    config = ScenarioConfig(device_count=1, extra_edge_prob=0.2)
    rng = np.random.default_rng(3)
    hits = 0
    trials = 4000
    for _ in range(trials):
        app = generate_application(config, 2, rng)
        extras = set(app.edges) - set(Application.chain_edges(2))
        if any(dst == (1, 0) for _, dst in extras):
            hits += 1
    assert hits / trials == pytest.approx(0.2, abs=0.025)


def test_ops_are_constant():
    scenario = generate_scenario(ScenarioConfig(device_count=2, op_count=2.5), seed=9)
    for app in scenario.applications:
        assert all(x == 2.5 for row in app.ops for x in row)


def test_scenario_validation():
    config = ScenarioConfig(device_count=1)
    app = generate_scenario(config, 0).applications[0]
    fog = Device(id=1, speed=1.0, latency=1.0, cost=1.0)
    cloud = Device(id=0, speed=1.0, latency=50.0, cost=20.0, is_cloud=True)
    with pytest.raises(ConfigurationError):
        Scenario(config=config, devices=(fog,), applications=(app,))
    with pytest.raises(ConfigurationError):
        Scenario(config=config, devices=(cloud, cloud), applications=(app,))
    for apps in ((), (app, app)):
        with pytest.raises(ConfigurationError, match="exactly one application"):
            Scenario(config=config, devices=(cloud, fog), applications=apps)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(device_count=0)
    for rows in ((), (3, 2)):
        with pytest.raises(ConfigurationError, match="exactly one"):
            ScenarioConfig(app_rows=rows)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(extra_edge_prob=1.5)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(latency_choices=())
    with pytest.raises(ConfigurationError):
        ScenarioConfig(device_speed=0.0)
    for counts in ({"device_count": 2.5}, {"device_count": True}, {"device_count": "3"},
                   {"app_rows": (2.5,)}, {"app_rows": (3, 2.0)}):
        with pytest.raises(ConfigurationError, match="int"):
            ScenarioConfig(**counts)
    assert ScenarioConfig(device_count=np.int64(3)).device_count == 3


def test_dataset_seeds_disjoint():
    train, test, val = dataset_seeds(100, 40, 8, 8)
    assert len(set(train) | set(test) | set(val)) == 56
    assert train[0] == 100 and test[0] == 10_100 and val[0] == 20_100
    with pytest.raises(ConfigurationError):
        dataset_seeds(0, 10_000, 1, 1)


def test_round_trip(tmp_path):
    scenario = generate_scenario(ScenarioConfig(device_count=5, app_rows=(3,)), seed=77)
    path = tmp_path / "scn.json"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded == scenario
    assert loaded.seed == 77
    unseeded = dataclasses.replace(scenario, seed=None)
    save_scenario(unseeded, path)
    assert load_scenario(path) == unseeded


def test_load_ignores_unknown_keys(tmp_path):
    scenario = generate_scenario(ScenarioConfig(device_count=2), seed=5)
    data = scenario_to_dict(scenario)
    data["future_field"] = {"x": 1}
    data["devices"][0]["annotation"] = "hi"
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(data))
    assert load_scenario(path) == scenario


def test_load_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="no such scenario"):
        load_scenario(tmp_path / "missing.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_scenario(bad)

    truncated = tmp_path / "trunc.json"
    truncated.write_text(json.dumps({"format_version": 1, "config": {}}))
    with pytest.raises(ConfigurationError, match="malformed scenario"):
        load_scenario(truncated)

    future = tmp_path / "future.json"
    data = scenario_to_dict(generate_scenario(ScenarioConfig(device_count=1), seed=1))
    data["format_version"] = 99
    future.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError, match="format_version") as info:
        load_scenario(future)
    assert "malformed" not in str(info.value)  # the loader's own message, not re-wrapped


finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    device_count=st.integers(1, 12),
    app_rows=st.integers(1, 4).map(lambda rows: (rows,)),
    latency_choices=st.lists(finite, min_size=1, max_size=4).map(tuple),
    cost_choices=st.lists(finite, min_size=1, max_size=4).map(tuple),
    extra_edge_prob=st.floats(0.0, 1.0),
    cloud_latency=finite,
    cloud_cost=finite,
    op_count=finite,
    device_speed=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_scenario_save_load_save_is_byte_identical(tmp_path_factory, seed, **fields):
    scenario = generate_scenario(ScenarioConfig(**fields), seed=seed)
    directory = tmp_path_factory.mktemp("scenario")
    first, second = directory / "first.json", directory / "second.json"
    save_scenario(scenario, first)
    loaded = load_scenario(first)
    save_scenario(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded == scenario

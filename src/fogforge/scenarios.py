"""Seeded scenario generation and JSON persistence.

A scenario bundles an infrastructure (fog devices plus exactly one cloud) with
exactly one application. Generation is fully determined by a configuration
and an integer seed: equal inputs give equal scenarios, byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from fogforge.model import (
    Application,
    ConfigurationError,
    Device,
    NormBounds,
    analytic_bounds,
    from_json,
    is_count,
    read_json,
    write_file,
)

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for scenario generation.

    ``device_count`` counts fog devices only; the cloud is added on top with
    fixed latency/cost. ``app_rows`` holds the grid size n of the one generated
    application. Operation counts and device speeds are constant so that the
    objectives are driven by latency and cost structure.
    """

    device_count: int = 20
    app_rows: tuple[int, ...] = (3,)
    latency_choices: tuple[float, ...] = (1.0, 10.0, 20.0, 30.0, 40.0, 50.0)
    cost_choices: tuple[float, ...] = (1.0, 10.0, 20.0, 30.0, 40.0)
    extra_edge_prob: float = 0.2
    cloud_latency: float = 50.0
    cloud_cost: float = 20.0
    op_count: float = 1.0
    device_speed: float = 1.0

    def __post_init__(self) -> None:
        if not (is_count(self.device_count) and self.device_count >= 1):
            raise ConfigurationError(f"device_count must be an int >= 1: {self.device_count!r}")
        if len(self.app_rows) != 1 or not all(is_count(n) and n >= 1 for n in self.app_rows):
            raise ConfigurationError(f"app_rows must hold exactly one int >= 1: {self.app_rows!r}")
        if not self.latency_choices or not self.cost_choices:
            raise ConfigurationError("latency/cost choice lists must be non-empty")
        if not 0.0 <= self.extra_edge_prob <= 1.0:
            raise ConfigurationError("extra_edge_prob must lie in [0, 1]")
        reals = (*self.latency_choices, *self.cost_choices,
                 self.cloud_latency, self.cloud_cost, self.op_count)
        if not all(math.isfinite(x) and x >= 0 for x in reals):
            raise ConfigurationError(
                "latency/cost choices, cloud_latency, cloud_cost and op_count "
                "must be finite and >= 0"
            )
        if not (math.isfinite(self.device_speed) and self.device_speed > 0):
            raise ConfigurationError(f"device_speed must be finite and > 0: {self.device_speed!r}")


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    devices: tuple[Device, ...]
    applications: tuple[Application, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        clouds = [d for d in self.devices if d.is_cloud]
        if len(clouds) != 1:
            raise ConfigurationError(f"scenario must have exactly one cloud, found {len(clouds)}")
        if len(self.applications) != 1:
            raise ConfigurationError("scenario must hold exactly one application")
        if len({d.id for d in self.devices}) != len(self.devices):
            raise ConfigurationError("duplicate device ids")

    @property
    def cloud(self) -> Device:
        return next(d for d in self.devices if d.is_cloud)

    def bounds(self) -> NormBounds:
        return analytic_bounds(self.applications[0], self.devices)


def generate_devices(config: ScenarioConfig, rng: np.random.Generator) -> tuple[Device, ...]:
    """Cloud first (id 0), then fog devices with latency and cost drawn per device."""
    devices = [
        Device(
            id=0,
            speed=config.device_speed,
            latency=config.cloud_latency,
            cost=config.cloud_cost,
            is_cloud=True,
        )
    ]
    for k in range(config.device_count):
        lat = config.latency_choices[int(rng.integers(len(config.latency_choices)))]
        cost = config.cost_choices[int(rng.integers(len(config.cost_choices)))]
        devices.append(Device(id=k + 1, speed=config.device_speed, latency=lat, cost=cost))
    return tuple(devices)


def _edge_candidates(rows: int, service: tuple[int, int], edges: set) -> list[tuple[int, int]]:
    i, j = service
    cands = [(a, b) for a in range(i) for b in range(rows)]
    cands += [(i, b) for b in range(j)]
    return [c for c in cands if (c, service) not in edges]


def generate_application(config: ScenarioConfig, rows: int, rng: np.random.Generator) -> Application:
    """Row-chained n x n grid plus at most one extra inbound edge per service.

    Services are visited row-major; each draws a Bernoulli(extra_edge_prob).
    On success the source is chosen uniformly among earlier-row services and
    same-row predecessors not already linked; services with no such candidate
    draw the Bernoulli but never an edge.
    """
    edges = set(Application.chain_edges(rows))
    for i in range(rows):
        for j in range(rows):
            hit = rng.random() < config.extra_edge_prob
            if not hit:
                continue
            cands = _edge_candidates(rows, (i, j), edges)
            if not cands:
                continue
            src = cands[int(rng.integers(len(cands)))]
            edges.add((src, (i, j)))
    ops = tuple(tuple(config.op_count for _ in range(rows)) for _ in range(rows))
    return Application(rows=rows, ops=ops, edges=tuple(sorted(edges)))


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    devices = generate_devices(config, rng)
    apps = tuple(generate_application(config, rows, rng) for rows in config.app_rows)
    return Scenario(config=config, devices=devices, applications=apps, seed=seed)


def dataset_seeds(base_seed: int, n_train: int, n_test: int, n_val: int) -> tuple[list[int], list[int], list[int]]:
    """Disjoint seed blocks for train/test/validation scenario sets."""
    if max(n_train, n_test, n_val) >= 10_000:
        raise ConfigurationError("split sizes must stay below the 10000-seed block stride")
    train = [base_seed + i for i in range(n_train)]
    test = [base_seed + 10_000 + i for i in range(n_test)]
    val = [base_seed + 20_000 + i for i in range(n_val)]
    return train, test, val


# --- persistence --------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "seed": scenario.seed,
        "config": asdict(scenario.config),
        "devices": [asdict(d) for d in scenario.devices],
        "applications": [
            {
                "rows": app.rows,
                "ops": app.ops,
                # edges as [src_row, src_col, dst_row, dst_col], all 0-based
                "edges": [[s[0], s[1], t[0], t[1]] for s, t in app.edges],
            }
            for app in scenario.applications
        ],
    }


def scenario_from_dict(data: dict, origin: str = "<dict>") -> Scenario:
    """Unknown keys are ignored, so newer files still load. Every error names ``origin``."""
    try:
        version = from_json(int, data["format_version"], "format_version")
        if version > FORMAT_VERSION:
            raise ConfigurationError(
                f"format_version {version} is newer than supported {FORMAT_VERSION}"
            )
        apps = []
        for i, a in enumerate(data["applications"]):
            where = f"applications[{i}]"
            ops = from_json(tuple[tuple[float, ...], ...], a["ops"], f"{where}.ops")
            edges = from_json(tuple[tuple[int, ...], ...], a["edges"], f"{where}.edges")
            apps.append(Application(
                rows=from_json(int, a["rows"], f"{where}.rows"),
                ops=ops,
                edges=tuple(((s0, s1), (t0, t1)) for s0, s1, t0, t1 in edges),
                cols=len(ops[0]) if ops else None,
            ))
        return Scenario(
            config=from_json(ScenarioConfig, data["config"], "config", ignore_unknown=True),
            devices=from_json(tuple[Device, ...], data["devices"], "devices", ignore_unknown=True),
            applications=tuple(apps),
            seed=from_json(int | None, data.get("seed"), "seed"),
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{origin}: {exc}") from None
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigurationError(f"{origin}: malformed scenario ({exc!r})") from exc


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    write_file(path, json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(read_json(path, "scenario file"), origin=str(path))

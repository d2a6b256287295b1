"""Seeded scenario generation and JSON persistence.

A scenario bundles an infrastructure (fog devices plus exactly one cloud) with
one or more applications. Generation is fully determined by a configuration
and an integer seed: equal inputs give equal scenarios, byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fogforge.model import Application, ConfigurationError, Device, NormBounds, analytic_bounds

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for scenario generation.

    ``device_count`` counts fog devices only; the cloud is added on top with
    fixed latency/cost. ``app_rows`` gives the grid size n of each generated
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
        if self.device_count < 1:
            raise ConfigurationError("device_count must be >= 1")
        if not self.app_rows or any(n < 1 for n in self.app_rows):
            raise ConfigurationError("app_rows must be non-empty positive ints")
        if not self.latency_choices or not self.cost_choices:
            raise ConfigurationError("latency/cost choice lists must be non-empty")
        if not 0.0 <= self.extra_edge_prob <= 1.0:
            raise ConfigurationError("extra_edge_prob must lie in [0, 1]")
        if self.op_count < 0 or self.device_speed <= 0:
            raise ConfigurationError("op_count must be >= 0 and device_speed > 0")


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
        if len({d.id for d in self.devices}) != len(self.devices):
            raise ConfigurationError("duplicate device ids")

    @property
    def cloud(self) -> Device:
        return next(d for d in self.devices if d.is_cloud)

    def bounds(self, app_index: int = 0) -> NormBounds:
        return analytic_bounds(self.applications[app_index], self.devices)


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
    cfg = scenario.config
    return {
        "format_version": FORMAT_VERSION,
        "seed": scenario.seed,
        "config": {
            "device_count": cfg.device_count,
            "app_rows": list(cfg.app_rows),
            "latency_choices": list(cfg.latency_choices),
            "cost_choices": list(cfg.cost_choices),
            "extra_edge_prob": cfg.extra_edge_prob,
            "cloud_latency": cfg.cloud_latency,
            "cloud_cost": cfg.cloud_cost,
            "op_count": cfg.op_count,
            "device_speed": cfg.device_speed,
        },
        "devices": [
            {
                "id": d.id,
                "speed": d.speed,
                "latency": d.latency,
                "cost": d.cost,
                "is_cloud": d.is_cloud,
            }
            for d in scenario.devices
        ],
        "applications": [
            {
                "rows": app.rows,
                "ops": [list(row) for row in app.ops],
                # edges as [src_row, src_col, dst_row, dst_col], all 0-based
                "edges": [[s[0], s[1], t[0], t[1]] for s, t in app.edges],
            }
            for app in scenario.applications
        ],
    }


def scenario_from_dict(data: dict, origin: str = "<dict>") -> Scenario:
    try:
        version = data["format_version"]
        if version > FORMAT_VERSION:
            raise ConfigurationError(
                f"{origin}: format_version {version} is newer than supported {FORMAT_VERSION}"
            )
        cfg_raw = data["config"]
        config = ScenarioConfig(
            device_count=int(cfg_raw["device_count"]),
            app_rows=tuple(int(n) for n in cfg_raw["app_rows"]),
            latency_choices=tuple(float(x) for x in cfg_raw["latency_choices"]),
            cost_choices=tuple(float(x) for x in cfg_raw["cost_choices"]),
            extra_edge_prob=float(cfg_raw["extra_edge_prob"]),
            cloud_latency=float(cfg_raw["cloud_latency"]),
            cloud_cost=float(cfg_raw["cloud_cost"]),
            op_count=float(cfg_raw["op_count"]),
            device_speed=float(cfg_raw["device_speed"]),
        )
        devices = tuple(
            Device(
                id=int(d["id"]),
                speed=float(d["speed"]),
                latency=float(d["latency"]),
                cost=float(d["cost"]),
                is_cloud=bool(d["is_cloud"]),
            )
            for d in data["devices"]
        )
        apps = tuple(
            Application(
                rows=int(a["rows"]),
                ops=tuple(tuple(float(x) for x in row) for row in a["ops"]),
                edges=tuple(((e[0], e[1]), (e[2], e[3])) for e in a["edges"]),
                cols=len(a["ops"][0]) if a["ops"] else None,
            )
            for a in data["applications"]
        )
        seed = data.get("seed")
        return Scenario(
            config=config,
            devices=devices,
            applications=apps,
            seed=None if seed is None else int(seed),
        )
    except ConfigurationError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigurationError(f"{origin}: malformed scenario ({exc!r})") from exc


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"{path}: no such scenario file") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(data, origin=str(path))

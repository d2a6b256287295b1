"""Placement environment: sequential service-to-device assignment.

Every episode starts with all services on the cloud. Each step re-places one
eligible service (all DAG predecessors already re-placed) onto a device and
receives per-objective difference rewards, previous value minus new value, so
the cumulative time reward telescopes to initial minus final response time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fogforge.model import (
    Application,
    InvalidPlacementError,
    NormBounds,
    ObjectivePoint,
    Placement,
    Service,
    WeightVector,
    _Instance,
    analytic_bounds,
    evaluate,
    weighted_objective,
)
from fogforge.scenarios import Scenario


class IllegalActionError(RuntimeError):
    """Action references an ineligible service or unknown device."""


@dataclass(frozen=True)
class Action:
    service: Service
    device: int


@dataclass(frozen=True)
class RewardBreakdown:
    r_time: float
    r_cost: float
    r_total: float


@dataclass
class EnvState:
    """Observation: per-service features plus host-device features.

    ``service_features`` is (tasks, 3): execution time of the service on its
    current host, accumulated inbound latency charge (access latency for row
    heads plus cross-device edge charges), and the re-placed flag, the first
    two normalized to [0, 1] by per-scenario bounds. ``device_features`` is
    (3, 3*tasks): normalized latency/speed/cost of each service's host,
    replicated once per service-feature column.
    """

    service_features: np.ndarray
    device_features: np.ndarray
    placed_mask: np.ndarray
    eligible_mask: np.ndarray
    assignment: np.ndarray
    step_count: int
    t_app: float
    cost: float
    weighted: float


class PlacementEnv:
    def __init__(
        self,
        scenario: Scenario,
        weights: WeightVector,
        app_index: int = 0,
        bounds: NormBounds | None = None,
    ) -> None:
        self.scenario = scenario
        self.app: Application = scenario.applications[app_index]
        self.devices = scenario.devices
        self.weights = weights.check()
        self.bounds = bounds if bounds is not None else analytic_bounds(self.app, self.devices)

        self.services: list[Service] = list(self.app.services())
        self.task_count = len(self.services)
        self._svc_index = {s: k for k, s in enumerate(self.services)}
        self._cloud_pos = next(k for k, d in enumerate(self.devices) if d.is_cloud)
        self._inst = _Instance.build(self.app, self.devices)
        self.device_ids = self._inst.ids
        src, dst = self._inst.src, self._inst.dst

        indeg = np.bincount(dst, minlength=self.task_count).astype(float)
        outdeg = np.bincount(src, minlength=self.task_count).astype(float)

        def norm(x: np.ndarray) -> np.ndarray:
            top = x.max() if x.size else 0.0
            return x / top if top > 0 else np.zeros_like(x)

        # static per-app extras consumed by the policy networks
        self.degree_features = np.stack([norm(indeg), norm(outdeg)], axis=1)
        self.adjacency = np.zeros((self.task_count, self.task_count))
        self.adjacency[src, dst] = 1.0
        self.adjacency[dst, src] = 1.0
        lat, speed, cost = self._inst.latency, self._inst.speed, self._inst.cost
        self.device_features_all = np.stack([norm(lat), norm(speed), norm(cost)], axis=1)
        # the distinct device rows, which the device head scores once each
        self.device_classes, class_of = np.unique(
            self.device_features_all, axis=0, return_inverse=True
        )
        self.device_class_of = class_of.reshape(-1)  # numpy 2.0.0 returns it 2-d

        # feature-normalization denominators, fixed per scenario
        self._exec_bound = float(self._inst.ops.max()) / float(speed.min())
        is_head = np.zeros(self.task_count)
        is_head[self._inst.heads] = 1.0
        self._lat_bound = float(lat.max()) * (indeg + is_head)

        self._assignment = np.full(self.task_count, self._cloud_pos, dtype=np.int64)
        self._placed = np.zeros(self.task_count, dtype=bool)
        self._steps = 0
        self._scored: tuple[ObjectivePoint, float] | None = None  # set by each state

    # positions index self.devices; ids are translated at the boundary
    def _pos_of_device(self, device_id: int) -> int:
        try:
            return int(self._inst.positions(device_id))
        except InvalidPlacementError:
            raise IllegalActionError(f"unknown device id {device_id}") from None

    def placement(self) -> Placement:
        return Placement.from_vector(self.app, self.device_ids[self._assignment])

    def objectives(self) -> ObjectivePoint:
        return evaluate(self.app, self.placement(), self.devices)

    def _score(self) -> tuple[ObjectivePoint, float]:
        """Objectives of the current assignment and their weighted scalarization."""
        times, costs = self._inst.objectives(self._assignment[None, :])
        point = ObjectivePoint(float(times[0]), float(costs[0]))
        return point, weighted_objective(point, self.weights, self.bounds)

    def eligible_services(self) -> np.ndarray:
        """Mask over services: not yet re-placed and all predecessors re-placed."""
        waiting = np.bincount(
            self._inst.dst, weights=~self._placed[self._inst.src], minlength=self.task_count
        )
        return ~self._placed & (waiting == 0)

    def _state(self) -> EnvState:
        inst = self._inst
        exec_time = inst.ops / inst.speed[self._assignment]
        exec_f = exec_time / self._exec_bound if self._exec_bound > 0 else np.zeros_like(exec_time)

        acc_lat = inst.inbound_latency(self._assignment)
        acc_lat[inst.heads] += inst.latency[self._assignment[inst.heads]]
        lat_f = np.divide(
            acc_lat,
            self._lat_bound,
            out=np.zeros_like(acc_lat),
            where=self._lat_bound > 0,
        )

        service_features = np.stack([exec_f, lat_f, self._placed.astype(float)], axis=1)
        device_features = np.repeat(
            self.device_features_all[self._assignment].T, 3, axis=1
        )

        point, weighted = self._scored = self._score()
        return EnvState(
            service_features=service_features,
            device_features=device_features,
            placed_mask=self._placed.copy(),
            eligible_mask=self.eligible_services(),
            assignment=self.device_ids[self._assignment],
            step_count=self._steps,
            t_app=point.time,
            cost=point.cost,
            weighted=weighted,
        )

    def reset(self) -> EnvState:
        self._assignment[:] = self._cloud_pos
        self._placed[:] = False
        self._steps = 0
        return self._state()

    def step(self, action: Action) -> tuple[EnvState, RewardBreakdown, bool]:
        k = self._svc_index.get(action.service)
        if k is None:
            raise IllegalActionError(f"unknown service {action.service}")
        if not self.eligible_services()[k]:
            raise IllegalActionError(f"service {action.service} is not eligible")
        pos = self._pos_of_device(action.device)

        if self._scored is None:  # step before the first reset()
            self._scored = self._score()
        prev, prev_w = self._scored
        self._assignment[k] = pos
        self._placed[k] = True
        self._steps += 1
        state = self._state()
        reward = RewardBreakdown(
            r_time=prev.time - state.t_app,
            r_cost=prev.cost - state.cost,
            r_total=prev_w - state.weighted,
        )
        return state, reward, bool(self._placed.all())


def rollout_random(env: PlacementEnv, rng: np.random.Generator) -> list[tuple[Action, RewardBreakdown]]:
    """Uniform-random legal trajectory; handy for tests and the random baseline."""
    env.reset()
    trace = []
    done = False
    while not done:
        mask = env.eligible_services()
        choices = np.flatnonzero(mask)
        svc = env.services[int(rng.choice(choices))]
        dev = int(rng.choice(env.device_ids))
        action = Action(service=svc, device=dev)
        _, reward, done = env.step(action)
        trace.append((action, reward))
    return trace

"""Placement environment: sequential service-to-device assignment.

Every episode starts with all services on the cloud. Each step re-places one
eligible service (all DAG predecessors already re-placed) onto a device and
receives per-objective difference rewards, previous value minus new value, so
the cumulative time reward telescopes to initial minus final response time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fogforge.model import (
    Application,
    ConfigurationError,
    Device,
    InvalidPlacementError,
    Placement,
    Service,
    WeightVector,
    _Instance,
    _weighted,
    analytic_bounds,
    evaluate,  # unused here; kept so tracers that wrap ``fogforge.env.evaluate`` still find it
)


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


NODE_FEATURES = 5  # columns of EnvState.node_features


@dataclass
class EnvState:
    """Everything the policy reads at one step, plus the step's objectives.

    ``node_features`` is (tasks, 5): execution time of the service on its
    current host, accumulated inbound latency charge (access latency for row
    heads plus cross-device edge charges), the re-placed flag, and the env's
    ``degree_features``; the first two are normalized to [0, 1] by
    per-scenario bounds. ``host_latency`` is (tasks,): the latency of each
    service's host, normalized by the pool's largest latency. Each state's
    arrays are built anew, so a kept state never changes; ``adjacency``,
    ``device_classes`` and ``device_class_of`` are the env's own static arrays.
    """

    node_features: np.ndarray
    host_latency: np.ndarray
    eligible_mask: np.ndarray
    adjacency: np.ndarray
    device_classes: np.ndarray
    device_class_of: np.ndarray
    t_app: float
    cost: float
    weighted: float


class PlacementEnv:
    def __init__(
        self,
        app: Application,
        devices: Sequence[Device],
        weights: WeightVector,
    ) -> None:
        """Places ``app`` on ``devices``, whose one cloud hosts every service at
        reset; weighted scores normalise by :func:`analytic_bounds`."""
        clouds = [k for k, d in enumerate(devices) if d.is_cloud]
        if len(clouds) != 1:
            raise ConfigurationError(
                f"device pool must have exactly one cloud, found {len(clouds)}"
            )
        self.app = app
        self.devices = tuple(devices)
        self.weights = weights.check()
        self.bounds = analytic_bounds(self.app, self.devices)

        self.services: list[Service] = list(self.app.services())
        self.task_count = len(self.services)
        self._svc_index = {s: k for k, s in enumerate(self.services)}
        self._cloud_pos = clouds[0]
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
        # each device's normalized (latency, speed, cost)
        self.device_rows = np.stack([norm(lat), norm(speed), norm(cost)], axis=1)
        # the distinct device rows, which the device head scores once each
        self.device_classes, class_of = np.unique(self.device_rows, axis=0, return_inverse=True)
        self.device_class_of = class_of.reshape(-1)  # numpy 2.0.0 returns it 2-d

        # feature-normalization denominators, fixed per scenario
        self._exec_bound = float(self._inst.ops.max()) / float(speed.min())
        is_head = np.zeros(self.task_count)
        is_head[self._inst.heads] = 1.0
        self._lat_bound = float(lat.max()) * (indeg + is_head)

        self._assignment = np.full(self.task_count, self._cloud_pos, dtype=np.int64)
        self._placed = np.zeros(self.task_count, dtype=bool)
        # every reset returns this state, as states are never mutated; _state
        # also sets _now, the last state returned, which step() scores against
        self._start = self._state()

    # positions index self.devices; ids are translated at the boundary
    def _pos_of_device(self, device_id: int) -> int:
        try:
            return int(self._inst.positions(device_id))
        except InvalidPlacementError:
            raise IllegalActionError(f"unknown device id {device_id}") from None

    def placement(self) -> Placement:
        return Placement.from_vector(self.app, self.device_ids[self._assignment])

    def eligible_services(self) -> np.ndarray:
        """Mask over services: not yet re-placed and all predecessors re-placed."""
        waiting = np.bincount(
            self._inst.dst, weights=~self._placed[self._inst.src], minlength=self.task_count
        )
        return ~self._placed & (waiting == 0)

    def _state(self) -> EnvState:
        """Scores the current assignment in one pass of the kernel's term matrices."""
        inst = self._inst
        terms = inst.terms(self._assignment[None, :])
        execution, heads, edges = (matrix[0] for matrix in terms[:3])
        exec_f = execution / self._exec_bound if self._exec_bound > 0 else np.zeros_like(execution)

        acc_lat = inst.inbound(edges)
        acc_lat[inst.heads] += heads
        lat_f = np.divide(
            acc_lat,
            self._lat_bound,
            out=np.zeros_like(acc_lat),
            where=self._lat_bound > 0,
        )

        times, costs = inst.totals(*terms)
        t_app, cost = float(times[0]), float(costs[0])
        self._now = EnvState(
            node_features=np.column_stack([exec_f, lat_f, self._placed, self.degree_features]),
            host_latency=self.device_rows[self._assignment, 0],
            eligible_mask=self.eligible_services(),
            adjacency=self.adjacency,
            device_classes=self.device_classes,
            device_class_of=self.device_class_of,
            t_app=t_app,
            cost=cost,
            weighted=_weighted(t_app, cost, self.weights, self.bounds),
        )
        return self._now

    def reset(self) -> EnvState:
        self._assignment[:] = self._cloud_pos
        self._placed[:] = False
        self._now = self._start
        return self._start

    def step(self, action: Action) -> tuple[EnvState, RewardBreakdown, bool]:
        k = self._svc_index.get(action.service)
        if k is None:
            raise IllegalActionError(f"unknown service {action.service}")
        prev = self._now
        if not prev.eligible_mask[k]:
            raise IllegalActionError(f"service {action.service} is not eligible")
        pos = self._pos_of_device(action.device)

        self._assignment[k] = pos
        self._placed[k] = True
        state = self._state()
        reward = RewardBreakdown(
            r_time=prev.t_app - state.t_app,
            r_cost=prev.cost - state.cost,
            r_total=prev.weighted - state.weighted,
        )
        return state, reward, bool(self._placed.all())


def rollout_random(env: PlacementEnv, rng: np.random.Generator) -> list[tuple[Action, RewardBreakdown]]:
    """Uniform-random legal trajectory, for tests; ``run_baseline``'s random
    strategy draws a placement directly and does not use it."""
    state = env.reset()
    trace = []
    done = False
    while not done:
        choices = np.flatnonzero(state.eligible_mask)
        svc = env.services[int(rng.choice(choices))]
        dev = int(rng.choice(env.device_ids))
        action = Action(service=svc, device=dev)
        state, reward, done = env.step(action)
        trace.append((action, reward))
    return trace

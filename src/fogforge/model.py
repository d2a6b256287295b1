"""Domain model: devices, applications, placements, and the two objectives.

Applications follow the job-shop layout: an n x n grid of services where each
row is an ordered chain, plus optional extra dependency edges forming a DAG.
Response time is the sum of execution times, the access latency of every
row-head service, and the latency of the target device for every dependency
edge whose endpoints sit on different devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np


class InvalidPlacementError(ValueError):
    """Placement is not total or references an unknown device."""


class ConfigurationError(ValueError):
    """Bad configuration value (weights, normalization bounds, ...)."""


class InstanceTooLargeError(ValueError):
    """Exhaustive enumeration would exceed the configured cap."""


Service = tuple[int, int]
Edge = tuple[Service, Service]


@dataclass(frozen=True)
class Device:
    id: int
    speed: float
    latency: float
    cost: float
    is_cloud: bool = False

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ConfigurationError(f"device {self.id}: id must be >= 0")
        if not (math.isfinite(self.speed) and self.speed > 0):
            raise ConfigurationError(f"device {self.id}: speed must be finite and > 0")
        if not (math.isfinite(self.latency) and math.isfinite(self.cost)):
            raise ConfigurationError(f"device {self.id}: latency/cost must be finite")
        if self.latency < 0 or self.cost < 0:
            raise ConfigurationError(f"device {self.id}: latency/cost must be >= 0")


@dataclass(frozen=True)
class Application:
    """Service grid (rows x cols, square by default) with a dependency DAG.

    ``ops[i][j]`` is the operation count of service (i, j). ``edges`` always
    contains the row chains (i, j) -> (i, j+1); extra edges may link any
    earlier service to a later one as long as the graph stays acyclic.
    """

    rows: int
    ops: tuple[tuple[float, ...], ...]
    edges: tuple[Edge, ...]
    cols: int | None = None

    def __post_init__(self) -> None:
        if self.cols is None:
            object.__setattr__(self, "cols", self.rows)
        n, m = self.rows, self.cols
        if n < 1 or m < 1:
            raise ConfigurationError("grid must have at least one row and column")
        if len(self.ops) != n or any(len(row) != m for row in self.ops):
            raise ConfigurationError(f"ops grid must be {n}x{m}")
        if not all(math.isfinite(x) and x >= 0 for row in self.ops for x in row):
            raise ConfigurationError("ops must be finite and >= 0")
        if len(set(self.edges)) != len(self.edges):
            raise ConfigurationError("duplicate dependency edge")
        valid = set(self.services())
        for src, dst in self.edges:
            if src not in valid or dst not in valid:
                raise ConfigurationError(f"edge {src}->{dst} references unknown service")
            if src == dst:
                raise ConfigurationError(f"self edge on {src}")
        for i in range(n):
            for j in range(m - 1):
                if ((i, j), (i, j + 1)) not in self.edges:
                    raise ConfigurationError(f"missing row-chain edge ({i},{j})->({i},{j + 1})")
        if not self._is_acyclic():
            raise ConfigurationError("dependency graph has a cycle")

    def services(self) -> Iterator[Service]:
        for i in range(self.rows):
            for j in range(self.cols):
                yield (i, j)

    @property
    def service_count(self) -> int:
        return self.rows * self.cols

    def service_index(self, service: Service) -> int:
        return service[0] * self.cols + service[1]

    def predecessors(self, service: Service) -> list[Service]:
        return [src for src, dst in self.edges if dst == service]

    def _is_acyclic(self) -> bool:
        indeg = {s: 0 for s in self.services()}
        for _, dst in self.edges:
            indeg[dst] += 1
        ready = [s for s, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            node = ready.pop()
            seen += 1
            for src, dst in self.edges:
                if src == node:
                    indeg[dst] -= 1
                    if indeg[dst] == 0:
                        ready.append(dst)
        return seen == len(indeg)

    @staticmethod
    def chain_edges(rows: int, cols: int | None = None) -> tuple[Edge, ...]:
        cols = rows if cols is None else cols
        return tuple(((i, j), (i, j + 1)) for i in range(rows) for j in range(cols - 1))


@dataclass(frozen=True)
class Placement:
    """Total assignment of services to device ids."""

    assignment: dict[Service, int]

    @classmethod
    def uniform(cls, app: Application, device_id: int) -> "Placement":
        return cls({s: device_id for s in app.services()})

    @classmethod
    def from_vector(cls, app: Application, vector: Sequence[int]) -> "Placement":
        services = list(app.services())
        if len(vector) != len(services):
            raise InvalidPlacementError(
                f"vector length {len(vector)} != service count {len(services)}"
            )
        return cls({s: int(d) for s, d in zip(services, vector)})

    def to_vector(self, app: Application) -> np.ndarray:
        try:
            return np.array([self.assignment[s] for s in app.services()], dtype=np.int64)
        except KeyError as missing:
            raise InvalidPlacementError(f"placement missing service {missing}") from None


class ObjectivePoint(NamedTuple):
    time: float
    cost: float


class WeightVector(NamedTuple):
    w_time: float
    w_cost: float

    def check(self) -> "WeightVector":
        if not (0.0 <= self.w_time <= 1.0 and 0.0 <= self.w_cost <= 1.0):
            raise ConfigurationError(f"weights must lie in [0, 1]: {self}")
        if abs(self.w_time + self.w_cost - 1.0) > 1e-9:
            raise ConfigurationError(f"weights must sum to 1: {self}")
        return self


@dataclass(frozen=True)
class NormBounds:
    """Range-normalization bounds for the two objectives (upper bounds)."""

    max_time: float
    max_cost: float


@dataclass(frozen=True, eq=False)
class _Instance:
    """Array form of an (app, devices) pair, the one objective evaluator.

    Services are in row-major order and devices by their position in the
    device sequence. ``pos_of`` is indexed by device id and holds that
    device's position, or -1 where no device has the id; when the ids are
    0..D-1 in order (as generated scenarios have them) it is the identity
    and the translation is skipped.
    """

    ops: np.ndarray
    heads: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    ids: np.ndarray
    latency: np.ndarray
    speed: np.ndarray
    cost: np.ndarray
    pos_of: np.ndarray
    ids_are_positions: bool

    @classmethod
    def build(cls, app: Application, devices: Sequence[Device]) -> "_Instance":
        ids = np.array([d.id for d in devices], dtype=np.int64)
        positions = np.arange(len(ids))
        pos_of = np.full(int(ids.max()) + 1 if ids.size else 0, -1, dtype=np.int64)
        pos_of[ids] = positions
        if (pos_of[ids] != positions).any():  # a repeated id keeps only one of its positions
            raise ConfigurationError("duplicate device ids")
        return cls(
            ops=np.array([x for row in app.ops for x in row], dtype=np.float64),
            heads=np.arange(app.rows) * app.cols,
            src=np.array([app.service_index(s) for s, _ in app.edges], dtype=np.int64),
            dst=np.array([app.service_index(d) for _, d in app.edges], dtype=np.int64),
            ids=ids,
            latency=np.array([d.latency for d in devices], dtype=np.float64),
            speed=np.array([d.speed for d in devices], dtype=np.float64),
            cost=np.array([d.cost for d in devices], dtype=np.float64),
            pos_of=pos_of,
            ids_are_positions=bool(np.array_equal(ids, positions)),
        )

    def positions(self, assignments: np.ndarray) -> np.ndarray:
        """Device positions of an array of device ids (any shape)."""
        assignments = np.asarray(assignments, dtype=np.int64)
        if assignments.size and (assignments.min() < 0 or assignments.max() >= len(self.pos_of)):
            raise InvalidPlacementError("assignment references unknown device ids")
        if self.ids_are_positions:
            return assignments
        pos = self.pos_of[assignments]
        if (pos < 0).any():
            raise InvalidPlacementError("assignment references unknown device ids")
        return pos

    def objectives(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(times, costs) of an (N, service_count) matrix of device positions."""
        times = (self.ops / self.speed[pos]).sum(axis=1)
        times = times + self.latency[pos[:, self.heads]].sum(axis=1)
        cross = pos[:, self.src] != pos[:, self.dst]
        times = times + (self.latency[pos[:, self.dst]] * cross).sum(axis=1)
        return times, self.cost[pos].sum(axis=1)

    def inbound_latency(self, pos: np.ndarray) -> np.ndarray:
        """Per-service sum of the target latency over cross-device inbound edges."""
        cross = pos[self.src] != pos[self.dst]
        inbound = np.bincount(
            self.dst, weights=self.latency[pos[self.dst]] * cross, minlength=len(self.ops)
        )
        return inbound.astype(np.float64, copy=False)  # bincount of no edges is int


def evaluate(app: Application, placement: Placement, devices: Sequence[Device]) -> ObjectivePoint:
    """Response time and hosting cost of one placement.

    Response time sums (a) per-service execution time ops/speed, (b) the
    access latency of the device hosting each row-head service, and (c) for
    every dependency edge crossing devices, the latency of the target
    service's device. Cost sums the hosting device's cost over all services.
    """
    inst = _Instance.build(app, devices)
    times, costs = inst.objectives(inst.positions(placement.to_vector(app)[None, :]))
    return ObjectivePoint(float(times[0]), float(costs[0]))


def response_time(app: Application, placement: Placement, devices: Sequence[Device]) -> float:
    """Application response time under a placement (see :func:`evaluate`)."""
    return evaluate(app, placement, devices).time


def placement_cost(app: Application, placement: Placement, devices: Sequence[Device]) -> float:
    """Sum of the hosting device's cost over all services."""
    return evaluate(app, placement, devices).cost


def latency_contribution_matrix(
    app: Application, placement: Placement, devices: Sequence[Device]
) -> np.ndarray:
    """Per-service matrix of dependency-edge latency charges.

    Entry (i, j) sums the target-device latency over every cross-device edge
    pointing into service (i, j). Row-head access latencies are not included.
    """
    inst = _Instance.build(app, devices)
    pos = inst.positions(placement.to_vector(app))
    return inst.inbound_latency(pos).reshape(app.rows, app.cols)


def weighted_objective(point: ObjectivePoint, weights: WeightVector, norms: NormBounds) -> float:
    """Scalarized objective w_time * time/max_time + w_cost * cost/max_cost; lower is better."""
    weights.check()
    if norms.max_time <= 0 or norms.max_cost <= 0:
        raise ConfigurationError(f"normalization bounds must be positive: {norms}")
    return _weighted(point.time, point.cost, weights, norms)


def _weighted(times, costs, weights: WeightVector, norms: NormBounds):
    """The scalarization formula on floats or on whole arrays of objectives."""
    return weights.w_time * (times / norms.max_time) + weights.w_cost * (costs / norms.max_cost)


def analytic_bounds(app: Application, devices: Sequence[Device]) -> NormBounds:
    """Deterministic upper bounds on both objectives for an (app, devices) pair.

    max_time assumes the slowest device everywhere plus the worst latency for
    every row head and every edge; max_cost assumes the priciest device.
    """
    if not devices:
        raise ConfigurationError("device set is empty")
    min_speed = min(d.speed for d in devices)
    max_lat = max(d.latency for d in devices)
    max_cost = max(d.cost for d in devices)
    total_ops = sum(sum(row) for row in app.ops)
    max_time = total_ops / min_speed + (app.rows + len(app.edges)) * max_lat
    return NormBounds(max_time=max_time, max_cost=app.service_count * max_cost)


def dominates(p: ObjectivePoint, q: ObjectivePoint) -> bool:
    """True if p is at least as good in both objectives and better in one."""
    return p.time <= q.time and p.cost <= q.cost and (p.time < q.time or p.cost < q.cost)


def pareto_indices(times: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated points in (time, cost) ascending order.

    Each distinct front point appears once, by the lowest index that reaches
    it. One stable lexsort orders the points by (time, cost, index); a point
    is on the front exactly when its cost is below every cost sorted before
    it, which also drops exact repeats. Inputs must be free of NaN.
    """
    times = np.asarray(times, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    order = np.lexsort((costs, times))
    sorted_costs = costs[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = sorted_costs[1:] < np.minimum.accumulate(sorted_costs)[:-1]
    return order[keep]


def pareto_front(points: Sequence[ObjectivePoint] | np.ndarray) -> list[ObjectivePoint]:
    """Non-dominated subset, deduplicated, sorted by (time, cost) ascending."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return []
    front = pts[pareto_indices(pts[:, 0], pts[:, 1]), :2]
    return [ObjectivePoint(t, c) for t, c in front.tolist()]


def hypervolume_2d(points: Sequence[ObjectivePoint] | np.ndarray, ref: ObjectivePoint) -> float:
    """Area dominated by the front of `points` relative to reference point `ref`."""
    front = [p for p in pareto_front(points) if p.time < ref.time and p.cost < ref.cost]
    hv = 0.0
    prev_cost = ref.cost
    for p in front:
        hv += (ref.time - p.time) * (prev_cost - p.cost)
        prev_cost = p.cost
    return hv


def batch_objectives(
    app: Application, devices: Sequence[Device], assignments: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (time, cost) for a matrix of assignment vectors.

    ``assignments`` has shape (N, service_count) and holds device ids in
    row-major service order; row k scores as :func:`evaluate` does.
    """
    assignments = np.asarray(assignments, dtype=np.int64)
    if assignments.ndim != 2 or assignments.shape[1] != app.service_count:
        raise InvalidPlacementError(
            f"assignment matrix must be (N, {app.service_count}), got {assignments.shape}"
        )
    inst = _Instance.build(app, devices)
    return inst.objectives(inst.positions(assignments))


@dataclass
class WeightedOptimum:
    weights: WeightVector
    placement: Placement
    point: ObjectivePoint
    objective: float


@dataclass
class OracleResult:
    front: list[ObjectivePoint]
    front_placements: list[Placement]
    weighted: list[WeightedOptimum] = field(default_factory=list)
    enumerated: int = 0


def brute_force_oracle(
    app: Application,
    devices: Sequence[Device],
    weights: Sequence[WeightVector] = (),
    norms: NormBounds | None = None,
    cap: int = 10_000_000,
    chunk: int = 65_536,
) -> OracleResult:
    """Exact Pareto front (and optional weighted argmins) by full enumeration.

    Every total placement is generated in lexicographic order over device
    positions and evaluated in vectorized chunks.
    """
    n_svc = app.service_count
    n_dev = len(devices)
    if n_dev == 0:
        raise ConfigurationError("device set is empty")
    total = n_dev**n_svc
    if total > cap:
        raise InstanceTooLargeError(
            f"{n_dev}^{n_svc} = {total} placements exceeds enumeration cap {cap}"
        )
    if weights and norms is None:
        norms = analytic_bounds(app, devices)
    for w in weights:
        w.check()

    ids = np.array([d.id for d in devices], dtype=np.int64)
    powers = n_dev ** np.arange(n_svc - 1, -1, -1, dtype=np.int64)

    def vectors(idx: np.ndarray) -> np.ndarray:
        """Assignment vectors of the placements at lexicographic positions ``idx``."""
        return ids[(idx[:, None] // powers[None, :]) % n_dev]

    # running front: its points and the lowest placement index reaching each
    front_times = np.empty(0)
    front_costs = np.empty(0)
    front_index = np.empty(0, dtype=np.int64)
    best: list[tuple[float, np.ndarray, ObjectivePoint] | None] = [None] * len(weights)

    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        assign = vectors(idx)
        times, costs = batch_objectives(app, devices, assign)

        # the running front goes first: on equal points the kernel keeps the
        # lower position, which is the lexicographically earlier placement
        all_times = np.concatenate([front_times, times])
        all_costs = np.concatenate([front_costs, costs])
        kept = pareto_indices(all_times, all_costs)
        front_times, front_costs = all_times[kept], all_costs[kept]
        front_index = np.concatenate([front_index, idx])[kept]

        for wi, w in enumerate(weights):
            objs = _weighted(times, costs, w, norms)
            am = int(np.argmin(objs))
            if best[wi] is None or objs[am] < best[wi][0]:
                best[wi] = (
                    float(objs[am]),
                    assign[am].copy(),
                    ObjectivePoint(float(times[am]), float(costs[am])),
                )

    # the kernel leaves the running front deduplicated and in (time, cost) order
    result = OracleResult(
        front=[ObjectivePoint(t, c) for t, c in zip(front_times.tolist(), front_costs.tolist())],
        front_placements=[Placement.from_vector(app, vec) for vec in vectors(front_index)],
        enumerated=total,
    )
    for w, entry in zip(weights, best):
        assert entry is not None
        obj, vec, point = entry
        result.weighted.append(
            WeightedOptimum(w, Placement.from_vector(app, vec), point, obj)
        )
    return result

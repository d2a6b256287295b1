"""Domain model: devices, applications, placements, and the two objectives.

Applications follow the job-shop layout: an n x n grid of services where each
row is an ordered chain, plus optional extra dependency edges forming a DAG.
Response time is the sum of execution times, the access latency of every
row-head service, and the latency of the target device for every dependency
edge whose endpoints sit on different devices.
"""

from __future__ import annotations

import dataclasses
import graphlib
import itertools
import json
import math
import numbers
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np


class InvalidPlacementError(ValueError):
    """Placement is not total or references an unknown device."""


class ConfigurationError(ValueError):
    """Bad configuration value (weights, normalization bounds, ...)."""


class InstanceTooLargeError(ValueError):
    """Exhaustive enumeration would exceed the configured cap."""


def is_count(value) -> bool:
    """True for ints (numpy's included); false for bools, floats and the rest."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for real numbers (numpy's included); false for bools, strings and the rest."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def from_json(kind, value, where: str, *, ignore_unknown: bool = False):
    """Read ``value``, as ``json.loads`` returns it, as a value of type ``kind``.

    ``kind`` is a dataclass (a JSON object; omitted fields take their
    defaults), a NamedTuple (a list of its fields), ``tuple[X, ...]`` or
    ``list[X]`` (a list), ``X | None``, ``int`` (an integer, not a bool),
    ``float`` (a number, not a bool), ``bool`` (true or false), ``str`` or
    ``dict`` (a JSON object, kept as it is). Any other JSON type raises
    ``ConfigurationError`` naming ``where``, the field path. So does a key
    that names no field, unless ``ignore_unknown``.
    """

    def read(kind, value, where):
        return from_json(kind, value, where, ignore_unknown=ignore_unknown)

    if isinstance(kind, types.UnionType):  # X | None
        if value is None:
            return None
        (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
        return read(kind, value, where)
    if typing.get_origin(kind) in (tuple, list):  # tuple[X, ...] or list[X]
        expected = "a JSON list"
        if isinstance(value, list):
            item = typing.get_args(kind)[0]
            items = (read(item, v, f"{where}[{i}]") for i, v in enumerate(value))
            return typing.get_origin(kind)(items)
    elif kind in (bool, str, dict):
        expected = {bool: "true or false", str: "a string", dict: "a JSON object"}[kind]
        if isinstance(value, kind):
            return value
    elif kind is int:
        expected = "an integer"
        if is_count(value):
            return value
    elif kind is float:
        expected = "a number"
        if isinstance(value, float) or is_count(value) and abs(value) <= sys.float_info.max:
            return float(value)
    elif dataclasses.is_dataclass(kind):
        expected = "a JSON object"
        if isinstance(value, dict):
            hints = typing.get_type_hints(kind)
            unknown = sorted(set(value) - set(hints))
            if unknown and not ignore_unknown:
                raise ConfigurationError(f"{where} has unknown fields {unknown}")
            fields = {}
            for f in dataclasses.fields(kind):
                if f.name in value:
                    fields[f.name] = read(hints[f.name], value[f.name], f"{where}.{f.name}")
                elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                    raise ConfigurationError(f"{where}.{f.name} is missing")
            return kind(**fields)
    else:  # NamedTuple
        hints = list(typing.get_type_hints(kind).values())
        expected = f"a list of {len(hints)} values"
        if isinstance(value, list) and len(value) == len(hints):
            items = enumerate(zip(hints, value))
            return kind(*(read(h, v, f"{where}[{i}]") for i, (h, v) in items))
    raise ConfigurationError(f"{where} must be {expected}, got {value!r}")


def read_file(path: str | Path, what: str) -> str:
    """The text of the UTF-8 file at ``path``, which should be a ``what``; every
    input file is read here, and any failure raises ``ConfigurationError``."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise ConfigurationError(f"{path}: no such {what}") from None
    except IsADirectoryError:
        raise ConfigurationError(f"{path}: is a directory, not a {what}") from None
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read {what} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: {what} is not UTF-8 text (byte {exc.start})") from None


def read_json(path: str | Path, what: str):
    """:func:`read_file`, then the JSON value the text holds."""
    try:
        return json.loads(read_file(path, what))
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to decode
        raise ConfigurationError(f"{path}: {what} is not valid JSON ({exc})") from None


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, making parent directories; every output goes here."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))


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
        if not 0 <= self.id <= np.iinfo(np.int64).max:
            raise ConfigurationError(f"device {self.id}: id must be >= 0 and fit in int64")
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
    contains the row chains (i, j) -> (i, j+1); extra edges may link any two
    distinct services, in either row-major direction, as long as the graph
    stays acyclic.
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
        edge_set = set(self.edges)
        if len(edge_set) != len(self.edges):
            raise ConfigurationError("duplicate dependency edge")
        valid = set(self.services())
        graph = graphlib.TopologicalSorter()
        for src, dst in self.edges:
            if src not in valid or dst not in valid:
                raise ConfigurationError(f"edge {src}->{dst} references unknown service")
            if src == dst:
                raise ConfigurationError(f"self edge on {src}")
            graph.add(dst, src)
        for i in range(n):
            for j in range(m - 1):
                if ((i, j), (i, j + 1)) not in edge_set:
                    raise ConfigurationError(f"missing row-chain edge ({i},{j})->({i},{j + 1})")
        try:
            graph.prepare()
        except graphlib.CycleError:
            raise ConfigurationError("dependency graph has a cycle") from None

    def services(self) -> Iterator[Service]:
        for i in range(self.rows):
            for j in range(self.cols):
                yield (i, j)

    @property
    def service_count(self) -> int:
        return self.rows * self.cols

    def service_index(self, service: Service) -> int:
        return service[0] * self.cols + service[1]

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
    device sequence. ``sorted_ids`` holds the device ids in ascending order
    and ``sorted_pos`` the position of each, so translating ids costs memory
    in the pool size, not in the largest id.
    """

    ops: np.ndarray
    heads: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    ids: np.ndarray
    latency: np.ndarray
    speed: np.ndarray
    cost: np.ndarray
    sorted_ids: np.ndarray
    sorted_pos: np.ndarray

    @classmethod
    def build(cls, app: Application, devices: Sequence[Device]) -> "_Instance":
        ids = np.array([d.id for d in devices], dtype=np.int64)
        sorted_pos = np.argsort(ids, kind="stable")
        sorted_ids = ids[sorted_pos]
        if (sorted_ids[1:] == sorted_ids[:-1]).any():
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
            sorted_ids=sorted_ids,
            sorted_pos=sorted_pos,
        )

    def positions(self, assignments: np.ndarray) -> np.ndarray:
        """Device positions of an array of device ids (any shape)."""
        assignments = np.asarray(assignments, dtype=np.int64)
        at = np.searchsorted(self.sorted_ids, assignments)
        # past the largest id first, so the gather below stays in bounds
        if (at == len(self.sorted_ids)).any() or (self.sorted_ids[at] != assignments).any():
            raise InvalidPlacementError("assignment references unknown device ids")
        return self.sorted_pos[at]

    def terms(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The term matrices of an (N, service_count) matrix of device positions.

        Execution times (N, service_count), row-head latencies (N, rows),
        edge latencies (N, edges; zero where both ends share a device) and
        hosting costs (N, service_count).
        """
        cross = pos[:, self.src] != pos[:, self.dst]
        return (
            self.ops / self.speed[pos],
            self.latency[pos[:, self.heads]],
            self.latency[pos[:, self.dst]] * cross,
            self.cost[pos],
        )

    @staticmethod
    def totals(execution, heads, edges, costs) -> tuple[np.ndarray, np.ndarray]:
        """(times, costs) from the four term matrices; every objective is summed here.

        Each matrix's rows are added left to right from 0.0 (:func:`_row_sums`)
        and times add the execution, head and edge sums in that order, so
        every layout, numpy version and CPU gives the same bits. The oracle's
        blocks add in this order too, from their fixed prefix's sums.
        """
        times = _row_sums(execution, 0.0)
        times = times + _row_sums(heads, 0.0)
        times = times + _row_sums(edges, 0.0)
        return times, _row_sums(costs, 0.0)

    def objectives(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(times, costs) of an (N, service_count) matrix of device positions."""
        return self.totals(*self.terms(pos))

    def inbound(self, edges: np.ndarray) -> np.ndarray:
        """Per-service sum of one row of edge terms over each service's inbound edges."""
        inbound = np.bincount(self.dst, weights=edges, minlength=len(self.ops))
        return inbound.astype(np.float64, copy=False)  # bincount of no edges is int


def _row_sums(matrix: np.ndarray, start: float) -> np.ndarray:
    """Each row of ``matrix`` added left to right onto ``start``.

    ``start`` is 0.0 or a sum of values added from 0.0, so it is never -0.0.
    That one order holds in every layout; the layout picks only how it runs.
    A C-ordered matrix summed from 0.0 takes one ``accumulate`` along its
    rows, whose last column plus 0.0 (which only turns an all -0.0 row into
    0.0) is the sum. A matrix without columns (an app without edges) sums to
    ``start``. Any other start or layout, such as the oracle's column-major
    blocks, adds whole columns in turn onto ``start``; on a column-major
    block ``accumulate`` takes ten times as long.
    """
    if matrix.flags.c_contiguous and matrix.shape[1] and start == 0.0:
        return np.add.accumulate(matrix, axis=1)[:, -1] + 0.0
    if not matrix.shape[1]:
        return np.full(len(matrix), start, dtype=np.float64)
    total = matrix[:, 0] + start  # IEEE addition commutes, signed zeros included
    for column in matrix.T[1:]:
        total += column
    return total


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
    _, _, edges, _ = inst.terms(inst.positions(placement.to_vector(app)[None, :]))
    return inst.inbound(edges[0]).reshape(app.rows, app.cols)


def weighted_objective(point: ObjectivePoint, weights: WeightVector, norms: NormBounds) -> float:
    """Scalarized objective w_time * time/max_time + w_cost * cost/max_cost; lower is better."""
    weights.check()
    return _weighted(point.time, point.cost, weights, norms)


def _weighted(times, costs, weights: WeightVector, norms: NormBounds):
    """The scalarization formula on floats or arrays; every weighted score uses it."""
    if norms.max_time <= 0 or norms.max_cost <= 0:
        raise ConfigurationError(f"normalization bounds must be positive: {norms}")
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
    """Non-dominated subset, deduplicated, sorted by (time, cost) ascending.

    Points must be free of NaN, which dominance cannot order.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return []
    if np.isnan(pts).any():
        raise ConfigurationError("points must not be NaN")
    front = pts[pareto_indices(pts[:, 0], pts[:, 1]), :2]
    return [ObjectivePoint(t, c) for t, c in front.tolist()]


def hypervolume_2d(points: Sequence[ObjectivePoint] | np.ndarray, ref: ObjectivePoint) -> float:
    """Area dominated by the front of `points` relative to reference point `ref`.

    Points must be free of NaN (see :func:`pareto_front`).
    """
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
    weighted: list[WeightedOptimum]
    enumerated: int


def _undominated(front_times, front_costs, times, costs) -> np.ndarray:
    """Ascending indices of the points that no point of a front weakly dominates.

    The front is deduplicated and in (time, cost) order, so its cost falls as
    its time rises. Its last point, (+inf, +inf) while it has none, weakly
    dominates every point at or past it in both objectives; one vectorised
    compare drops those. Each point left is kept when its cost is below the
    front's cost at or before its time (+inf before the first point), found
    with ``searchsorted``.
    """
    lowest = np.concatenate([[np.inf], front_costs])
    last_time = front_times[-1] if len(front_times) else np.inf
    rows = np.flatnonzero((times < last_time) | (costs < lowest[-1]))
    reach = np.searchsorted(front_times, times[rows], side="right")
    return rows[lowest[reach] > costs[rows]]


def brute_force_oracle(
    app: Application,
    devices: Sequence[Device],
    weights: Sequence[WeightVector] = (),
    cap: int = 10_000_000,
    chunk: int = 65_536,
) -> OracleResult:
    """Exact Pareto front (and optional weighted argmins) by full enumeration.

    Every total placement is scored, in lexicographic order over device
    positions, in blocks of ``n_dev**k`` rows that share their first
    ``n_svc - k`` positions; k is the largest with ``n_dev**k <= chunk``, but
    at least 1. The term matrices of :meth:`_Instance.terms` are built once.
    Each term matrix's leading run of columns that read only fixed services
    is one sum per block, and each block adds the remaining columns onto it
    with :func:`_row_sums` in the order of :meth:`_Instance.totals`, so every
    point equals what :func:`batch_objectives` returns for it. Only the block
    rows that the running front does not weakly dominate are merged into it
    and offered to the weighted argmins, and only front points and weighted
    argmins are decoded into placements. That test (:func:`_undominated`) is
    screened: one vectorised compare drops the rows at or past the front's
    last (cheapest) point in both objectives, which it weakly dominates, and
    only the rows left are looked up against the whole front with
    ``searchsorted``. Weighted objectives are normalized by
    :func:`analytic_bounds`.
    """
    n_svc = app.service_count
    n_dev = len(devices)
    if not (is_count(cap) and cap >= 1):
        raise ConfigurationError(f"cap must be an int >= 1: {cap!r}")
    if n_dev == 0:
        raise ConfigurationError("device set is empty")
    total = n_dev**n_svc
    if total > cap:
        raise InstanceTooLargeError(
            f"{n_dev}^{n_svc} = {total} placements exceeds enumeration cap {cap}"
        )
    norms = analytic_bounds(app, devices)
    for w in weights:
        w.check()

    inst = _Instance.build(app, devices)
    # k starts at 1: a pool wider than chunk then costs one block per sweep
    # of the last service, not one per placement
    k = 1
    while k < n_svc and n_dev ** (k + 1) <= chunk:
        k += 1
    p = n_svc - k
    rows = n_dev**k
    # column-major, so every term matrix is too: the block loop refills
    # whole columns and _row_sums adds column by column
    pos = np.zeros((rows, n_svc), dtype=np.int64, order="F")
    pos[:, p:] = np.indices((n_dev,) * k).reshape(k, rows).T
    # every column that reads only suffix services is gathered here, once
    block_terms = inst.terms(pos)
    src, dst = inst.src, inst.dst
    inner = (src < p) & (dst < p)  # prefix-only edges
    # the leading prefix-only columns of each term matrix: the first p
    # execution and cost columns, the prefix's row heads (heads ascend) and
    # the leading inner edges. Their sum is one start value per block
    n_inner = int(np.logical_and.accumulate(inner).sum())
    leads = (p, int(np.count_nonzero(inst.heads < p)), n_inner, p)
    # later inner edges hold one value per block, refilled as a column
    late_inner = np.flatnonzero(inner[n_inner:]) + n_inner
    edge_terms = block_terms[2]
    # an edge across the split compares its suffix end's column with the
    # prefix end's position; its latency is the suffix column's or the prefix's
    forward = np.flatnonzero((src < p) & (dst >= p))
    forward_dst = pos[:, dst[forward]]
    forward_latency = inst.latency[forward_dst]
    back = np.flatnonzero((src >= p) & (dst < p))
    back_src = pos[:, src[back]]
    # the block's first row; its prefix columns are every row's
    first = np.zeros((1, n_svc), dtype=np.int64)
    prefix = first[0, :p]

    # running front: its points and the lowest placement index reaching each
    front_times = np.empty(0)
    front_costs = np.empty(0)
    front_index = np.empty(0, dtype=np.int64)
    best: list[tuple[float, int, ObjectivePoint] | None] = [None] * len(weights)

    for block, fixed in enumerate(itertools.product(range(n_dev), repeat=p)):
        prefix[:] = fixed
        first_terms = inst.terms(first)
        edge_terms[:, late_inner] = first_terms[2][0, late_inner]
        edge_terms[:, forward] = forward_latency * (forward_dst != prefix[src[forward]])
        back_dst = prefix[dst[back]]
        edge_terms[:, back] = inst.latency[back_dst] * (back_src != back_dst)
        exec_sums, head_sums, edge_sums, costs = (
            _row_sums(term[:, lead:], _row_sums(row[:, :lead], 0.0)[0])
            for term, row, lead in zip(block_terms, first_terms, leads)
        )
        times = exec_sums + head_sums + edge_sums
        start = block * rows

        # only rows the running front does not weakly dominate can join it
        # (an equal point stays with the front's earlier placement) or lower
        # a weighted argmin: every weight is >= 0, so an earlier front point
        # scores no higher than the rows it weakly dominates
        new = _undominated(front_times, front_costs, times, costs)
        if not new.size:
            continue
        new_times, new_costs = times[new], costs[new]

        for wi, w in enumerate(weights):
            objs = _weighted(new_times, new_costs, w, norms)
            am = int(np.argmin(objs))
            if best[wi] is None or objs[am] < best[wi][0]:
                best[wi] = (
                    float(objs[am]),
                    start + int(new[am]),
                    ObjectivePoint(float(new_times[am]), float(new_costs[am])),
                )

        # the running front goes first: on equal points the kernel keeps the
        # lower position, which is the lexicographically earlier placement
        all_times = np.concatenate([front_times, new_times])
        all_costs = np.concatenate([front_costs, new_costs])
        kept = pareto_indices(all_times, all_costs)
        front_times, front_costs = all_times[kept], all_costs[kept]
        front_index = np.concatenate([front_index, start + new])[kept]

    def placement(index) -> Placement:
        """The placement at lexicographic position ``index``."""
        digits = index // n_dev ** np.arange(n_svc - 1, -1, -1, dtype=np.int64) % n_dev
        return Placement.from_vector(app, inst.ids[digits])

    # the kernel leaves the running front deduplicated and in (time, cost) order
    return OracleResult(
        front=[ObjectivePoint(t, c) for t, c in zip(front_times.tolist(), front_costs.tolist())],
        front_placements=[placement(index) for index in front_index],
        weighted=[
            WeightedOptimum(w, placement(index), point, obj)
            for w, (obj, index, point) in zip(weights, best)
        ],
        enumerated=total,
    )

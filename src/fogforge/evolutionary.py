"""Genetic solvers over placement chromosomes.

A chromosome is a flat vector of device ids, one gene per service in
row-major order. Two solvers share the variation operators:

* ``ga_solve``: single-objective generational GA on the weighted objective
  (tournament selection of size 2, uniform crossover, elitism of 1), returning
  the best placement ever evaluated.
* ``nsga2_solve``: canonical NSGA-II (fast non-dominated sort, crowding
  distance, binary tournament on the crowded comparison, elitist environmental
  selection), returning the final rank-0 front.

Mutation supports two readings of a single "15% mutation" knob. The default
mutates each offspring with probability ``mutation_prob`` by redrawing exactly
one uniformly chosen gene; the alternative mutates every gene independently at
rate ``mutation_prob / gene_count``. Both have the same expected number of
redrawn genes per offspring.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import (
    Application,
    ConfigurationError,
    Device,
    NormBounds,
    ObjectivePoint,
    Placement,
    WeightVector,
    _weighted,
    analytic_bounds,
    batch_objectives,
    hypervolume_2d,
    pareto_front,
    pareto_indices,
)

CROSSOVER_KINDS = ("uniform", "one-point")
MUTATION_KINDS = ("offspring", "per-gene")


@dataclass(frozen=True)
class EvoConfig:
    population_size: int = 200
    generations: int = 200
    mutation_prob: float = 0.15
    crossover: str = "uniform"
    mutation: str = "offspring"
    tournament_size: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2 or self.population_size % 2 != 0:
            raise ConfigurationError("population_size must be even and >= 2")
        if self.generations < 0:
            raise ConfigurationError("generations must be >= 0")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigurationError("mutation_prob must lie in [0, 1]")
        if self.crossover not in CROSSOVER_KINDS:
            raise ConfigurationError(f"crossover must be one of {CROSSOVER_KINDS}")
        if self.mutation not in MUTATION_KINDS:
            raise ConfigurationError(f"mutation must be one of {MUTATION_KINDS}")
        if self.tournament_size < 1:
            raise ConfigurationError("tournament_size must be >= 1")


@dataclass
class GaResult:
    placement: Placement
    point: ObjectivePoint
    objective: float
    history: list[float] = field(default_factory=list)


@dataclass
class NsgaResult:
    front: list[ObjectivePoint]
    front_placements: list[Placement]
    hypervolume_history: list[float] = field(default_factory=list)
    final_population: np.ndarray | None = None


def fast_nondominated_sort(points: Sequence[tuple[float, float]]) -> np.ndarray:
    """Rank of every point (0 = non-dominated) by min-min dominance, in O(n log n).

    Two-objective sweep (Jensen 2003): visit the points in (time, cost) order;
    each front's last member holds its lowest cost so far, and those costs rise
    with the rank, so a point joins the first front whose last cost exceeds
    its own. Equal points share a rank.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigurationError(f"points must have shape (n, 2), got {pts.shape}")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    last_costs: list[float] = []
    sorted_ranks: list[int] = []
    previous = None
    for point in pts[order].tolist():
        if point != previous:
            rank = bisect_right(last_costs, point[1])
            if rank == len(last_costs):
                last_costs.append(point[1])
            else:
                last_costs[rank] = point[1]
            previous = point
        sorted_ranks.append(rank)
    ranks = np.empty(len(pts), dtype=np.int64)
    ranks[order] = sorted_ranks
    return ranks


def crowding_distance(points: Sequence[tuple[float, float]], ranks: np.ndarray) -> np.ndarray:
    """Per-front crowding distance; boundary points of each front get +inf.

    An interior point adds, per objective in turn, the gap between its two
    neighbours on that objective divided by its front's span. Fronts of at
    most two points, and fronts with zero span on some objective (collapsed
    onto a single point), are all boundary.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.float64)
    pts = pts.reshape(len(pts), -1)
    ranks = np.asarray(ranks)
    dist = np.zeros(len(pts), dtype=np.float64)
    boundary = np.zeros(len(pts), dtype=bool)
    for m in range(pts.shape[1]):
        # stable: equal values keep index order inside each front
        order = np.lexsort((pts[:, m], ranks))
        vals = pts[order, m]
        sorted_ranks = ranks[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sorted_ranks[1:] != sorted_ranks[:-1]
        last = np.ones(len(order), dtype=bool)
        last[:-1] = first[1:]
        group = np.cumsum(first) - 1
        lo = np.flatnonzero(first)[group]
        hi = np.flatnonzero(last)[group]
        span = vals[hi] - vals[lo]
        edge = first | last | (span <= 0.0)
        boundary[order[edge]] = True
        inner = np.flatnonzero(~edge)
        dist[order[inner]] += (vals[inner + 1] - vals[inner - 1]) / span[inner]
    dist[boundary] = np.inf
    return dist


def _random_population(
    rng: np.random.Generator, ids: np.ndarray, size: int, genes: int
) -> np.ndarray:
    return ids[rng.integers(0, len(ids), size=(size, genes))]


def _crossover(rng: np.random.Generator, parents_a: np.ndarray, parents_b: np.ndarray, kind: str) -> np.ndarray:
    pairs, genes = parents_a.shape
    if kind == "uniform":
        mask = rng.random((pairs, genes)) < 0.5
    else:  # one-point: genes before the cut come from the first parent
        cut = rng.integers(1, genes, size=pairs) if genes > 1 else np.ones(pairs, dtype=np.int64)
        mask = np.arange(genes)[None, :] < cut[:, None]
    child_a = np.where(mask, parents_a, parents_b)
    child_b = np.where(mask, parents_b, parents_a)
    return np.concatenate([child_a, child_b], axis=0)


def _mutate(
    rng: np.random.Generator,
    population: np.ndarray,
    ids: np.ndarray,
    prob: float,
    kind: str,
) -> np.ndarray:
    size, genes = population.shape
    out = population.copy()
    if kind == "offspring":
        hit = rng.random(size) < prob
        gene_idx = rng.integers(0, genes, size=size)
        values = ids[rng.integers(0, len(ids), size=size)]
        rows = np.where(hit)[0]
        out[rows, gene_idx[rows]] = values[rows]
    else:
        rate = prob / genes
        mask = rng.random((size, genes)) < rate
        values = ids[rng.integers(0, len(ids), size=(size, genes))]
        out = np.where(mask, values, out)
    return out


def _tournament(
    rng: np.random.Generator, keys: np.ndarray, count: int, size: int
) -> np.ndarray:
    """Indices of ``count`` tournament winners; ``keys`` sorts ascending-better."""
    entrants = rng.integers(0, len(keys), size=(count, size))
    entrant_keys = keys[entrants]
    winners = entrants[np.arange(count), np.argmin(entrant_keys, axis=1)]
    return winners


def _seed_population(
    rng: np.random.Generator,
    ids: np.ndarray,
    config: EvoConfig,
    genes: int,
    initial: np.ndarray | None,
) -> np.ndarray:
    """Initial population: random draws plus one uniform chromosome per device.

    Single-device placements are strong candidates here: with uniform service
    speeds the min-cost and min-time placements are always single-device, and
    crossover between two uniform chromosomes explores the two-device
    mixtures that populate front interiors. An explicit ``initial`` overrides
    the whole construction.
    """
    if initial is None:
        population = _random_population(rng, ids, config.population_size, genes)
        uniform_count = min(len(ids), config.population_size)
        population[:uniform_count] = np.repeat(ids[:uniform_count, None], genes, axis=1)
        return population
    initial = np.asarray(initial, dtype=np.int64)
    if initial.shape != (config.population_size, genes):
        raise ConfigurationError(
            f"initial population must be {(config.population_size, genes)}, got {initial.shape}"
        )
    if not np.isin(initial, ids).all():
        raise ConfigurationError("initial population references unknown device ids")
    return initial.copy()


def ga_solve(
    app: Application,
    devices: Sequence[Device],
    weights: WeightVector,
    config: EvoConfig,
    norms: NormBounds | None = None,
    initial_population: np.ndarray | None = None,
) -> GaResult:
    """Best-ever placement for the weighted objective under a generational GA.

    ``history`` records the best-ever objective after every generation
    (including the initial population), so it is nonincreasing by construction.
    """
    weights.check()
    if norms is None:
        norms = analytic_bounds(app, devices)
    rng = np.random.default_rng(config.seed)
    ids = np.array(sorted(d.id for d in devices), dtype=np.int64)
    genes = app.service_count

    population = _seed_population(rng, ids, config, genes, initial_population)
    times, costs = batch_objectives(app, devices, population)
    fitness = _weighted(times, costs, weights, norms)

    best_idx = int(np.argmin(fitness))
    best = (
        float(fitness[best_idx]),
        population[best_idx].copy(),
        ObjectivePoint(float(times[best_idx]), float(costs[best_idx])),
    )
    history = [best[0]]

    for _ in range(config.generations):
        parents = population[_tournament(rng, fitness, config.population_size, config.tournament_size)]
        half = config.population_size // 2
        offspring = _crossover(rng, parents[:half], parents[half:], config.crossover)
        offspring = _mutate(rng, offspring, ids, config.mutation_prob, config.mutation)

        # elitism of 1: the incumbent best replaces the first offspring slot
        offspring[0] = best[1]
        population = offspring
        times, costs = batch_objectives(app, devices, population)
        fitness = _weighted(times, costs, weights, norms)
        gen_best = int(np.argmin(fitness))
        if fitness[gen_best] < best[0]:
            best = (
                float(fitness[gen_best]),
                population[gen_best].copy(),
                ObjectivePoint(float(times[gen_best]), float(costs[gen_best])),
            )
        history.append(best[0])

    objective, chromosome, point = best
    return GaResult(
        placement=Placement.from_vector(app, chromosome),
        point=point,
        objective=objective,
        history=history,
    )


def _duplicate_mask(population: np.ndarray, offspring: np.ndarray) -> np.ndarray:
    """Offspring rows equal to a population row or to an earlier offspring."""
    stacked = np.ascontiguousarray(np.concatenate([population, offspring], axis=0))
    # one opaque item per row: np.unique on it is much cheaper than axis=0
    rows = stacked.view(np.dtype((np.void, stacked.dtype.itemsize * stacked.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    positions = np.arange(len(population), len(stacked))
    return first[inverse[len(population):]] != positions


def _crowded_tournament(
    rng: np.random.Generator, ranks: np.ndarray, crowding: np.ndarray, count: int
) -> np.ndarray:
    """Binary tournament with the crowded comparison: lower rank wins, ties go
    to the larger crowding distance, full ties to the first entrant."""
    a = rng.integers(0, len(ranks), size=count)
    b = rng.integers(0, len(ranks), size=count)
    b_wins = (ranks[b] < ranks[a]) | ((ranks[b] == ranks[a]) & (crowding[b] > crowding[a]))
    return np.where(b_wins, b, a)


def _environmental_selection(
    points: np.ndarray, ranks: np.ndarray, crowding: np.ndarray, size: int
) -> np.ndarray:
    """Indices of the ``size`` survivors: by rank, then crowding descending.

    Individuals whose objective point duplicates an earlier one are pushed
    behind every distinct individual (they only survive when there are fewer
    than ``size`` distinct points). Without this, small discrete search spaces
    fill the population with copies of a few elite placements and exploration
    dies.
    """
    n = len(ranks)
    _, first = np.unique(points, axis=0, return_index=True)
    duplicate = np.ones(n, dtype=np.int64)
    duplicate[first] = 0
    order = np.lexsort((np.arange(n), -crowding, ranks, duplicate))
    return order[:size]


def nsga2_solve(
    app: Application,
    devices: Sequence[Device],
    config: EvoConfig,
    norms: NormBounds | None = None,
    initial_population: np.ndarray | None = None,
) -> NsgaResult:
    """Rank-0 front of a canonical NSGA-II run.

    ``hypervolume_history`` tracks the rank-0 front's hypervolume against the
    analytic-bound reference point after every generation; elitist selection
    makes it nondecreasing as long as the front fits in the population.
    """
    if norms is None:
        norms = analytic_bounds(app, devices)
    rng = np.random.default_rng(config.seed)
    ids = np.array(sorted(d.id for d in devices), dtype=np.int64)
    genes = app.service_count
    ref = ObjectivePoint(norms.max_time, norms.max_cost)

    population = _seed_population(rng, ids, config, genes, initial_population)
    times, costs = batch_objectives(app, devices, population)
    points = np.stack([times, costs], axis=1)
    ranks = fast_nondominated_sort(points)
    crowding = crowding_distance(points, ranks)

    def front_hv() -> float:
        return hypervolume_2d(pareto_front(points[ranks == 0]), ref)

    history = [front_hv()]

    def mate() -> np.ndarray:
        parents = population[_crowded_tournament(rng, ranks, crowding, config.population_size)]
        half = config.population_size // 2
        offspring = _crossover(rng, parents[:half], parents[half:], config.crossover)
        return _mutate(rng, offspring, ids, config.mutation_prob, config.mutation)

    for _ in range(config.generations):
        offspring = mate()
        # re-mate offspring that duplicate a current member or an earlier
        # offspring; duplicate evaluations starve exploration on small
        # discrete spaces. Leftover duplicates are replaced with random draws.
        for _ in range(5):
            stale = _duplicate_mask(population, offspring)
            if not stale.any():
                break
            offspring[stale] = mate()[stale]
        stale = _duplicate_mask(population, offspring)
        if stale.any():
            offspring[stale] = _random_population(rng, ids, int(stale.sum()), genes)

        combined = np.concatenate([population, offspring], axis=0)
        c_times, c_costs = batch_objectives(app, devices, combined)
        c_points = np.stack([c_times, c_costs], axis=1)
        c_ranks = fast_nondominated_sort(c_points)
        c_crowding = crowding_distance(c_points, c_ranks)

        survivors = _environmental_selection(c_points, c_ranks, c_crowding, config.population_size)
        population = combined[survivors]
        points = c_points[survivors]
        # survivors hold whole lower fronts (every dropped duplicate leaves a
        # kept twin), so their ranks are those of the combined sort
        ranks = c_ranks[survivors]
        crowding = crowding_distance(points, ranks)
        history.append(front_hv())

    # the population's non-dominated points are its rank-0 points; the kernel
    # keeps the first member reaching each
    front_idx = pareto_indices(points[:, 0], points[:, 1])
    front = [ObjectivePoint(t, c) for t, c in points[front_idx].tolist()]
    return NsgaResult(
        front=front,
        front_placements=[Placement.from_vector(app, population[i]) for i in front_idx],
        hypervolume_history=history,
        final_population=population.copy(),
    )

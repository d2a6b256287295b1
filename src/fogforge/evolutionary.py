"""Genetic solvers over placement chromosomes.

A chromosome is a flat vector of device ids, one gene per service in
row-major order. Both solvers start from :func:`_seed_population` and breed
each generation with :func:`_breed` (crossover of the selected parents'
halves, then mutation):

* ``ga_solve``: single-objective generational GA on the weighted objective
  (binary tournament selection, elitism of 1), returning the best placement ever
  evaluated.
* ``nsga2_solve``: canonical NSGA-II (fast non-dominated sort, crowding
  distance, binary tournament on the crowded comparison, elitist environmental
  selection), returning the final rank-0 front. Each generation ranks, crowds
  and finds the repeated objective points of parents and offspring together
  from one sorted sweep, :func:`_rank_and_crowd`; selection pushes the repeats
  behind every distinct point. :func:`fast_nondominated_sort` and
  :func:`crowding_distance` are the public forms of the same sort and distance.

Crossover is uniform: each gene comes from either parent with probability 1/2.
Mutation redraws one uniformly chosen gene of an offspring with probability
``mutation_prob``. Both solvers pick parents through one binary tournament,
:func:`_tournament`, on the weighted objective in the GA and on the crowded
comparison in NSGA-II.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    Application,
    ConfigurationError,
    Device,
    ObjectivePoint,
    Placement,
    WeightVector,
    _weighted,
    analytic_bounds,
    batch_objectives,
    hypervolume_2d,
    is_count,
    is_real,
    pareto_front,  # unused here; kept for tracers that wrap ``fogforge.evolutionary.pareto_front``
    pareto_indices,
)

# 25x the default population. A run's arrays grow with the population times
# the application's size: NSGA-II combines 2 x population chromosomes, and
# `batch_objectives` builds term matrices of one float64 per offspring and
# dependency edge. Each is a few MB at this bound for a 9x9 grid application,
# where 2**62 would ask for exabytes
MAX_POPULATION = 5_000


@dataclass(frozen=True)
class EvoConfig:
    population_size: int = 200
    generations: int = 200
    mutation_prob: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("population_size", "generations", "seed"):
            value = getattr(self, name)
            if not (is_count(value) and value >= 0):
                raise ConfigurationError(f"{name} must be an int >= 0: {value!r}")
        if self.population_size > MAX_POPULATION:
            raise ConfigurationError(f"population_size must be at most {MAX_POPULATION}")
        if self.population_size < 2 or self.population_size % 2 != 0:
            raise ConfigurationError("population_size must be even and >= 2")
        prob = self.mutation_prob
        if not (is_real(prob) and 0 <= prob <= 1):
            raise ConfigurationError(f"mutation_prob must be a real number in [0, 1]: {prob!r}")


@dataclass
class GaResult:
    placement: Placement
    point: ObjectivePoint
    objective: float
    history: list[float]


@dataclass
class NsgaResult:
    front: list[ObjectivePoint]
    front_placements: list[Placement]
    hypervolume_history: list[float]
    final_population: np.ndarray


def _sweep(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-objective non-dominated sort (Jensen 2003) of an (n, 2) array, n >= 1.

    Returns the (time, cost) ``lexsort`` order, the mask of sorted positions
    whose point differs from its predecessor's by float equality (the
    distinct points) and the rank of each sorted position. The sweep visits
    the distinct points in order; each front's last member holds its lowest
    cost so far, and those costs rise with the rank, so a point joins the
    first front whose last cost exceeds its own. Equal points sit next to each
    other in that order and share a rank.
    """
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    times, costs = pts[order, 0], pts[order, 1]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = (times[1:] != times[:-1]) | (costs[1:] != costs[:-1])
    last_costs: list[float] = []
    distinct_ranks: list[int] = []
    for cost in costs[fresh].tolist():
        rank = bisect_right(last_costs, cost)
        if rank == len(last_costs):
            last_costs.append(cost)
        else:
            last_costs[rank] = cost
        distinct_ranks.append(rank)
    return order, fresh, np.array(distinct_ranks, dtype=np.int64)[np.cumsum(fresh) - 1]


def fast_nondominated_sort(points: Sequence[tuple[float, float]]) -> np.ndarray:
    """Rank of every point (0 = non-dominated) by min-min dominance, in O(n log n).

    One sweep in (time, cost) order (see :func:`_sweep`); equal points share
    a rank. Points must be free of NaN, which no order can rank.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigurationError(f"points must have shape (n, 2), got {pts.shape}")
    if np.isnan(pts).any():
        raise ConfigurationError("points must not be NaN")
    order, _, sorted_ranks = _sweep(pts)
    ranks = np.empty(len(pts), dtype=np.int64)
    ranks[order] = sorted_ranks
    return ranks


def crowding_distance(points: Sequence[tuple[float, float]], ranks: np.ndarray) -> np.ndarray:
    """Per-front crowding distance; boundary points of each front get +inf.

    An interior point adds, per objective in turn, the gap between its two
    neighbours on that objective divided by its front's span. Fronts of at
    most two points, and fronts with zero span on some objective (collapsed
    onto a single point), are all boundary. This is the general form: the
    groups in ``ranks`` may be any labels, not only non-dominated fronts, and
    each objective takes its own sort. NSGA-II's kernel,
    :func:`_rank_and_crowd`, returns the same bits on genuine fronts.
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


def _rank_and_crowd(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ranks, crowding distances and repeat mask of an (n, 2) array, n >= 1, from one sweep.

    Bit for bit, these are :func:`fast_nondominated_sort`, :func:`crowding_distance`
    on those ranks, and True for each point whose bytes equal an earlier
    point's, provided no coordinate is -0.0 or NaN. NSGA-II's points never are:
    ``batch_objectives`` sums every total onto +0.0 from finite inputs. On such
    points float equality, which the sweep compares by, is byte equality, so
    the repeats are the sweep's non-distinct positions.

    A stable sort of the sweep's ranks lists each front in time order, equal
    points by index. Inside a front, equal time means an equal point and cost
    falls as time rises, so the front's cost order is its time order with the
    runs of equal points reversed as blocks. Each point's cost neighbours and
    the front's cost ends are read from the time order, and every distance
    takes the same operands as in :func:`crowding_distance`.
    """
    n = len(points)
    order, fresh, sorted_ranks = _sweep(points)
    by_front = np.argsort(sorted_ranks, kind="stable")
    idx = order[by_front]  # point indices, front by front, each in time order
    front = sorted_ranks[by_front]
    times, costs = points[idx, 0], points[idx, 1]
    pos = np.arange(n)
    # fronts are ranks 0, 1, ... in turn: [lo, hi] spans each point's front
    sizes = np.bincount(front)
    front_end = np.cumsum(sizes)
    lo = (front_end - sizes)[front]
    hi = front_end[front] - 1
    # [s, e] spans each point's run of equal points; a front starts a run
    run_first = fresh[by_front]
    run_start = np.flatnonzero(run_first)
    run = np.cumsum(run_first) - 1
    s = run_start[run]
    e = np.append(run_start[1:], n)[run] - 1
    time_span = times[hi] - times[lo]
    cost_span = costs[lo] - costs[hi]
    # the ends of the time order are the first run's first point and the last
    # run's last; the ends of the cost order are the last run's first point
    # and the first run's last
    edge = ((pos == s) | (pos == e)) & ((s == lo) | (e == hi))
    edge |= (time_span <= 0.0) | (cost_span <= 0.0)
    inner = np.flatnonzero(~edge)
    # cost neighbours: inside a run, the next or previous point; at its end,
    # the neighbouring run, whose points all hold one cost
    dearer = np.where(inner < e[inner], inner + 1, s[inner] - 1)
    cheaper = np.where(inner > s[inner], inner - 1, e[inner] + 1)
    dist = np.full(n, np.inf)
    dist[inner] = (times[inner + 1] - times[inner - 1]) / time_span[inner] + (
        costs[dearer] - costs[cheaper]
    ) / cost_span[inner]

    ranks = np.empty(n, dtype=np.int64)
    ranks[idx] = front
    crowding = np.empty(n, dtype=np.float64)
    crowding[idx] = dist
    repeats = np.empty(n, dtype=bool)
    repeats[order] = ~fresh
    return ranks, crowding, repeats


def _crossover(rng: np.random.Generator, parents_a: np.ndarray, parents_b: np.ndarray) -> np.ndarray:
    mask = rng.random(parents_a.shape) < 0.5
    child_a = np.where(mask, parents_a, parents_b)
    child_b = np.where(mask, parents_b, parents_a)
    return np.concatenate([child_a, child_b], axis=0)


def _mutate(rng: np.random.Generator, population: np.ndarray, ids: np.ndarray, prob: float) -> np.ndarray:
    size, genes = population.shape
    out = population.copy()
    hit = rng.random(size) < prob
    gene_idx = rng.integers(0, genes, size=size)
    values = ids[rng.integers(0, len(ids), size=size)]
    out[hit, gene_idx[hit]] = values[hit]
    return out


def _breed(
    rng: np.random.Generator, parents: np.ndarray, ids: np.ndarray, config: EvoConfig
) -> np.ndarray:
    """Offspring of ``parents``: cross its first half with its second, then mutate."""
    half = len(parents) // 2
    offspring = _crossover(rng, parents[:half], parents[half:])
    return _mutate(rng, offspring, ids, config.mutation_prob)


def _tournament(rng: np.random.Generator, keys: Sequence[np.ndarray], count: int) -> np.ndarray:
    """Indices of ``count`` binary tournament winners.

    All first entrants are drawn, then all second ones. ``keys`` compare
    lexicographically, most significant first and lower better; the second
    entrant wins only when it is strictly better, so full ties go to the first.
    """
    first = rng.integers(0, len(keys[0]), size=count)
    second = rng.integers(0, len(keys[0]), size=count)
    second_wins = np.zeros(count, dtype=bool)
    tied = np.ones(count, dtype=bool)
    for key in keys:
        second_wins |= tied & (key[second] < key[first])
        tied &= key[second] == key[first]
    return np.where(second_wins, second, first)


def _seed_population(
    rng: np.random.Generator,
    ids: np.ndarray,
    config: EvoConfig,
    genes: int,
) -> np.ndarray:
    """Initial population: random draws plus one uniform chromosome per device.

    Single-device placements are strong candidates here: with uniform service
    speeds the min-cost and min-time placements are always single-device, and
    crossover between two uniform chromosomes explores the two-device
    mixtures that populate front interiors.
    """
    population = ids[rng.integers(0, len(ids), size=(config.population_size, genes))]
    uniform_count = min(len(ids), config.population_size)
    population[:uniform_count] = np.repeat(ids[:uniform_count, None], genes, axis=1)
    return population


def ga_solve(
    app: Application,
    devices: Sequence[Device],
    weights: WeightVector,
    config: EvoConfig,
) -> GaResult:
    """Best-ever placement for the weighted objective under a generational GA;
    the objectives are normalized by :func:`analytic_bounds`.

    ``history`` records the best-ever objective after every generation
    (including the initial population), so it is nonincreasing by construction.
    """
    weights.check()
    norms = analytic_bounds(app, devices)
    rng = np.random.default_rng(config.seed)
    ids = np.array(sorted(d.id for d in devices), dtype=np.int64)

    population = _seed_population(rng, ids, config, app.service_count)
    best: tuple[float, np.ndarray, ObjectivePoint] | None = None
    history: list[float] = []
    for generation in range(config.generations + 1):
        if generation:
            parents = population[_tournament(rng, (fitness,), config.population_size)]
            population = _breed(rng, parents, ids, config)
            # elitism of 1: the incumbent best replaces the first offspring slot
            population[0] = best[1]
        times, costs = batch_objectives(app, devices, population)
        fitness = _weighted(times, costs, weights, norms)
        gen_best = int(np.argmin(fitness))
        if best is None or fitness[gen_best] < best[0]:
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


def _environmental_selection(
    ranks: np.ndarray, crowding: np.ndarray, repeats: np.ndarray, size: int
) -> np.ndarray:
    """Indices of the ``size`` survivors: by rank, then crowding descending,
    then index (``lexsort`` is stable).

    Individuals whose objective point repeats an earlier one (``repeats``)
    are pushed behind every distinct individual (they only survive when
    there are fewer than ``size`` distinct points). Without this, small
    discrete search spaces fill the population with copies of a few elite
    placements and exploration dies.
    """
    return np.lexsort((-crowding, ranks, repeats))[:size]


def nsga2_solve(
    app: Application,
    devices: Sequence[Device],
    config: EvoConfig,
) -> NsgaResult:
    """Rank-0 front of a canonical NSGA-II run (Deb et al., IEEE TEC 6(2), 2002).

    Each generation sorts and crowds the combined parents and offspring once;
    survivors mate by the rank and crowding distance they were selected by.
    ``hypervolume_history`` tracks the rank-0 front's hypervolume against the
    analytic-bound reference point after every generation; elitist selection
    makes it nondecreasing as long as the front fits in the population.
    """
    norms = analytic_bounds(app, devices)
    rng = np.random.default_rng(config.seed)
    ids = np.array(sorted(d.id for d in devices), dtype=np.int64)
    ref = ObjectivePoint(norms.max_time, norms.max_cost)

    population = _seed_population(rng, ids, config, app.service_count)
    points = np.stack(batch_objectives(app, devices, population), axis=1)
    ranks, crowding, _ = _rank_and_crowd(points)
    history = [hypervolume_2d(points[ranks == 0], ref)]

    for _ in range(config.generations):
        # the crowded comparison: lower rank, then larger crowding distance
        parents = population[_tournament(rng, (ranks, -crowding), config.population_size)]
        offspring = _breed(rng, parents, ids, config)
        # the survivors carry their points: only the offspring are scored
        o_times, o_costs = batch_objectives(app, devices, offspring)
        combined = np.concatenate([population, offspring], axis=0)
        c_points = np.concatenate([points, np.stack([o_times, o_costs], axis=1)], axis=0)
        c_ranks, c_crowding, repeats = _rank_and_crowd(c_points)
        survivors = _environmental_selection(c_ranks, c_crowding, repeats, config.population_size)
        population = combined[survivors]
        points = c_points[survivors]
        # survivors keep the rank and crowding distance they were selected by
        ranks = c_ranks[survivors]
        crowding = c_crowding[survivors]
        history.append(hypervolume_2d(points[ranks == 0], ref))

    # the population's non-dominated points are its rank-0 points; the kernel
    # keeps the first member reaching each
    front_idx = pareto_indices(points[:, 0], points[:, 1])
    front = [ObjectivePoint(t, c) for t, c in points[front_idx].tolist()]
    return NsgaResult(
        front=front,
        front_placements=[Placement.from_vector(app, population[i]) for i in front_idx],
        hypervolume_history=history,
        final_population=population,
    )

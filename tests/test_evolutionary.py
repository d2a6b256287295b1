"""Genetic solvers: weighted-sum GA, NSGA-II, and their shared subroutines."""

import copy

import numpy as np
import pytest
from exact_front import exact_front

from fogforge import evolutionary
from fogforge.evolutionary import (
    MAX_POPULATION,
    EvoConfig,
    _mutate,
    crowding_distance,
    fast_nondominated_sort,
    ga_solve,
    nsga2_solve,
)
from fogforge.model import (
    Application,
    ConfigurationError,
    Device,
    ObjectivePoint,
    Placement,
    WeightVector,
    brute_force_oracle,
    evaluate,
    pareto_front,
)
from fogforge.scenarios import ScenarioConfig, generate_scenario
from fogforge.training import TrainConfig, build_datasets


def chain_app(n):
    ops = tuple(tuple(0.0 for _ in range(n)) for _ in range(n))
    return Application(rows=n, ops=ops, edges=Application.chain_edges(n))


def device(k, lat, cost, cloud=False):
    return Device(id=k, speed=1.0, latency=lat, cost=cost, is_cloud=cloud)


SMALL = EvoConfig(population_size=20, generations=40, seed=5)


# --- sorting and crowding -----------------------------------------------------


def test_sort_mixed_front():
    ranks = fast_nondominated_sort([(1, 2), (2, 1), (3, 3)])
    assert ranks.tolist() == [0, 0, 1]


def test_sort_chain():
    ranks = fast_nondominated_sort([(1, 1), (2, 2), (3, 3)])
    assert ranks.tolist() == [0, 1, 2]


def test_sort_duplicates_share_rank():
    ranks = fast_nondominated_sort([(1, 1), (1, 1), (2, 2)])
    assert ranks.tolist() == [0, 0, 1]


def test_rank_zero_matches_pareto_front():
    rng = np.random.default_rng(17)
    pts = [ObjectivePoint(float(t), float(c)) for t, c in rng.integers(0, 60, size=(500, 2))]
    ranks = fast_nondominated_sort(pts)
    rank0 = {pts[i] for i in np.where(ranks == 0)[0]}
    assert rank0 == set(pareto_front(pts))


def test_ranks_consistent_with_dominance():
    rng = np.random.default_rng(3)
    pts = rng.random((120, 2))
    ranks = fast_nondominated_sort(pts)
    for i in range(len(pts)):
        for j in range(len(pts)):
            if np.all(pts[i] <= pts[j]) and np.any(pts[i] < pts[j]):
                assert ranks[i] < ranks[j]


def test_sort_and_crowding_accept_empty_input():
    ranks = fast_nondominated_sort([])
    assert ranks.shape == (0,) and ranks.dtype == np.int64
    assert crowding_distance([], ranks).shape == (0,)


def test_sort_requires_two_objectives():
    with pytest.raises(ConfigurationError, match="shape"):
        fast_nondominated_sort([(1.0, 2.0, 3.0)])
    with pytest.raises(ConfigurationError, match="shape"):
        fast_nondominated_sort([1.0, 2.0])


def test_crowding_boundaries_infinite():
    pts = [(0.0, 4.0), (1.0, 2.0), (3.0, 1.0), (6.0, 0.0)]
    ranks = fast_nondominated_sort(pts)
    dist = crowding_distance(pts, ranks)
    assert dist[0] == np.inf and dist[3] == np.inf
    assert np.isfinite(dist[1]) and np.isfinite(dist[2])


def test_crowding_interior_value():
    # one front; interior crowding = normalized neighbor gap per objective
    pts = [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]
    ranks = np.zeros(3, dtype=np.int64)
    dist = crowding_distance(pts, ranks)
    assert dist[0] == np.inf and dist[2] == np.inf
    assert dist[1] == pytest.approx((2.0 - 0.0) / 2.0 + (2.0 - 0.0) / 2.0)


def test_crowding_identical_points_all_boundary():
    pts = [(1.0, 1.0)] * 5
    ranks = fast_nondominated_sort(pts)
    assert ranks.tolist() == [0] * 5
    dist = crowding_distance(pts, ranks)
    assert np.all(np.isinf(dist))


def test_crowding_small_fronts_infinite():
    pts = [(1.0, 2.0), (2.0, 1.0), (5.0, 5.0)]
    ranks = fast_nondominated_sort(pts)
    dist = crowding_distance(pts, ranks)
    assert np.all(np.isinf(dist))  # fronts of size <= 2 are all boundary


# --- config and operators -----------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigurationError, match="even"):
        EvoConfig(population_size=9)
    # mutation_prob is a real number in [0, 1], not a bool, a string or a NaN
    for value in (1.2, -0.1, float("nan"), float("inf"), True, False, "0.5", None):
        with pytest.raises(ConfigurationError, match="mutation_prob"):
            EvoConfig(mutation_prob=value)
    assert EvoConfig(mutation_prob=np.float64(0.5)).mutation_prob == 0.5
    assert EvoConfig(mutation_prob=1).mutation_prob == 1
    # sizes past their bounds are refused before any solver allocates for them
    for fields, named in (
        ({"population_size": 2**62}, "population_size"),
        ({"population_size": MAX_POPULATION + 1}, "population_size"),
    ):
        with pytest.raises(ConfigurationError, match=named):
            EvoConfig(**fields)
    # counts must be ints: a bool, a float or a negative seed is refused by name
    for fields, named in (
        ({"generations": True}, "generations"),
        ({"generations": 2.5}, "generations"),
        ({"generations": -1}, "generations"),
        ({"population_size": 10.0}, "population_size"),
        ({"seed": -1}, "seed"),
        ({"seed": 0.5}, "seed"),
    ):
        with pytest.raises(ConfigurationError, match=named):
            EvoConfig(**fields)
    assert EvoConfig(population_size=np.int64(10), seed=np.int64(3)).seed == 3


def test_offspring_mutation_changes_at_most_one_gene():
    rng = np.random.default_rng(0)
    ids = np.arange(4, dtype=np.int64)
    pop = np.zeros((50, 8), dtype=np.int64)
    out = _mutate(rng, pop, ids, prob=1.0)
    changed = (out != pop).sum(axis=1)
    assert changed.max() <= 1
    assert changed.sum() > 0  # redraws rarely all collide with the old value


# --- the one binary tournament -------------------------------------------------


def tournament_draws(rng, size, count):
    """The entrants ``_tournament`` draws: every first entrant, then every second."""
    twin = copy.deepcopy(rng)
    first = twin.integers(0, size, size=count)
    second = twin.integers(0, size, size=count)
    return first, second, twin


def test_tournament_second_entrant_wins_only_when_strictly_better():
    fitness = np.array([3.0, 1.0, 2.0, 1.0])  # 1 and 3 tie
    rng = np.random.default_rng(5)
    first, second, twin = tournament_draws(rng, len(fitness), 200)
    winners = evolutionary._tournament(rng, (fitness,), 200)
    kinds = set()
    for a, b, won in zip(first.tolist(), second.tolist(), winners.tolist()):
        if fitness[b] < fitness[a]:
            assert won == b
            kinds.add("better")
        else:
            assert won == a
            kinds.add("same" if a == b else "tie" if fitness[b] == fitness[a] else "worse")
    assert kinds == {"better", "same", "tie", "worse"}
    # the two draws are all the tournament takes from the generator
    assert rng.bit_generator.state == twin.bit_generator.state


def test_tournament_crowded_comparison_prefers_lower_rank_then_larger_distance():
    ranks = np.array([0, 0, 1, 0, 1])
    crowding = np.array([np.inf, 0.5, np.inf, np.inf, 2.0])  # 0 and 3 are boundary points
    rng = np.random.default_rng(11)
    first, second, _ = tournament_draws(rng, len(ranks), 400)
    winners = evolutionary._tournament(rng, (ranks, -crowding), 400)
    assert len(set(zip(first.tolist(), second.tolist()))) == 25  # every ordered pair
    for a, b, won in zip(first.tolist(), second.tolist(), winners.tolist()):
        better = ranks[b] < ranks[a] or (ranks[b] == ranks[a] and crowding[b] > crowding[a])
        assert won == (b if better else a), (a, b)
    # spot checks of the rule: rank beats an infinite distance, inf ties inf
    pairs = dict(zip(zip(first.tolist(), second.tolist()), winners.tolist()))
    assert pairs[(2, 1)] == 1 and pairs[(1, 2)] == 1
    assert pairs[(0, 3)] == 0 and pairs[(3, 0)] == 3
    assert pairs[(1, 0)] == 0 and pairs[(4, 2)] == 2 and pairs[(2, 4)] == 2


def test_both_solvers_select_through_the_one_tournament(monkeypatch):
    scenario = random_scenario(19)
    app, devices = scenario.applications[0], scenario.devices
    config = EvoConfig(population_size=24, generations=7, seed=3)
    keys = []
    tournament = evolutionary._tournament

    def counted(rng, solver_keys, count):
        keys.append(len(solver_keys))
        return tournament(rng, solver_keys, count)

    monkeypatch.setattr(evolutionary, "_tournament", counted)
    ga_solve(app, devices, WeightVector(0.5, 0.5), config)
    nsga2_solve(app, devices, config)
    # the GA compares weighted fitness; NSGA-II rank, then crowding distance
    assert keys == [1] * config.generations + [2] * config.generations


# --- GA -----------------------------------------------------------------------


def dominant_setup():
    devices = [
        device(0, 50.0, 20.0, cloud=True),
        device(1, 1.0, 1.0),
        device(2, 30.0, 10.0),
    ]
    return chain_app(3), devices


def test_ga_converges_to_dominant_device():
    app, devices = dominant_setup()
    result = ga_solve(app, devices, WeightVector(0.5, 0.5), SMALL)
    assert set(result.placement.assignment.values()) == {1}
    assert result.point == ObjectivePoint(3.0, 9.0)


def test_ga_identical_population_fixed_point():
    app, devices = dominant_setup()
    # a one-device pool seeds and breeds only that device's chromosome
    config = EvoConfig(population_size=10, generations=5, mutation_prob=0.0, seed=0)
    result = ga_solve(app, devices[2:], WeightVector(0.5, 0.5), config)
    assert set(result.placement.assignment.values()) == {2}


def test_ga_matches_oracle_weighted_argmin():
    rng = np.random.default_rng(21)
    app = chain_app(2)
    devices = [
        device(0, 50.0, 20.0, cloud=True),
        device(1, float(rng.integers(1, 40)), float(rng.integers(1, 40))),
        device(2, float(rng.integers(1, 40)), float(rng.integers(1, 40))),
    ]
    weights = WeightVector(0.5, 0.5)
    oracle = brute_force_oracle(app, devices, weights=[weights])
    result = ga_solve(app, devices, weights, EvoConfig(population_size=30, generations=60, seed=9))
    assert result.objective == pytest.approx(oracle.weighted[0].objective, abs=1e-9)


def test_ga_history_nonincreasing():
    app, devices = dominant_setup()
    result = ga_solve(app, devices, WeightVector(0.3, 0.7), SMALL)
    hist = np.array(result.history)
    assert len(hist) == SMALL.generations + 1
    assert np.all(np.diff(hist) <= 0.0)


def test_ga_deterministic_under_seed():
    app, devices = dominant_setup()
    a = ga_solve(app, devices, WeightVector(0.5, 0.5), SMALL)
    b = ga_solve(app, devices, WeightVector(0.5, 0.5), SMALL)
    assert a.placement.assignment == b.placement.assignment
    assert a.history == b.history


# --- NSGA-II ------------------------------------------------------------------


def random_scenario(seed):
    return generate_scenario(ScenarioConfig(device_count=2, app_rows=(3,)), seed=seed)


def test_nsga2_recovers_oracle_front():
    hits = 0
    for seed in range(6):
        scenario = random_scenario(700 + seed)
        app = scenario.applications[0]
        oracle = brute_force_oracle(app, scenario.devices)
        result = nsga2_solve(
            app, scenario.devices, EvoConfig(population_size=50, generations=100, seed=seed)
        )
        if result.front == oracle.front:
            hits += 1
    assert hits >= 5


def test_nsga2_reaches_exact_desk_fronts_at_defaults():
    """The desk seed-0 test scenarios (21 devices, 3x3 apps) at ``EvoConfig()``,
    against exact fronts from the reduced enumeration."""
    scenarios = build_datasets(TrainConfig.desk(seed=0)).test
    hits = 0
    for scenario in scenarios:
        app = scenario.applications[0]
        result = nsga2_solve(app, scenario.devices, EvoConfig())
        hits += result.front == exact_front(app, scenario.devices).front
    assert len(scenarios) == 8
    assert hits >= 7, f"NSGA-II reached the exact front on {hits}/8 scenarios"


def test_nsga2_front_is_mutually_nondominated():
    scenario = random_scenario(31)
    result = nsga2_solve(
        scenario.applications[0], scenario.devices, EvoConfig(population_size=20, generations=30, seed=1)
    )
    assert result.front == pareto_front(result.front)
    assert len(result.front) == len(result.front_placements)
    for placement, point in zip(result.front_placements, result.front):
        assert evaluate(scenario.applications[0], placement, scenario.devices) == point


def test_nsga2_hypervolume_nondecreasing():
    for seed in range(3):
        scenario = random_scenario(50 + seed)
        result = nsga2_solve(
            scenario.applications[0],
            scenario.devices,
            EvoConfig(population_size=24, generations=40, seed=seed),
        )
        hist = np.array(result.hypervolume_history)
        assert len(hist) == 41
        assert np.all(np.diff(hist) >= 0.0)


def test_nsga2_population_size_preserved_under_defaults():
    scenario = random_scenario(77)
    config = EvoConfig(generations=8)  # population 200, pop/mutation at defaults
    result = nsga2_solve(scenario.applications[0], scenario.devices, config)
    assert config.population_size == 200 and config.mutation_prob == 0.15
    assert result.final_population.shape == (200, 9)


def test_nsga2_deterministic_under_seed():
    scenario = random_scenario(12)
    config = EvoConfig(population_size=20, generations=20, seed=4)
    a = nsga2_solve(scenario.applications[0], scenario.devices, config)
    b = nsga2_solve(scenario.applications[0], scenario.devices, config)
    assert a.front == b.front
    assert np.array_equal(a.final_population, b.final_population)


def test_nsga2_identical_population_single_front():
    app, devices = dominant_setup()
    config = EvoConfig(population_size=10, generations=0, mutation_prob=0.0, seed=0)
    result = nsga2_solve(app, devices[2:], config)
    assert result.front == [ObjectivePoint(90.0, 90.0)]


def test_nsga2_scores_only_the_offspring(monkeypatch):
    scenario = random_scenario(19)
    config = EvoConfig(population_size=24, generations=7, seed=3)
    rows = []
    score = evolutionary.batch_objectives

    def counted(app, devices, assignments):
        rows.append(len(assignments))
        return score(app, devices, assignments)

    monkeypatch.setattr(evolutionary, "batch_objectives", counted)
    nsga2_solve(scenario.applications[0], scenario.devices, config)
    assert rows == [config.population_size] * (config.generations + 1)


def test_nsga2_crowds_each_generation_once(monkeypatch):
    """One rank-and-crowd pass per generation, on the combined parents and
    offspring; survivors keep their crowding distance, as in Deb et al. (2002)."""
    scenario = random_scenario(19)
    config = EvoConfig(population_size=24, generations=7, seed=3)
    calls = []
    rank_and_crowd = evolutionary._rank_and_crowd

    def counted(points):
        calls.append(len(points))
        return rank_and_crowd(points)

    monkeypatch.setattr(evolutionary, "_rank_and_crowd", counted)
    nsga2_solve(scenario.applications[0], scenario.devices, config)
    assert calls == [config.population_size] + [2 * config.population_size] * config.generations


# --- device ids ----------------------------------------------------------------


def test_solvers_follow_order_preserving_relabelled_ids():
    scenario = generate_scenario(ScenarioConfig(device_count=5, app_rows=(3,)), seed=8)
    app, devices = scenario.applications[0], scenario.devices
    new_id = {d.id: 3 * d.id + 4 for d in devices}  # same order, with holes
    relabelled = [
        Device(new_id[d.id], d.speed, d.latency, d.cost, d.is_cloud) for d in devices
    ]

    def renamed(placement):
        return Placement({s: new_id[d] for s, d in placement.assignment.items()})

    weights = WeightVector(0.5, 0.5)
    for config in (
        EvoConfig(population_size=20, generations=15, seed=6),
        EvoConfig(population_size=20, generations=15, seed=7),
    ):
        base = nsga2_solve(app, devices, config)
        result = nsga2_solve(app, relabelled, config)
        assert result.front == base.front
        assert result.hypervolume_history == base.hypervolume_history
        assert result.front_placements == [renamed(p) for p in base.front_placements]
        for placement, point in zip(result.front_placements, result.front):
            assert evaluate(app, placement, relabelled) == point

        base = ga_solve(app, devices, weights, config)
        result = ga_solve(app, relabelled, weights, config)
        assert (result.point, result.objective, result.history) == (
            base.point, base.objective, base.history
        )
        assert result.placement == renamed(base.placement)
        assert evaluate(app, result.placement, relabelled) == result.point

"""Solver outputs pinned byte for byte.

The digests below were recorded at commit 9c4b4cd, before the oracle summed
its term matrices column by column; that change keeps every output bit. The
``nsga2.final_population`` digests were re-recorded when NSGA-II stopped
re-mating offspring that repeat a member, and again when survivors kept the
crowding distance they were selected by instead of a second one computed on
the survivors alone: each time the final population moved, while its fronts,
front placements and hypervolume histories kept every bit. When the GA and
NSGA-II came to draw parents through one binary tournament, every digest
stayed: NSGA-II's tournament already drew all first entrants, then all second
ones, and ties went to the first, so it keeps every draw. The GA now draws in
that order too, which picks other parents, but on these instances its
weighted optimum is already in the seeded start (one single-device chromosome
per device), so its best-ever placement and history cannot move. A solver
change that moves any bit of these outputs fails here by field and seed.

To re-record after a deliberate change of outputs, run this file as a script
(``PYTHONPATH=src python tests/test_solver_outputs.py``), which prints
``solver_digests(s)`` for s = 0, 1, 2 in the layout of ``GOLDEN``, and say in
the change why the outputs moved.
"""

import hashlib

import numpy as np
import pytest

from fogforge.evolutionary import EvoConfig, ga_solve, nsga2_solve
from fogforge.model import WeightVector, brute_force_oracle
from fogforge.scenarios import ScenarioConfig, generate_scenario

HALF = WeightVector(0.5, 0.5)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _vectors(app, placements) -> np.ndarray:
    return np.array([p.to_vector(app) for p in placements], dtype=np.int64)


def solver_digests(seed: int) -> dict[str, str]:
    """sha256 of each output field of the oracle, NSGA-II and the GA.

    The oracle runs on the ``solvers`` benchmark's instance (a 3x3 app on 4
    fog devices and the cloud, 5^9 placements); NSGA-II and the GA on its
    evolutionary instance (20 fog devices and the cloud) at
    ``EvoConfig(population_size=40, generations=30, seed=seed)``.
    """
    scenario = generate_scenario(ScenarioConfig(device_count=4, app_rows=(3,)), seed=seed)
    app, devices = scenario.applications[0], scenario.devices
    oracle = brute_force_oracle(app, devices, weights=[HALF])
    scenario = generate_scenario(ScenarioConfig(device_count=20, app_rows=(3,)), seed=seed)
    evo_app, evo_devices = scenario.applications[0], scenario.devices
    config = EvoConfig(population_size=40, generations=30, seed=seed)
    nsga = nsga2_solve(evo_app, evo_devices, config)
    ga = ga_solve(evo_app, evo_devices, HALF, config)
    optimum = oracle.weighted[0]
    return {
        "oracle.front": _digest(np.array(oracle.front, dtype=np.float64)),
        "oracle.front_placements": _digest(_vectors(app, oracle.front_placements)),
        "oracle.weighted": _digest(
            np.array([*optimum.point, optimum.objective]), optimum.placement.to_vector(app)
        ),
        "nsga2.front": _digest(np.array(nsga.front, dtype=np.float64)),
        "nsga2.front_placements": _digest(_vectors(evo_app, nsga.front_placements)),
        "nsga2.hypervolume_history": _digest(np.array(nsga.hypervolume_history)),
        "nsga2.final_population": _digest(nsga.final_population),
        "ga.result": _digest(
            np.array([*ga.point, ga.objective]), ga.placement.to_vector(evo_app),
            np.array(ga.history),
        ),
    }


GOLDEN = {
    0: {
        "oracle.front":
            "9458bea66fa1374169e88f3160a09621a24c2ead83c572217f20419f27ca7616",
        "oracle.front_placements":
            "b579d2a60d8d0ad483335298e15954fe69a2f516a7bfffe18cf6e56a1fb9a9b9",
        "oracle.weighted":
            "3e4987a6cd4ea2e312079f004857d6e009a2c96e7ca67e5438414ad474ca7f8c",
        "nsga2.front":
            "9458bea66fa1374169e88f3160a09621a24c2ead83c572217f20419f27ca7616",
        "nsga2.front_placements":
            "b579d2a60d8d0ad483335298e15954fe69a2f516a7bfffe18cf6e56a1fb9a9b9",
        "nsga2.hypervolume_history":
            "5e49387f717535d1e96770604610ee1947242a306b4dea8f3c485fa325378204",
        "nsga2.final_population":
            "ffbe18d5a2fc3aa16261c7d55fd896afd6b35af881201504781417ea0b7ebb5f",
        "ga.result":
            "2a6a8aa3427561c6d3a59e6f62056ff0360ffa8f8480b96a8afde9e48b7582db",
    },
    1: {
        "oracle.front":
            "9458bea66fa1374169e88f3160a09621a24c2ead83c572217f20419f27ca7616",
        "oracle.front_placements":
            "54068cd44bbabfd0e310a2a97177fe332fd24378d3582f59ee8cdfaa09b6c2a9",
        "oracle.weighted":
            "9d008c01ad6e60e4ef41a81edb3139bc25f43867adde394c6db696de0dbef2b2",
        "nsga2.front":
            "9458bea66fa1374169e88f3160a09621a24c2ead83c572217f20419f27ca7616",
        "nsga2.front_placements":
            "54068cd44bbabfd0e310a2a97177fe332fd24378d3582f59ee8cdfaa09b6c2a9",
        "nsga2.hypervolume_history":
            "33c8345024cafe6890b6cacb15cd0289704f1782967f42ccf68ff315ffe4a540",
        "nsga2.final_population":
            "7b54c51bd7cf84a463d897eb44acc7a952bc912722400f13ed41f337c70995c6",
        "ga.result":
            "83996e935a7fece1facba38b0a4d3b233ef0d27bc160cf44c0fac3c329cc9d59",
    },
    2: {
        "oracle.front":
            "73bb924ae45c9620c84fe8284c941cb6c7214cb8fdbf50a7873a52e31371b352",
        "oracle.front_placements":
            "31bbeff282da584cebec7a231e3979053e6876b37c5c4693e11027074eda5219",
        "oracle.weighted":
            "442e57d864c3a80be05e8796897959fcf8cd5d62727c2ecc79f7f8e615c9f075",
        "nsga2.front":
            "9458bea66fa1374169e88f3160a09621a24c2ead83c572217f20419f27ca7616",
        "nsga2.front_placements":
            "7415a5d18ad0c6d3789ce1b1f84ea275da33027b67d7db4f49b7988c8936285e",
        "nsga2.hypervolume_history":
            "33c8345024cafe6890b6cacb15cd0289704f1782967f42ccf68ff315ffe4a540",
        "nsga2.final_population":
            "36485c04855aad949f4285caae7dbc9865dc83bc50b02ff6316f887044f370b1",
        "ga.result":
            "1d5e1f49458bf96676f121caa9ad556bf3a88ee850a8a057d1954807e96bfbb2",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_solver_outputs_are_byte_identical(seed):
    got = solver_digests(seed)
    changed = sorted(field for field, digest in GOLDEN[seed].items() if got[field] != digest)
    assert not changed, f"seed {seed}: {changed}"


if __name__ == "__main__":
    print("GOLDEN = {")
    for seed in sorted(GOLDEN):
        print(f"    {seed}: {{")
        for name, digest in solver_digests(seed).items():
            print(f'        "{name}":\n            "{digest}",')
        print("    },")
    print("}")

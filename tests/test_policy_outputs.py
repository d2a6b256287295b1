"""Policy outputs pinned byte for byte.

Seeded untrained models place applications greedily, and the digests below
pin what they place: each final service-to-device assignment and its
objective values. Two sizes are pinned: the criterion-11 scenario (81
services on 1,001 devices) at seeds 0-2, and the test sets of
``TrainConfig.desk`` at seeds 0-2. The first episode's sampled actions of
each desk seed, drawn with the envs and streams ``train`` draws, are pinned
too.

Only choices and placements are pinned, not log-probabilities or the order
in which greedy placement takes tied services: those may move at the ulp
level when a pass scores a different number of rows. A policy change that
moves any placed device, objective or sampled action fails here by name.

The digests were recorded at commit fa32448, before the service head scored
eligible services only. To re-record after a deliberate change of outputs,
run this file as a script (``PYTHONPATH=src python tests/test_policy_outputs.py``),
which prints ``policy_digests()`` in the layout of ``GOLDEN``, and say in the
change why the outputs moved.
"""

import hashlib

import numpy as np
import pytest

from fogforge.agents import AgentConfig, PolicyModel, collect_trajectory
from fogforge.env import PlacementEnv
from fogforge.model import evaluate
from fogforge.scenarios import ScenarioConfig, generate_scenario
from fogforge.training import TrainConfig, build_datasets, infer_placement

SEEDS = (0, 1, 2)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def large_digest(seed: int) -> str:
    """Greedy ``infer_placement`` of an untrained default model at 81 x 1,001."""
    scenario = generate_scenario(ScenarioConfig(device_count=1000, app_rows=(9,)), seed=seed)
    app, devices = scenario.applications[0], scenario.devices
    model = PolicyModel(app.service_count, AgentConfig(), np.random.default_rng(seed))
    placement = infer_placement(model, app, devices)
    point = evaluate(app, placement, devices)
    return _digest(np.array(placement.to_vector(app), dtype=np.int64), np.array(point, dtype=np.float64))


def desk_digests(seed: int) -> dict[str, str]:
    """The greedy test-set placements of an untrained desk model, and the
    sampled actions of its first training episode."""
    config = TrainConfig.desk(seed=seed)
    datasets = build_datasets(config)
    rng = np.random.default_rng(config.seed)
    model = PolicyModel(datasets.task_count, config.agent, rng)
    picks = rng.integers(0, len(datasets.train), size=config.envs_per_episode)
    streams = rng.spawn(config.envs_per_episode)

    def envs(scenarios):
        return [PlacementEnv(sc.applications[0], sc.devices, config.weights) for sc in scenarios]

    test_envs = envs(datasets.test)
    greedy = collect_trajectory(model, test_envs, mode="greedy")
    assignments = np.array(
        [env.placement().to_vector(env.app) for env in test_envs], dtype=np.int64
    )
    objectives = np.array([(f.t_app, f.cost, f.weighted) for f in greedy.finals])
    sampled = collect_trajectory(model, envs(datasets.train[p] for p in picks), streams)
    return {
        "desk.greedy": _digest(assignments, objectives),
        "desk.sampled": _digest(sampled.service_index.astype(np.int64), sampled.device_pos.astype(np.int64)),
    }


def policy_digests(seed: int) -> dict[str, str]:
    return {"large.greedy": large_digest(seed), **desk_digests(seed)}


GOLDEN = {
    0: {
        "large.greedy":
            "ccfef9ad0893e4cd30f7336a46d7563fe17b8e7d655a963d981fd7212188cb54",
        "desk.greedy":
            "3a6a995b584cb7825f9960ff3a9203450af31488265e1afb99ac1bdcef23f8ed",
        "desk.sampled":
            "23ace9578839a3df38366291a027315bad104f2809512b736051e5da508a28ee",
    },
    1: {
        "large.greedy":
            "1abe5d8b5664cbfd9b9fb2c4c8fa988e620e593e87ba38727d4446f130b61522",
        "desk.greedy":
            "fd67c7cd744c8a24a9ed1bac4103f7554d7eec12551ab6dad2c8df4a6bdcc734",
        "desk.sampled":
            "00b26fba05da2ae4517414c8bddb06c6f550796102810bd7564ac6d52b42c8c4",
    },
    2: {
        "large.greedy":
            "d4a5d6f0d2260389ab848d5cd124805df6e85f16e3d7115104b0300cefc383d4",
        "desk.greedy":
            "45dc9c9f4dc769cbbff2ccc2b32d37a715d8d0bc495f5d12b580c24de0e76fed",
        "desk.sampled":
            "12d32073b5c201fa58848a89e1dd646a9235c04c1602a7ef2a3f0b6d4f82cb81",
    },
}


@pytest.mark.parametrize("seed", SEEDS)
def test_policy_outputs_are_byte_identical(seed):
    got = policy_digests(seed)
    changed = sorted(field for field, digest in GOLDEN[seed].items() if got[field] != digest)
    assert not changed, f"seed {seed}: {changed}"


if __name__ == "__main__":
    print("GOLDEN = {")
    for seed in SEEDS:
        print(f"    {seed}: {{")
        for name, digest in policy_digests(seed).items():
            print(f'        "{name}":\n            "{digest}",')
        print("    },")
    print("}")

"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/layertrace.py`` patches fogforge from the outside by name, so a
renamed or deleted function would otherwise only fail a traced benchmark run.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

import numpy as np

from fogforge.agents import AgentConfig, PolicyModel
from fogforge.gin import GinConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_uninstall_restores_them():
    layertrace = load_layertrace()
    for module_path, attr, _ in layertrace.FUNCTION_TARGETS:
        assert attr in vars(import_module(module_path)), (module_path, attr)
    for module_path, cls_name, attr, _ in layertrace.METHOD_TARGETS:
        cls = getattr(import_module(module_path), cls_name)
        assert attr in vars(cls), (module_path, cls_name, attr)

    tracer = layertrace.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        # the patched constructor looks up each traced head by attribute name,
        # so building a model fails if a name in HEADS is gone
        config = AgentConfig(
            gin=GinConfig(hidden_dim=4, k_iterations=1, mlp_layers=1),
            actor_hidden_layers=1,
            critic_hidden_layers=1,
            head_width=4,
        )
        PolicyModel(2, config, np.random.default_rng(0))
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert len(patches) >= len(layertrace.FUNCTION_TARGETS) + len(layertrace.METHOD_TARGETS)
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)

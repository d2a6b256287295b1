"""Policy model (graph encoder plus two actor-critic heads) and PPO updates.

The service head scores each node from the concatenated graph and node
embeddings, masked to eligible services. The device head scores every device
from its own features joined with the candidate service's features and the
current allocation vector; all devices are legal. Devices with equal feature
rows get equal scores, so the head runs once per distinct device row and
each device reads its row's score. One PPO update recomputes
log-probabilities and values per transition each epoch, stacks them into one
vector per head, computes the losses on those vectors, and takes a single
Adam step over all parameters, averaging the two heads' losses.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from fogforge.env import Action, EnvState, PlacementEnv
from fogforge.gin import GinConfig, GinEncoder
from fogforge.model import ConfigurationError, is_count
from fogforge.nn import (
    Adam,
    Mlp,
    MlpSpec,
    Module,
    Tensor,
    clip_global_norm,
    concat,
    masked_entropy,
    masked_log_softmax,
    minimum,
)

CHECKPOINT_VERSION = 1


class DivergenceError(RuntimeError):
    """Non-finite loss or parameters during an update."""


@dataclass(frozen=True)
class AgentConfig:
    gin: GinConfig = field(default_factory=GinConfig)
    actor_hidden_layers: int = 5
    critic_hidden_layers: int = 3
    head_width: int = 64

    def __post_init__(self) -> None:
        dims = (self.actor_hidden_layers, self.critic_hidden_layers, self.head_width)
        if not all(is_count(n) and n >= 1 for n in dims):
            raise ConfigurationError(f"agent dims must be ints >= 1: {self}")


@dataclass(frozen=True)
class PpoHyper:
    update_epochs: int = 2
    policy_coef: float = 3.0
    value_coef: float = 2.0
    entropy_coef: float = 0.023
    clip_ratio: float = 0.25
    grad_clip_norm: float | None = None  # optional, off by default

    def __post_init__(self) -> None:
        if not (is_count(self.update_epochs) and self.update_epochs >= 1):
            raise ConfigurationError(f"update_epochs must be an int >= 1: {self.update_epochs!r}")
        if not 0.0 < self.clip_ratio < 1.0:
            raise ConfigurationError("clip_ratio must lie in (0, 1)")
        coefs = (self.policy_coef, self.value_coef, self.entropy_coef)
        if not all(math.isfinite(c) and c >= 0 for c in coefs):
            raise ConfigurationError(f"loss coefficients must be finite and >= 0, got {coefs}")
        clip = self.grad_clip_norm
        if clip is not None and not (math.isfinite(clip) and clip > 0):
            raise ConfigurationError(f"grad_clip_norm must be None or finite and > 0, got {clip}")


@dataclass
class Observation:
    """Constant snapshot of everything the heads read at one step."""

    node_features: np.ndarray  # (tasks, 5): service features + degree features
    adjacency: np.ndarray  # (tasks, tasks)
    service_features: np.ndarray  # (tasks, 3)
    alloc: np.ndarray  # (tasks,): normalized latency of each service's host
    eligible: np.ndarray  # (tasks,) bool
    device_classes: np.ndarray  # (classes, 3): the distinct device feature rows
    device_class_of: np.ndarray  # (devices,): each device's row in device_classes


@dataclass
class Transition:
    obs: Observation
    service_index: int
    device_pos: int
    logp_service: float
    logp_device: float
    value_service: float
    value_device: float
    reward: float
    done: bool


def make_observation(env: PlacementEnv, state: EnvState) -> Observation:
    return Observation(
        node_features=np.concatenate([state.service_features, env.degree_features], axis=1),
        adjacency=env.adjacency,
        service_features=state.service_features.copy(),
        alloc=state.device_features[0, ::3].copy(),
        eligible=state.eligible_mask.copy(),
        device_classes=env.device_classes,
        device_class_of=env.device_class_of,
    )


class _Decision(NamedTuple):
    """One head pass: the two indices, their score vectors, and the
    log-probability and critic value of each choice."""

    service_index: int
    device_pos: int
    service_scores: Tensor
    device_scores: Tensor
    logp_s: Tensor
    logp_d: Tensor
    value_s: Tensor
    value_d: Tensor


class PolicyModel(Module):
    """Checkpointable parameter set: encoder + the four head MLPs.

    The allocation vector bakes the task count into the device-head input, so
    a model only ever runs on applications of the size it was built for; the
    number of devices is free because devices are scored row-wise.
    """

    def __init__(self, task_count: int, config: AgentConfig, rng: np.random.Generator):
        if task_count < 1:
            raise ConfigurationError("task_count must be >= 1")
        self.task_count = task_count
        self.config = config
        width = config.head_width
        hidden_a = tuple(width for _ in range(config.actor_hidden_layers))
        hidden_c = tuple(width for _ in range(config.critic_hidden_layers))
        h = config.gin.hidden_dim

        self.gin = GinEncoder(config.gin, rng)
        self.actor_s = Mlp(MlpSpec(2 * h, hidden_a, 1), rng)
        self.critic_s = Mlp(MlpSpec(h, hidden_c, 1), rng)
        self.actor_d = Mlp(MlpSpec(6 + task_count, hidden_a, 1), rng)
        self.critic_d = Mlp(MlpSpec(3 + task_count, hidden_c, 1), rng)

    # --- the one head pass -------------------------------------------------------

    def _decide(
        self,
        obs: Observation,
        service_index: int | None = None,
        device_pos: int | None = None,
        mode: str = "sample",
        rng: np.random.Generator | None = None,
    ) -> _Decision:
        """Score both heads; choose by ``mode`` whichever index is not given.

        Rollouts, greedy placement and the PPO update all score the heads here,
        so an update re-scores exactly what its rollout sampled.
        """
        tasks = self.task_count
        if obs.node_features.shape[0] != tasks:
            raise ConfigurationError(
                f"model built for {tasks} tasks, observation has {obs.node_features.shape[0]}"
            )
        if service_index is None and not obs.eligible.any():
            raise ConfigurationError("no eligible service: episode already terminal")
        emb = self.gin(obs.node_features, obs.adjacency)
        tiled_hg = Tensor(np.ones((tasks, 1))) @ emb.graph_embedding
        s_scores = self.actor_s(concat([tiled_hg, emb.node_embeddings], axis=1)).reshape(tasks)
        s_logp = _finite(masked_log_softmax(s_scores, obs.eligible), "service")
        if service_index is None:
            service_index = _choose(s_scores, s_logp, obs.eligible, mode, rng)
        logp_s = s_logp[np.array([service_index])].sum()
        value_s = self.critic_s(emb.graph_embedding).sum()

        n_cls = obs.device_classes.shape[0]
        candidate = obs.service_features[service_index]
        rows = np.concatenate(
            [
                obs.device_classes,
                np.tile(candidate, (n_cls, 1)),
                np.tile(obs.alloc, (n_cls, 1)),
            ],
            axis=1,
        )
        d_scores = self.actor_d(Tensor(rows)).reshape(n_cls)[obs.device_class_of]
        all_devices = np.ones(len(obs.device_class_of), dtype=bool)
        d_logp = _finite(masked_log_softmax(d_scores, all_devices), "device")
        if device_pos is None:
            device_pos = _choose(d_scores, d_logp, all_devices, mode, rng)
        logp_d = d_logp[np.array([device_pos])].sum()
        critic_in = np.concatenate([candidate, obs.alloc]).reshape(1, -1)
        value_d = self.critic_d(Tensor(critic_in)).sum()
        return _Decision(
            service_index, device_pos, s_scores, d_scores, logp_s, logp_d, value_s, value_d
        )

    def act(
        self, obs: Observation, mode: str = "sample", rng: np.random.Generator | None = None
    ) -> tuple[int, int, float, float, float, float]:
        """One full decision: service and device plus log-probs and values."""
        d = self._decide(obs, mode=mode, rng=rng)
        return (
            d.service_index,
            d.device_pos,
            d.logp_s.item(),
            d.logp_d.item(),
            d.value_s.item(),
            d.value_d.item(),
        )

    def evaluate_actions(
        self, obs: Observation, service_index: int, device_pos: int
    ) -> dict[str, Tensor]:
        """Differentiable log-probs, values, and entropies for a stored action."""
        d = self._decide(obs, service_index, device_pos)
        all_devices = np.ones(d.device_scores.data.shape[0], dtype=bool)
        return {
            "logp_s": d.logp_s,
            "logp_d": d.logp_d,
            "value_s": d.value_s,
            "value_d": d.value_d,
            "entropy_s": masked_entropy(d.service_scores, obs.eligible),
            "entropy_d": masked_entropy(d.device_scores, all_devices),
        }


def _finite(logp: Tensor, head: str) -> Tensor:
    """``logp`` itself; a non-finite entry means the parameters have diverged."""
    if not np.isfinite(logp.data).all():
        raise DivergenceError(f"non-finite {head}-head log-probabilities")
    return logp


def _choose(
    scores: Tensor,
    logp: Tensor,
    mask: np.ndarray,
    mode: str,
    rng: np.random.Generator | None,
) -> int:
    """Greedy: argmax of the masked scores. Sample: a draw from ``exp(logp)``.

    Greedy reads the scores, not ``logp``: rounding in the log-softmax can tie
    two distinct scores.
    """
    if mode == "greedy":
        return int(np.argmax(np.where(mask, scores.data, -np.inf)))
    if mode == "sample":
        if rng is None:
            raise ConfigurationError("sampling requires a random generator")
        probs = np.where(mask, np.exp(logp.data), 0.0)
        return int(rng.choice(len(probs), p=probs / probs.sum()))
    raise ConfigurationError(f"unknown selection mode {mode!r}")


def collect_trajectory(
    model: PolicyModel,
    env: PlacementEnv,
    rng: np.random.Generator | None = None,
    mode: str = "sample",
) -> tuple[list[Transition], EnvState]:
    """Roll one full episode; returns the transitions and the final state."""
    state = env.reset()
    transitions: list[Transition] = []
    done = False
    while not done:
        obs = make_observation(env, state)
        svc, dev_pos, logp_s, logp_d, value_s, value_d = model.act(obs, mode, rng)
        action = Action(env.services[svc], int(env.device_ids[dev_pos]))
        state, reward, done = env.step(action)
        transitions.append(
            Transition(
                obs=obs,
                service_index=svc,
                device_pos=dev_pos,
                logp_service=logp_s,
                logp_device=logp_d,
                value_service=value_s,
                value_device=value_d,
                reward=reward.r_total,
                done=done,
            )
        )
    return transitions, state


# --- PPO -----------------------------------------------------------------------

def trajectory_returns(rewards: list[float]) -> list[float]:
    """Undiscounted suffix sums: return at t is the reward-to-go."""
    return np.cumsum(np.asarray(rewards, dtype=np.float64)[::-1])[::-1].tolist()


@dataclass
class UpdateReport:
    total_losses: list[float]
    policy_loss_s: float
    policy_loss_d: float
    value_loss_s: float
    value_loss_d: float
    entropy_s: float
    entropy_d: float
    mean_ratio_s_first_epoch: float
    mean_ratio_d_first_epoch: float
    grad_norm: float


def ppo_update(
    model: PolicyModel,
    trajectories: list[list[Transition]],
    hyper: PpoHyper,
    optimizer: Adam,
) -> UpdateReport:
    """Clipped-surrogate update over completed trajectories.

    Each epoch recomputes log-probs, values and entropies for every stored
    transition, stacks each into one vector per head, forms per-head losses
    c_policy*policy + c_value*value - c_entropy*entropy on those vectors,
    averages the two heads, and takes one Adam step over all parameters.
    """
    flat = [t for traj in trajectories for t in traj]
    if not flat:
        raise ConfigurationError("no transitions to update on")
    returns = np.concatenate(
        [trajectory_returns([t.reward for t in traj]) for traj in trajectories]
    )
    logp_old = {
        "s": np.array([t.logp_service for t in flat]),
        "d": np.array([t.logp_device for t in flat]),
    }

    lo, hi = 1.0 - hyper.clip_ratio, 1.0 + hyper.clip_ratio
    total_losses: list[float] = []
    first_ratios: dict[str, float] = {}
    components: dict[str, float] = {}
    grad_norm = 0.0

    for epoch in range(hyper.update_epochs):
        evs = [model.evaluate_actions(t.obs, t.service_index, t.device_pos) for t in flat]

        def stacked(key: str) -> Tensor:
            return concat([ev[key].reshape(1) for ev in evs])

        head_losses = {}
        for head in ("s", "d"):
            value = stacked(f"value_{head}")
            ratio = (stacked(f"logp_{head}") - logp_old[head]).exp()
            advantage = returns - value.data
            policy_loss = -minimum(ratio * advantage, ratio.clip(lo, hi) * advantage).mean()
            value_loss = ((value - returns) ** 2).mean()
            entropy = stacked(f"entropy_{head}").mean()
            head_losses[head] = (
                hyper.policy_coef * policy_loss
                + hyper.value_coef * value_loss
                - hyper.entropy_coef * entropy
            )
            components[f"policy_loss_{head}"] = policy_loss.item()
            components[f"value_loss_{head}"] = value_loss.item()
            components[f"entropy_{head}"] = entropy.item()
            if epoch == 0:
                first_ratios[head] = float(ratio.data.mean())

        total = (head_losses["s"] + head_losses["d"]) * 0.5
        if not np.isfinite(total.item()):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch}: components={components}"
            )
        optimizer.zero_grad()
        total.backward()
        grad_norm = clip_global_norm(optimizer.params, hyper.grad_clip_norm)
        optimizer.step()
        if not all(np.isfinite(p.data).all() for p in optimizer.params):
            raise DivergenceError(f"non-finite parameters after the Adam step of epoch {epoch}")
        total_losses.append(total.item())

    return UpdateReport(
        total_losses=total_losses,
        policy_loss_s=components["policy_loss_s"],
        policy_loss_d=components["policy_loss_d"],
        value_loss_s=components["value_loss_s"],
        value_loss_d=components["value_loss_d"],
        entropy_s=components["entropy_s"],
        entropy_d=components["entropy_d"],
        mean_ratio_s_first_epoch=first_ratios["s"],
        mean_ratio_d_first_epoch=first_ratios["d"],
        grad_norm=grad_norm,
    )


# --- checkpoints ----------------------------------------------------------------

def save_checkpoint(model: PolicyModel, path: str | Path) -> None:
    """JSON checkpoint: config, task count, and every named array, exactly."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "task_count": model.task_count,
        "config": asdict(model.config),
        "state": {k: v.tolist() for k, v in model.state_dict().items()},
        "shapes": {k: list(v.shape) for k, v in model.state_dict().items()},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))


def load_checkpoint(path: str | Path) -> PolicyModel:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"{path}: no such checkpoint") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: corrupt checkpoint ({exc})") from exc
    try:
        version = payload["format_version"]
        if version > CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"{path}: checkpoint version {version} newer than supported"
            )
        cfg_raw = dict(payload["config"])
        cfg = AgentConfig(gin=GinConfig(**cfg_raw.pop("gin")), **cfg_raw)
        model = PolicyModel(int(payload["task_count"]), cfg, np.random.default_rng(0))
        state = {
            k: np.asarray(v, dtype=np.float64).reshape(payload["shapes"][k])
            for k, v in payload["state"].items()
        }
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: malformed checkpoint ({exc!r})") from exc
    if not all(np.isfinite(v).all() for v in state.values()):
        raise ConfigurationError(f"{path}: checkpoint holds non-finite parameters")
    model.load_state_dict(state)
    return model

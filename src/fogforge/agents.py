"""Policy model (graph encoder plus two actor-critic heads) and PPO updates.

The service head scores each node from the concatenated graph and node
embeddings, masked to eligible services. The device head scores every device
from its own features joined with the candidate service's features and the
current allocation vector; all devices are legal. One PPO update recomputes
log-probabilities and values per epoch and takes a single Adam step over all
parameters, averaging the two heads' losses.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from fogforge.env import Action, EnvState, PlacementEnv
from fogforge.gin import GinConfig, GinEncoder
from fogforge.model import ConfigurationError
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
    masked_softmax,
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
        if min(self.actor_hidden_layers, self.critic_hidden_layers, self.head_width) < 1:
            raise ConfigurationError(f"agent dims must be >= 1: {self}")


@dataclass(frozen=True)
class PpoHyper:
    update_epochs: int = 2
    policy_coef: float = 3.0
    value_coef: float = 2.0
    entropy_coef: float = 0.023
    clip_ratio: float = 0.25
    grad_clip_norm: float | None = None  # optional, off by default

    def __post_init__(self) -> None:
        if self.update_epochs < 1:
            raise ConfigurationError("update_epochs must be >= 1")
        if not 0.0 < self.clip_ratio < 1.0:
            raise ConfigurationError("clip_ratio must lie in (0, 1)")
        if min(self.policy_coef, self.value_coef, self.entropy_coef) < 0:
            raise ConfigurationError("loss coefficients must be >= 0")


@dataclass
class Observation:
    """Constant snapshot of everything the heads read at one step."""

    node_features: np.ndarray  # (tasks, 5): service features + degree features
    adjacency: np.ndarray  # (tasks, tasks)
    service_features: np.ndarray  # (tasks, 3)
    alloc: np.ndarray  # (tasks,): normalized latency of each service's host
    eligible: np.ndarray  # (tasks,) bool
    device_features: np.ndarray  # (devices, 3)


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
        device_features=env.device_features_all,
    )


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

    # --- heads ---------------------------------------------------------------

    def _check_obs(self, obs: Observation) -> None:
        if obs.node_features.shape[0] != self.task_count:
            raise ConfigurationError(
                f"model built for {self.task_count} tasks, observation has "
                f"{obs.node_features.shape[0]}"
            )

    def _service_scores(self, obs: Observation) -> tuple[Tensor, Tensor]:
        """Per-node logits and the pooled graph embedding."""
        self._check_obs(obs)
        emb = self.gin(obs.node_features, obs.adjacency)
        tasks = self.task_count
        tiled_hg = Tensor(np.ones((tasks, 1))) @ emb.graph_embedding
        scores = self.actor_s(concat([tiled_hg, emb.node_embeddings], axis=1))
        return scores.reshape(tasks), emb.graph_embedding

    def _device_scores(self, obs: Observation, service_index: int) -> Tensor:
        self._check_obs(obs)
        n_dev = obs.device_features.shape[0]
        candidate = obs.service_features[service_index]
        rows = np.concatenate(
            [
                obs.device_features,
                np.tile(candidate, (n_dev, 1)),
                np.tile(obs.alloc, (n_dev, 1)),
            ],
            axis=1,
        )
        return self.actor_d(Tensor(rows)).reshape(n_dev)

    def _device_value(self, obs: Observation, service_index: int) -> Tensor:
        critic_in = np.concatenate([obs.service_features[service_index], obs.alloc])
        return self.critic_d(Tensor(critic_in.reshape(1, -1))).sum()

    # --- action selection ------------------------------------------------------

    def select_service(
        self, obs: Observation, mode: str = "sample", rng: np.random.Generator | None = None
    ) -> tuple[int, float]:
        if not obs.eligible.any():
            raise ConfigurationError("no eligible service: episode already terminal")
        scores, _ = self._service_scores(obs)
        return _pick(scores, obs.eligible, mode, rng)

    def select_device(
        self,
        obs: Observation,
        service_index: int,
        mode: str = "sample",
        rng: np.random.Generator | None = None,
    ) -> tuple[int, float]:
        scores = self._device_scores(obs, service_index)
        all_devices = np.ones(scores.data.shape[0], dtype=bool)
        return _pick(scores, all_devices, mode, rng)

    def act(
        self, obs: Observation, mode: str = "sample", rng: np.random.Generator | None = None
    ) -> tuple[int, int, float, float, float, float]:
        """One full decision: service and device plus log-probs and values."""
        if not obs.eligible.any():
            raise ConfigurationError("no eligible service: episode already terminal")
        s_scores, h_g = self._service_scores(obs)
        svc, logp_s = _pick(s_scores, obs.eligible, mode, rng)
        value_s = self.critic_s(h_g).sum().item()

        d_scores = self._device_scores(obs, svc)
        dev, logp_d = _pick(d_scores, np.ones(d_scores.data.shape[0], dtype=bool), mode, rng)
        value_d = self._device_value(obs, svc).item()
        return svc, dev, logp_s, logp_d, value_s, value_d

    def evaluate_actions(
        self, obs: Observation, service_index: int, device_pos: int
    ) -> dict[str, Tensor]:
        """Differentiable log-probs, values, and entropies for a stored action."""
        s_scores, h_g = self._service_scores(obs)
        logp_s = masked_log_softmax(s_scores, obs.eligible)[np.array([service_index])].sum()
        ent_s = masked_entropy(s_scores, obs.eligible)
        value_s = self.critic_s(h_g).sum()

        d_scores = self._device_scores(obs, service_index)
        all_devices = np.ones(d_scores.data.shape[0], dtype=bool)
        logp_d = masked_log_softmax(d_scores, all_devices)[np.array([device_pos])].sum()
        ent_d = masked_entropy(d_scores, all_devices)
        value_d = self._device_value(obs, service_index)
        return {
            "logp_s": logp_s,
            "logp_d": logp_d,
            "value_s": value_s,
            "value_d": value_d,
            "entropy_s": ent_s,
            "entropy_d": ent_d,
        }


def _pick(
    scores: Tensor, mask: np.ndarray, mode: str, rng: np.random.Generator | None
) -> tuple[int, float]:
    logp_vec = masked_log_softmax(scores, mask)
    if mode == "greedy":
        masked_scores = np.where(mask, scores.data, -np.inf)
        choice = int(np.argmax(masked_scores))
    elif mode == "sample":
        if rng is None:
            raise ConfigurationError("sampling requires a random generator")
        probs = masked_softmax(scores, mask).data
        probs = probs / probs.sum()
        choice = int(rng.choice(len(probs), p=probs))
    else:
        raise ConfigurationError(f"unknown selection mode {mode!r}")
    return choice, float(logp_vec.data[choice])


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
    out = [0.0] * len(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc += rewards[t]
        out[t] = acc
    return out


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


def _mean_scalars(values: list[Tensor]) -> Tensor:
    return concat([v.reshape(1) for v in values]).mean()


def ppo_update(
    model: PolicyModel,
    trajectories: list[list[Transition]],
    hyper: PpoHyper,
    optimizer: Adam,
) -> UpdateReport:
    """Clipped-surrogate update over completed trajectories.

    Each epoch recomputes log-probs and values for every stored transition,
    forms per-head losses c_policy*policy + c_value*value - c_entropy*entropy,
    averages the two heads, and takes one Adam step over all parameters.
    """
    flat: list[tuple[Transition, float]] = []
    for traj in trajectories:
        returns = trajectory_returns([t.reward for t in traj])
        flat.extend(zip(traj, returns))
    if not flat:
        raise ConfigurationError("no transitions to update on")

    lo, hi = 1.0 - hyper.clip_ratio, 1.0 + hyper.clip_ratio
    total_losses: list[float] = []
    first_ratios = {"s": 0.0, "d": 0.0}
    components: dict[str, float] = {}
    grad_norm = 0.0

    for epoch in range(hyper.update_epochs):
        ratio_sums = {"s": 0.0, "d": 0.0}
        surrogates = {"s": [], "d": []}
        values = {"s": [], "d": []}
        entropies = {"s": [], "d": []}
        for transition, ret in flat:
            ev = model.evaluate_actions(
                transition.obs, transition.service_index, transition.device_pos
            )
            for head, logp_old in (("s", transition.logp_service), ("d", transition.logp_device)):
                ratio = (ev[f"logp_{head}"] - logp_old).exp()
                ratio_sums[head] += ratio.item()
                advantage = ret - ev[f"value_{head}"].item()
                surrogates[head].append(
                    minimum(ratio * advantage, ratio.clip(lo, hi) * advantage)
                )
                values[head].append((ev[f"value_{head}"] - ret) ** 2)
                entropies[head].append(ev[f"entropy_{head}"])

        head_losses = {}
        for head in ("s", "d"):
            policy_loss = -_mean_scalars(surrogates[head])
            value_loss = _mean_scalars(values[head])
            entropy = _mean_scalars(entropies[head])
            head_losses[head] = (
                hyper.policy_coef * policy_loss
                + hyper.value_coef * value_loss
                - hyper.entropy_coef * entropy
            )
            components[f"policy_loss_{head}"] = policy_loss.item()
            components[f"value_loss_{head}"] = value_loss.item()
            components[f"entropy_{head}"] = entropy.item()

        if epoch == 0:
            first_ratios = {k: v / len(flat) for k, v in ratio_sums.items()}

        total = (head_losses["s"] + head_losses["d"]) * 0.5
        if not np.isfinite(total.item()):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch}: components={components}"
            )
        optimizer.zero_grad()
        total.backward()
        if hyper.grad_clip_norm is not None:
            grad_norm = clip_global_norm(optimizer.params, hyper.grad_clip_norm)
        else:
            grad_norm = float(
                np.sqrt(
                    sum(
                        float((p.grad * p.grad).sum())
                        for p in optimizer.params
                        if p.grad is not None
                    )
                )
            )
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
        model.load_state_dict(state)
        return model
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"{path}: malformed checkpoint ({exc!r})") from exc

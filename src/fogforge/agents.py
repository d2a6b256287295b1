"""Policy model (graph encoder plus two actor-critic heads) and PPO updates.

The heads read the env's :class:`~fogforge.env.EnvState` as it is. The
service head scores each eligible service from the concatenated graph and
node embeddings; services masked out are not scored at all, since a masked
choice has no probability and gets no gradient. The device head scores every
device from its own features joined with the candidate service's features
and each service's host latency; all devices are legal. Devices with equal
feature rows get equal scores, so the head runs once per distinct device row
and each device reads its row's score.

Every pass is batched: ``PolicyModel._decide`` scores B states in one tape
pass (one state is B = 1). Rollouts step their envs in lockstep through one
pass per step and record a :class:`Rollout` of (envs, steps) arrays. One PPO
update re-scores all of its actions in one pass per epoch, computes the
losses on the resulting vectors, and takes a single Adam step over all
parameters, averaging the two heads' losses. The two critics run only in
that update (``evaluate_actions``): rollouts, greedy placement and ``act``
read no value, so they score none.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from fogforge.env import NODE_FEATURES, Action, EnvState, PlacementEnv
from fogforge.gin import GinConfig, GinEncoder, check_sizes
from fogforge.model import ConfigurationError, from_json, is_count, is_real, read_json, write_file
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
    no_grad,
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
        check_sizes(self, ("head_width",), ("actor_hidden_layers", "critic_hidden_layers"))
        if self.gin.node_feature_dim != NODE_FEATURES:  # the encoder reads the env's features
            raise ConfigurationError(f"gin.node_feature_dim must be {NODE_FEATURES}: {self.gin}")


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
        ratio = self.clip_ratio
        if not (is_real(ratio) and 0.0 < ratio < 1.0):
            raise ConfigurationError(f"clip_ratio must be a real number in (0, 1): {ratio!r}")
        for name in ("policy_coef", "value_coef", "entropy_coef"):
            coef = getattr(self, name)
            if not (is_real(coef) and math.isfinite(coef) and coef >= 0):
                raise ConfigurationError(
                    f"loss coefficients must be finite real numbers >= 0: {name}={coef!r}"
                )
        clip = self.grad_clip_norm
        if clip is not None and not (is_real(clip) and math.isfinite(clip) and clip > 0):
            raise ConfigurationError(
                f"grad_clip_norm must be None or a finite real number > 0: {clip!r}"
            )


class _Decision(NamedTuple):
    """One batched head pass over B states: per row, the two indices, the
    score rows with their masks, the log-probability of each choice, and the
    two critics' inputs, which only :meth:`PolicyModel.evaluate_actions`
    feeds to the critics. ``service_mask`` marks each row's eligible
    services; only those are scored, and every other service score is 0.
    Pools of different sizes pad the device rows; ``device_mask`` marks each
    row's real devices."""

    service_index: np.ndarray  # (B,) int
    device_pos: np.ndarray  # (B,) int
    service_scores: Tensor  # (B, tasks)
    service_mask: np.ndarray  # (B, tasks) bool
    device_scores: Tensor  # (B, most devices)
    device_mask: np.ndarray  # (B, most devices) bool
    logp_s: Tensor  # (B,)
    logp_d: Tensor  # (B,)
    critic_s_in: Tensor  # (B, hidden): the graph embeddings
    critic_d_in: np.ndarray  # (B, 3 + tasks): candidate features, host latencies


class PolicyModel(Module):
    """Checkpointable parameter set: encoder + the four head MLPs.

    The host-latency vector bakes the task count into the device-head input, so
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
        states: Sequence[EnvState],
        service_index: np.ndarray | None = None,
        device_pos: np.ndarray | None = None,
        mode: str = "sample",
        rngs: Sequence[np.random.Generator] | None = None,
    ) -> _Decision:
        """Score both heads on a batch of env states in one tape pass; choose
        by ``mode`` whichever indices are not given, row ``k`` drawing from
        ``rngs[k]``. The device head reads the candidate's service features
        from the first three columns of ``node_features``.

        Rollouts, greedy placement and the PPO update all score the heads here,
        so an update re-scores exactly what its rollouts sampled. Overflow in
        the pass is not warned about: it surfaces as non-finite
        log-probabilities, which raise :class:`DivergenceError`.
        """
        tasks = self.task_count
        batch = len(states)
        for state in states:
            if state.node_features.shape[0] != tasks:
                raise ConfigurationError(
                    f"model built for {tasks} tasks, state has {state.node_features.shape[0]}"
                )
        eligible = np.array([state.eligible_mask for state in states])
        if service_index is None and not eligible.any(axis=1).all():
            raise ConfigurationError("no eligible service: episode already terminal")
        rows = np.arange(batch)
        nodes = np.concatenate([state.node_features for state in states])
        with np.errstate(over="ignore", invalid="ignore"):
            emb = self.gin(nodes, np.array([state.adjacency for state in states]))
            # the service head scores the eligible services only; every other
            # entry reads a constant 0 from the pad slot, which the masked
            # log-softmax, _choose and the entropy never read
            flat = np.flatnonzero(eligible)
            s_in = concat([emb.graph_embedding[flat // tasks], emb.node_embeddings[flat]], axis=1)
            slot = np.full(batch * tasks, len(flat))
            slot[flat] = np.arange(len(flat))
            scored = self.actor_s(s_in).reshape(len(flat))
            s_scores = concat([scored, Tensor(np.zeros(1))])[slot.reshape(batch, tasks)]
            s_logp = _finite(masked_log_softmax(s_scores, eligible), "service")
            if service_index is None:
                service_index = _choose(s_scores, s_logp, eligible, mode, rngs)
            logp_s = s_logp[rows, service_index]

            candidate = nodes[rows * tasks + service_index, :3]
            host_latency = np.array([state.host_latency for state in states])
            # every state's distinct device rows, scored in one pass; each
            # device reads its class's score at its state's offset
            counts = np.array([len(state.device_classes) for state in states])
            owner = np.repeat(rows, counts)
            class_rows = np.concatenate(
                [
                    np.concatenate([state.device_classes for state in states]),
                    candidate[owner],
                    host_latency[owner],
                ],
                axis=1,
            )
            sizes = [len(state.device_class_of) for state in states]
            gather = np.zeros((batch, max(sizes)), dtype=np.intp)
            device_mask = np.zeros(gather.shape, dtype=bool)
            for k, (state, offset) in enumerate(zip(states, np.cumsum(counts) - counts)):
                gather[k, : sizes[k]] = offset + state.device_class_of
                device_mask[k, : sizes[k]] = True
            d_scores = self.actor_d(Tensor(class_rows)).reshape(len(class_rows))[gather]
            d_logp = _finite(masked_log_softmax(d_scores, device_mask), "device")
            if device_pos is None:
                device_pos = _choose(d_scores, d_logp, device_mask, mode, rngs)
            logp_d = d_logp[rows, device_pos]
        return _Decision(
            service_index, device_pos, s_scores, eligible, d_scores, device_mask,
            logp_s, logp_d, emb.graph_embedding, np.concatenate([candidate, host_latency], axis=1),
        )

    def act(
        self,
        states: Sequence[EnvState],
        mode: str = "sample",
        rngs: Sequence[np.random.Generator] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One full decision per state: service and device indices and their
        log-probs, each as a (B,) array. Records no tape."""
        with no_grad():
            d = self._decide(states, mode=mode, rngs=rngs)
        return d.service_index, d.device_pos, d.logp_s.data, d.logp_d.data

    def evaluate_actions(
        self,
        states: Sequence[EnvState],
        service_index: Sequence[int] | np.ndarray,
        device_pos: Sequence[int] | np.ndarray,
    ) -> dict[str, Tensor]:
        """Differentiable (B,) log-probs, values, and entropies for stored
        actions. The critics run here only: no other caller reads a value."""
        d = self._decide(states, np.asarray(service_index), np.asarray(device_pos))
        with np.errstate(over="ignore", invalid="ignore"):
            value_s = self.critic_s(d.critic_s_in).reshape(len(states))
            value_d = self.critic_d(Tensor(d.critic_d_in)).reshape(len(states))
        return {
            "logp_s": d.logp_s,
            "logp_d": d.logp_d,
            "value_s": value_s,
            "value_d": value_d,
            "entropy_s": masked_entropy(d.service_scores, d.service_mask),
            "entropy_d": masked_entropy(d.device_scores, d.device_mask),
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
    rngs: Sequence[np.random.Generator] | None,
) -> np.ndarray:
    """One index per row. Greedy: argmax of the masked scores. Sample: row
    ``k`` draws from ``exp(logp)`` with ``rngs[k]``; padding has probability
    0, so it is never drawn and does not move the draw.

    Greedy reads the scores, not ``logp``: rounding in the log-softmax can tie
    two distinct scores.

    Sampling takes the steps of ``rngs[k].choice(n, p=p / p.sum())`` on all
    rows at once: each row's normalised cumulative sum, one ``random()`` per
    row, and the count of entries at or below the draw (``choice``'s
    right-sided search). So it draws what ``choice`` draws, without
    ``choice``'s check that ``p`` sums to 1; :func:`_finite` has already
    refused non-finite log-probabilities.
    """
    if mode == "greedy":
        return np.argmax(np.where(mask, scores.data, -np.inf), axis=-1)
    if mode == "sample":
        if rngs is None or len(rngs) != len(mask):
            raise ConfigurationError("sampling requires one random generator per row")
        probs = np.where(mask, np.exp(logp.data), 0.0)
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        draws = np.array([rng.random() for rng in rngs])
        return np.count_nonzero(cdf <= draws[:, None], axis=1)
    raise ConfigurationError(f"unknown selection mode {mode!r}")


@dataclass(frozen=True)
class Rollout:
    """One episode per env, stepped in lockstep. Every array is (envs, steps):
    row ``k`` is env ``k``'s episode and column ``t`` its ``t``-th action.
    ``states[k][t]`` is the state that action was chosen in, and
    ``finals[k]`` is env ``k``'s terminal state."""

    states: list[list[EnvState]]
    finals: list[EnvState]
    service_index: np.ndarray  # int
    device_pos: np.ndarray  # int
    logp_s: np.ndarray
    logp_d: np.ndarray
    rewards: np.ndarray


def collect_trajectory(
    model: PolicyModel,
    envs: Sequence[PlacementEnv],
    rngs: Sequence[np.random.Generator] | None = None,
    mode: str = "sample",
) -> Rollout:
    """Roll one full episode on every env in lockstep, one batched pass per
    step; env ``k`` samples from ``rngs[k]``. Every env places the model's
    task count of services, so all episodes end on the same step."""
    shape = (len(envs), model.task_count)
    service_index, device_pos = np.zeros(shape, np.intp), np.zeros(shape, np.intp)
    logp_s, logp_d, rewards = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    states = [env.reset() for env in envs]
    history: list[list[EnvState]] = [[] for _ in envs]
    for t in range(model.task_count):
        service_index[:, t], device_pos[:, t], logp_s[:, t], logp_d[:, t] = model.act(
            states, mode, rngs
        )
        for k, env in enumerate(envs):
            history[k].append(states[k])
            action = Action(env.services[service_index[k, t]], int(env.device_ids[device_pos[k, t]]))
            states[k], reward, _ = env.step(action)
            rewards[k, t] = reward.r_total
    return Rollout(history, states, service_index, device_pos, logp_s, logp_d, rewards)


# --- PPO -----------------------------------------------------------------------

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
    rollout: Rollout,
    hyper: PpoHyper,
    optimizer: Adam,
) -> UpdateReport:
    """Clipped-surrogate update over completed episodes.

    The return of an action is its undiscounted reward-to-go. Each epoch
    re-scores every recorded action, env by env, in one batched
    ``evaluate_actions`` pass, forms per-head losses
    c_policy*policy + c_value*value - c_entropy*entropy on the resulting
    vectors, averages the two heads, and takes one Adam step over all
    parameters. The loss and its backward run without numpy overflow
    warnings; a non-finite loss or step raises :class:`DivergenceError`.
    """
    states = [state for row in rollout.states for state in row]
    if not states:
        raise ConfigurationError("no transitions to update on")
    returns = np.cumsum(rollout.rewards[:, ::-1], axis=1)[:, ::-1].ravel()
    logp_old = {"s": rollout.logp_s.ravel(), "d": rollout.logp_d.ravel()}
    services, devices = rollout.service_index.ravel(), rollout.device_pos.ravel()

    lo, hi = 1.0 - hyper.clip_ratio, 1.0 + hyper.clip_ratio
    total_losses: list[float] = []
    first_ratios: dict[str, float] = {}
    components: dict[str, float] = {}
    grad_norm = 0.0

    for epoch in range(hyper.update_epochs):
        ev = model.evaluate_actions(states, services, devices)
        with np.errstate(over="ignore", invalid="ignore"):
            head_losses = {}
            for head in ("s", "d"):
                value = ev[f"value_{head}"]
                ratio = (ev[f"logp_{head}"] - logp_old[head]).exp()
                advantage = returns - value.data
                policy_loss = -minimum(ratio * advantage, ratio.clip(lo, hi) * advantage).mean()
                value_loss = ((value - returns) ** 2).mean()
                entropy = ev[f"entropy_{head}"].mean()
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
    write_file(path, json.dumps(payload))


def load_checkpoint(path: str | Path) -> PolicyModel:
    payload = read_json(path, "checkpoint")
    try:
        version = from_json(int, payload["format_version"], "format_version")
        if version <= CHECKPOINT_VERSION:
            config = from_json(AgentConfig, payload["config"], "config")
            task_count = from_json(int, payload["task_count"], "task_count")
            model = PolicyModel(task_count, config, np.random.default_rng(0))
            state = {
                k: np.asarray(v, dtype=np.float64).reshape(payload["shapes"][k])
                for k, v in payload["state"].items()
            }
    except (KeyError, TypeError, ValueError) as exc:  # ConfigurationError included
        raise ConfigurationError(f"{path}: malformed checkpoint ({exc!r})") from exc
    if version > CHECKPOINT_VERSION:
        raise ConfigurationError(f"{path}: checkpoint version {version} newer than supported")
    if not all(np.isfinite(v).all() for v in state.values()):
        raise ConfigurationError(f"{path}: checkpoint holds non-finite parameters")
    model.load_state_dict(state)
    return model

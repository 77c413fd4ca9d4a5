"""Teacher-to-student transfer onto enlarged, field-aware networks.

The teacher networks never saw the target-velocity field, so during
distillation the student's extra field input is fed small Gaussian noise
while the student learns to reproduce the teacher's policy (closed-form
KL) and scalarized critic values (squared error) on states replayed
from a saved store.

Input layouts: student actor consumes (obs ++ field); student critic
consumes (obs ++ field ++ action), matching the teacher critic's
(obs ++ action) with the field block spliced in between.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import nn, policy
from .errors import ConfigError, NumericFault
from .sac import VectorCritic

FIELD_NOISE_STD = 0.1


@dataclass
class DistillConfig:
    field_dim: int = 242
    noise_std: float = FIELD_NOISE_STD
    batch: int = 128
    lr_actor: float = 1e-4
    lr_critic: float = 1e-4
    student_hidden: int = 1024
    max_steps: int = 20_000
    kl_stop: float = 1e-3
    lr_decay_step: int = 0  # 0 disables; afterwards both rates shrink 5x
    match_vector: bool = False  # match per-coordinate Q vectors instead of the weighted sum
    seed: int = 0

    def __post_init__(self):
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")
        if self.kl_stop <= 0 or self.max_steps < 1 or self.batch < 1:
            raise ConfigError("distillation thresholds must be positive")

    def lr_at(self, step: int) -> tuple[float, float]:
        scale = 0.2 if (self.lr_decay_step and step >= self.lr_decay_step) else 1.0
        return self.lr_actor * scale, self.lr_critic * scale


def build_student_actor(teacher: nn.Network, field_dim: int, hidden: int, rng: np.random.Generator) -> nn.Network:
    """Freshly initialized actor with the field block appended to the input."""
    return nn.build_mlp(teacher.in_dim + field_dim, hidden, teacher.out_dim, rng, activation="elu", out_scale=0.01)


def build_student_critic(teacher: VectorCritic, obs_dim: int, act_dim: int, field_dim: int, hidden: int, rng: np.random.Generator) -> VectorCritic:
    """Freshly initialized critic over (obs ++ field ++ action)."""
    if teacher.net.in_dim != obs_dim + act_dim:
        raise ConfigError(f"teacher critic expects {teacher.net.in_dim} inputs, not obs {obs_dim} + act {act_dim}")
    net = nn.build_mlp(obs_dim + field_dim + act_dim, hidden, teacher.n_terms, rng, activation="relu")
    return VectorCritic(net)


def clone_actor_into_student(teacher: nn.Network, field_dim: int) -> nn.Network:
    """Exact functional clone whose field pathway has zero weight.

    Requires the student hidden width to equal the teacher's; the first
    linear layer gains ``field_dim`` zero rows, every parameter is copied
    bit-for-bit and the optimizer state starts fresh.  With any field
    input the clone reproduces the teacher.
    """
    return _clone_with_field_rows(teacher, field_dim, teacher.in_dim)


def clone_critic_into_student(teacher: VectorCritic, obs_dim: int, field_dim: int) -> VectorCritic:
    """As clone_actor_into_student, for the (obs ++ field ++ action) layout."""
    return VectorCritic(_clone_with_field_rows(teacher.net, field_dim, obs_dim))


def _clone_with_field_rows(tnet: nn.Network, field_dim: int, at: int) -> nn.Network:
    """Copy of ``tnet``'s parameters with ``field_dim`` zero input rows
    inserted into the first linear layer before input ``at``."""
    specs = [nn.LayerSpec("linear", tnet.in_dim + field_dim, tnet.specs[0].out_dim), *tnet.specs[1:]]
    net = nn.Network(specs, nn.arena_blocks(specs))
    src, dst = tnet.blocks[0], net.blocks[0]
    dst.w[:at] = src.w[:at]
    dst.w[at + field_dim :] = src.w[at:]
    dst.b[:] = src.b
    net.arena.params[dst.stop :] = tnet.arena.params[src.stop :]
    return net


@dataclass
class DistillStepResult:
    kl_loss: float
    q_loss: float


def distill_step(
    student_actor: nn.Network,
    student_critic: VectorCritic,
    teacher_actor: nn.Network,
    teacher_critic: VectorCritic,
    states: np.ndarray,
    rng: np.random.Generator,
    cfg: DistillConfig,
    weights: np.ndarray,
    field_noise: np.ndarray | None = None,
    apply_updates: bool = True,
    step_index: int = 0,
) -> DistillStepResult:
    """One distillation step on a batch of stored states.

    Teachers are read-only (no tapes, no gradient accumulation).  The
    student actor matches the teacher policy (closed-form KL) and the
    student critic is fitted by ``_fit_critic``.
    """
    states = np.asarray(states, dtype=np.float64)
    B = states.shape[0]
    obs_dim = teacher_actor.in_dim
    if states.shape[1] != obs_dim:
        raise ConfigError(f"states of width {states.shape[1]} do not match the teacher obs dim {obs_dim}")
    if field_noise is None:
        field_noise = rng.normal(0.0, cfg.noise_std, size=(B, cfg.field_dim))

    student_in = np.concatenate([states, field_noise], axis=1)
    s_out, s_tape = nn.forward(student_actor, student_in)
    s_head, s_mask = policy.head_from_output(s_out)
    t_out, _ = nn.forward(teacher_actor, states, want_tape=False)
    t_head, _ = policy.head_from_output(t_out)

    kl_rows = policy.kl_diag_gaussian(s_head, t_head)
    kl_loss = float(kl_rows.mean())
    if not np.isfinite(kl_loss):
        raise NumericFault("non-finite distillation loss; dumping batch is advised")
    dmu, dls = policy.kl_grads(s_head, t_head, s_mask)
    nn.backward(student_actor, s_tape, np.concatenate([dmu, dls], axis=1) / B, want_input_grad=False)
    q_loss = _fit_critic(student_critic, teacher_critic, states, field_noise, s_head, t_head, rng, cfg, weights)

    if apply_updates:
        lr_a, lr_c = cfg.lr_at(step_index)
        nn.adam_step_net(student_actor, lr_a)
        nn.adam_step_net(student_critic.net, lr_c)
    return DistillStepResult(kl_loss, q_loss)


def distill_critic_only(
    student_critic: VectorCritic,
    teacher_actor: nn.Network,
    teacher_critic: VectorCritic,
    student_actor: nn.Network,
    states: np.ndarray,
    rng: np.random.Generator,
    cfg: DistillConfig,
    weights: np.ndarray,
    step_index: int = 0,
) -> float:
    """One squared-error step for a critic whose actor is already distilled."""
    states = np.asarray(states, dtype=np.float64)
    field_noise = rng.normal(0.0, cfg.noise_std, size=(states.shape[0], cfg.field_dim))
    s_out, _ = nn.forward(student_actor, np.concatenate([states, field_noise], axis=1), want_tape=False)
    s_head, _ = policy.head_from_output(s_out)
    t_out, _ = nn.forward(teacher_actor, states, want_tape=False)
    t_head, _ = policy.head_from_output(t_out)
    q_loss = _fit_critic(student_critic, teacher_critic, states, field_noise, s_head, t_head, rng, cfg, weights)
    nn.adam_step_net(student_critic.net, cfg.lr_at(step_index)[1])
    return q_loss


def _fit_critic(
    student_critic: VectorCritic,
    teacher_critic: VectorCritic,
    states: np.ndarray,
    field_noise: np.ndarray,
    s_head: policy.GaussianHead,
    t_head: policy.GaussianHead,
    rng: np.random.Generator,
    cfg: DistillConfig,
    weights: np.ndarray,
) -> float:
    """Accumulate the student critic's gradient of its squared error
    against the teacher's weighted-sum value (per coordinate with
    ``match_vector``) at actions sampled from the respective policies;
    the sampled actions carry no gradient.  Returns the loss."""
    B = states.shape[0]
    weights = np.asarray(weights, dtype=np.float64)
    a_s = policy.sample(s_head, rng.standard_normal(s_head.mu.shape)).action
    a_t = policy.sample(t_head, rng.standard_normal(t_head.mu.shape)).action
    qs, q_tape = student_critic.forward(np.concatenate([states, field_noise, a_s], axis=1))
    qt, _ = teacher_critic.forward(np.concatenate([states, a_t], axis=1), want_tape=False)
    if cfg.match_vector:
        diff = qs - qt
        q_loss = float((diff * diff).sum(axis=1).mean())
        gq = 2.0 * diff / B
    else:
        diff = (qs - qt) @ weights
        q_loss = float((diff * diff).mean())
        gq = (2.0 * diff / B)[:, None] * weights[None, :]
    if not np.isfinite(q_loss):
        raise NumericFault("non-finite critic distillation loss")
    nn.backward(student_critic.net, q_tape, gq, want_input_grad=False)
    return q_loss


@dataclass
class DistillReport:
    mean_kl: float
    max_action_deviation: float
    kl_threshold: float
    action_threshold: float

    @property
    def passed(self) -> bool:
        return self.mean_kl < self.kl_threshold and self.max_action_deviation < self.action_threshold


def verify_distillation(
    student_actor: nn.Network,
    teacher_actor: nn.Network,
    holdout_states: np.ndarray,
    field_dim: int,
    kl_threshold: float = 0.05,
    action_threshold: float = 0.05,
) -> DistillReport:
    """Mean KL and max deterministic-action gap on held-out states.

    The student sees a zero field input, mirroring how the teacher never
    observed the field at all.
    """
    holdout_states = np.asarray(holdout_states, dtype=np.float64)
    student_in = np.concatenate([holdout_states, np.zeros((holdout_states.shape[0], field_dim))], axis=1)
    s_out, _ = nn.forward(student_actor, student_in, want_tape=False)
    t_out, _ = nn.forward(teacher_actor, holdout_states, want_tape=False)
    s_head, _ = policy.head_from_output(s_out)
    t_head, _ = policy.head_from_output(t_out)
    mean_kl = float(policy.kl_diag_gaussian(s_head, t_head).mean())
    dev = float(np.max(np.abs(policy.deterministic_action(s_head) - policy.deterministic_action(t_head))))
    return DistillReport(mean_kl, dev, kl_threshold, action_threshold)


def network_fingerprint(net: nn.Network) -> bytes:
    """Concatenated raw parameter bytes; equality means bit-identical."""
    return net.arena.params.tobytes()


def run_distillation(
    teacher_actor: nn.Network,
    teacher_critic: VectorCritic,
    states: np.ndarray,
    weights: np.ndarray,
    cfg: DistillConfig,
    metrics_path: str | None = None,
    log_every: int = 100,
) -> tuple[nn.Network, VectorCritic, list[DistillStepResult]]:
    """Full distillation loop over uniformly sampled stored states.

    Stops at ``cfg.max_steps`` or once the running-mean KL drops under
    ``cfg.kl_stop``.  Optionally appends a (step, kl_loss, q_loss) CSV.
    """
    rng = np.random.default_rng(cfg.seed)
    obs_dim = teacher_actor.in_dim
    act_dim = teacher_actor.out_dim // 2
    student_actor = build_student_actor(teacher_actor, cfg.field_dim, cfg.student_hidden, rng)
    student_critic = build_student_critic(teacher_critic, obs_dim, act_dim, cfg.field_dim, cfg.student_hidden, rng)
    weights = np.asarray(weights, dtype=np.float64)

    history: list[DistillStepResult] = []
    rows = ["step,kl_loss,q_loss"]
    recent: list[float] = []
    for step in range(cfg.max_steps):
        idx = rng.integers(0, states.shape[0], size=cfg.batch)
        res = distill_step(student_actor, student_critic, teacher_actor, teacher_critic, states[idx], rng, cfg, weights, step_index=step)
        history.append(res)
        recent.append(res.kl_loss)
        if len(recent) > 50:
            recent.pop(0)
        if (step % log_every) == 0 or step == cfg.max_steps - 1:
            rows.append(f"{step},{res.kl_loss!r},{res.q_loss!r}")
        if len(recent) == 50 and float(np.mean(recent)) < cfg.kl_stop:
            rows.append(f"{step},{res.kl_loss!r},{res.q_loss!r}")
            break
    if metrics_path is not None:
        os.makedirs(os.path.dirname(metrics_path) or ".", exist_ok=True)
        with open(metrics_path, "w") as f:
            f.write("\n".join(rows) + "\n")
    return student_actor, student_critic, history

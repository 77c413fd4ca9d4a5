"""Learner mathematics: twin vector-headed critics, squashed-Gaussian
actor, n-step targets with invertible value rescaling, and automatic
temperature tuning.

Each critic outputs one Q-value per reward coordinate; the actor
optimizes against the weighted sum of the per-coordinate twin minima.
The rescaling h(x) = sign(x)(sqrt(|x|+1)-1) + eps*x is applied per
coordinate, so each head regresses a well-conditioned target; with
n_terms = 1 everything reduces to the scalar formulation.

Bootstrap values deliberately carry no extra entropy term: the entropy
bonus is already a reward coordinate.

The loss functions accumulate parameter gradients into the networks they
train as a side effect and return the loss values; the caller applies
the Adam steps.  Callers must not run two training steps on the same
networks at once.

Every network pass goes through ``nn.forward``/``nn.backward``, one pass
at a time; from ``nn._BOTH_MIN_WORK`` up, ``nn`` splits a pass's rows
over two threads (see ``nn``), bit-identical to running both halves in
turn.  ``critic_loss`` runs the actor's bootstrap forward, the target
pair, then q1's forward and backward and q2's forward and backward;
``actor_loss`` runs the actor's taped forward, the critic pair on its
actions, forward then backward, and the actor's backward.  The random
draws keep their order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn, policy
from .errors import ConfigError, ContractViolation, NumericFault
from .replay import SampleBatch, segment_priority
from .rewards import NUM_TERMS


def h(x, eps: float = 1e-3):
    """Invertible value rescaling, strictly increasing and odd."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * (np.sqrt(np.abs(x) + 1.0) - 1.0) + eps * x


def h_inv(y, eps: float = 1e-3):
    """Closed-form inverse of ``h``."""
    y = np.asarray(y, dtype=np.float64)
    a = np.abs(y)
    s = (np.sqrt(1.0 + 4.0 * eps * (a + 1.0 + eps)) - 1.0) / (2.0 * eps)
    return np.sign(y) * (s * s - 1.0)


@dataclass
class SacHyper:
    """Hyperparameters of one learner configuration."""

    weights: np.ndarray
    gamma: float = 0.99
    n_step: int = 5
    rescale_eps: float = 1e-3
    use_rescale: bool = True
    target_entropy: float = -2.0
    tau: float = 0.005

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (NUM_TERMS,):
            raise ConfigError(f"weights must have {NUM_TERMS} entries")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie in (0, 1)")
        if self.n_step < 1:
            raise ConfigError("n_step must be at least 1")

    def rescale(self, x):
        return h(x, self.rescale_eps) if self.use_rescale else np.asarray(x, dtype=np.float64)

    def rescale_inv(self, y):
        return h_inv(y, self.rescale_eps) if self.use_rescale else np.asarray(y, dtype=np.float64)


class VectorCritic:
    """A trunk network whose final linear row block maps features onto
    one Q-value per reward term.

    The final layer's weight matrix is the term projection: adding a
    reward term appends one output column (a row of the projection in
    math orientation) without touching existing ones.
    """

    def __init__(self, net: nn.Network):
        if net.specs[-1].kind != "linear":
            raise ConfigError("vector critic must end in a linear projection")
        self.net = net

    @property
    def n_terms(self) -> int:
        return self.net.out_dim

    @property
    def feature_dim(self) -> int:
        return self.net.specs[-1].in_dim

    @classmethod
    def build(cls, obs_dim: int, act_dim: int, hidden: int, rng: np.random.Generator, n_terms: int = NUM_TERMS) -> "VectorCritic":
        return cls(nn.build_mlp(obs_dim + act_dim, hidden, n_terms, rng, activation="relu"))

    def forward(self, obs_act: np.ndarray, want_tape: bool = True):
        return nn.forward(self.net, obs_act, want_tape=want_tape)

    def copy(self) -> "VectorCritic":
        return VectorCritic(self.net.copy())


def extend_reward_term(critic: VectorCritic, init_scale: float, rng: np.random.Generator) -> VectorCritic:
    """New critic with one extra Q-head; existing heads are bit-identical."""
    n = critic.n_terms
    new_col = rng.standard_normal((critic.feature_dim, 1)) * init_scale

    def fill(old: np.ndarray, new: np.ndarray) -> None:
        new[..., :n] = old

    out = _rebuild_head(critic, n + 1, fill)
    out.net.blocks[-1].w[:, n:] = new_col
    return out


def remove_reward_term(critic: VectorCritic, index: int) -> VectorCritic:
    """New critic with head ``index`` deleted; the rest are bit-identical."""
    if not 0 <= index < critic.n_terms:
        raise ConfigError(f"no reward term {index} to remove")
    keep = [j for j in range(critic.n_terms) if j != index]

    def fill(old: np.ndarray, new: np.ndarray) -> None:
        new[...] = old[..., keep]

    return _rebuild_head(critic, critic.n_terms - 1, fill)


def _rebuild_head(critic: VectorCritic, n_terms: int, fill) -> VectorCritic:
    """Fresh critic with ``n_terms`` heads.  Every layer below the head keeps
    its parameters and optimizer state; ``fill(old, new)`` copies each head
    field (parameters, gradients, Adam moments) into the new head."""
    net = critic.net
    spec = net.specs[-1]
    specs = [*net.specs[:-1], nn.LayerSpec("linear", spec.in_dim, n_terms)]
    out = nn.Network(specs, nn.arena_blocks(specs))
    old_head, new_head = net.blocks[-1], out.blocks[-1]
    for name in ("params", "grads", "m", "v"):
        getattr(out.arena, name)[: old_head.start] = getattr(net.arena, name)[: old_head.start]
    out.arena.step_count = net.arena.step_count
    for name in ("w", "b", "gw", "gb", "mw", "mb", "vw", "vb"):
        fill(getattr(old_head, name), getattr(new_head, name))
    return VectorCritic(out)


@dataclass
class CriticEnsemble:
    """Twin online critics plus their soft-updated targets."""

    q1: VectorCritic
    q2: VectorCritic
    q1_target: VectorCritic
    q2_target: VectorCritic
    tau: float = 0.005

    @classmethod
    def build(cls, obs_dim: int, act_dim: int, hidden: int, rng: np.random.Generator, tau: float = 0.005, n_terms: int = NUM_TERMS) -> "CriticEnsemble":
        q1 = VectorCritic.build(obs_dim, act_dim, hidden, rng, n_terms)
        q2 = VectorCritic.build(obs_dim, act_dim, hidden, rng, n_terms)
        return cls(q1, q2, q1.copy(), q2.copy(), tau)

    def soft_update(self, tau: float | None = None) -> None:
        t = self.tau if tau is None else tau
        nn.soft_update_net(self.q1_target.net, self.q1.net, t)
        nn.soft_update_net(self.q2_target.net, self.q2.net, t)


def n_step_targets(
    rewards: np.ndarray,
    dones: np.ndarray,
    boot_q: np.ndarray,
    hyper: SacHyper,
) -> np.ndarray:
    """Per-coordinate rescaled n-step targets for every trained position.

    ``rewards``: (B, L + n - 1, n_terms) reward rows including the
    lookahead tail; ``dones``: matching terminal flags; ``boot_q``:
    (B, L, n_terms) bootstrap values at the n-th successor of each
    position (ignored wherever the window hits a terminal).

    y[t] = h( sum_k gamma^k r[t+k]  +  gamma^n h_inv(boot_q[t]) ), with
    the sum truncated at the first terminal inside the window and the
    bootstrap zeroed there.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    boot_q = np.asarray(boot_q, dtype=np.float64)
    if rewards.ndim != 3 or dones.shape != rewards.shape[:2]:
        raise ConfigError("rewards must be (B, L_r, n_terms) with matching dones")
    n, gamma = hyper.n_step, hyper.gamma
    B, L_r, n_terms = rewards.shape
    L = L_r - n + 1
    if L < 1:
        raise ContractViolation(f"segment provides {L_r} reward rows; n_step {n} needs at least {n}")
    if boot_q.shape != (B, L, n_terms):
        raise ConfigError(f"boot_q shape {boot_q.shape} must be ({B}, {L}, {n_terms})")
    G = np.zeros((B, L, n_terms))
    live = np.ones((B, L))
    for k in range(n):
        G += (gamma**k) * rewards[:, k : k + L, :] * live[:, :, None]
        live = live * (1.0 - dones[:, k : k + L])
    return hyper.rescale(G + (gamma**n) * hyper.rescale_inv(boot_q) * live[:, :, None])


@dataclass
class CriticLossResult:
    loss: float
    td_magnitudes: np.ndarray  # (B, L), zero at padded positions
    segment_priorities: np.ndarray  # (B,)
    targets: np.ndarray = field(repr=False, default=None)  # (B, L, n_terms)


def critic_loss(
    batch: SampleBatch,
    ensemble: CriticEnsemble,
    actor_net: nn.Network,
    hyper: SacHyper,
    rng: np.random.Generator | None = None,
    boot_noise: np.ndarray | None = None,
    eta: float = 0.9,
) -> CriticLossResult:
    """Half squared error per twin critic and reward coordinate.

    Per-sample terms are scaled by the batch importance weights and
    averaged over valid (non-padded) positions.  Also returns the
    |weighted-sum| TD magnitude per step and the mixed segment
    priorities for repriorization.  Gradients accumulate into the online
    critics only.

    Faults: a ``NumericFault`` from non-finite targets, importance
    weights, q1's forward or q1's terms of the loss is raised before any
    backward, with every gradient untouched.  One from q2's forward or
    q2's terms is raised after q1's backward has accumulated its (finite)
    gradients; q2's stay untouched.
    """
    B, L, act_dim = batch.actions.shape
    obs_dim = batch.obs.shape[2]
    n = hyper.n_step
    if batch.obs.shape[1] != L + n:
        raise ContractViolation(f"batch tail ({batch.obs.shape[1] - L}) does not match n_step {n}")

    boot_q = _bootstrap_q(batch.obs[:, n : n + L].reshape(B * L, obs_dim), ensemble, actor_net, rng, boot_noise)
    y = n_step_targets(batch.rewards, batch.dones, boot_q.reshape(B, L, -1), hyper)

    valid = (np.arange(L)[None, :] < batch.lengths[:, None]).astype(np.float64)
    n_valid = valid.sum()
    w_bt = batch.weights[:, None] * valid  # (B, L)
    scale = (w_bt / n_valid)[:, :, None]

    online_in = np.concatenate([batch.obs[:, :L].reshape(B * L, obs_dim), batch.actions.reshape(B * L, act_dim)], axis=1)
    q1, tape1 = nn.forward(ensemble.q1.net, online_in)
    d1 = q1.reshape(B, L, -1) - y
    if not np.isfinite(0.5 * ((d1 * d1) * w_bt[:, :, None]).sum() / n_valid):  # q1's half, before any backward
        raise NumericFault(f"non-finite critic loss; offending batch ids {batch.ids}")
    nn.backward(ensemble.q1.net, tape1, (d1 * scale).reshape(B * L, -1), want_input_grad=False)

    q2, tape2 = nn.forward(ensemble.q2.net, online_in)
    del online_in  # q2's tape holds it until its backward is done with it
    d2 = q2.reshape(B, L, -1) - y
    loss = float(0.5 * ((d1 * d1 + d2 * d2) * w_bt[:, :, None]).sum() / n_valid)
    if not np.isfinite(loss):
        raise NumericFault(f"non-finite critic loss; offending batch ids {batch.ids}")
    nn.backward(ensemble.q2.net, tape2, (d2 * scale).reshape(B * L, -1), want_input_grad=False)

    td = np.abs(((d1 + d2) * 0.5) @ hyper.weights) * valid
    prios = np.array(
        [segment_priority(td[b, : batch.lengths[b]], eta) for b in range(B)]
    )
    return CriticLossResult(loss, td, prios, y)


def _bootstrap_q(
    boot_obs: np.ndarray,
    ensemble: CriticEnsemble,
    actor_net: nn.Network,
    rng: np.random.Generator | None,
    boot_noise: np.ndarray | None,
) -> np.ndarray:
    """min(Q1', Q2')(s, a*) with a* ~ pi(. | s) from the current policy, one
    row per row of ``boot_obs``; its temporaries die on return."""
    out, _ = nn.forward(actor_net, boot_obs, want_tape=False)
    head, _ = policy.head_from_output(out)
    if boot_noise is None:
        if rng is None:
            raise ConfigError("critic_loss needs an rng or explicit bootstrap noise")
        boot_noise = rng.standard_normal(head.mu.shape)
    a_boot = policy.sample(head, boot_noise).action
    target_in = np.concatenate([boot_obs, a_boot], axis=1)
    q1t, _ = nn.forward(ensemble.q1_target.net, target_in, want_tape=False)
    q2t, _ = nn.forward(ensemble.q2_target.net, target_in, want_tape=False)
    return np.minimum(q1t, q2t)


def actor_loss(
    obs_rows: np.ndarray,
    ensemble: CriticEnsemble,
    actor_net: nn.Network,
    alpha: float,
    hyper: SacHyper,
    rng: np.random.Generator | None = None,
    noise: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """mean( alpha * log pi(a|s) - sum_i w_i min(Q1_i, Q2_i)(s, a) ).

    Actions are reparameterized draws from the current policy; the
    gradient flows through them into both terms and accumulates into the
    actor network only.  Returns the loss and the per-row log
    probabilities (for temperature tuning).
    """
    obs_rows = np.asarray(obs_rows, dtype=np.float64)
    M = obs_rows.shape[0]
    out, tape_a = nn.forward(actor_net, obs_rows)
    head, clamp_mask = policy.head_from_output(out)
    if noise is None:
        if rng is None:
            raise ConfigError("actor_loss needs an rng or explicit noise")
        noise = rng.standard_normal(head.mu.shape)
    sampled = policy.sample(head, noise)

    crit_in = np.concatenate([obs_rows, sampled.action], axis=1)
    q1, tape1 = nn.forward(ensemble.q1.net, crit_in, want_tape="input_grad")
    q2, tape2 = nn.forward(ensemble.q2.net, crit_in, want_tape="input_grad")
    del crit_in  # input_grad tapes keep no linear inputs
    take1 = q1 <= q2  # per-coordinate twin minimum (subgradient routes to the smaller)
    q_min = np.where(take1, q1, q2)
    q_term = q_min @ hyper.weights

    loss = float((alpha * sampled.log_prob - q_term).mean())
    if not np.isfinite(loss):
        raise NumericFault("non-finite actor loss")

    # d loss / d q_min_i = -w_i / M, routed to whichever twin won the min
    gq = (-hyper.weights[None, :] / M) * np.ones((M, 1))
    g1 = np.where(take1, gq, 0.0)
    g2 = np.where(take1, 0.0, gq)
    # only the action columns of the input gradients are needed; one full
    # gradient is alive at a time
    obs_cols = obs_rows.shape[1]
    da = nn.backward(ensemble.q1.net, tape1, g1, accumulate=False)[:, obs_cols:].copy()
    da += nn.backward(ensemble.q2.net, tape2, g2, accumulate=False)[:, obs_cols:]

    dlp_dmu, dlp_dls, da_dmu, da_dls = policy.sample_grads(head, sampled, noise, clamp_mask)
    coef_lp = alpha / M
    dmu2 = coef_lp * dlp_dmu + da * da_dmu
    dls2 = coef_lp * dlp_dls + da * da_dls
    nn.backward(actor_net, tape_a, np.concatenate([dmu2, dls2], axis=1), want_input_grad=False)
    return loss, sampled.log_prob


def temperature_loss(log_probs: np.ndarray, log_alpha: float, target_entropy: float) -> tuple[float, float]:
    """J(alpha) = mean(-alpha log pi - alpha * target_entropy).

    Returns the loss and its derivative w.r.t. log(alpha); gradient
    descent raises alpha while the policy entropy sits below the target.
    """
    alpha = float(np.exp(log_alpha))
    c = float(np.mean(log_probs) + target_entropy)
    loss = -alpha * c
    return loss, -alpha * c


@dataclass
class ScalarAdam:
    """Adam state for a single scalar (the log-temperature)."""

    value: float
    m: float = 0.0
    v: float = 0.0
    t: int = 0

    def step(self, grad: float, lr: float, beta1: float = nn.ADAM_BETA1, beta2: float = nn.ADAM_BETA2, eps: float = nn.ADAM_EPS) -> None:
        if not np.isfinite(grad):
            raise NumericFault("non-finite gradient for scalar parameter")
        self.t += 1
        self.m = beta1 * self.m + (1 - beta1) * grad
        self.v = beta2 * self.v + (1 - beta2) * grad * grad
        mhat = self.m / (1 - beta1**self.t)
        vhat = self.v / (1 - beta2**self.t)
        self.value -= lr * mhat / (np.sqrt(vhat) + eps)

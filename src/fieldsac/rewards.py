"""Reward vocabulary: the seven shaping terms, their weights, and the
windowed environment reward.

A reward is one (NUM_TERMS,) float64 array in ``TERM_NAMES`` order,
indexed by the ``R_*`` constants, from the env through replay to the
critic heads.  Every term is emitted per control step; episode-level
sums arise from discounted accumulation in the learner.  ``r_clp``, the
crossing-legs penalty of a legged body, is always 0 on the point mass;
it keeps its coordinate, weight and critic head so that every
checkpoint carries the same seven terms.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

# Coordinate order of the reward vector.
R_ENV, R_CLP, R_VDP, R_PVB, R_DEP, R_TAB, R_ENTROPY = range(7)
NUM_TERMS = 7
TERM_NAMES = ("r_env", "r_clp", "r_vdp", "r_pvb", "r_dep", "r_tab", "r_entropy")

# Stage weight vectors over (r_env, r_clp, r_vdp, r_pvb, r_dep, r_tab, r_entropy).
PRETRAIN_WEIGHTS = (1.0, 10.0, 0.0, 1.0, 1.0, 0.0, 1.0)
FINETUNE_WEIGHTS = (1.0, 10.0, 1.0, 1.0, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class EnvRewardConfig:
    """Structure of the windowed environment reward.

    ``window`` control steps of ``dt`` seconds form one step event: the
    event credits w_step * (window duration) and debits the accumulated
    velocity-deviation and squared-effort integrals.
    """

    r_alive: float = 0.1
    w_step: float = 1.0
    w_vel: float = 1.0
    w_eff: float = 1.0
    window: int = 10
    dt: float = 0.1

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError("window must be at least one control step")


def velocity_deviation_penalty(v_body, v_tgt) -> float:
    """-|v_body - v_tgt| for one control step."""
    return -float(np.linalg.norm(np.asarray(v_body, dtype=np.float64) - np.asarray(v_tgt, dtype=np.float64)))


def pelvis_velocity_bonus(v_body, v_tgt, directional: bool = False) -> float:
    """|v_body|, or cos(theta) * |v_body| against the target direction.

    cos(theta) is defined as 0 when either vector has zero norm.
    """
    v_body = np.asarray(v_body, dtype=np.float64)
    speed = float(np.linalg.norm(v_body))
    if not directional:
        return speed
    v_tgt = np.asarray(v_tgt, dtype=np.float64)
    tgt_norm = float(np.linalg.norm(v_tgt))
    if speed == 0.0 or tgt_norm == 0.0:
        return 0.0
    cos_theta = float(np.dot(v_body, v_tgt)) / (speed * tgt_norm)
    return cos_theta * speed


def dense_effort_penalty(action) -> float:
    """-|action|."""
    return -float(np.linalg.norm(np.asarray(action, dtype=np.float64)))


def target_achieve_bonus(v_tgt_local) -> float:
    """Piecewise bonus for standing where the target field vanishes.

    0 above 0.7 m/s, 0.1 on (0.5, 0.7], and 1 - 3.5 |v|^2 at or below
    0.5 m/s.
    """
    m = float(np.linalg.norm(np.asarray(v_tgt_local, dtype=np.float64)))
    if m > 0.7:
        return 0.0
    if m > 0.5:
        return 0.1
    return 1.0 - 3.5 * m * m


def env_reward(cfg: EnvRewardConfig, v_body, v_tgt, actions) -> float:
    """One window's worth of environment reward.

    ``v_body``, ``v_tgt`` and ``actions`` are (window, 2) arrays of the
    per-step body velocity, local target velocity, and applied action.
    """
    v_body = np.asarray(v_body, dtype=np.float64)
    v_tgt = np.asarray(v_tgt, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if v_body.shape[0] != cfg.window or v_tgt.shape[0] != cfg.window or actions.shape[0] != cfg.window:
        raise ConfigError(f"window data must have exactly {cfg.window} rows")
    r_step = cfg.window * cfg.dt
    c_vel = float(np.linalg.norm(v_body - v_tgt, axis=1).sum()) * cfg.dt
    c_eff = float((actions * actions).sum()) * cfg.dt
    return cfg.r_alive * cfg.window + cfg.w_step * r_step - cfg.w_vel * c_vel - cfg.w_eff * c_eff


def env_reward_partial(cfg: EnvRewardConfig, v_body, v_tgt, actions) -> float:
    """As env_reward but for a truncated window (episode ended mid-window)."""
    k = np.asarray(v_body).shape[0]
    return env_reward(replace(cfg, window=k), v_body, v_tgt, actions)


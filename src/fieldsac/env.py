"""Seedable point-mass environment with a sink-based target velocity field.

The world is a 2-D plane.  A single sink attracts the target velocity
field: at position x the field points toward the sink with magnitude
min(v_max, ramp * distance), vanishing exactly at the sink.  The agent is
a damped point mass driven by accelerations in (-1, 1)^2.

Observations come in two widths: a 6-real proprioceptive vector (scaled
position, velocity, previous action) and the 248-real variant that
appends the flattened 2x11x11 local field grid sampled every 0.5 m
around the agent.  Both are pure functions of a 10-real env state row
(position, velocity, previous action, sink, v_max, ramp).  That row is
the env's whole physical state, and every ``StepResult`` carries a copy
of it as ``state``.  ``observe`` turns a batch of state rows into either
width, so an observation rebuilt from a stored state is byte-equal to
one built at the step.  Samplers store state rows in replay for that
reason.

A step result's ``reward`` is one (7,) float64 vector in
``rewards.TERM_NAMES`` order.  The env fills every term but
``r_entropy``, which the sampler writes because it knows the policy.

One instance is single-threaded; run one environment per sampler.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, NumericFault
from .rewards import NUM_TERMS, R_DEP, R_ENV, R_PVB, R_TAB, R_VDP, EnvRewardConfig, dense_effort_penalty, env_reward
from .rewards import env_reward_partial, pelvis_velocity_bonus, target_achieve_bonus, velocity_deviation_penalty

DT = 0.1
ACCEL_GAIN = 2.0
DRAG = 0.5
HORIZON = 1000
ARENA_RADIUS = 20.0

GRID_N = 11
GRID_SPACING = 0.5
GRID_HALF = GRID_N // 2
FIELD_DIM = 2 * GRID_N * GRID_N  # 242
OBS_TEACHER_DIM = 6
OBS_STUDENT_DIM = OBS_TEACHER_DIM + FIELD_DIM  # 248
# p (2), v (2), previous action (2), sink (2), v_max, ramp
STATE_DIM = 10
ACT_DIM = 2  # an acceleration along each axis
OBS_MODES = ("teacher", "student")

# Scale applied to the position entries of the observation so every
# observation coordinate stays O(1) inside the arena.
POS_OBS_SCALE = 0.1

DIFFICULTIES = (0, 1, 2, 3)

# Consecutive low-field steps on difficulty 3 before the sink respawns.
RESPAWN_HOLD_STEPS = 30


@dataclass(frozen=True)
class TargetField:
    """Sink position plus the magnitude law of the velocity field."""

    sink: np.ndarray
    v_max: float
    ramp: float

    def __post_init__(self):
        sink = np.asarray(self.sink, dtype=np.float64)
        if sink.shape != (2,) or self.v_max <= 0.0 or self.ramp <= 0.0:
            raise ConfigError("TargetField needs a 2-D sink and positive v_max/ramp")
        object.__setattr__(self, "sink", sink)


def field_at(fld: TargetField, x) -> np.ndarray:
    """Target velocity at position x: toward the sink, ramped magnitude."""
    d = fld.sink - np.asarray(x, dtype=np.float64)
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        return np.zeros(2)
    return d * (min(fld.v_max, fld.ramp * dist) / dist)


def observe(states, mode: str) -> np.ndarray:
    """Teacher (N, 6) or student (N, 248) observation rows of (N, 10) env
    state rows: position, velocity, previous action, sink, v_max, ramp."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != STATE_DIM:
        raise ConfigError(f"env state rows must have shape (N, {STATE_DIM}), not {states.shape}")
    if mode not in OBS_MODES:
        raise ConfigError(f"observation mode must be one of {OBS_MODES}, not {mode!r}")
    n = len(states)
    out = np.empty((n, OBS_TEACHER_DIM if mode == "teacher" else OBS_STUDENT_DIM))
    np.multiply(POS_OBS_SCALE, states[:, 0:2], out=out[:, 0:2])
    out[:, 2:OBS_TEACHER_DIM] = states[:, 2:6]
    if mode == "student":
        _grid_into(states, out[:, OBS_TEACHER_DIM:].reshape(n, 2, GRID_N, GRID_N))
    return out


def _grid_into(states: np.ndarray, out: np.ndarray) -> None:
    """Write each state's 2 x 11 x 11 field grid into ``out`` (N, 2, 11, 11).

    Cell (i, j) samples the field at p + ((i - 5) * 0.5, (j - 5) * 0.5):
    toward the sink with magnitude min(v_max, ramp * dist), zero where
    dist == 0.  Only two (N, 11, 11) temporaries are alive at once.
    """
    offs = (np.arange(GRID_N) - GRID_HALF) * GRID_SPACING
    col = states[:, :, None, None]  # (N, 10, 1, 1): column k broadcasts over the grid
    dx = col[:, 6] - (col[:, 0] + offs[None, :, None])  # (N, 11, 1)
    dy = col[:, 7] - (col[:, 1] + offs[None, None, :])  # (N, 1, 11)
    dist = dx * dx + dy * dy
    np.sqrt(dist, out=dist)
    scale = col[:, 9] * dist
    np.minimum(col[:, 8], scale, out=scale)
    at_sink = dist == 0.0
    dist[at_sink] = 1.0
    scale /= dist
    del dist
    for c, d in enumerate((dx, dy)):
        np.multiply(d, scale, out=out[:, c])
        out[:, c][at_sink] = 0.0


def local_grid(fld: TargetField, p) -> np.ndarray:
    """2 x 11 x 11 field samples on a 0.5 m grid centered on ``p``.

    values[c][i][j] is component c of the field at
    p + ((i - 5) * 0.5, (j - 5) * 0.5); the center cell equals field_at(p).
    The one-row case of ``observe``.
    """
    state = np.concatenate([np.asarray(p, dtype=np.float64), np.zeros(4), fld.sink, (fld.v_max, fld.ramp)])
    return observe(state[None], "student")[0, OBS_TEACHER_DIM:].reshape(2, GRID_N, GRID_N)


@dataclass
class StepResult:
    reward: np.ndarray  # (NUM_TERMS,) float64 terms in ``rewards.TERM_NAMES`` order
    done: bool
    state: np.ndarray  # the caller's copy of the env's (STATE_DIM,) row


def _sample_field(rng: np.random.Generator, difficulty: int, origin: np.ndarray) -> TargetField:
    if difficulty == 0:
        return TargetField(origin + np.array([5.0, 0.0]), v_max=1.4, ramp=0.7)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    dist = 5.0 if difficulty == 1 else rng.uniform(3.0, 8.0)
    v_max = rng.uniform(1.0, 1.8)
    ramp = rng.uniform(0.5, 1.0)
    sink = origin + dist * np.array([np.cos(angle), np.sin(angle)])
    return TargetField(sink, v_max=v_max, ramp=ramp)


class PointMassEnv:
    """Deterministic, seedable point mass under a target velocity field.

    Dynamics (semi-implicit Euler, dt = 0.1 s):
        v <- v + dt * (ACCEL_GAIN * action - DRAG * v)
        p <- p + dt * v
    An episode ends at the horizon or when the agent leaves the arena.
    ``state`` is the env's state row, ``t`` the episode's step count and
    ``clamp_count`` how many of its actions were clipped into [-1, 1].
    ``record_dir``, when set, dumps one CSV per episode for offline plots:
    the step index, position, velocity, action and the seven reward terms
    as plain decimal numbers, then the done flag.
    """

    def __init__(
        self,
        reward_cfg: EnvRewardConfig | None = None,
        directional_pvb: bool = False,
        horizon: int = HORIZON,
        arena_radius: float = ARENA_RADIUS,
        record_dir: str | None = None,
    ):
        self.reward_cfg = reward_cfg or EnvRewardConfig()
        self.directional_pvb = directional_pvb
        self.horizon = horizon
        self.arena_radius = arena_radius
        self.record_dir = record_dir
        self.state: np.ndarray | None = None  # (STATE_DIM,) row, written in place by each step
        self.field: TargetField | None = None
        self.t = 0
        self.episode_id = 0
        self.clamp_count = 0
        self._done = True
        self._rng: np.random.Generator | None = None
        self._difficulty = 0
        self._window_rows: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._low_field_streak = 0
        self._respawned = False
        self._record_rows: list[str] | None = None

    def reset(self, seed: int, difficulty: int = 0) -> StepResult:
        if difficulty not in DIFFICULTIES:
            raise ConfigError(f"unknown difficulty {difficulty}")
        self._flush_record()
        self._rng = np.random.default_rng(seed)
        self._difficulty = difficulty
        self.state = np.zeros(STATE_DIM)
        self._set_field(_sample_field(self._rng, difficulty, np.zeros(2)))
        self.t = 0
        self.episode_id = seed
        self.clamp_count = 0
        self._done = False
        self._window_rows = []
        self._low_field_streak = 0
        self._respawned = False
        if self.record_dir is not None:
            try:
                os.makedirs(self.record_dir, exist_ok=True)
            except OSError as e:
                raise ConfigError(f"cannot create record directory {self.record_dir!r}: {e.strerror}") from None
            self._record_rows = ["t,px,py,vx,vy,ax,ay," + ",".join(f"r{i}" for i in range(NUM_TERMS)) + ",done"]
        return StepResult(np.zeros(NUM_TERMS), False, self.state.copy())

    @property
    def done(self) -> bool:
        return self._done

    def step(self, action) -> StepResult:
        if self._done:
            raise ContractViolation("step called on a finished episode; call reset first")
        a = np.asarray(action, dtype=np.float64).reshape(ACT_DIM)
        if np.abs(a).max() > 1.0:
            self.clamp_count += 1
            a = np.clip(a, -1.0, 1.0)

        row = self.state
        p, v = row[0:2], row[2:4]
        v += DT * (ACCEL_GAIN * a - DRAG * v)
        p += DT * v
        row[4:6] = a
        self.t += 1
        if not np.isfinite(row[0:4]).all():
            self._done = True
            raise NumericFault(f"non-finite state at step {self.t} of episode {self.episode_id}")

        v_tgt = field_at(self.field, p)
        self._window_rows.append((v.copy(), v_tgt, a.copy()))

        out_of_arena = float(np.linalg.norm(p)) > self.arena_radius
        done = self.t >= self.horizon or out_of_arena
        self._done = done

        r_env = 0.0
        if len(self._window_rows) == self.reward_cfg.window:
            vb, vt, ac = (np.stack(cols) for cols in zip(*self._window_rows))
            r_env = env_reward(self.reward_cfg, vb, vt, ac)
            self._window_rows = []
        elif done and self._window_rows:
            vb, vt, ac = (np.stack(cols) for cols in zip(*self._window_rows))
            r_env = env_reward_partial(self.reward_cfg, vb, vt, ac)
            self._window_rows = []

        # r_clp stays 0 (the point mass has no legs); the sampler, which
        # knows the policy, writes r_entropy
        reward = np.zeros(NUM_TERMS)
        reward[R_ENV] = r_env
        reward[R_VDP] = velocity_deviation_penalty(v, v_tgt)
        reward[R_PVB] = pelvis_velocity_bonus(v, v_tgt, directional=self.directional_pvb)
        reward[R_DEP] = dense_effort_penalty(a)
        reward[R_TAB] = target_achieve_bonus(v_tgt)

        if self._difficulty == 3 and not self._respawned:
            if float(np.linalg.norm(v_tgt)) <= 0.5:
                self._low_field_streak += 1
            else:
                self._low_field_streak = 0
            if self._low_field_streak >= RESPAWN_HOLD_STEPS:
                self._set_field(_sample_field(self._rng, 2, p))
                self._respawned = True
                self._low_field_streak = 0

        if self._record_rows is not None:
            cells = (*row[0:6], *reward)
            self._record_rows.append(f"{self.t}," + ",".join(repr(float(x)) for x in cells) + f",{int(done)}")
            if done:
                self._flush_record()
        return StepResult(reward, done, row.copy())

    def _set_field(self, fld: TargetField) -> None:
        """Make ``fld`` the env's field and write it into the state row."""
        self.field = fld
        self.state[6:8] = fld.sink
        self.state[8:10] = fld.v_max, fld.ramp

    def _flush_record(self) -> None:
        if self._record_rows is not None and len(self._record_rows) > 1:
            path = os.path.join(self.record_dir, f"episode_{self.episode_id}.csv")
            with open(path, "w") as f:
                f.write("\n".join(self._record_rows) + "\n")
        self._record_rows = None

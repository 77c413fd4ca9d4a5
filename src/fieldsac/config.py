"""Training configuration: a flat record parsed from `key = value` text
files, with every key overridable from the command line.

The curriculum stage pins the reward weighting: pretraining uses the
field-blind weights with the environment's velocity cost disabled and
the plain speed bonus; finetuning turns every term on and makes the
speed bonus directional.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .replay import SEG_LEN, SEG_STRIDE
from .rewards import FINETUNE_WEIGHTS, PRETRAIN_WEIGHTS

STAGES = ("pretrain", "finetune")


@dataclass
class TrainConfig:
    stage: str = "pretrain"
    seed: int = 1
    difficulty: int = 0
    num_samplers: int = 4
    hidden: int = 64
    batch: int = 256
    replay_ratio: float = 16.0
    publish_every: int = 100
    gamma: float = 0.99
    n_step: int = 5
    lr_actor: float = 3e-4
    lr_critic: float = 1e-3
    lr_alpha: float = 3e-4
    init_alpha: float = 0.2
    target_entropy: float = -2.0
    tau: float = 0.005
    rescale_eps: float = 1e-3
    use_rescale: bool = True
    capacity: int = 250_000
    eta: float = 0.9
    anneal_start: float = 0.1
    anneal_end: float = 0.9
    anneal_steps: int = 3000
    eval_episodes: int = 5
    total_env_steps: int = 500_000
    epoch_env_steps: int = 10_000
    min_store_segments: int = 0  # 0 means "one batch"
    env_w_vel: float = 1.0
    horizon: int = 1000
    single_thread: bool = False  # selects nothing: every run interleaves samplers and learner in one loop
    stop_at_eval_speed: float = 0.0  # 0 disables early stopping
    stop_at_sink_fraction: float = 0.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.stage not in STAGES:
            raise ConfigError(f"stage must be one of {STAGES}, not {self.stage!r}")
        if self.difficulty not in (0, 1, 2, 3):
            raise ConfigError(f"difficulty must be 0..3, not {self.difficulty}")
        for key in ("num_samplers", "hidden", "batch", "publish_every", "n_step", "capacity", "horizon", "total_env_steps", "epoch_env_steps"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive")
        if self.horizon < SEG_LEN // 2:
            raise ConfigError(
                f"horizon ({self.horizon}) is below {SEG_LEN // 2}: an episode needs at least SEG_LEN // 2 steps "
                "to cut a replay segment, so the learner would never run"
            )
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie in (0, 1)")
        if self.replay_ratio <= 0.0:
            raise ConfigError("replay_ratio must be positive")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1], not {self.tau}")
        for key in ("eta", "anneal_start", "anneal_end"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1], not {getattr(self, key)}")
        for key in ("lr_actor", "lr_critic", "lr_alpha", "init_alpha", "rescale_eps"):
            if not getattr(self, key) > 0.0:
                raise ConfigError(f"{key} must be positive, not {getattr(self, key)}")
        if self.anneal_steps < 1:
            raise ConfigError(f"anneal_steps must be at least 1, not {self.anneal_steps}")
        if 0 < self.min_store_segments < self.batch:
            raise ConfigError(
                f"min_store_segments ({self.min_store_segments}) is below batch ({self.batch}): the learner could not "
                "sample its first batch; use 0 to wait for one batch"
            )
        if self.capacity < self.min_segments_to_learn:
            raise ConfigError(
                f"capacity ({self.capacity}) is below the {self.min_segments_to_learn} segments learning waits for "
                "(min_store_segments, or batch when that is 0), so the learner would never run"
            )
        # a sampler-cut replay record holds 195 + 18 * n_step floats (the
        # record layout in ``replay``), and the store fills all ``capacity`` slots
        replay_bytes = self.capacity * (195 + 18 * self.n_step) * 8
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if replay_bytes > memory:
            raise ConfigError(
                f"capacity ({self.capacity}) needs {replay_bytes / 1e9:.1f} GB of replay records at n_step "
                f"{self.n_step}, more than this machine's {memory / 1e9:.1f} GB of physical memory"
            )
        # an episode of T steps cuts at most T // SEG_STRIDE segments, and the
        # samplers overshoot the budget by at most num_samplers - 1 steps
        most_segments = (self.total_env_steps + self.num_samplers - 1) // SEG_STRIDE
        if most_segments < self.min_segments_to_learn:
            raise ConfigError(
                f"total_env_steps ({self.total_env_steps}) cuts at most {most_segments} segments, fewer than the "
                f"min_segments_to_learn ({self.min_segments_to_learn}: min_store_segments, or batch when that is 0) "
                "that learning waits for, so the learner would never run"
            )

    # -- stage-derived settings (not user-settable) -------------------------

    @property
    def weights(self) -> np.ndarray:
        return np.array(PRETRAIN_WEIGHTS if self.stage == "pretrain" else FINETUNE_WEIGHTS)

    @property
    def directional_pvb(self) -> bool:
        return self.stage == "finetune"

    @property
    def effective_env_w_vel(self) -> float:
        return 0.0 if self.stage == "pretrain" else self.env_w_vel

    @property
    def obs_mode(self) -> str:
        """Which observation the policy consumes: the pretrain teacher is
        field-blind, the finetune student sees the local field grid."""
        return "teacher" if self.stage == "pretrain" else "student"

    @property
    def min_segments_to_learn(self) -> int:
        return self.min_store_segments if self.min_store_segments > 0 else self.batch


_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _coerce(key: str, raw: str):
    f = _FIELDS[key]
    raw = raw.strip()
    if f.type in ("bool", bool):
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r} expects a boolean, got {raw!r}")
    try:
        if f.type in ("int", int):
            return int(raw)
        if f.type in ("float", float):
            return float(raw)
    except ValueError as e:
        raise ConfigError(f"config key {key!r}: {e}") from e
    return raw


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not 'key = value': {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def load_config(path: str | None = None, overrides: dict | None = None) -> TrainConfig:
    """Build a TrainConfig from an optional file plus override strings."""
    values: dict = {}
    if path is not None:
        try:
            with open(path) as f:
                values.update(parse_config_text(f.read()))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path} (expected a 'key = value' text file)")
    for key, raw in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, raw) if isinstance(raw, str) else raw
    return TrainConfig(**values)


def config_to_text(cfg: TrainConfig) -> str:
    lines = []
    for f in dataclasses.fields(TrainConfig):
        v = getattr(cfg, f.name)
        lines.append(f"{f.name} = {v!r}" if isinstance(v, float) else f"{f.name} = {v}")
    return "\n".join(lines) + "\n"

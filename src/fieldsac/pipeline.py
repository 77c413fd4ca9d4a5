"""Sampler/learner pipeline, evaluation, checkpoints and metrics.

Several samplers roll episodes on private environment copies and append
prioritized segments to the store; a single learner samples batches,
applies the actor/critic/temperature updates, repriorizes, and
periodically publishes an immutable policy snapshot that the samplers
pick up.  Samplers cut segments from the env's 10-real state rows, so
``Segment.obs`` and ``SampleBatch.obs`` hold state rows; ``critic_loss``
rebuilds each batch's observations with ``env.observe`` and drops them
once its network inputs are built, and distillation rebuilds the
teacher observations of the stored rows the same way.  One loop
interleaves samplers and learner: every sampler takes one step, then the
learner steps while it is under the throttle
    learner_steps <= replay_ratio * segments_appended / num_samplers.

Seeds: sampler i rolls episode k with seed
    seed * 10_000_000 + (i + 1) * 1_000_000 + k
and evaluation episode j uses seed * 10_000_000 + 999_000_000 + j, so a
run is fully reproducible from (seed, num_samplers): two runs with the
same config write bit-identical checkpoints.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import artifacts, distill, nn, policy, sac
from .config import STAGES, TrainConfig, config_to_text
from .env import ACT_DIM, FIELD_DIM, OBS_STUDENT_DIM, OBS_TEACHER_DIM, STATE_DIM, PointMassEnv, StepResult, TargetField, field_at, observe
from .errors import ConfigError, FieldsacError, NumericFault
from .replay import AnnealSchedule, PrioritizedStore, SegmentCutter
from .rewards import R_ENTROPY, EnvRewardConfig, TERM_NAMES
from .sac import CriticEnsemble, SacHyper, VectorCritic

SINK_REACH_RADIUS = 0.5


def obs_dim_for_stage(stage: str) -> int:
    return OBS_TEACHER_DIM if stage == "pretrain" else OBS_STUDENT_DIM


# ---------------------------------------------------------------------------
# Policy snapshots


@dataclass(frozen=True)
class PolicySnapshot:
    version: int
    actor: nn.Network  # read-only, params-only copy
    alpha: float


class PolicySnapshotHub:
    """Publish/fetch of read-only policy copies; versions only grow."""

    def __init__(self):
        self._snap: PolicySnapshot | None = None

    def publish(self, actor: nn.Network, alpha: float) -> int:
        version = self.version + 1
        self._snap = PolicySnapshot(version, actor.params_copy(read_only=True), float(alpha))
        return version

    def current(self) -> PolicySnapshot:
        if self._snap is None:
            raise ConfigError("no policy snapshot published yet")
        return self._snap

    @property
    def version(self) -> int:
        return self._snap.version if self._snap else 0


# ---------------------------------------------------------------------------
# Sampler


class Sampler:
    """Owns one environment; streams prioritized segments into the store."""

    def __init__(self, sid: int, cfg: TrainConfig, store: PrioritizedStore, hub: PolicySnapshotHub):
        self.sid = sid
        self.cfg = cfg
        self.store = store
        self.hub = hub
        self.env = PointMassEnv(
            reward_cfg=EnvRewardConfig(w_vel=cfg.effective_env_w_vel),
            directional_pvb=cfg.directional_pvb,
            horizon=cfg.horizon,
        )
        self.rng = np.random.default_rng(cfg.seed * 7919 + 13 * (sid + 1))
        self.episode_index = 0
        self.env_steps = 0
        self.segments_emitted = 0
        self.env_faults = 0
        self.snapshot = hub.current()
        self._cutter: SegmentCutter | None = None
        self._last_obs: np.ndarray | None = None  # (1, obs dim): the actor's next input row

    def _episode_seed(self) -> int:
        return self.cfg.seed * 10_000_000 + (self.sid + 1) * 1_000_000 + self.episode_index

    def _begin_episode(self) -> None:
        seed = self._episode_seed()
        sr = self.env.reset(seed, self.cfg.difficulty)
        self._cutter = SegmentCutter(STATE_DIM, ACT_DIM, episode_id=seed, n_tail=self.cfg.n_step)
        self._last_obs = observe(sr.state[None], self.cfg.obs_mode)
        self._cutter.begin(sr.state)

    def tick(self) -> int:
        """Advance one environment step; returns segments appended."""
        try:
            if self.env.done or self._cutter is None:
                self.episode_index += 1
                self._begin_episode()
            if self.hub.version != self.snapshot.version:
                new = self.hub.current()
                assert new.version >= self.snapshot.version
                self.snapshot = new
            out, _ = nn.forward(self.snapshot.actor, self._last_obs, want_tape=False)
            head, _ = policy.head_from_output(out)
            sampled = policy.sample(head, self.rng.standard_normal(head.mu.shape))
            action = sampled.action[0]
            sr = self.env.step(action)
            self.env_steps += 1
            sr.reward[R_ENTROPY] = policy.entropy_bonus(sampled, self.snapshot.alpha)[0]
            segments = self._cutter.push(action, sr.reward, sr.done, sr.state)
            self._last_obs = observe(sr.state[None], self.cfg.obs_mode)
            for seg in segments:
                self.store.append(seg, priority=self.store.max_priority())
        except FieldsacError:
            # discard the broken episode; the next tick restarts with a
            # fresh seed derived from the master seed
            self.env_faults += 1
            self._cutter = None
            self.env._done = True
            return 0
        self.segments_emitted += len(segments)
        return len(segments)


# ---------------------------------------------------------------------------
# Learner


class Learner:
    """Owns every mutable parameter; ``step`` is one full SAC update."""

    def __init__(
        self,
        cfg: TrainConfig,
        store: PrioritizedStore,
        hub: PolicySnapshotHub,
        actor: nn.Network,
        ensemble: CriticEnsemble,
    ):
        self.cfg = cfg
        self.store = store
        self.hub = hub
        self.actor = actor
        self.ensemble = ensemble
        self.log_alpha = sac.log_alpha_arena(np.log(cfg.init_alpha))
        self.hyper = SacHyper(
            weights=cfg.weights,
            gamma=cfg.gamma,
            n_step=cfg.n_step,
            rescale_eps=cfg.rescale_eps,
            use_rescale=cfg.use_rescale,
        )
        self.anneal = AnnealSchedule(cfg.anneal_start, cfg.anneal_end, cfg.anneal_steps)
        self.rng = np.random.default_rng(cfg.seed * 104729 + 7)
        self.steps = 0
        self.last_critic_loss = float("nan")
        self.last_actor_loss = float("nan")
        self.last_alpha_loss = float("nan")
        self.max_throttle_excess = -float("inf")
        hub.publish(self.actor, self.alpha)

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha.params[0]))

    def allowed_steps(self, segments_appended: int) -> int:
        return int(self.cfg.replay_ratio * segments_appended / self.cfg.num_samplers)

    def throttle_ok(self) -> bool:
        return self.steps < self.allowed_steps(self.store.appended_total)

    def step(self) -> None:
        t = self.steps
        exp = self.anneal.value(t)
        self.store.set_exponents(exp, exp)
        batch = self.store.sample(self.cfg.batch, self.rng)  # env state rows; critic_loss observes them
        res = sac.critic_loss(
            batch, self.ensemble, self.actor, self.hyper, rng=self.rng, eta=self.cfg.eta, observe=partial(observe, mode=self.cfg.obs_mode)
        )
        nn.adam_step_net(self.ensemble.q1.net, self.cfg.lr_critic)
        nn.adam_step_net(self.ensemble.q2.net, self.cfg.lr_critic)

        aloss, log_probs = sac.actor_loss(res.obs_rows, self.ensemble, self.actor, self.alpha, self.hyper, rng=self.rng)
        nn.adam_step_net(self.actor, self.cfg.lr_actor)

        tloss, tgrad = sac.temperature_loss(log_probs, self.log_alpha.params[0], self.cfg.target_entropy)
        self.log_alpha.grads[0] = tgrad
        nn.adam_step(self.log_alpha, self.cfg.lr_alpha)

        self.ensemble.soft_update(self.cfg.tau)
        self.store.update_priorities(batch.ids, res.segment_priorities)

        self.steps += 1
        self.last_critic_loss = res.loss
        self.last_actor_loss = aloss
        self.last_alpha_loss = tloss
        excess = self.steps - self.cfg.replay_ratio * self.store.appended_total / self.cfg.num_samplers
        self.max_throttle_excess = max(self.max_throttle_excess, excess)
        if self.steps % self.cfg.publish_every == 0:
            self.hub.publish(self.actor, self.alpha)


# ---------------------------------------------------------------------------
# Checkpoints


_CKPT_NETS = ("actor", "q1", "q2", "q1_target", "q2_target")
_CKPT_FORMAT = "fieldsac-checkpoint-v1"


@dataclass
class CheckpointBundle:
    actor: nn.Network
    ensemble: CriticEnsemble
    log_alpha: nn.Arena  # one element: log(alpha) and its Adam state
    stage: str
    learner_steps: int
    env_steps: int


def save_checkpoint(
    directory: str,
    actor: nn.Network,
    ensemble: CriticEnsemble,
    log_alpha: nn.Arena,
    cfg: TrainConfig,
    learner_steps: int = 0,
    env_steps: int = 0,
) -> str:
    """Write the five networks, ``meta.txt`` and ``config.txt`` into a fresh
    ``directory`` that replaces the old one whole, so a failed save leaves it as it was."""
    nets = dict(zip(_CKPT_NETS, (actor, ensemble.q1.net, ensemble.q2.net, ensemble.q1_target.net, ensemble.q2_target.net)))
    meta = {
        "format": _CKPT_FORMAT,
        "stage": cfg.stage,
        "log_alpha": float(log_alpha.params[0]).hex(),
        "alpha_m": float(log_alpha.m[0]).hex(),
        "alpha_v": float(log_alpha.v[0]).hex(),
        "alpha_t": log_alpha.step_count,
        "learner_steps": learner_steps,
        "env_steps": env_steps,
    }
    with artifacts.replacing_dir(directory) as tmp:
        for name, net in nets.items():
            nn.save_network(net, os.path.join(tmp, name))
        artifacts.write_manifest(os.path.join(tmp, "meta.txt"), meta)
        with open(os.path.join(tmp, "config.txt"), "w") as f:
            f.write(config_to_text(cfg))
    return directory


def load_checkpoint(directory: str) -> CheckpointBundle:
    meta = artifacts.Manifest(os.path.join(directory, "meta.txt"), "checkpoint")
    log_alpha = sac.log_alpha_arena(meta.get("log_alpha", float.fromhex))
    log_alpha.m[0] = meta.get("alpha_m", float.fromhex)
    log_alpha.v[0] = meta.get("alpha_v", float.fromhex)
    log_alpha.step_count = meta.get("alpha_t", int)
    meta.get("format", artifacts.one_of(_CKPT_FORMAT))
    nets = {name: nn.load_network(os.path.join(directory, name)) for name in _CKPT_NETS}
    # older checkpoints saved the targets with Adam state, which they drop here
    targets = [nets[k] if nets[k].arena.params_only else nets[k].params_copy() for k in ("q1_target", "q2_target")]
    ensemble = CriticEnsemble(VectorCritic(nets["q1"]), VectorCritic(nets["q2"]), *map(VectorCritic, targets))
    return CheckpointBundle(
        actor=nets["actor"],
        ensemble=ensemble,
        log_alpha=log_alpha,
        stage=meta.get("stage", artifacts.one_of(*STAGES)),
        learner_steps=meta.get("learner_steps", int),
        env_steps=meta.get("env_steps", int),
    )


def checkpoint_fingerprint(directory: str) -> bytearray:
    """Byte-exact digest material for reproducibility checks: the five
    network blobs then ``meta.txt``, read into one buffer."""
    paths = [os.path.join(directory, name + ".bin") for name in _CKPT_NETS] + [os.path.join(directory, "meta.txt")]
    sizes = [os.path.getsize(p) for p in paths]
    buf = bytearray(sum(sizes))
    with memoryview(buf) as view:
        off = 0
        for path, n in zip(paths, sizes):
            with open(path, "rb") as f:
                if f.readinto(view[off : off + n]) != n:
                    raise ConfigError(f"{path} changed size while it was read")
            off += n
    return buf


# ---------------------------------------------------------------------------
# Evaluation


class NetPolicy:
    """Deterministic policy: action = tanh(mu(s))."""

    def __init__(self, actor: nn.Network, obs_mode: str):
        self.actor = actor
        self.obs_mode = obs_mode

    def __call__(self, sr: StepResult) -> np.ndarray:
        out, _ = nn.forward(self.actor, observe(sr.state[None], self.obs_mode), want_tape=False)
        head, _ = policy.head_from_output(out)
        return policy.deterministic_action(head)[0]


class SinkSeeker:
    """Scripted reference controller: accelerate along the target field.

    Tracks v_tgt with a proportional term plus the feed-forward needed to
    hold a velocity against drag; parks at the sink as the field decays.
    """

    def __init__(self, kp: float = 2.0, kf: float = 0.25):
        self.kp = kp
        self.kf = kf

    def __call__(self, sr: StepResult) -> np.ndarray:
        s = sr.state
        v, v_tgt = s[2:4], field_at(TargetField(s[6:8], s[8], s[9]), s[0:2])
        return np.clip(self.kp * (v_tgt - v) + self.kf * v_tgt, -1.0, 1.0)


@dataclass
class EvalReport:
    episodes: int
    mean_env_reward: float
    std_env_reward: float
    term_sums: dict
    sink_reach_fraction: float
    mean_speed: float
    direction: float  # radians of the summed displacement

    def lines(self) -> list[str]:
        out = [
            f"episodes            {self.episodes}",
            f"env reward          {self.mean_env_reward:.4f} +- {self.std_env_reward:.4f}",
            f"mean speed          {self.mean_speed:.4f} m/s",
            f"sink reach fraction {self.sink_reach_fraction:.2f}",
            f"direction           {np.degrees(self.direction):.1f} deg",
        ]
        out += [f"sum {name:<10} {val:.4f}" for name, val in self.term_sums.items()]
        return out


def evaluate(
    policy_fn,
    difficulty: int,
    episodes: int = 5,
    seed: int = 0,
    horizon: int = 1000,
    reward_cfg: EnvRewardConfig | None = None,
    directional_pvb: bool = False,
    record_dir: str | None = None,
) -> EvalReport:
    """Roll deterministic episodes on fresh environments and aggregate."""
    if episodes < 1:
        raise ConfigError(f"episodes must be at least 1, not {episodes}")
    if seed < 0:
        raise ConfigError(f"seed must be at least 0, not {seed}")
    env = PointMassEnv(reward_cfg=reward_cfg, directional_pvb=directional_pvb, horizon=horizon, record_dir=record_dir)
    totals, finals, disps, speeds = [], [], [], []
    term_totals = np.zeros(len(TERM_NAMES))
    for ep in range(episodes):
        sr = env.reset(seed * 10_000_000 + 999_000_000 + ep, difficulty)
        ep_terms = np.zeros(len(TERM_NAMES))
        ep_speeds = []
        while not sr.done:
            sr = env.step(policy_fn(sr))
            ep_terms += sr.reward
            ep_speeds.append(float(np.linalg.norm(sr.state[2:4])))
        totals.append(ep_terms[0])
        term_totals += ep_terms
        finals.append(float(np.linalg.norm(sr.state[6:8] - sr.state[0:2])))
        disps.append(sr.state[0:2])
        speeds.append(float(np.mean(ep_speeds)))
    totals = np.asarray(totals)
    disp_sum = np.sum(disps, axis=0)
    return EvalReport(
        episodes=episodes,
        mean_env_reward=float(totals.mean()),
        std_env_reward=float(totals.std()),
        term_sums={name: float(v / episodes) for name, v in zip(TERM_NAMES, term_totals)},
        sink_reach_fraction=float(np.mean([d <= SINK_REACH_RADIUS for d in finals])),
        mean_speed=float(np.mean(speeds)),
        direction=float(np.arctan2(disp_sum[1], disp_sum[0])),
    )


# ---------------------------------------------------------------------------
# Metrics


METRICS_HEADER = (
    ["epoch", "wall_time_s", "env_steps", "learner_steps", "segments", "store_size"]
    + ["eval_env_reward_mean", "eval_env_reward_std", "eval_mean_speed", "eval_sink_fraction", "eval_direction_rad"]
    + [f"eval_sum_{name}" for name in TERM_NAMES]
    + ["critic_loss", "actor_loss", "alpha_loss", "alpha", "priority_mean", "priority_max"]
)


class MetricsWriter:
    """Append-only CSV, one row per epoch, lossless float round-trip."""

    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            f.write(",".join(METRICS_HEADER) + "\n")

    def write(self, row: dict) -> None:
        missing = set(METRICS_HEADER) - set(row)
        if missing:
            raise ConfigError(f"metrics row is missing {sorted(missing)}")
        cells = [repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in METRICS_HEADER]
        with open(self.path, "a") as f:
            f.write(",".join(cells) + "\n")


def read_metrics(path: str) -> list[dict]:
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        rows.append({k: float(v) for k, v in zip(header, cells)})
    return rows


# ---------------------------------------------------------------------------
# Stage driver


@dataclass
class TrainResult:
    checkpoint_dir: str
    replay_dir: str | None
    metrics_path: str
    final_eval: EvalReport
    env_steps: int
    learner_steps: int
    stopped_early: bool
    samplers: list = field(default_factory=list, repr=False)
    learner: Learner | None = field(default=None, repr=False)


def build_learner_nets(cfg: TrainConfig, rng: np.random.Generator) -> tuple[nn.Network, CriticEnsemble]:
    obs_dim = obs_dim_for_stage(cfg.stage)
    actor = sac.build_actor(obs_dim, ACT_DIM, cfg.hidden, rng)
    ensemble = CriticEnsemble.build(obs_dim, ACT_DIM, cfg.hidden, rng)
    return actor, ensemble


def _stop_reached(cfg: TrainConfig, report: EvalReport) -> bool:
    if cfg.stop_at_eval_speed > 0.0 and report.mean_speed >= cfg.stop_at_eval_speed:
        return True
    if cfg.stop_at_sink_fraction > 0.0 and report.sink_reach_fraction >= cfg.stop_at_sink_fraction:
        return True
    return False


def train_stage(
    cfg: TrainConfig,
    out_dir: str,
    resume_actor: nn.Network | None = None,
    resume_ensemble: CriticEnsemble | None = None,
) -> TrainResult:
    """Run one curriculum stage end to end and save its artifacts.

    Pretraining starts from fresh networks; finetuning passes the
    distilled student networks in.  The replay store always starts empty.
    On a numeric fault the current state is checkpointed under
    ``<out_dir>/faulted`` before the fault propagates.
    """
    rng = np.random.default_rng(cfg.seed)
    if resume_actor is None:
        actor, ensemble = build_learner_nets(cfg, rng)
    else:
        actor = resume_actor
        ensemble = resume_ensemble
        if actor.in_dim != obs_dim_for_stage(cfg.stage):
            raise ConfigError(
                f"resumed actor expects {actor.in_dim} inputs but stage {cfg.stage!r} provides {obs_dim_for_stage(cfg.stage)}"
            )
    store = PrioritizedStore(
        capacity=cfg.capacity,
        alpha=cfg.anneal_start,
        beta=cfg.anneal_start,
        n_tail=cfg.n_step,
    )
    assert len(store) == 0  # every stage starts from an empty replay
    hub = PolicySnapshotHub()
    learner = Learner(cfg, store, hub, actor, ensemble)
    samplers = [Sampler(i, cfg, store, hub) for i in range(cfg.num_samplers)]
    metrics = MetricsWriter(os.path.join(out_dir, "metrics.csv"))
    reward_cfg = EnvRewardConfig(w_vel=cfg.effective_env_w_vel)
    t0 = time.time()
    epoch = 0
    stopped = False
    last_report: EvalReport | None = None

    def run_eval() -> EvalReport:
        return evaluate(
            NetPolicy(learner.actor, cfg.obs_mode),
            difficulty=cfg.difficulty,
            episodes=cfg.eval_episodes,
            seed=cfg.seed,
            horizon=cfg.horizon,
            reward_cfg=reward_cfg,
            directional_pvb=cfg.directional_pvb,
        )

    def write_epoch_row(report: EvalReport, env_steps: int) -> None:
        raw = store._raw_p[: len(store)]
        row = {
            "epoch": epoch,
            "wall_time_s": time.time() - t0,
            "env_steps": env_steps,
            "learner_steps": learner.steps,
            "segments": store.appended_total,
            "store_size": len(store),
            "eval_env_reward_mean": report.mean_env_reward,
            "eval_env_reward_std": report.std_env_reward,
            "eval_mean_speed": report.mean_speed,
            "eval_sink_fraction": report.sink_reach_fraction,
            "eval_direction_rad": report.direction,
            "critic_loss": learner.last_critic_loss,
            "actor_loss": learner.last_actor_loss,
            "alpha_loss": learner.last_alpha_loss,
            "alpha": learner.alpha,
            "priority_mean": float(raw.mean()) if raw.size else 0.0,
            "priority_max": float(raw.max()) if raw.size else 0.0,
        }
        for name, val in report.term_sums.items():
            row[f"eval_sum_{name}"] = val
        metrics.write(row)

    def total_env_steps() -> int:
        return sum(s.env_steps for s in samplers)

    try:
        next_epoch = cfg.epoch_env_steps
        while total_env_steps() < cfg.total_env_steps and not stopped:
            for s in samplers:
                s.tick()
            while learner.throttle_ok() and len(store) >= cfg.min_segments_to_learn:
                learner.step()
            if total_env_steps() >= next_epoch:
                epoch += 1
                next_epoch += cfg.epoch_env_steps
                last_report = run_eval()
                write_epoch_row(last_report, total_env_steps())
                stopped = _stop_reached(cfg, last_report)
    except NumericFault:
        save_checkpoint(os.path.join(out_dir, "faulted"), learner.actor, ensemble, learner.log_alpha, cfg, learner.steps, total_env_steps())
        raise
    if learner.steps == 0 and not stopped:
        raise ConfigError(
            f"the stage ended without a learner step: total_env_steps ({cfg.total_env_steps}) stored "
            f"{store.appended_total} segments, and learning waits for min_segments_to_learn "
            f"({cfg.min_segments_to_learn}: min_store_segments, or batch when that is 0)"
        )

    if last_report is None:
        last_report = run_eval()
        epoch += 1
        write_epoch_row(last_report, total_env_steps())

    ckpt_dir = save_checkpoint(os.path.join(out_dir, "checkpoint"), learner.actor, ensemble, learner.log_alpha, cfg, learner.steps, total_env_steps())
    replay_dir = None
    if cfg.stage == "pretrain":
        replay_dir = os.path.join(out_dir, "replay")
        store.save(replay_dir)
    return TrainResult(
        checkpoint_dir=ckpt_dir,
        replay_dir=replay_dir,
        metrics_path=metrics.path,
        final_eval=last_report,
        env_steps=total_env_steps(),
        learner_steps=learner.steps,
        stopped_early=stopped,
        samplers=samplers,
        learner=learner,
    )


# ---------------------------------------------------------------------------
# Distillation stage driver


@dataclass
class DistillStageResult:
    checkpoint_dir: str
    metrics_path: str
    report: distill.DistillReport
    teacher_unchanged: bool


def run_distill_stage(teacher_ckpt_dir: str, replay_dir: str, out_dir: str, dcfg: distill.DistillConfig) -> DistillStageResult:
    """Distill a pretrained teacher into field-aware students.

    Loads the teacher checkpoint and the saved replay, trains the student
    actor against the teacher policy and one student critic per twin, and
    saves a finetune-ready student checkpoint (targets start as copies of
    the online students, temperature starts fresh).
    """
    if dcfg.field_dim != FIELD_DIM:
        raise ConfigError(f"field_dim must be {FIELD_DIM}, the width of the env's field grid, not {dcfg.field_dim}")
    bundle = load_checkpoint(teacher_ckpt_dir)
    store = PrioritizedStore.load(replay_dir)
    states = observe(store.all_observation_rows(), "teacher")
    del store
    rng = np.random.default_rng(dcfg.seed)
    perm = rng.permutation(states.shape[0])
    n_hold = max(1, int(0.1 * states.shape[0]))
    holdout, train_states = states[perm[:n_hold]], states[perm[n_hold:]]

    teacher_nets = (bundle.actor, bundle.ensemble.q1.net, bundle.ensemble.q2.net)
    fp_before = [distill.network_fingerprint(net) for net in teacher_nets]
    weights = TrainConfig(stage=bundle.stage).weights
    metrics_path = os.path.join(out_dir, "distill_metrics.csv")
    student_actor, student_q1, hist1 = distill.run_distillation(bundle.actor, bundle.ensemble.q1, train_states, weights, dcfg, metrics_path)
    # the second twin reuses the distilled actor and only fits its critic
    rng2 = np.random.default_rng(dcfg.seed + 1)
    distill.check_teacher_critic(bundle.ensemble.q2, bundle.actor)
    student_q2 = VectorCritic.build(
        bundle.actor.in_dim + dcfg.field_dim, bundle.actor.out_dim // 2, dcfg.student_hidden, rng2, bundle.ensemble.q2.n_terms
    )
    for step in range(len(hist1)):
        idx = rng2.integers(0, train_states.shape[0], size=dcfg.batch)
        distill.distill_critic_only(student_q2, bundle.actor, bundle.ensemble.q2, student_actor, train_states[idx], rng2, dcfg, weights, step_index=step)

    report = distill.verify_distillation(student_actor, bundle.actor, holdout, dcfg.field_dim)
    teacher_unchanged = [distill.network_fingerprint(net) for net in teacher_nets] == fp_before
    ensemble = CriticEnsemble.of(student_q1, student_q2)
    cfg = TrainConfig(stage="finetune")
    ckpt_dir = save_checkpoint(os.path.join(out_dir, "checkpoint"), student_actor, ensemble, sac.log_alpha_arena(np.log(cfg.init_alpha)), cfg)
    artifacts.write_manifest(
        os.path.join(out_dir, "verify.txt"),
        {
            "mean_kl": repr(report.mean_kl),
            "max_action_deviation": repr(report.max_action_deviation),
            "passed": report.passed,
            "teacher_unchanged": teacher_unchanged,
        },
    )
    return DistillStageResult(ckpt_dir, metrics_path, report, teacher_unchanged)

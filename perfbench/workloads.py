"""The four fixed-work workloads and the checks on their outputs.

``BENCHMARK.json`` lists two of them, ``finetune_full`` and
``distill_desk``: together they run every module, and both spend their
time in BLAS calls on large batches, which slow down far less than the
dispatch-bound ``pretrain_desk`` and ``collect_wide`` when other tenants
load a shared host (on 2 shared vCPUs a ``collect_wide`` stage swung
about twice as much as a ``finetune_full`` stage run alongside it).  Two
workloads also leave time for 60-second runs.  ``pretrain_desk`` and
``collect_wide`` stay selectable with ``--workload``.

Every workload runs one curriculum stage through the public API of
``fieldsac`` with ``single_thread = true``, early stopping off and one
evaluation episode, so a seed fixes every env-step and learner-step
count.  ``setup`` builds what the timed stage consumes (config and fresh
networks; for ``distill_desk`` also the teacher checkpoint and replay
snapshot); ``run`` times the stage alone; ``check`` verifies its outputs.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from fieldsac import distill, pipeline
from fieldsac.config import load_config

# Shared by every train stage: deterministic interleaving, no early stop,
# a single evaluation at the end of the stage.
_FIXED = dict(
    single_thread=True,
    stop_at_eval_speed=0.0,
    stop_at_sink_fraction=0.0,
    eval_episodes=1,
    epoch_env_steps=10**9,
)

# configs/desk.txt learner shape; teacher obs (6 inputs).  100 ticks per
# sampler give 288 learner steps, all inside the 3000-step anneal.
PRETRAIN_DESK = dict(
    stage="pretrain", num_samplers=4, hidden=64, batch=32, replay_ratio=16.0,
    capacity=20_000, publish_every=50, total_env_steps=400,
)

# configs/fullscale.txt learner shape on the 248-input student obs.  The
# store first holds one batch (256 segments) after 54 ticks per sampler;
# replay_ratio 2 (not 16) then releases 18 learner steps, which bounds the
# stage near 16 s while the learner keeps over 90% of wall time.
FINETUNE_FULL = dict(
    stage="finetune", difficulty=2, num_samplers=30, hidden=256, batch=256, replay_ratio=2.0,
    capacity=250_000, publish_every=100, total_env_steps=1620,
)

# Sampling-bound: 30 samplers on the 248-input obs, a desk-sized learner
# that takes one step per segment collected by one sampler.
COLLECT_WIDE = dict(
    stage="finetune", difficulty=2, num_samplers=30, hidden=64, batch=32, replay_ratio=1.0,
    capacity=250_000, publish_every=50, total_env_steps=9000,
)

# Teacher for distill_desk: a short desk pretrain; its quality is irrelevant.
DISTILL_TEACHER = dict(
    stage="pretrain", num_samplers=4, hidden=64, batch=32, replay_ratio=1.0,
    capacity=20_000, publish_every=50, total_env_steps=800,
)
DISTILL_STEPS = 400
# Unreachable: the running-mean KL never falls this low, so every run
# takes exactly DISTILL_STEPS steps.
DISTILL_KL_STOP = 1e-300


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict  # TrainConfig keys of the timed stage (of the teacher for distill)
    unit: str  # what steps_per_s counts: "learner", "env" or "distill"

    @property
    def is_distill(self) -> bool:
        return self.unit == "distill"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pretrain_desk", PRETRAIN_DESK, "learner"),
        Workload("finetune_full", FINETUNE_FULL, "learner"),
        Workload("collect_wide", COLLECT_WIDE, "env"),
        Workload("distill_desk", DISTILL_TEACHER, "distill"),
    )
}


@dataclass
class Prepared:
    workload: Workload
    cfg: object
    actor: object = None
    ensemble: object = None
    teacher_dir: str = ""
    replay_dir: str = ""
    dcfg: object = None


HEALTH_COUNTERS = ("env_faults", "stale_updates", "clamped_priorities", "evicted_total", "max_throttle_excess")


@dataclass
class RepOutcome:
    """One timed stage: its wall time, exact counts and check results."""

    wall_s: float
    env_steps: int = 0
    learner_steps: int = 0
    distill_steps: int = 0
    segments_stored: int = 0
    fingerprint: str = ""
    failures: list = field(default_factory=list)
    health: dict = field(default_factory=lambda: dict.fromkeys(HEALTH_COUNTERS, 0))
    planned_ops: int = 0  # what a stage that raised would have done

    @property
    def ops(self) -> int:
        return self.env_steps + self.learner_steps + self.distill_steps

    def count(self, unit: str) -> int:
        return getattr(self, f"{unit}_steps")


def setup(wl: Workload, seed: int, workdir: str) -> Prepared:
    cfg = load_config(overrides={**_FIXED, **wl.overrides, "seed": seed})
    if not wl.is_distill:
        actor, ensemble = pipeline.build_learner_nets(cfg, np.random.default_rng(cfg.seed))
        return Prepared(wl, cfg, actor=actor, ensemble=ensemble)
    teacher = pipeline.train_stage(cfg, os.path.join(workdir, "teacher"))
    dcfg = distill.DistillConfig(
        student_hidden=64, batch=128, lr_actor=1e-3, lr_critic=1e-3,
        max_steps=DISTILL_STEPS, kl_stop=DISTILL_KL_STOP, seed=seed,
    )
    return Prepared(wl, cfg, teacher_dir=teacher.checkpoint_dir, replay_dir=teacher.replay_dir, dcfg=dcfg)


def run(prep: Prepared, out_dir: str):
    """Time the stage alone; returns (wall seconds, stage result)."""
    t0 = time.perf_counter()
    if prep.workload.is_distill:
        res = pipeline.run_distill_stage(prep.teacher_dir, prep.replay_dir, out_dir, prep.dcfg)
    else:
        res = pipeline.train_stage(prep.cfg, out_dir, resume_actor=prep.actor, resume_ensemble=prep.ensemble)
    return time.perf_counter() - t0, res


def _fingerprint(ckpt_dir: str) -> str:
    return hashlib.sha256(pipeline.checkpoint_fingerprint(ckpt_dir)).hexdigest()


def _reload_failures(ckpt_dir: str, cfg, out_dir: str, live_actor=None) -> list:
    """The checkpoint must load and save back to the same bytes."""
    bundle = pipeline.load_checkpoint(ckpt_dir)
    again = pipeline.save_checkpoint(
        os.path.join(out_dir, "reloaded"), bundle.actor, bundle.ensemble, bundle.log_alpha, cfg,
        bundle.learner_steps, bundle.env_steps,
    )
    failures = []
    if pipeline.checkpoint_fingerprint(again) != pipeline.checkpoint_fingerprint(ckpt_dir):
        failures.append("checkpoint does not reload bit-exactly")
    if live_actor is not None and distill.network_fingerprint(bundle.actor) != distill.network_fingerprint(live_actor):
        failures.append("reloaded actor differs from the trained actor")
    return failures


def check(prep: Prepared, wall_s: float, res, out_dir: str) -> RepOutcome:
    if prep.workload.is_distill:
        return _check_distill(prep, wall_s, res, out_dir)
    cfg, learner = prep.cfg, res.learner
    store = learner.store
    out = RepOutcome(
        wall_s=wall_s,
        env_steps=res.env_steps,
        learner_steps=res.learner_steps,
        segments_stored=len(store),
        fingerprint=_fingerprint(res.checkpoint_dir),
        health=dict(
            env_faults=sum(s.env_faults for s in res.samplers),
            stale_updates=store.stale_updates,
            clamped_priorities=store.clamped_priorities,
            evicted_total=store.evicted_total,
            max_throttle_excess=learner.max_throttle_excess,
        ),
    )
    fail = out.failures
    if res.env_steps != cfg.total_env_steps:
        fail.append(f"env steps {res.env_steps} != budget {cfg.total_env_steps}")
    expected = learner.allowed_steps(store.appended_total) if len(store) >= cfg.min_segments_to_learn else 0
    if res.learner_steps != expected or expected < 1:
        fail.append(f"learner steps {res.learner_steps} != throttle {expected}")
    losses = (learner.last_critic_loss, learner.last_actor_loss, learner.last_alpha_loss, res.final_eval.mean_env_reward)
    if not all(math.isfinite(x) for x in losses):
        fail.append(f"non-finite loss or eval reward {losses}")
    if res.stopped_early:
        fail.append("stage stopped early")
    fail += _reload_failures(res.checkpoint_dir, cfg, out_dir, learner.actor)
    return out


def _check_distill(prep: Prepared, wall_s: float, res, out_dir: str) -> RepOutcome:
    with open(res.metrics_path) as f:
        rows = [ln.strip().split(",") for ln in f.read().splitlines()[1:] if ln.strip()]
    last_step = int(rows[-1][0]) if rows else -1
    out = RepOutcome(
        wall_s=wall_s,
        distill_steps=last_step + 1,
        fingerprint=_fingerprint(res.checkpoint_dir),
    )
    fail = out.failures
    if out.distill_steps != prep.dcfg.max_steps:
        fail.append(f"distillation ran {out.distill_steps} steps, not {prep.dcfg.max_steps}")
    values = [float(x) for row in rows for x in row[1:]] + [res.report.mean_kl, res.report.max_action_deviation]
    if not all(math.isfinite(x) for x in values):
        fail.append("non-finite distillation loss")
    if not res.teacher_unchanged:
        fail.append("teacher networks changed during distillation")
    fail += _reload_failures(res.checkpoint_dir, load_config(overrides={"stage": "finetune"}), out_dir)
    return out

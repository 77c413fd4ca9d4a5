#!/usr/bin/env python3
"""The whole curriculum through the library API, at demo scale: pretrain
a field-blind teacher, distill it into a field-aware student, finetune
the student to follow the target field, and evaluate each stage.

Demo scale keeps this to a few minutes; the CLI (`fieldsac pretrain`,
`distill`, `finetune`, `eval`) runs the same code with full configs.
"""

import os
import tempfile

import numpy as np

from fieldsac import pipeline
from fieldsac.config import TrainConfig
from fieldsac.distill import DistillConfig

root = tempfile.mkdtemp(prefix="fieldsac_curriculum_")
print(f"artifacts under {root}\n")

# Stage 1: pretrain. Weights [1,10,0,1,1,0,1], w_vel = 0, plain speed
# bonus: the agent just learns to move fast in a seed-dependent direction.
pre_cfg = TrainConfig(
    stage="pretrain", seed=1, num_samplers=4, hidden=64, batch=32,
    total_env_steps=20_000, epoch_env_steps=2_500,
    capacity=20_000, publish_every=50, lr_actor=3e-4, lr_critic=1e-3,
    stop_at_eval_speed=0.7,
)
pre = pipeline.train_stage(pre_cfg, os.path.join(root, "pretrain"))
print(f"pretrain: eval speed {pre.final_eval.mean_speed:.2f} m/s heading {np.degrees(pre.final_eval.direction):.0f} deg "
      f"after {pre.env_steps} env steps / {pre.learner_steps} learner steps\n")

# Stage 2: distillation. The student grows a 242-wide field input fed
# with N(0, 0.1) noise while matching the teacher's policy and values.
dcfg = DistillConfig(
    field_dim=242, student_hidden=64, batch=128, lr_actor=1e-3, lr_critic=1e-3,
    max_steps=6_000, kl_stop=2e-4, lr_decay_step=3_000, seed=7,
)
dist = pipeline.run_distill_stage(pre.checkpoint_dir, pre.replay_dir, os.path.join(root, "distill"), dcfg)
print(f"distill: holdout KL {dist.report.mean_kl:.5f} nats, max action gap {dist.report.max_action_deviation:.4f}, "
      f"teacher intact {dist.teacher_unchanged}\n")

# Stage 3: finetune on difficulty 2 with the full weight vector, the
# directional speed bonus, and a brand-new empty replay.
bundle = pipeline.load_checkpoint(dist.checkpoint_dir)
fin_cfg = TrainConfig(
    stage="finetune", seed=11, difficulty=2, num_samplers=4, hidden=64, batch=32,
    total_env_steps=40_000, epoch_env_steps=5_000,
    capacity=20_000, publish_every=50, lr_actor=3e-4, lr_critic=1e-3,
    stop_at_sink_fraction=0.8,
)
fin = pipeline.train_stage(fin_cfg, os.path.join(root, "finetune"), resume_actor=bundle.actor, resume_ensemble=bundle.ensemble)
print(f"finetune: sink-reach fraction {fin.final_eval.sink_reach_fraction:.2f} after {fin.env_steps} env steps\n")

print("final evaluation:")
for line in fin.final_eval.lines():
    print("  " + line)

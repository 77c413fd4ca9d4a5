#!/usr/bin/env python3
"""Walk through every coordinate of the reward vector and the windowed
environment reward, then weight one reward vector with the two
curriculum weightings.
"""

import numpy as np

from fieldsac import rewards
from fieldsac.rewards import EnvRewardConfig

# Velocity-tracking terms.
v_body, v_tgt = np.array([1.2, 0.0]), np.array([0.8, 0.4])
print("velocity deviation  ", rewards.velocity_deviation_penalty(v_body, v_tgt))
print("speed bonus (plain)  ", rewards.pelvis_velocity_bonus(v_body, v_tgt, directional=False))
print("speed bonus (cosine) ", rewards.pelvis_velocity_bonus(v_body, v_tgt, directional=True))
print("effort penalty       ", rewards.dense_effort_penalty([0.6, 0.8]))

# Target-achieve bonus across its three branches.
print("\n|v_tgt|  bonus")
for m in (0.0, 0.3, 0.5, 0.6, 0.7, 0.9):
    print(f"  {m:.1f}    {rewards.target_achieve_bonus((m, 0.0)):.3f}")

# One 10-step window of the environment reward.
cfg = EnvRewardConfig(r_alive=0.1, w_step=1.0, w_vel=1.0, w_eff=1.0, window=10, dt=0.1)
steps = np.tile(v_body, (10, 1))
targets = np.tile(v_tgt, (10, 1))
actions = np.tile([0.3, 0.1], (10, 1))
print(f"\nwindowed env reward: {rewards.env_reward(cfg, steps, targets, actions):.4f}")

# One step's reward is a 7-vector in TERM_NAMES order.  r_clp, the
# crossing-legs penalty of a legged body, is always 0 on the point mass;
# the sampler fills r_entropy from the policy.
r = np.array([1.2, 0.0, -0.45, 1.2, -1.0, 0.1, 0.3])
print("\nreward vector")
for name, x in zip(rewards.TERM_NAMES, r):
    print(f"  {name:<10} {x:+.2f}")

# The scalar reward under both curriculum weightings.
print("pretrain scalar    ", r @ rewards.PRETRAIN_WEIGHTS)
print("finetune scalar    ", r @ rewards.FINETUNE_WEIGHTS)

#!/usr/bin/env python3
"""The learner's math on display: invertible value rescaling, vector
n-step targets, per-coordinate twin-min bootstrapping, and extending a
critic with a brand-new reward head.
"""

import numpy as np

from fieldsac import nn, sac
from fieldsac.rewards import NUM_TERMS

rng = np.random.default_rng(3)

# h compresses large magnitudes; h_inv undoes it exactly.
xs = np.array([-100.0, -3.0, 0.0, 3.0, 100.0])
print("x       ", xs)
print("h(x)    ", np.round(sac.h(xs), 4))
print("h_inv(h)", np.round(sac.h_inv(sac.h(xs)), 12))

# Vector n-step targets: one bootstrap per reward coordinate.
hyper = sac.SacHyper(weights=np.ones(NUM_TERMS), gamma=0.99, n_step=3)
L = 4
rewards = rng.standard_normal((1, L + hyper.n_step - 1, NUM_TERMS))
dones = np.zeros((1, L + hyper.n_step - 1), dtype=bool)
dones[0, 4] = True  # terminal in the middle: later windows truncate
boot_q = rng.standard_normal((1, L, NUM_TERMS))
targets = sac.n_step_targets(rewards, dones, boot_q, hyper)
print(f"\nn-step targets shape {targets.shape} (positions x reward coordinates)")
print(np.round(targets[0, :, :3], 3), "... first three coordinates")

# Twin critics with 7 heads each; the actor sees the weighted min.
obs_dim, act_dim, hidden = 6, 2, 32
ens = sac.CriticEnsemble.build(obs_dim, act_dim, hidden, rng)
x = np.concatenate([rng.standard_normal((1, obs_dim)), rng.uniform(-1, 1, (1, act_dim))], axis=1)
q1, _ = ens.q1.forward(x, want_tape=False)
q2, _ = ens.q2.forward(x, want_tape=False)
print(f"\nQ1 {np.round(q1[0], 3)}")
print(f"Q2 {np.round(q2[0], 3)}")
print(f"per-coordinate min {np.round(np.minimum(q1, q2)[0], 3)}")
w = np.array([1.0, 10.0, 1.0, 1.0, 1.0, 1.0, 1.0])
print(f"scalarized for the actor: {float(np.minimum(q1, q2)[0] @ w):.4f}")

# Adding a reward term appends one head without touching the others.
extended = sac.extend_reward_term(ens.q1, init_scale=0.01, rng=rng)
q1_ext, _ = extended.forward(x, want_tape=False)
print(f"\nextended critic has {extended.n_terms} heads")
print(f"existing heads unchanged: {bool(np.array_equal(q1_ext[0, :NUM_TERMS], q1[0]))}")
print(f"new head starts near zero: {q1_ext[0, -1]:.5f}")

# Removing a term is the mirror operation.
trimmed = sac.remove_reward_term(extended, NUM_TERMS)
qt, _ = trimmed.forward(x, want_tape=False)
print(f"remove round-trips exactly: {bool(np.array_equal(qt, q1))}")

# Temperature moves toward the entropy target: log(alpha) is a one-element
# arena that steps through the networks' Adam.
log_alpha = sac.log_alpha_arena(np.log(0.2))
log_probs = np.full(64, -0.4)  # entropy 0.4 nat, target 2.0: too deterministic
for _ in range(200):
    _, grad = sac.temperature_loss(log_probs, log_alpha.params[0], target_entropy=2.0)
    log_alpha.grads[0] = grad
    nn.adam_step(log_alpha, lr=1e-2)
print(f"\nalpha grew from 0.200 to {np.exp(log_alpha.params[0]):.3f} because entropy sat below target")

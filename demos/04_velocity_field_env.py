#!/usr/bin/env python3
"""Roll the point-mass environment with the scripted sink-seeking
controller, print the approach, and dump trajectory CSVs for plotting.
"""

import os
import tempfile

import numpy as np

from fieldsac.env import PointMassEnv, local_grid
from fieldsac.pipeline import SinkSeeker, evaluate
from fieldsac.rewards import R_TAB

out = os.path.join(tempfile.gettempdir(), "fieldsac_trajectories")
env = PointMassEnv(record_dir=out)
sr = env.reset(seed=42, difficulty=2)
print(f"sink at {sr.info['sink']}, field v_max {env.field.v_max:.2f} m/s, ramp {env.field.ramp:.2f}")
print(f"teacher obs dim {sr.obs_teacher.shape[0]}, student obs dim {sr.obs_student.shape[0]}")

grid = local_grid(env.field, np.zeros(2))
print(f"local field grid {grid.shape}; center cell = field at agent = {grid[:, 5, 5]}")

controller = SinkSeeker()
while not sr.done:
    sr = env.step(controller(sr))
    if sr.info["t"] % 100 == 0:
        print(
            f"  t={sr.info['t']:>4}  pos=({sr.info['p'][0]:6.2f},{sr.info['p'][1]:6.2f})  "
            f"speed={sr.info['speed']:.2f}  dist={sr.info['dist_to_sink']:.2f}  tab={sr.reward[R_TAB]:.2f}"
        )
print(f"episode over at t={sr.info['t']}, final distance {sr.info['dist_to_sink']:.3f} m")
print(f"trajectory CSV written under {out}")

# The scripted controller solves every difficulty-2 layout.
report = evaluate(SinkSeeker(), difficulty=2, episodes=5, seed=7)
print(f"\nscripted controller on difficulty 2: sink-reach fraction {report.sink_reach_fraction:.2f}")
for line in report.lines():
    print("  " + line)

#!/usr/bin/env python3
"""Roll the point-mass environment with the scripted sink-seeking
controller, print the approach, and dump trajectory CSVs for plotting.
"""

import os
import tempfile

import numpy as np

from fieldsac.env import PointMassEnv, local_grid, observe
from fieldsac.pipeline import SinkSeeker, evaluate
from fieldsac.rewards import R_TAB

out = os.path.join(tempfile.gettempdir(), "fieldsac_trajectories")
env = PointMassEnv(record_dir=out)
sr = env.reset(seed=42, difficulty=2)
# the state row: position, velocity, previous action, sink, v_max, ramp
print(f"sink at {sr.state[6:8]}, field v_max {sr.state[8]:.2f} m/s, ramp {sr.state[9]:.2f}")
print(f"teacher obs dim {observe(sr.state[None], 'teacher').shape[1]}, student obs dim {observe(sr.state[None], 'student').shape[1]}")

grid = local_grid(env.field, np.zeros(2))
print(f"local field grid {grid.shape}; center cell = field at agent = {grid[:, 5, 5]}")

controller = SinkSeeker()
while not sr.done:
    sr = env.step(controller(sr))
    p, v, sink = sr.state[0:2], sr.state[2:4], sr.state[6:8]
    if env.t % 100 == 0:
        print(
            f"  t={env.t:>4}  pos=({p[0]:6.2f},{p[1]:6.2f})  "
            f"speed={np.linalg.norm(v):.2f}  dist={np.linalg.norm(sink - p):.2f}  tab={sr.reward[R_TAB]:.2f}"
        )
print(f"episode over at t={env.t}, final distance {np.linalg.norm(sr.state[6:8] - sr.state[0:2]):.3f} m")
print(f"trajectory CSV written under {out}")

# The scripted controller solves every difficulty-2 layout.
report = evaluate(SinkSeeker(), difficulty=2, episodes=5, seed=7)
print(f"\nscripted controller on difficulty 2: sink-reach fraction {report.sink_reach_fraction:.2f}")
for line in report.lines():
    print("  " + line)

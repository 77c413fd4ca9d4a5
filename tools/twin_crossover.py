"""Where a twin critic pair starts to gain from a second thread.

    python3 tools/twin_crossover.py [in_dim,hidden,rows ...]

Times one critic pair, ``nn.forward_both`` with tapes then an
accumulating ``nn.backward_both``, on relu critics of the given shapes
with 7 outputs: once with both passes on the calling thread and once
with the second on a worker thread, whatever ``nn._BOTH_MIN_WORK`` says.
Each side takes the best of three alternating timed loops of about 2
GFLOP; one BLAS thread is pinned before numpy loads, as in
``perfbench/run.py``.  Prints the work per pass
(rows x parameters, the figure the gate compares) and the threaded
time over the sequential time; below 1 the thread pays.  The default
shapes span desk (8 inputs, hidden 64, 320 rows) to full scale (250,
256, 2560).
"""

from __future__ import annotations

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from fieldsac import nn  # noqa: E402

SHAPES = ["8,64,320", "8,64,1280", "8,128,320", "8,128,640", "250,64,800", "250,64,1280", "8,128,1280", "250,256,2560"]


def pair_ms(a: nn.Network, b: nn.Network, x: np.ndarray, g: np.ndarray, min_work: int) -> float:
    nn._BOTH_MIN_WORK = min_work

    def pair():
        (_, ta), (_, tb) = nn.forward_both((a, b), x)
        nn.backward_both((a, b), (ta, tb), (g, g), want_input_grad=False)

    calls = max(5, int(2e9 / (6 * x.shape[0] * a.n_params())))
    pair()
    t0 = time.perf_counter()
    for _ in range(calls):
        pair()
    return (time.perf_counter() - t0) / calls * 1e3


def main(shapes: list[str]) -> None:
    rng = np.random.default_rng(0)
    for shape in shapes:
        in_dim, hidden, rows = map(int, shape.split(","))
        a, b = (nn.build_mlp(in_dim, hidden, 7, rng, activation="relu") for _ in range(2))
        x, g = rng.standard_normal((rows, in_dim)), rng.standard_normal((rows, 7))
        seq, thr = [], []
        for _ in range(3):
            seq.append(pair_ms(a, b, x, g, 1 << 62))
            thr.append(pair_ms(a, b, x, g, 0))
        work = rows * a.n_params()
        print(f"in {in_dim:3d} hidden {hidden:3d} rows {rows:4d}  work {work:.2e}  sequential {min(seq):8.3f} ms  threaded {min(thr):8.3f} ms  ratio {min(thr) / min(seq):.2f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or SHAPES)

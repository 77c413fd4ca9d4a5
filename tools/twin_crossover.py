"""Where a pass starts to gain from splitting its rows over two threads.

    python3 tools/twin_crossover.py [in_dim,hidden,rows ...]

Times one critic pass, a taped ``nn.forward`` then an accumulating
``nn.backward``, on relu critics of the given shapes with 7 outputs:
once whole on the calling thread and once split into two halves of its
rows on two threads, whatever ``nn._BOTH_MIN_WORK`` says.  Each side
takes the best of three alternating timed loops of about 2 GFLOP; one
BLAS thread is pinned before numpy loads, as in ``perfbench/run.py``.
Prints the work per pass (rows x parameters, the figure the gate
compares) and the split time over the whole time; below 1 the split
pays.  The default shapes span desk (8 inputs, hidden 64, 320 rows) to
full scale (250, 256, 2560).
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


def pass_ms(net: nn.Network, x: np.ndarray, g: np.ndarray, min_work: int) -> float:
    nn._BOTH_MIN_WORK = min_work

    def one_pass():
        _, tape = nn.forward(net, x)
        nn.backward(net, tape, g, want_input_grad=False)

    calls = max(5, int(2e9 / (6 * x.shape[0] * net.n_params())))
    one_pass()
    t0 = time.perf_counter()
    for _ in range(calls):
        one_pass()
    return (time.perf_counter() - t0) / calls * 1e3


def main(shapes: list[str]) -> None:
    rng = np.random.default_rng(0)
    for shape in shapes:
        in_dim, hidden, rows = map(int, shape.split(","))
        net = nn.build_mlp(in_dim, hidden, 7, rng, activation="relu")
        x, g = rng.standard_normal((rows, in_dim)), rng.standard_normal((rows, 7))
        whole, split = [], []
        for _ in range(3):
            whole.append(pass_ms(net, x, g, 1 << 62))
            split.append(pass_ms(net, x, g, 0))
        work = rows * net.n_params()
        print(f"in {in_dim:3d} hidden {hidden:3d} rows {rows:4d}  work {work:.2e}  whole {min(whole):8.3f} ms  split {min(split):8.3f} ms  ratio {min(split) / min(whole):.2f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or SHAPES)

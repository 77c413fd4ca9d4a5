"""Layer-kind probe: forward and backward time per layer for one-kind
networks built with the public ``nn.Network`` constructor.

Shapes are the desk learner batch (320 rows x 64 wide: batch 32 x 10
steps) and the full-scale one (2560 x 256).  ``residual_begin`` cannot
form a valid network alone, so the two residual kinds are timed as
begin/end pairs and reported once as ``residual_span``.
"""

from __future__ import annotations

import time

import numpy as np

from fieldsac import nn

SHAPES = ((320, 64, 40), (2560, 256, 5))  # rows, width, repeats
DEPTH = 4  # layers (or residual pairs) per probe network
KINDS = ("linear", "layer_norm", "elu", "relu", "residual_span")


def _network(kind: str, width: int, rng: np.random.Generator) -> nn.Network:
    specs, blocks = [], []
    for _ in range(DEPTH):
        if kind == "residual_span":
            specs += [nn.LayerSpec("residual_begin", width, width), nn.LayerSpec("residual_end", width, width)]
            blocks += [None, None]
            continue
        specs.append(nn.LayerSpec(kind, width, width))
        if kind == "linear":
            k = 1.0 / np.sqrt(width)
            blocks.append(nn.ParamBlock(rng.uniform(-k, k, (width, width)), rng.uniform(-k, k, width)))
        elif kind == "layer_norm":
            blocks.append(nn.ParamBlock(np.ones((1, width)), np.zeros(width)))
        else:
            blocks.append(None)
    return nn.Network(specs, blocks)


def run_probe(seed: int) -> dict:
    """{metric name: (microseconds per layer, "us")} for every kind and shape."""
    rng = np.random.default_rng(seed)
    out = {}
    for rows, width, repeats in SHAPES:
        x = rng.standard_normal((rows, width))
        g = rng.standard_normal((rows, width))
        for kind in KINDS:
            net = _network(kind, width, rng)
            fwd, bwd = [], []
            for _ in range(repeats):
                t0 = time.perf_counter()
                _, tape = nn.forward(net, x)
                t1 = time.perf_counter()
                nn.backward(net, tape, g)
                t2 = time.perf_counter()
                fwd.append(t1 - t0)
                bwd.append(t2 - t1)
            for phase, times in (("fwd", fwd), ("bwd", bwd)):
                out[f"probe.{kind}.{rows}x{width}.{phase}_us"] = (float(np.median(times)) / DEPTH * 1e6, "us")
    return out

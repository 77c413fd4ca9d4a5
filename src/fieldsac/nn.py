"""Dense feed-forward networks with hand-written reverse-mode gradients.

The layer vocabulary is deliberately tiny: linear, layer norm, ELU, ReLU
and residual spans.  Everything runs in float64 and stays on the CPU.
A forward pass records a tape; ``backward`` replays it exactly, so the
gradients are the true reverse-mode derivatives (verified against central
finite differences by ``grad_check``).

Batches are 2-D float64 arrays, one row per sample, features along
columns.  One network instance must only be mutated from a single thread;
share read-only copies (``Network.copy``) across threads instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, NumericFault

LAYER_KINDS = ("linear", "layer_norm", "elu", "relu", "residual_begin", "residual_end")
# Kinds whose output can stop being finite even when their input is finite.
_MAY_OVERFLOW = ("linear", "layer_norm", "residual_end")

# Epsilon inside the layer-norm square root; keeps zero-variance rows finite.
LN_EPS = 1e-5

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int
    out_dim: int


class ParamBlock:
    """Parameters, gradient accumulators and Adam state for one layer.

    ``w`` is 2-D: ``(in_dim, out_dim)`` for linear layers, ``(1, dim)``
    (the gain) for layer norm.  ``b`` is the bias/shift vector.
    """

    __slots__ = ("w", "b", "gw", "gb", "mw", "vw", "mb", "vb", "step_count")

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        self.b = np.ascontiguousarray(b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.ndim != 1:
            raise ConfigError("ParamBlock expects a 2-D weight and 1-D bias")
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self.mw = np.zeros_like(self.w)
        self.vw = np.zeros_like(self.w)
        self.mb = np.zeros_like(self.b)
        self.vb = np.zeros_like(self.b)
        self.step_count = 0

    def n_params(self) -> int:
        return self.w.size + self.b.size

    def zero_grads(self) -> None:
        self.gw[:] = 0.0
        self.gb[:] = 0.0

    def copy(self) -> "ParamBlock":
        blk = ParamBlock(self.w.copy(), self.b.copy())
        blk.gw = self.gw.copy()
        blk.gb = self.gb.copy()
        blk.mw = self.mw.copy()
        blk.vw = self.vw.copy()
        blk.mb = self.mb.copy()
        blk.vb = self.vb.copy()
        blk.step_count = self.step_count
        return blk


class Network:
    """An ordered stack of layers plus their parameter blocks.

    ``blocks[i]`` is ``None`` for parameter-free layers.  ``version``
    increments on every parameter mutation and is used to detect stale
    tapes.
    """

    def __init__(self, specs: list[LayerSpec], blocks: list[ParamBlock | None]):
        if len(specs) != len(blocks):
            raise ConfigError("specs and blocks must align")
        _validate_stack(specs, blocks)
        self.specs = list(specs)
        self.blocks = list(blocks)
        self.version = 0

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim

    def param_blocks(self) -> list[ParamBlock]:
        return [b for b in self.blocks if b is not None]

    def n_params(self) -> int:
        return sum(b.n_params() for b in self.param_blocks())

    def zero_grads(self) -> None:
        for b in self.param_blocks():
            b.zero_grads()

    def bump_version(self) -> None:
        self.version += 1

    def copy(self) -> "Network":
        net = Network(self.specs, [b.copy() if b is not None else None for b in self.blocks])
        net.version = self.version
        return net


def _validate_stack(specs: list[LayerSpec], blocks: list[ParamBlock | None]) -> None:
    if not specs:
        raise ConfigError("network needs at least one layer")
    cur = specs[0].in_dim
    span_stack: list[int] = []
    for i, (spec, blk) in enumerate(zip(specs, blocks)):
        if spec.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {spec.kind!r} at layer {i}")
        if spec.in_dim != cur:
            raise ConfigError(f"layer {i} expects in_dim {spec.in_dim}, got {cur}")
        if spec.kind == "linear":
            if blk is None or blk.w.shape != (spec.in_dim, spec.out_dim) or blk.b.shape != (spec.out_dim,):
                raise ConfigError(f"linear layer {i} has mismatched parameters")
        elif spec.kind == "layer_norm":
            if spec.out_dim != spec.in_dim:
                raise ConfigError(f"layer_norm layer {i} must preserve width")
            if blk is None or blk.w.shape != (1, spec.in_dim) or blk.b.shape != (spec.in_dim,):
                raise ConfigError(f"layer_norm layer {i} has mismatched parameters")
        else:
            if spec.out_dim != spec.in_dim:
                raise ConfigError(f"{spec.kind} layer {i} must preserve width")
            if blk is not None:
                raise ConfigError(f"{spec.kind} layer {i} takes no parameters")
            if spec.kind == "residual_begin":
                span_stack.append(spec.in_dim)
            elif spec.kind == "residual_end":
                if not span_stack:
                    raise ConfigError(f"residual_end at layer {i} has no matching begin")
                if span_stack.pop() != spec.in_dim:
                    raise ConfigError(f"residual span ending at layer {i} changed width")
        cur = spec.out_dim
    if span_stack:
        raise ConfigError("unterminated residual span")


class Tape:
    """Activation record from one forward pass; consumed by ``backward``."""

    __slots__ = ("net", "version", "records", "batch")

    def __init__(self, net: Network, records: list, batch: int):
        self.net = net
        self.version = net.version
        self.records = records
        self.batch = batch


def forward(net: Network, x: np.ndarray, want_tape: bool = True) -> tuple[np.ndarray, Tape | None]:
    """Run the stack on a batch ``x`` of shape (batch, in_dim).

    Returns the output batch and, when ``want_tape`` is set, the tape
    needed for an exact backward pass.  Raises NumericFault with the layer
    index if any intermediate stops being finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ConfigError(f"input of shape {x.shape} does not match in_dim {net.in_dim}")
    h = x
    records: list = []
    res_stack: list[np.ndarray] = []
    for i, (spec, blk) in enumerate(zip(net.specs, net.blocks)):
        if spec.kind == "linear":
            if want_tape:
                records.append(h)
            h = h @ blk.w
            h += blk.b
        elif spec.kind == "layer_norm":
            mu = h.mean(axis=1, keepdims=True)
            xhat = h - mu
            var = np.einsum("ij,ij->i", xhat, xhat) / h.shape[1]
            inv = (1.0 / np.sqrt(var + LN_EPS))[:, None]
            xhat *= inv
            if want_tape:
                records.append((xhat, inv))
            h = xhat * blk.w[0]
            h += blk.b
        elif spec.kind == "elu":
            if want_tape:
                records.append(h)
            # expm1(x) >= x for x <= 0, so the max picks expm1 exactly there
            y = np.minimum(h, 0.0)
            np.expm1(y, out=y)
            h = np.maximum(y, h, out=y)
        elif spec.kind == "relu":
            if want_tape:
                records.append(h > 0.0)
            h = np.maximum(h, 0.0)
        elif spec.kind == "residual_begin":
            res_stack.append(h)
            if want_tape:
                records.append(None)
        else:  # residual_end
            h = h + res_stack.pop()
            if want_tape:
                records.append(None)
        # Activations and span starts map finite inputs to finite outputs;
        # their input is only unchecked at layer 0, the network input.
        if (i == 0 or spec.kind in _MAY_OVERFLOW) and not np.isfinite(h).all():
            raise NumericFault(f"non-finite output at layer {i} ({spec.kind})")
    if not want_tape:
        return h, None
    return h, Tape(net, records, x.shape[0])


def backward(
    net: Network,
    tape: Tape,
    output_grad: np.ndarray,
    accumulate: bool = True,
    want_input_grad: bool = True,
) -> np.ndarray | None:
    """Reverse-mode pass for a tape produced by ``forward`` on ``net``.

    Parameter gradients accumulate into each block's ``gw``/``gb`` unless
    ``accumulate`` is False (useful when only the input gradient matters,
    e.g. differentiating a critic w.r.t. its action input).  With
    ``want_input_grad`` False the input gradient is never formed and the
    call returns None.
    """
    if tape.net is not net:
        raise ContractViolation("tape belongs to a different network")
    if tape.version != net.version:
        raise ContractViolation("stale tape: parameters changed since forward")
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != (tape.batch, net.out_dim):
        raise ConfigError(f"output_grad shape {g.shape} does not match ({tape.batch}, {net.out_dim})")
    res_gstack: list[np.ndarray] = []
    for i in range(len(net.specs) - 1, -1, -1):
        spec, blk, rec = net.specs[i], net.blocks[i], tape.records[i]
        if spec.kind == "linear":
            if accumulate:
                blk.gw += rec.T @ g
                blk.gb += g.sum(axis=0)
            if i or want_input_grad:
                g = g @ blk.w.T
        elif spec.kind == "layer_norm":
            xhat, inv = rec
            dxhat = g * blk.w[0]
            t = dxhat * xhat
            m2 = t.mean(axis=1, keepdims=True)
            if accumulate:
                blk.gw += np.multiply(g, xhat, out=t).sum(axis=0, keepdims=True)
                blk.gb += g.sum(axis=0)
            m1 = dxhat.mean(axis=1, keepdims=True)
            # inv * (dxhat - m1 - xhat * m2) in place, same operations in the same order
            dxhat -= m1
            dxhat -= np.multiply(xhat, m2, out=t)
            dxhat *= inv
            g = dxhat
        elif spec.kind == "elu":
            # exp(0) == 1 is the derivative on the positive side
            der = np.minimum(rec, 0.0)
            np.exp(der, out=der)
            der *= g
            g = der
        elif spec.kind == "relu":
            g = g * rec
        elif spec.kind == "residual_begin":
            g = g + res_gstack.pop()
        else:  # residual_end: split gradient between inner stack and skip
            res_gstack.append(g)
    return g if want_input_grad else None


def adam_step(
    block: ParamBlock,
    lr: float,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> None:
    """Bias-corrected Adam update; zeroes the gradients afterwards.

    Non-finite gradients abort before touching any state.
    """
    if not (np.isfinite(block.gw).all() and np.isfinite(block.gb).all()):
        raise NumericFault("non-finite gradient; Adam step aborted")
    block.step_count += 1
    t = block.step_count
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, gr, m, v in ((block.w, block.gw, block.mw, block.vw), (block.b, block.gb, block.mb, block.vb)):
        m *= beta1
        m += (1.0 - beta1) * gr
        v *= beta2
        v += (1.0 - beta2) * gr * gr
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    block.zero_grads()


def adam_step_net(net: Network, lr: float, beta1: float = ADAM_BETA1, beta2: float = ADAM_BETA2, eps: float = ADAM_EPS) -> None:
    for blk in net.param_blocks():
        adam_step(blk, lr, beta1, beta2, eps)
    net.bump_version()


def soft_update_net(target: Network, online: Network, tau: float) -> None:
    """target <- (1 - tau) * target + tau * online, parameter by parameter."""
    tb, ob = target.param_blocks(), online.param_blocks()
    if len(tb) != len(ob):
        raise ConfigError("networks differ in structure")
    for t, o in zip(tb, ob):
        if t.w.shape != o.w.shape or t.b.shape != o.b.shape:
            raise ConfigError("networks differ in parameter shapes")
        t.w *= 1.0 - tau
        t.w += tau * o.w
        t.b *= 1.0 - tau
        t.b += tau * o.b
    target.bump_version()


# ---------------------------------------------------------------------------
# Builders


def mlp_specs(in_dim: int, hidden: int, out_dim: int, hidden_blocks: int = 2, activation: str = "elu") -> list[LayerSpec]:
    """Layer stack of a residual perceptron.

    One plain block (linear -> layer norm -> activation) maps the input to
    the hidden width, then ``hidden_blocks`` residual-wrapped blocks at
    constant width, then a final linear projection.  ``hidden_blocks=2``
    gives the default 4-linear-layer network.
    """
    if activation not in ("elu", "relu"):
        raise ConfigError(f"unsupported activation {activation!r}")
    specs = [
        LayerSpec("linear", in_dim, hidden),
        LayerSpec("layer_norm", hidden, hidden),
        LayerSpec(activation, hidden, hidden),
    ]
    for _ in range(hidden_blocks):
        specs += [
            LayerSpec("residual_begin", hidden, hidden),
            LayerSpec("linear", hidden, hidden),
            LayerSpec("layer_norm", hidden, hidden),
            LayerSpec(activation, hidden, hidden),
            LayerSpec("residual_end", hidden, hidden),
        ]
    specs.append(LayerSpec("linear", hidden, out_dim))
    return specs


def init_blocks(specs: list[LayerSpec], rng: np.random.Generator, out_scale: float = 1.0) -> list[ParamBlock | None]:
    """Fan-in uniform init for linear layers, identity for layer norm.

    ``out_scale`` shrinks the final linear layer (useful for policy heads
    that should start near zero).
    """
    blocks: list[ParamBlock | None] = []
    last_linear = max(i for i, s in enumerate(specs) if s.kind == "linear")
    for i, spec in enumerate(specs):
        if spec.kind == "linear":
            k = 1.0 / np.sqrt(spec.in_dim)
            w = rng.uniform(-k, k, size=(spec.in_dim, spec.out_dim))
            b = rng.uniform(-k, k, size=spec.out_dim)
            if i == last_linear:
                w *= out_scale
                b *= out_scale
            blocks.append(ParamBlock(w, b))
        elif spec.kind == "layer_norm":
            blocks.append(ParamBlock(np.ones((1, spec.in_dim)), np.zeros(spec.in_dim)))
        else:
            blocks.append(None)
    return blocks


def build_mlp(
    in_dim: int,
    hidden: int,
    out_dim: int,
    rng: np.random.Generator,
    hidden_blocks: int = 2,
    activation: str = "elu",
    out_scale: float = 1.0,
) -> Network:
    specs = mlp_specs(in_dim, hidden, out_dim, hidden_blocks, activation)
    return Network(specs, init_blocks(specs, rng, out_scale))


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class GradCheckEntry:
    block_index: int
    kind: str
    max_rel_err: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e.max_rel_err < self.tolerance for e in self.entries)

    @property
    def worst(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)


def _block_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic - numeric))) / scale


def grad_check(net: Network, x: np.ndarray, tolerance: float = 1e-6, step: float = 1e-5, seed: int = 0) -> GradCheckReport:
    """Compare reverse-mode parameter gradients with central differences.

    The probe loss is sum(output * G) for a fixed random G, which makes
    the analytic gradient a single backward pass.  Only practical for
    small networks (<= ~1e4 parameters).
    """
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    y, tape = forward(net, x)
    g = rng.standard_normal(y.shape)

    net.zero_grads()
    backward(net, tape, g)
    analytic = [(blk.gw.copy(), blk.gb.copy()) for blk in net.param_blocks()]
    net.zero_grads()

    def probe() -> float:
        out, _ = forward(net, x, want_tape=False)
        return float((out * g).sum())

    entries: list[GradCheckEntry] = []
    param_layer_idx = [i for i, b in enumerate(net.blocks) if b is not None]
    for bi, blk in enumerate(net.param_blocks()):
        num_w = np.zeros_like(blk.w)
        num_b = np.zeros_like(blk.b)
        for arr, out in ((blk.w, num_w), (blk.b, num_b)):
            flat = arr.reshape(-1)
            nout = out.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up = probe()
                flat[j] = orig - step
                down = probe()
                flat[j] = orig
                nout[j] = (up - down) / (2.0 * step)
        aw, ab = analytic[bi]
        err = max(_block_rel_err(aw, num_w), _block_rel_err(ab, num_b))
        li = param_layer_idx[bi]
        entries.append(GradCheckEntry(li, net.specs[li].kind, err))
    return GradCheckReport(entries, tolerance)


# ---------------------------------------------------------------------------
# Serialization: text manifest + flat little-endian float64 blob

_MANIFEST_FORMAT = "fieldsac-net-v1"


def save_network(net: Network, prefix: str, with_optimizer: bool = False) -> tuple[str, str]:
    """Write ``<prefix>.manifest`` and ``<prefix>.bin``; returns both paths.

    The blob is every parameter block in declaration order (weights
    row-major, then bias), optionally followed by the Adam state.  The
    round trip is bit-exact.
    """
    lines = [
        f"format = {_MANIFEST_FORMAT}",
        "dtype = float64-le",
        f"num_layers = {len(net.specs)}",
        f"with_optimizer = {int(with_optimizer)}",
    ]
    for i, spec in enumerate(net.specs):
        lines.append(f"layer.{i} = {spec.kind} {spec.in_dim} {spec.out_dim}")
    parts: list[np.ndarray] = []
    for blk in net.param_blocks():
        parts.append(blk.w.reshape(-1))
        parts.append(blk.b)
    if with_optimizer:
        for blk in net.param_blocks():
            parts += [blk.mw.reshape(-1), blk.vw.reshape(-1), blk.mb, blk.vb, np.array([float(blk.step_count)])]
    blob = np.concatenate(parts) if parts else np.zeros(0)
    man_path, bin_path = prefix + ".manifest", prefix + ".bin"
    with open(man_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(bin_path, "wb") as f:
        f.write(blob.astype("<f8").tobytes())
    return man_path, bin_path


def load_network(prefix: str) -> Network:
    man_path, bin_path = prefix + ".manifest", prefix + ".bin"
    kv: dict[str, str] = {}
    with open(man_path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    if kv.get("format") != _MANIFEST_FORMAT:
        raise ConfigError(f"unrecognized manifest format in {man_path}")
    n_layers = int(kv["num_layers"])
    with_optimizer = bool(int(kv.get("with_optimizer", "0")))
    specs: list[LayerSpec] = []
    for i in range(n_layers):
        kind, in_dim, out_dim = kv[f"layer.{i}"].split()
        specs.append(LayerSpec(kind, int(in_dim), int(out_dim)))
    blob = np.frombuffer(open(bin_path, "rb").read(), dtype="<f8").astype(np.float64)

    off = 0

    def take(n: int) -> np.ndarray:
        nonlocal off
        if off + n > blob.size:
            raise ConfigError(f"blob in {bin_path} is shorter than the manifest promises")
        out = blob[off : off + n].copy()
        off += n
        return out

    blocks: list[ParamBlock | None] = []
    for spec in specs:
        if spec.kind == "linear":
            w = take(spec.in_dim * spec.out_dim).reshape(spec.in_dim, spec.out_dim)
            blocks.append(ParamBlock(w, take(spec.out_dim)))
        elif spec.kind == "layer_norm":
            blocks.append(ParamBlock(take(spec.in_dim).reshape(1, spec.in_dim), take(spec.in_dim)))
        else:
            blocks.append(None)
    net = Network(specs, blocks)
    if with_optimizer:
        for blk in net.param_blocks():
            blk.mw = take(blk.w.size).reshape(blk.w.shape)
            blk.vw = take(blk.w.size).reshape(blk.w.shape)
            blk.mb = take(blk.b.size)
            blk.vb = take(blk.b.size)
            blk.step_count = int(take(1)[0])
    if off != blob.size:
        raise ConfigError(f"blob in {bin_path} has {blob.size - off} unexpected trailing values")
    return net

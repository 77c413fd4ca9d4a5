"""Dense feed-forward networks with hand-written reverse-mode gradients.

The layer vocabulary is deliberately tiny: linear, layer norm, ELU, ReLU
and residual spans.  Everything runs in float64 and stays on the CPU.
A forward pass records a tape; ``backward`` replays it exactly, so the
gradients are the true reverse-mode derivatives (verified against central
finite differences by ``grad_check``).

Tapes are single-use: ``backward`` frees each record as soon as its layer
is done, and a second backward on the same tape raises
``ContractViolation``.  An ELU right after a layer norm records nothing:
backward rebuilds its input from the layer norm's record with the
forward's own operations (``xhat * w``, then ``+= b``), so the bits
match a stored copy.

Buffer ownership: a pass overwrites only buffers it made itself and that
nothing else holds: never the caller's input or output gradient, a tape
record (``xhat`` stays readable after backward), or a residual skip
while its span still needs it.  Within that, a forward's layer norm
centres its input (the linear layer's output) in place and, without a
tape, also scales it in place; relu and the residual add write into the
buffer they own.  The layer-norm backward reuses its ``g * xhat`` buffer
as scratch.  An in-place operation computes the bits of its
fresh-buffer form.

Batches are 2-D float64 arrays, one row per sample, features along
columns.  One network instance must only be mutated from a single thread;
share read-only copies (``Network.params_copy``) across threads instead.

Parameter arena: a network keeps all of its state in one ``Arena``.  A
network that Adam steps holds four flat float64 vectors (parameters,
gradients, Adam ``m`` and Adam ``v``) plus one Adam step count.  A
params-only network (``Network.params_copy``: the soft-updated target
critics and the published policy snapshots) holds the parameter vector
alone and refuses to accumulate gradients, zero them or take an Adam
step.  The vectors are laid out block by block, ``w`` (row-major) then
``b``, which is also the order of the parameter part of a
``fieldsac-net-v1`` blob; the blob carries the optimizer part exactly
when the network has one, and still stores the step count once per
block.  Every ``ParamBlock`` field (``w``, ``b``, ``gw``, ``gb``, ``mw``,
``vw``, ``mb``, ``vb``) is a reshaped view into the arena, None where the
arena holds no such vector, so Adam, soft updates, gradient zeroing,
copies and fingerprints each act on whole vectors.

Two lanes: numpy releases the GIL inside BLAS and ufunc loops, so on two
cores two halves of one pass overlap.  From ``_BOTH_MIN_WORK``
multiply-adds (rows x parameters) up, ``forward`` and ``backward`` split
their rows at ``cut = rows // 2``: the calling thread runs rows
``[:cut]`` and a worker thread, started for the pass and joined before
it returns, runs the private body on rows ``[cut:]``.  One tape holds
both halves' records.  The worker's half adds its parameter gradients
into a spare vector laid out like the arena, which the calling thread
adds into ``arena.grads`` once, after the join.  The halves' outputs are
stacked, and their input gradients fill the two halves of one array.  A lock allows one
worker at a time, so at most two threads run passes; a pass that finds
it taken runs its second half after the first on its own thread.  The
split depends on the shape alone, so whether the halves run on two
threads or one after the other changes no bit.  Below the gate the pass
runs whole on the calling thread.

``want_tape="input_grad"`` records no linear-layer inputs, which only
parameter gradients need; such a tape is smaller and ``backward``
refuses to accumulate from it.

Finite scans: ``forward`` checks for non-finite values only at the
output and at the input of every ``relu``/``elu``.  Those are the only
layers that can turn a non-finite value (``-inf``) finite; linear, layer
norm and residual layers keep a non-finite row non-finite.  When a scan
fails, the pass is repeated checking every layer, so the ``NumericFault``
names the first layer whose output stopped being finite.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable

import numpy as np

from . import artifacts
from .errors import ConfigError, ContractViolation, NumericFault

LAYER_KINDS = ("linear", "layer_norm", "elu", "relu", "residual_begin", "residual_end")
# Kinds that can map a non-finite input (-inf) to a finite output.
_CAN_HIDE_FAULT = ("elu", "relu")

# Epsilon inside the layer-norm square root; keeps zero-variance rows finite.
LN_EPS = 1e-5

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Multiply-adds per pass (rows x parameters) from which a pass splits its
# rows over two threads (see the module docstring).  On a 2-vCPU host
# ``tools/twin_crossover.py`` timed a critic pass split at 1.37-1.56x its
# whole time at desk shapes (3.1e6), at 0.55-1.31x from 1.1e7 to 4.6e7 and
# at 0.52-1.05x at full scale (5.1e8), lower when the other core was free
# (four runs).
_BOTH_MIN_WORK = 1 << 24

@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int
    out_dim: int


_VECTORS = ("params", "grads", "m", "v")


class Arena:
    """Flat float64 storage for parameter blocks: parameters, gradients,
    Adam first and second moments, and the Adam step count they share.
    A params-only arena has ``grads``, ``m`` and ``v`` None."""

    __slots__ = (*_VECTORS, "step_count")

    def __init__(self, size: int, params_only: bool = False):
        self.params = np.zeros(size)
        self.grads, self.m, self.v = (None,) * 3 if params_only else (np.zeros(size) for _ in range(3))
        self.step_count = 0

    @property
    def params_only(self) -> bool:
        return self.grads is None

    @property
    def vectors(self) -> tuple[str, ...]:
        """Names of the vectors this arena holds."""
        return _VECTORS[:1] if self.params_only else _VECTORS

    def copy(self) -> "Arena":
        out = Arena.__new__(Arena)
        for name in _VECTORS:
            vec = getattr(self, name)
            setattr(out, name, None if vec is None else vec.copy())
        out.step_count = self.step_count
        return out


def _require_optimizer(arena: Arena, action: str) -> None:
    if arena.params_only:
        raise ContractViolation(f"a params-only network cannot {action}")


class ParamBlock:
    """Parameters, gradient accumulators and Adam state for one layer.

    ``w`` is 2-D: ``(in_dim, out_dim)`` for linear layers, ``(1, dim)``
    (the gain) for layer norm.  ``b`` is the bias/shift vector.  All
    eight fields are views into ``arena`` over ``[start, stop)``, or None
    where a params-only arena has no such vector: a block built on its
    own owns a private arena, a network's blocks share the network's.
    """

    __slots__ = ("arena", "start", "stop", "w", "b", "gw", "gb", "mw", "vw", "mb", "vb")

    def __init__(self, w: np.ndarray, b: np.ndarray):
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1:
            raise ConfigError("ParamBlock expects a 2-D weight and 1-D bias")
        self._bind(Arena(w.size + b.size), 0, w.shape, b.size)
        self.w[...] = w
        self.b[...] = b

    @classmethod
    def _view(cls, arena: Arena, start: int, w_shape: tuple[int, int], b_size: int) -> "ParamBlock":
        blk = cls.__new__(cls)
        blk._bind(arena, start, w_shape, b_size)
        return blk

    def _bind(self, arena: Arena, start: int, w_shape: tuple[int, int], b_size: int) -> None:
        mid = start + w_shape[0] * w_shape[1]
        stop = mid + b_size
        self.arena, self.start, self.stop = arena, start, stop
        (self.w, self.b), (self.gw, self.gb), (self.mw, self.mb), (self.vw, self.vb) = (
            (None, None) if vec is None else (vec[start:mid].reshape(w_shape), vec[mid:stop])
            for vec in (arena.params, arena.grads, arena.m, arena.v)
        )

    @property
    def step_count(self) -> int:
        return self.arena.step_count

    def n_params(self) -> int:
        return self.stop - self.start

    def zero_grads(self) -> None:
        _require_optimizer(self.arena, "zero gradients")
        self.arena.grads[self.start : self.stop] = 0.0


def _param_shapes(spec: LayerSpec) -> tuple[tuple[int, int], int] | None:
    """(w shape, b size) of a layer kind that has parameters, else None."""
    if spec.kind == "linear":
        return (spec.in_dim, spec.out_dim), spec.out_dim
    if spec.kind == "layer_norm":
        return (1, spec.in_dim), spec.in_dim
    return None


def arena_blocks(specs: list[LayerSpec], arena: Arena | None = None, params_only: bool = False) -> list[ParamBlock | None]:
    """Parameter blocks for ``specs`` as views into ``arena``, laid out
    block by block (``w`` then ``b``); a zeroed arena of the right size,
    params-only if asked, is allocated when none is given."""
    shapes = [_param_shapes(s) for s in specs]
    size = sum(ws[0] * ws[1] + bs for ws, bs in filter(None, shapes))
    if arena is None:
        arena = Arena(size, params_only)
    elif arena.params.size != size:
        raise ConfigError(f"arena holds {arena.params.size} parameters, the layers need {size}")
    blocks: list[ParamBlock | None] = []
    off = 0
    for shape in shapes:
        if shape is None:
            blocks.append(None)
            continue
        blk = ParamBlock._view(arena, off, *shape)
        off = blk.stop
        blocks.append(blk)
    return blocks


class Network:
    """An ordered stack of layers plus their parameter blocks.

    ``blocks[i]`` is ``None`` for parameter-free layers.  ``version``
    increments on every parameter mutation and is used to detect stale
    tapes.  The network adopts the blocks it is given: blocks that
    already tile one arena in layer order keep it (no copy); otherwise
    their state (the vectors their arenas hold, which must agree) is
    copied into a fresh arena, a block that was on its own is re-bound to
    it, and a block that was part of another arena is replaced by a view
    so that arena stays intact.
    """

    def __init__(self, specs: list[LayerSpec], blocks: list[ParamBlock | None]):
        if len(specs) != len(blocks):
            raise ConfigError("specs and blocks must align")
        _validate_stack(specs, blocks)
        self.specs = list(specs)
        self.blocks = list(blocks)
        self.arena = self._adopt()
        self.version = 0
        # scan where an activation could hide a fault, and at the output
        last = len(self.specs) - 1
        self.finite_scans = tuple(i == last or self.specs[i + 1].kind in _CAN_HIDE_FAULT for i in range(last + 1))

    def _adopt(self) -> Arena:
        pbs = self.param_blocks()
        offsets = list(accumulate((b.n_params() for b in pbs), initial=0))
        first = pbs[0].arena if pbs else None
        if first is not None and first.params.size == offsets[-1] and all(
            b.arena is first and b.start == off for b, off in zip(pbs, offsets)
        ):
            return first
        steps = {b.arena.step_count for b in pbs}
        if len(steps) > 1:
            raise ConfigError(f"parameter blocks disagree on the Adam step count: {sorted(steps)}")
        kinds = {b.arena.params_only for b in pbs}
        if len(kinds) > 1:
            raise ConfigError("parameter blocks mix params-only and optimizer arenas")
        arena = Arena(offsets[-1], kinds.pop() if kinds else False)
        arena.step_count = steps.pop() if steps else 0
        k = 0
        for i, blk in enumerate(self.blocks):
            if blk is None:
                continue
            src, dst = slice(blk.start, blk.stop), slice(offsets[k], offsets[k + 1])
            for name in arena.vectors:
                getattr(arena, name)[dst] = getattr(blk.arena, name)[src]
            if blk.n_params() == blk.arena.params.size:
                blk._bind(arena, dst.start, blk.w.shape, blk.b.size)
            else:
                self.blocks[i] = ParamBlock._view(arena, dst.start, blk.w.shape, blk.b.size)
            k += 1
        return arena

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim

    def param_blocks(self) -> list[ParamBlock]:
        return [b for b in self.blocks if b is not None]

    def n_params(self) -> int:
        return self.arena.params.size

    def zero_grads(self) -> None:
        _require_optimizer(self.arena, "zero gradients")
        self.arena.grads[:] = 0.0

    def bump_version(self) -> None:
        self.version += 1

    def copy(self) -> "Network":
        """Copy of every vector the network holds."""
        net = Network(self.specs, arena_blocks(self.specs, self.arena.copy()))
        net.version = self.version
        return net

    def params_copy(self, read_only: bool = False) -> "Network":
        """Params-only copy, for a network no optimizer steps.  With
        ``read_only`` the vector is locked before the block views are made,
        so they reject writes too."""
        arena = Arena(self.n_params(), params_only=True)
        arena.params[:] = self.arena.params
        arena.params.flags.writeable = not read_only
        return Network(self.specs, arena_blocks(self.specs, arena))


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
    """Activation record from one forward pass, consumed by one ``backward``:
    the pass frees each record once its layer is done and leaves
    ``records`` None, so a second pass on the tape is refused.  Without
    ``keeps_inputs`` (an ``"input_grad"`` tape) the linear layers' records
    are None; an ELU right after a layer norm records nothing either.
    A pass split over two lanes at ``cut`` keeps the records of rows
    ``[:cut]`` in ``records`` and those of rows ``[cut:]`` in ``tail``; an
    unsplit pass has ``cut`` 0 and ``tail`` None."""

    __slots__ = ("net", "version", "records", "tail", "cut", "batch", "keeps_inputs")

    def __init__(self, net: Network, records: list, tail: list | None, cut: int, batch: int, keeps_inputs: bool):
        self.net = net
        self.version = net.version
        self.records = records
        self.tail = tail
        self.cut = cut
        self.batch = batch
        self.keeps_inputs = keeps_inputs


def forward(net: Network, x: np.ndarray, want_tape: bool | str = True) -> tuple[np.ndarray, Tape | None]:
    """Run the stack on a batch ``x`` of shape (batch, in_dim).

    Returns the output batch and, when ``want_tape`` is set, the tape
    needed for an exact backward pass; ``want_tape="input_grad"`` keeps no
    linear-layer inputs, so its tape serves only ``backward(...,
    accumulate=False)``.  Raises NumericFault with the layer index if any
    intermediate stops being finite.
    """
    if want_tape not in (True, False, "input_grad"):
        raise ConfigError(f"want_tape must be True, False or 'input_grad', got {want_tape!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ConfigError(f"input of shape {x.shape} does not match in_dim {net.in_dim}")
    rows = x.shape[0]
    cut = rows // 2 if rows * net.n_params() >= _BOTH_MIN_WORK else 0
    halves = _halves(cut, rows, lambda k, part: _run(net, x[part], want_tape, net.finite_scans))
    if any(bad >= 0 for _, _, bad in halves):
        # The trimmed scans only show that some layer up to ``bad`` failed;
        # checking every layer of the whole batch names the first one.
        bad = _run(net, x, False, (True,) * len(net.specs))[2]
        raise NumericFault(f"non-finite output at layer {bad} ({net.specs[bad].kind})")
    h = halves[0][0] if len(halves) == 1 else np.concatenate([halves[0][0], halves[1][0]])
    if not want_tape:
        return h, None
    tail = halves[1][1] if cut else None
    return h, Tape(net, halves[0][1], tail, cut, rows, want_tape != "input_grad")


# Held while a worker thread runs half a pass, so at most two threads run passes.
_LANE_OPEN = threading.Lock()


def _halves(cut: int, rows: int, job: Callable[[int, slice], object]) -> list:
    """``[job(0, rows [:cut]), job(1, rows [cut:])]``, the second on a
    worker thread while the first runs here (after it when another pass
    holds the worker), or ``[job(0, all rows)]`` when ``cut`` is 0.  The
    worker is joined before this returns; its error is raised here,
    unless the first half raised first.  Jobs call only nn-private code: a
    profiler that wraps the public functions keeps one span stack for the
    process."""
    if not cut:
        return [job(0, slice(0, rows))]
    first, second = partial(job, 0, slice(0, cut)), partial(job, 1, slice(cut, rows))
    if not _LANE_OPEN.acquire(blocking=False):
        return [first(), second()]
    try:
        box: list = []
        worker = threading.Thread(target=_catch, args=(second, box))
        worker.start()
        try:
            out = first()
        finally:
            worker.join()
    finally:
        _LANE_OPEN.release()
    result, error = box[0]
    if error is not None:
        raise error
    return [out, result]


def _catch(job: Callable, box: list) -> None:
    try:
        box.append((job(), None))
    except BaseException as e:  # re-raised on the calling thread
        box.append((None, e))


def _mean_rows(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=1, keepdims=True)`` without numpy's wrapper: the same
    sum and the same in-place division, so the same bits."""
    mu = np.add.reduce(a, axis=1, keepdims=True)
    mu /= a.shape[1]
    return mu


def _run(net: Network, x: np.ndarray, want_tape: bool | str, scans: tuple[bool, ...]) -> tuple[np.ndarray, list, int]:
    """The forward loop; stops at the first layer ``i`` with ``scans[i]``
    set whose output is not finite and returns its index (-1 if none)."""
    keep_inputs = want_tape != "input_grad"
    h = x
    own = False  # whether ``h`` is a buffer of this pass that nothing else holds
    records: list = []
    res_stack: list[np.ndarray] = []
    for i, (spec, blk, scan) in enumerate(zip(net.specs, net.blocks, scans)):
        if spec.kind == "linear":
            if want_tape:
                records.append(h if keep_inputs else None)
            h = h @ blk.w
            h += blk.b
        elif spec.kind == "layer_norm":
            xhat = np.subtract(h, _mean_rows(h), out=h if own else None)
            var = np.einsum("ij,ij->i", xhat, xhat) / h.shape[1]
            inv = (1.0 / np.sqrt(var + LN_EPS))[:, None]
            xhat *= inv
            if want_tape:
                records.append((xhat, inv))
            h = np.multiply(xhat, blk.w[0], out=None if want_tape else xhat)
            h += blk.b
        elif spec.kind == "elu":
            if want_tape:
                # after a layer norm, backward rebuilds the input from its record
                records.append(None if i and net.specs[i - 1].kind == "layer_norm" else h)
            # expm1(x) >= x for x <= 0, so the max picks expm1 exactly there
            y = np.minimum(h, 0.0)
            np.expm1(y, out=y)
            h = np.maximum(y, h, out=y)
        elif spec.kind == "relu":
            if want_tape:
                records.append(h > 0.0)
            h = np.maximum(h, 0.0, out=h if own else None)
        elif spec.kind == "residual_begin":
            res_stack.append(h)
            if want_tape:
                records.append(None)
        else:  # residual_end
            h = np.add(h, res_stack.pop(), out=h if own else None)
            if want_tape:
                records.append(None)
        own = spec.kind != "residual_begin"  # the skip shares h until the next layer replaces it
        if scan and not np.isfinite(h).all():
            return h, records, i
    return h, records, -1


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
    call returns None.  A tape of a split pass is replayed in the same two
    halves (see the module docstring).
    """
    if tape.net is not net:
        raise ContractViolation("tape belongs to a different network")
    if tape.version != net.version:
        raise ContractViolation("stale tape: parameters changed since forward")
    if tape.records is None:
        raise ContractViolation("tape already consumed: a tape serves one backward pass")
    if accumulate and not tape.keeps_inputs:
        raise ContractViolation("an input_grad tape keeps no layer inputs, so it cannot accumulate parameter gradients")
    if accumulate:
        _require_optimizer(net.arena, "accumulate parameter gradients")
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != (tape.batch, net.out_dim):
        raise ConfigError(f"output_grad shape {g.shape} does not match ({tape.batch}, {net.out_dim})")
    gin = np.empty((tape.batch, net.in_dim)) if want_input_grad else None
    cut, halves = tape.cut, [tape.records, tape.tail]
    tape.records = tape.tail = None  # single use
    grads = [net.arena.grads, np.zeros(net.n_params()) if cut else None] if accumulate else [None, None]

    def half(k: int, rows: slice) -> None:
        _backward(net, halves[k], g[rows], grads[k], None if gin is None else gin[rows])

    _halves(cut, tape.batch, half)
    if grads[1] is not None:
        net.arena.grads += grads[1]
    return gin


def _backward(net: Network, records: list, g: np.ndarray, grads: np.ndarray | None, out: np.ndarray | None) -> None:
    """One backward over the per-layer ``records``, freeing each as it goes.
    Parameter gradients accumulate into ``grads``, a flat vector laid out
    like the arena, unless it is None; the input gradient is written into
    ``out`` unless it is None."""
    own = False  # whether ``g`` is a buffer of this pass, free to overwrite
    res_gstack: list[np.ndarray] = []
    for i in range(len(net.specs) - 1, -1, -1):
        spec, blk, rec = net.specs[i], net.blocks[i], records[i]
        records[i] = None
        if spec.kind == "linear":
            if grads is not None:
                gw, gb = _grad_views(blk, grads)
                gw += rec.T @ g
                gb += g.sum(axis=0)
            if i:
                g, own = g @ blk.w.T, True
            elif out is not None:
                np.matmul(g, blk.w.T, out=out)
        elif spec.kind == "layer_norm":
            g, own = _layer_norm_grad(blk, *rec, g, own, None if grads is None else _grad_views(blk, grads)), True
        elif spec.kind == "elu":
            if rec is None:  # the preceding layer norm's output, rebuilt as the forward built it
                rec = records[i - 1][0] * net.blocks[i - 1].w[0]
                rec += net.blocks[i - 1].b
                np.minimum(rec, 0.0, out=rec)
            else:
                rec = np.minimum(rec, 0.0)
            # exp(0) == 1 is the derivative on the positive side
            np.exp(rec, out=rec)
            rec *= g
            g, own = rec, True
        elif spec.kind == "relu":
            g, own = np.multiply(g, rec, out=g if own else None), True
        elif spec.kind == "residual_begin":
            g, own = np.add(g, res_gstack.pop(), out=g if own else None), True
        else:  # residual_end: split gradient between inner stack and skip
            res_gstack.append(g)
            own = False
    if out is not None and net.specs[0].kind != "linear":
        out[...] = g


def _grad_views(blk: ParamBlock, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``blk``'s ``(gw, gb)`` in a flat gradient vector laid out like its arena."""
    mid = blk.start + blk.w.size
    return grads[blk.start : mid].reshape(blk.w.shape), grads[mid : blk.stop]


def _layer_norm_grad(
    blk: ParamBlock, xhat: np.ndarray, inv: np.ndarray, g: np.ndarray, own: bool, grad: tuple[np.ndarray, np.ndarray] | None
) -> np.ndarray:
    """Input gradient of a layer norm, written into ``g`` when ``own``;
    the parameter gradients accumulate first into ``grad`` (``(gw, gb)``,
    unless None), while ``g`` is intact, and their ``g * xhat`` buffer is
    then the pass's scratch.  ``xhat`` is only read.  A function of its
    own so its temporaries die before the next layer."""
    t = None
    if grad is not None:
        gw, gb = grad
        t = np.multiply(g, xhat)
        gw += t.sum(axis=0, keepdims=True)
        gb += g.sum(axis=0)
    dxhat = np.multiply(g, blk.w[0], out=g if own else None)
    t = np.multiply(dxhat, xhat, out=t)
    m2 = _mean_rows(t)
    m1 = _mean_rows(dxhat)
    # inv * (dxhat - m1 - xhat * m2) in place, same operations in the same order
    dxhat -= m1
    dxhat -= np.multiply(xhat, m2, out=t)
    dxhat *= inv
    return dxhat


def adam_step(arena: Arena, lr: float) -> None:
    """One bias-corrected Adam step over a whole arena (a network's, or the
    one-element arena of log(alpha)): every parameter, one step count.
    Zeroes the gradients.  Raises NumericFault, with the arena as it was, when
    ``(1 - beta2) * g * g``, the bias-corrected ``v / c2`` or a new
    parameter is not finite, and ContractViolation on a params-only arena.
    """
    _require_optimizer(arena, "take an Adam step")
    t = arena.step_count + 1
    c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    # Each |x_i| <= sqrt(x @ x), v >= 0 keeps the square root real and the
    # step's denominator is at least eps: a bound under 1e300 proves every
    # value of the step finite.  A step it cannot bound runs on a copy first.
    with np.errstate(over="ignore", invalid="ignore"):
        gg, mm, pp = (float(x @ x) for x in (arena.grads, arena.m, arena.params))
        v_hat = (float(arena.v.max(initial=0.0)) + gg) / c2
        bound = v_hat + math.sqrt(pp) + abs(lr) * (math.sqrt(mm) + math.sqrt(gg)) / c1 / ADAM_EPS
    if not (bound < 1e300 and arena.v.min(initial=0.0) >= 0.0):
        trial = arena.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            _adam_update(trial, lr)
            if not math.isfinite(trial.v.max(initial=0.0) / c2):
                raise NumericFault("non-finite or overflowing gradient or second moment; Adam step aborted")
            if not math.isfinite(np.abs(trial.params).max(initial=0.0)):
                raise NumericFault("a parameter would leave the float range; Adam step aborted")
    _adam_update(arena, lr)


def _adam_update(arena: Arena, lr: float) -> None:
    p, gr, m, v = arena.params, arena.grads, arena.m, arena.v
    arena.step_count += 1
    t = arena.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    # v += (1 - beta2) * g * g;  m += (1 - beta1) * g;
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps): the same operations in the
    # same order, with one scratch vector and the spent gradient as another
    tmp = np.multiply(gr, 1.0 - ADAM_BETA2)
    tmp *= gr
    v *= ADAM_BETA2
    v += tmp
    np.multiply(gr, 1.0 - ADAM_BETA1, out=tmp)
    m *= ADAM_BETA1
    m += tmp
    np.divide(v, c2, out=gr)
    np.sqrt(gr, out=gr)
    gr += ADAM_EPS
    np.divide(m, c1, out=tmp)
    tmp *= lr
    tmp /= gr
    p -= tmp
    gr[:] = 0.0


def adam_step_net(net: Network, lr: float) -> None:
    """``adam_step`` over the network's arena, then a version bump."""
    adam_step(net.arena, lr)
    net.bump_version()


def soft_update_net(target: Network, online: Network, tau: float) -> None:
    """target <- (1 - tau) * target + tau * online, over the whole parameter vector."""
    if [_param_shapes(s) for s in target.specs] != [_param_shapes(s) for s in online.specs]:
        raise ConfigError("networks differ in parameter shapes")
    t = target.arena.params
    t *= 1.0 - tau
    t += tau * online.arena.params
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
    blocks = arena_blocks(specs)
    last_linear = max(i for i, s in enumerate(specs) if s.kind == "linear")
    for i, (spec, blk) in enumerate(zip(specs, blocks)):
        if spec.kind == "linear":
            k = 1.0 / np.sqrt(spec.in_dim)
            blk.w[...] = rng.uniform(-k, k, size=(spec.in_dim, spec.out_dim))
            blk.b[...] = rng.uniform(-k, k, size=spec.out_dim)
            if i == last_linear:
                blk.w *= out_scale
                blk.b *= out_scale
        elif spec.kind == "layer_norm":
            blk.w[...] = 1.0
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


def save_network(net: Network, prefix: str) -> tuple[str, str]:
    """Write ``<prefix>.manifest`` and ``<prefix>.bin``; returns both paths.

    The blob is every parameter block in declaration order (weights
    row-major, then bias), followed by the Adam state exactly when the
    network has one.  The round trip is bit-exact and gives back the same
    kind of network.
    """
    pairs = {
        "format": _MANIFEST_FORMAT,
        "dtype": "float64-le",
        "num_layers": len(net.specs),
        "with_optimizer": int(not net.arena.params_only),
    }
    for i, spec in enumerate(net.specs):
        pairs[f"layer.{i}"] = f"{spec.kind} {spec.in_dim} {spec.out_dim}"
    man_path, bin_path = prefix + ".manifest", prefix + ".bin"
    artifacts.write_manifest(man_path, pairs)
    steps = np.full(len(net.param_blocks()), float(net.arena.step_count))
    artifacts.write_blob(bin_path, _blob_parts(net, steps))
    return man_path, bin_path


def _blob_parts(net: Network, steps: np.ndarray) -> list[np.ndarray]:
    """The blob in file order as views, so it is written and read in place:
    the arena's parameter vector (already every block's ``w`` then ``b``),
    then, unless the network is params-only, per block, ``mw``, ``vw``,
    ``mb``, ``vb`` and its step count (an entry of ``steps``)."""
    parts = [net.arena.params]
    if not net.arena.params_only:
        for k, blk in enumerate(net.param_blocks()):
            parts += [blk.mw.reshape(-1), blk.vw.reshape(-1), blk.mb, blk.vb, steps[k : k + 1]]
    return parts


def _layer_spec(raw: str) -> LayerSpec:
    kind, in_dim, out_dim = raw.split()
    return LayerSpec(kind, int(in_dim), int(out_dim))


def load_network(prefix: str) -> Network:
    man = artifacts.Manifest(prefix + ".manifest", "network")
    man.get("format", artifacts.one_of(_MANIFEST_FORMAT))
    specs = [man.get(f"layer.{i}", _layer_spec) for i in range(man.get("num_layers", int))]
    net = Network(specs, arena_blocks(specs, params_only=not man.get("with_optimizer", int)))
    steps = np.zeros(len(net.param_blocks()))
    bin_path = prefix + ".bin"
    artifacts.read_blob(bin_path, _blob_parts(net, steps))
    counts = set(steps.tolist())  # all zero without the optimizer part
    if len(counts) > 1:
        raise ConfigError(f"blocks in {bin_path} disagree on the Adam step count: {sorted(counts)}")
    net.arena.step_count = int(counts.pop()) if counts else 0
    return net

"""In-memory span recording around calls into the library under test.

A ``Tracer`` keeps one row per call: name, start, end, parent span and two
optional numbers (``size``: rows or bytes; ``flop``: floating-point
operations computed from shapes).  ``install`` swaps public functions and
methods for recording wrappers; ``remove`` puts the originals back and
reports whether every one is back in place.  The wrappers only read
clocks and arguments, so a traced run computes exactly what an untraced
one does.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
import types
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

NO_PARENT = -1


class Tracer:
    """Span store; spans nest by call order on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.size = array("d")
        self.flop = array("d")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.size.append(0.0)
        self.flop.append(0.0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was innermost")

    def arrays(self) -> "SpanArrays":
        return SpanArrays(
            names=list(self.names),
            name_id=np.array(self.name_id, dtype=np.int64),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            size=np.array(self.size, dtype=np.float64),
            flop=np.array(self.flop, dtype=np.float64),
        )


@dataclass
class SpanArrays:
    names: list
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    size: np.ndarray
    flop: np.ndarray

    @property
    def duration_ns(self) -> np.ndarray:
        return self.end - self.start

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = self.duration_ns
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return dur - child.astype(np.int64)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.size, dtype=bool)
        return self.name_id == self.names.index(name)

    def context(self, roots: dict[str, str]) -> list:
        """Label per span: the label of its nearest ancestor-or-self named in ``roots``."""
        label_of_id = [roots.get(n) for n in self.names]
        out: list = [None] * self.name_id.size
        for i, (nid, par) in enumerate(zip(self.name_id.tolist(), self.parent.tolist())):
            own = label_of_id[nid]
            out[i] = own if own is not None else (out[par] if par >= 0 else None)
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            start=self.start,
            end=self.end,
            parent=self.parent,
            size=self.size,
            flop=self.flop,
        )


def percentile(values, q: float) -> tuple[float, int]:
    """Linearly interpolated q-th percentile and the sample count it rests on."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    if n == 0:
        return 0.0, 0
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo), n


# ---------------------------------------------------------------------------
# Wrapper install and removal


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded as span ``name``.

    ``annotate(args, kwargs, result) -> (size, flop)`` runs after the call;
    ``before(args, kwargs)`` runs ahead of it.  Both must only read.
    """

    owner: Any
    attr: str
    name: str
    annotate: Callable | None = None
    before: Callable | None = None


@dataclass(frozen=True)
class Patch:
    owner: Any
    attr: str
    original: Any


def _wrap(tracer: Tracer, fn, target: Target):
    annotate, before, name = target.annotate, target.before, target.name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if annotate is not None:
            tracer.size[idx], tracer.flop[idx] = annotate(args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer, targets: list[Target]) -> list[Patch]:
    """Replace each target with a recording wrapper; returns the undo list."""
    patches: list[Patch] = []
    try:
        for t in targets:
            raw = vars(t.owner)[t.attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(tracer, raw.__func__, t))
            else:
                wrapped = _wrap(tracer, raw, t)
            setattr(t.owner, t.attr, wrapped)
            patches.append(Patch(t.owner, t.attr, raw))
    except BaseException:
        remove(patches)
        raise
    return patches


def remove(patches: list[Patch]) -> bool:
    """Restore the originals in reverse order; True when all are back."""
    for p in reversed(patches):
        setattr(p.owner, p.attr, p.original)
    return all(vars(p.owner)[p.attr] is p.original for p in patches)


def span_cost_ns(calls: int = 20_000, trials: int = 5) -> float:
    """Median extra cost of one recorded call over a bare call, in ns."""
    holder = types.SimpleNamespace(f=lambda: None)
    bare = holder.f
    costs = []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter_ns()
        patches = install(Tracer(), [Target(holder, "f", "noop")])
        t2 = time.perf_counter_ns()
        for _ in range(calls):
            holder.f()
        t3 = time.perf_counter_ns()
        remove(patches)
        costs.append(((t3 - t2) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))

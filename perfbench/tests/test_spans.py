"""Tests of the benchmark's own helpers: self time, percentiles, wrappers.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spans  # noqa: E402


def _arrays(rows):
    """SpanArrays from (name, start, end, parent) rows."""
    names = sorted({r[0] for r in rows})
    return spans.SpanArrays(
        names=names,
        name_id=np.array([names.index(r[0]) for r in rows]),
        start=np.array([r[1] for r in rows]),
        end=np.array([r[2] for r in rows]),
        parent=np.array([r[3] for r in rows]),
        size=np.zeros(len(rows)),
        flop=np.zeros(len(rows)),
    )


def test_self_time_subtracts_direct_children_only():
    sp = _arrays([
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("b", 15, 25, 1),  # grandchild of root: counted against "a" only
        ("a", 50, 70, 0),
    ])
    assert sp.self_ns().tolist() == [100 - 30 - 20, 30 - 10, 10, 20]


def test_self_times_sum_to_root_duration():
    sp = _arrays([("root", 0, 90, -1), ("x", 5, 60, 0), ("y", 10, 20, 1), ("y", 30, 55, 1), ("x", 60, 88, 0)])
    assert sp.self_ns().sum() == 90


def test_context_takes_nearest_labelled_ancestor():
    sp = _arrays([("root", 0, 100, -1), ("learn", 1, 50, 0), ("f", 2, 3, 1), ("tick", 60, 90, 0), ("f", 61, 62, 3), ("f", 95, 96, 0)])
    assert sp.context({"learn": "L", "tick": "S"}) == [None, "L", "L", "S", "S", None]


def test_percentile_interpolates_and_counts():
    assert spans.percentile([4, 1, 3, 2], 50) == (2.5, 4)
    assert spans.percentile(range(101), 99) == (99.0, 101)
    assert spans.percentile([7], 99) == (7.0, 1)
    assert spans.percentile([], 50) == (0.0, 0)


def test_tracer_nests_and_rejects_out_of_order_close():
    tr = spans.Tracer()
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(outer)
    sp = tr.arrays()
    assert sp.parent.tolist() == [-1, 0]
    assert (sp.end >= sp.start).all() and sp.end[0] >= sp.end[1]
    a, b = tr.open("a"), tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)
    del b


class _Counter:
    def __init__(self):
        self.n = 0

    def bump(self, k):
        self.n += k
        return self.n

    @classmethod
    def make(cls):
        return cls()

    @staticmethod
    def twice(x):
        return 2 * x


def test_install_records_and_remove_restores():
    mod = types.ModuleType("fake")
    mod.double = lambda x: mod.helper(x) * 2
    mod.helper = lambda x: x + 1
    originals = {name: vars(mod)[name] for name in ("double", "helper")}
    class_originals = {name: vars(_Counter)[name] for name in ("bump", "make", "twice")}

    tr = spans.Tracer()
    seen = []
    patches = spans.install(tr, [
        spans.Target(mod, "double", "fake.double", annotate=lambda a, k, out: (a[0], float(out))),
        spans.Target(mod, "helper", "fake.helper"),
        spans.Target(_Counter, "bump", "counter.bump", before=lambda a, k: seen.append(a[0].n)),
        spans.Target(_Counter, "make", "counter.make"),
        spans.Target(_Counter, "twice", "counter.twice"),
    ])
    assert mod.double(3) == 8
    c = _Counter.make()
    assert c.bump(2) == 2 and c.bump(5) == 7
    assert _Counter.twice(4) == 8
    assert seen == [0, 2]

    sp = tr.arrays()
    names = [sp.names[i] for i in sp.name_id]
    assert names == ["fake.double", "fake.helper", "counter.make", "counter.bump", "counter.bump", "counter.twice"]
    assert sp.parent.tolist()[:2] == [-1, 0]
    assert (sp.size[0], sp.flop[0]) == (3.0, 8.0)

    assert spans.remove(patches)
    assert all(vars(mod)[n] is f for n, f in originals.items())
    assert all(vars(_Counter)[n] is f for n, f in class_originals.items())
    before = len(tr)
    mod.double(1)
    _Counter().bump(1)
    assert len(tr) == before


def test_failed_install_leaves_nothing_behind():
    mod = types.ModuleType("fake")
    mod.f = lambda: 1
    original = mod.f
    with pytest.raises(KeyError):
        spans.install(spans.Tracer(), [spans.Target(mod, "f", "fake.f"), spans.Target(mod, "missing", "fake.missing")])
    assert mod.f is original


def test_wrapped_call_that_raises_still_closes_its_span():
    mod = types.ModuleType("fake")

    def boom():
        raise ValueError("x")

    mod.boom = boom
    tr = spans.Tracer()
    patches = spans.install(tr, [spans.Target(mod, "boom", "fake.boom")])
    with pytest.raises(ValueError):
        mod.boom()
    spans.remove(patches)
    assert len(tr) == 1 and tr.end[0] >= tr.start[0]
    assert tr.open("next") == 1 and tr.parent[1] == -1


def test_library_targets_install_record_work_and_remove():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"))
    import targets
    from fieldsac import nn, replay

    lag = targets.SnapshotLag()
    wanted = targets.targets(lag)
    originals = [vars(t.owner)[t.attr] for t in wanted]
    tr = spans.Tracer()
    patches = spans.install(tr, wanted)
    assert isinstance(vars(replay.PrioritizedStore)["load"], classmethod)
    net = nn.build_mlp(3, 8, 2, np.random.default_rng(0))
    out, tape = nn.forward(net, np.ones((5, 3)))
    nn.backward(net, tape, np.ones_like(out), accumulate=False)
    assert spans.remove(patches)
    assert all(vars(t.owner)[t.attr] is f for t, f in zip(wanted, originals))

    macs = 3 * 8 + 8 * 8 + 8 * 8 + 8 * 2
    sp = tr.arrays()
    assert [sp.names[i] for i in sp.name_id] == ["nn.forward", "nn.backward"]
    assert sp.size.tolist() == [5.0, 5.0]
    assert sp.flop.tolist() == [2.0 * 5 * macs, 2.0 * 5 * macs]

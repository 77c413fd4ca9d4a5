import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fieldsac.errors import ConfigError, NotReadyError
from fieldsac.replay import (
    SEG_LEN,
    SEG_STRIDE,
    AnnealSchedule,
    PrioritizedStore,
    Segment,
    SegmentCutter,
    SumTree,
    segment_priority,
    validate_segment,
)

OBS_DIM, ACT_DIM, TAIL = 3, 2, 5


def run_episode_through_cutter(T, episode_id=0, obs_dim=OBS_DIM, rng=None):
    """Feed a synthetic T-step episode; obs row t encodes t for checking."""
    rng = rng or np.random.default_rng(0)
    cutter = SegmentCutter(obs_dim, ACT_DIM, episode_id, n_tail=TAIL)
    cutter.begin(np.full(obs_dim, 0.0))
    segs = []
    for t in range(T):
        action = np.full(ACT_DIM, float(t))
        reward = np.full(7, float(t))
        reward[1] = -abs(reward[1])  # keep penalty coords plausible
        segs += cutter.push(action, np.arange(7) * 0.0 + t, t == T - 1, np.full(obs_dim, float(t + 1)))
    return segs


def make_segment(rng, length=SEG_LEN, start=0, terminal=False):
    L, tail = SEG_LEN, TAIL
    obs = rng.standard_normal((L + tail, OBS_DIM))
    acts = rng.standard_normal((L, ACT_DIM))
    rews = rng.standard_normal((L + tail - 1, 7))
    dones = np.zeros(L + tail - 1, dtype=bool)
    if terminal or length < L:
        dones[length - 1 :] = True
    return Segment(obs, acts, rews, dones, episode_id=0, start_index=start, length=length)


class TestAnnealSchedule:
    def test_interpolation_points(self):
        s = AnnealSchedule()
        assert s.value(0) == pytest.approx(0.1)
        assert s.value(1500) == pytest.approx(0.5)
        assert s.value(3000) == pytest.approx(0.9)
        assert s.value(10_000) == pytest.approx(0.9)


class TestSegmentPriority:
    def test_paper_mix(self):
        assert segment_priority([1.0, 2.0, 3.0], eta=0.9) == pytest.approx(2.9)

    def test_constant_errors(self):
        for eta in (0.0, 0.3, 1.0):
            assert segment_priority([4.0, 4.0, 4.0], eta=eta) == pytest.approx(4.0)

    def test_degenerate_mixes(self):
        assert segment_priority([1.0, 5.0, 2.0], eta=1.0) == pytest.approx(5.0)
        assert segment_priority([1.0, 5.0, 3.0], eta=0.0) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            segment_priority([])


class TestSegmentCutter:
    def test_full_episode_gives_199_segments(self):
        segs = run_episode_through_cutter(1000)
        assert len(segs) == 199
        assert all(s.length == SEG_LEN for s in segs)
        assert segs[-1].start_index == 990

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 400), st.booleans())
    def test_an_episode_of_t_steps_cuts_at_most_t_over_stride(self, T, finished):
        # TrainConfig.validate rejects a budget from this bound
        cutter = SegmentCutter(OBS_DIM, ACT_DIM, 0, n_tail=TAIL)
        cutter.begin(np.zeros(OBS_DIM))
        n = sum(len(cutter.push(np.zeros(ACT_DIM), np.zeros(7), finished and t == T - 1, np.zeros(OBS_DIM))) for t in range(T))
        assert n <= T // SEG_STRIDE

    def test_start_indices_are_stride_multiples(self):
        segs = run_episode_through_cutter(137)
        starts = [s.start_index for s in segs]
        assert starts == sorted(starts)
        assert all(s % SEG_STRIDE == 0 for s in starts)

    def test_overlap_reconstruction_recovers_every_step(self):
        T = 123
        segs = run_episode_through_cutter(T)
        seen = {}
        for seg in segs:
            for offset in range(seg.length):
                t = seg.start_index + offset
                val = seg.actions[offset, 0]
                assert val == pytest.approx(float(t))  # same content at every overlap position
                seen.setdefault(t, 0)
                seen[t] += 1
        covered = sorted(seen)
        assert covered[0] == 0
        assert max(seen.values()) <= 2  # half overlap: at most two copies
        # every step up to the last full span is covered
        last_full_start = segs[-1].start_index
        assert covered[-1] >= last_full_start + segs[-1].length - 1

    def test_short_episode_emits_single_padded_segment(self):
        segs = run_episode_through_cutter(7)
        assert len(segs) == 1
        seg = segs[0]
        assert seg.length == 7
        assert seg.dones[6]
        assert not seg.dones[:6].any()
        validate_segment(seg, n_tail=TAIL)

    def test_tiny_episode_dropped(self):
        assert run_episode_through_cutter(4) == []

    def test_exact_multiple_has_no_trailing_partial(self):
        segs = run_episode_through_cutter(20)
        assert [s.start_index for s in segs] == [0, 5, 10]

    def test_terminal_inside_tail_flags_done(self):
        segs = run_episode_through_cutter(12)
        assert len(segs) == 1
        seg = segs[0]
        assert seg.length == 10
        assert seg.dones[11]  # step 11 is terminal, inside the tail rows
        assert not seg.dones[:11].any()
        # padded obs rows repeat the terminal observation
        assert np.array_equal(seg.obs[13], seg.obs[12])

    def test_segments_never_cross_episode_boundary(self):
        for T in (9, 23, 50, 111):
            for seg in run_episode_through_cutter(T):
                validate_segment(seg, n_tail=TAIL)
                assert seg.start_index + seg.length <= T


class TestValidateSegment:
    def test_rejects_bad_start_index(self):
        rng = np.random.default_rng(0)
        seg = make_segment(rng, start=3)
        with pytest.raises(ConfigError, match="start index"):
            validate_segment(seg, n_tail=TAIL)

    def test_rejects_boundary_crossing(self):
        rng = np.random.default_rng(0)
        seg = make_segment(rng)
        seg.dones[2] = True  # done in the middle of the trained span
        with pytest.raises(ConfigError, match="boundary"):
            validate_segment(seg, n_tail=TAIL)

    def test_rejects_nonfinite(self):
        rng = np.random.default_rng(0)
        seg = make_segment(rng)
        seg.obs[0, 0] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            validate_segment(seg, n_tail=TAIL)


class TestSumTree:
    def test_matches_brute_force_under_fuzz(self):
        rng = np.random.default_rng(1)
        n = 37
        tree = SumTree(n)
        ref = np.zeros(n)
        for _ in range(10_000):
            k = int(rng.integers(1, 5))
            idxs = rng.integers(0, n, size=k)
            vals = rng.uniform(0, 10, size=k)
            for i, v in zip(idxs, vals):
                ref[i] = v
            tree.set_many(idxs, vals)
        # dedupe writes in the same call keep the last value, like ref
        assert tree.total() == pytest.approx(ref.sum(), rel=1e-9)
        for i in range(n):
            assert tree.leaf(i) == pytest.approx(ref[i])

    def test_updates_match_the_per_level_formula_and_rebuild_bit_for_bit(self):
        def reference_set_many(tree, idxs, values):
            # every level recomputed from np.unique of the one below
            pos = np.asarray(idxs, dtype=np.int64) + tree.leaf_base
            tree.tree[pos] = values
            parents = np.unique(pos >> 1)
            while True:
                tree.tree[parents] = tree.tree[2 * parents] + tree.tree[2 * parents + 1]
                if parents[0] == 1:
                    break
                parents = np.unique(parents >> 1)

        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 64, 300):
            tree, ref = SumTree(n), SumTree(n)
            for _ in range(400):
                k = int(rng.integers(1, 9))
                idxs = rng.integers(0, n, size=k)  # repeats included
                vals = rng.uniform(0, 10, size=k)
                tree.set_many(idxs, vals)
                reference_set_many(ref, idxs, vals)
                assert tree.tree.tobytes() == ref.tree.tobytes()
            rebuilt = SumTree(n)
            rebuilt.rebuild(tree.leaves(np.arange(n)))
            assert rebuilt.tree.tobytes() == tree.tree.tobytes()

    def test_find_prefix_matches_linear_scan(self):
        rng = np.random.default_rng(2)
        n = 17
        tree = SumTree(n)
        vals = rng.uniform(0, 3, size=n)
        tree.set_many(np.arange(n), vals)
        cum = np.cumsum(vals)
        for mass in rng.uniform(0, cum[-1] * (1 - 1e-12), size=200):
            idx = tree.find_prefix(np.array([mass]))[0]
            expect = int(np.searchsorted(cum, mass, side="right"))
            assert idx == expect


class TestPrioritizedStore:
    def test_append_to_empty(self):
        rng = np.random.default_rng(3)
        store = PrioritizedStore(capacity=8, alpha=0.5)
        store.append(make_segment(rng), priority=2.0)
        assert len(store) == 1
        assert store.brute_force_total() == pytest.approx(2.0**0.5)

    def test_fifo_eviction(self):
        rng = np.random.default_rng(4)
        store = PrioritizedStore(capacity=5)
        firsts = []
        for k in range(6):
            seg = make_segment(rng)
            seg.obs[0, 0] = float(k)
            firsts.append(store.append(seg, priority=1.0))
        assert len(store) == 5
        stored_marks = {store.segment(i).obs[0, 0] for i in range(5)}
        assert 0.0 not in stored_marks and 5.0 in stored_marks
        assert store.evicted_total == 1

    def test_root_matches_brute_force_after_fuzz(self):
        rng = np.random.default_rng(5)
        store = PrioritizedStore(capacity=64, alpha=0.7)
        ids = []
        for step in range(3000):
            op = rng.random()
            if op < 0.5 or not ids:
                ids.append(store.append(make_segment(rng), priority=float(rng.uniform(0, 5))))
            else:
                k = min(len(ids), int(rng.integers(1, 8)))
                chosen = [ids[i] for i in rng.integers(0, len(ids), size=k)]
                store.update_priorities(chosen, rng.uniform(0, 5, size=k))
            if step % 250 == 0:
                root = store._tree.total()
                assert root == pytest.approx(store.brute_force_total(), rel=1e-6)
        assert store._tree.total() == pytest.approx(store.brute_force_total(), rel=1e-6)

    def test_not_ready_signal(self):
        store = PrioritizedStore(capacity=8)
        with pytest.raises(NotReadyError):
            store.sample(2, np.random.default_rng(0))

    def test_uniform_priorities_sample_uniformly(self):
        rng = np.random.default_rng(6)
        store = PrioritizedStore(capacity=16, alpha=0.6)
        for _ in range(16):
            store.append(make_segment(rng), priority=1.0)
        slots = store.sample_slots(100_000, np.random.default_rng(7))
        counts = np.bincount(slots, minlength=16)
        chi = stats.chisquare(counts)
        assert chi.pvalue > 0.01

    def test_two_slot_proportions(self):
        rng = np.random.default_rng(8)
        store = PrioritizedStore(capacity=2, alpha=1.0)
        store.append(make_segment(rng), priority=1.0)
        store.append(make_segment(rng), priority=3.0)
        n = 100_000
        slots = store.sample_slots(n, np.random.default_rng(9))
        assert (slots == 1).mean() == pytest.approx(0.75, abs=0.01)

    def test_alpha_zero_ignores_priorities(self):
        rng = np.random.default_rng(10)
        store = PrioritizedStore(capacity=4, alpha=0.5)
        for p in (0.1, 1.0, 5.0, 20.0):
            store.append(make_segment(rng), priority=p)
        store.set_exponents(alpha=0.0, beta=0.5)
        slots = store.sample_slots(40_000, np.random.default_rng(11))
        counts = np.bincount(slots, minlength=4)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_proportional_frequencies_match_chi_square(self):
        rng = np.random.default_rng(12)
        store = PrioritizedStore(capacity=32, alpha=0.8)
        priorities = rng.uniform(0.2, 4.0, size=32)
        for p in priorities:
            store.append(make_segment(rng), priority=float(p))
        slots = store.sample_slots(100_000, np.random.default_rng(13))
        counts = np.bincount(slots, minlength=32)
        expected = priorities**0.8
        expected = expected / expected.sum() * 100_000
        assert stats.chisquare(counts, expected).pvalue > 0.01

    def test_importance_weights_in_unit_interval_with_max_one(self):
        rng = np.random.default_rng(14)
        store = PrioritizedStore(capacity=16, alpha=0.7, beta=0.5)
        for p in rng.uniform(0.1, 3.0, size=16):
            store.append(make_segment(rng), priority=float(p))
        batch = store.sample(12, np.random.default_rng(15))
        assert batch.weights.max() == pytest.approx(1.0)
        assert np.all(batch.weights > 0.0) and np.all(batch.weights <= 1.0)

    def test_update_to_same_value_keeps_distribution(self):
        rng = np.random.default_rng(16)
        store = PrioritizedStore(capacity=4, alpha=0.9)
        ids = [store.append(make_segment(rng), priority=float(p)) for p in (1, 2, 3, 4)]
        before = store._tree.tree.copy()
        store.update_priorities(ids, [1.0, 2.0, 3.0, 4.0])
        assert np.allclose(store._tree.tree, before)

    def test_zero_priority_clamped_to_floor(self):
        rng = np.random.default_rng(17)
        store = PrioritizedStore(capacity=2, alpha=1.0)
        sid = store.append(make_segment(rng), priority=1.0)
        store.update_priorities([sid], [0.0])
        assert store._raw_p[sid[0]] == pytest.approx(store.priority_floor)
        store.append(make_segment(rng), priority=1.0)
        batch = store.sample(2, np.random.default_rng(18))
        assert len(batch.ids) == 2  # still sampleable

    def test_negative_priority_clamped_and_counted(self):
        rng = np.random.default_rng(19)
        store = PrioritizedStore(capacity=2, alpha=1.0)
        sid = store.append(make_segment(rng), priority=1.0)
        store.update_priorities([sid], [-3.0])
        assert store.clamped_priorities == 1

    def test_stale_ids_ignored_with_counter(self):
        rng = np.random.default_rng(20)
        store = PrioritizedStore(capacity=2)
        sid = store.append(make_segment(rng), priority=1.0)
        store.append(make_segment(rng), priority=1.0)
        store.append(make_segment(rng), priority=1.0)  # evicts slot 0
        store.update_priorities([sid], [9.0])
        assert store.stale_updates == 1
        assert store._raw_p[0] != 9.0

    def test_malformed_segment_rejected(self):
        rng = np.random.default_rng(21)
        store = PrioritizedStore(capacity=2)
        seg = make_segment(rng)
        seg.dones[1] = True
        with pytest.raises(ConfigError):
            store.append(seg)

    def test_snapshot_round_trip(self, tmp_path):
        rng = np.random.default_rng(22)
        store = PrioritizedStore(capacity=16, alpha=0.3, beta=0.4)
        appended = []
        for k in range(7):
            appended.append(make_segment(rng, length=SEG_LEN if k % 2 else 7))
            store.append(appended[-1], priority=float(k + 1))
        store.save(str(tmp_path))
        loaded = PrioritizedStore.load(str(tmp_path))
        assert len(loaded) == len(store)
        assert loaded.brute_force_total() == pytest.approx(store.brute_force_total())
        for i in range(len(store)):
            a, b = store.segment(i), loaded.segment(i)
            assert a.obs.tobytes() == b.obs.tobytes()
            assert a.actions.tobytes() == b.actions.tobytes()
            assert a.rewards.tobytes() == b.rewards.tobytes()
            assert np.array_equal(a.dones, b.dones)
            assert (a.episode_id, a.start_index, a.length) == (b.episode_id, b.start_index, b.length)
        batch = loaded.sample(4, np.random.default_rng(0))
        segs = [appended[s] for s in loaded.sample_slots(4, np.random.default_rng(0))]
        expected = {
            "obs": np.stack([s.obs for s in segs]),
            "actions": np.stack([s.actions for s in segs]),
            "rewards": np.stack([s.rewards for s in segs]),
            "dones": np.stack([s.dones for s in segs]),
            "lengths": np.array([s.length for s in segs], dtype=np.int64),
        }
        for name, want in expected.items():
            got = getattr(batch, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        rows = np.concatenate([s.obs[: s.length] for s in appended])
        assert loaded.all_observation_rows().tobytes() == rows.tobytes()
        extra = make_segment(rng)
        loaded.append(extra, priority=1.0)  # grows past the rows that load allocated
        assert loaded.segment(7).obs.tobytes() == extra.obs.tobytes()
        assert loaded.segment(0).obs.tobytes() == appended[0].obs.tobytes()

    def test_append_rejects_other_widths(self):
        rng = np.random.default_rng(26)
        store = PrioritizedStore(capacity=4)
        store.append(make_segment(rng), priority=1.0)
        wide_obs = dataclasses.replace(make_segment(rng), obs=np.zeros((SEG_LEN + TAIL, OBS_DIM + 1)))
        with pytest.raises(ConfigError, match=r"\(4, 2\) differ from the store's \(3, 2\)"):
            store.append(wide_obs)
        wide_act = dataclasses.replace(make_segment(rng), actions=np.zeros((SEG_LEN, ACT_DIM + 3)))
        with pytest.raises(ConfigError, match=r"\(3, 5\) differ from the store's \(3, 2\)"):
            store.append(wide_act)
        assert len(store) == 1 and store.appended_total == 1
        assert store.sample(1, np.random.default_rng(0)).obs.shape == (1, SEG_LEN + TAIL, OBS_DIM)

    def test_load_peak_stays_near_the_blob(self, tmp_path):
        rng = np.random.default_rng(27)
        n, obs_dim = 200, 248
        store = PrioritizedStore(capacity=n)
        for _ in range(n):
            seg = dataclasses.replace(make_segment(rng), obs=rng.standard_normal((SEG_LEN + TAIL, obs_dim)))
            store.append(seg, priority=float(rng.uniform(0.1, 3.0)))
        _, bin_path = store.save(str(tmp_path))
        del store
        tracemalloc.start()
        try:
            loaded = PrioritizedStore.load(str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == n
        assert peak <= 1.25 * os.path.getsize(bin_path)

    def test_growth_peak_stays_near_the_rows(self):
        rng = np.random.default_rng(29)
        n, obs_dim = 65, 248  # just above a power of two, where a doubling copy holds 64 rows beside 65
        segs = [dataclasses.replace(make_segment(rng), obs=rng.standard_normal((SEG_LEN + TAIL, obs_dim))) for _ in range(n)]
        store = PrioritizedStore(capacity=n)
        tracemalloc.start()
        try:
            for seg in segs:
                store.append(seg, priority=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store._rec.shape[0] == n
        assert peak <= 1.25 * store._rec.nbytes

    def test_snapshot_blob_matches_concatenate_formula(self, tmp_path):
        rng = np.random.default_rng(23)
        store = PrioritizedStore(capacity=8, alpha=0.5)
        for k in range(13):  # wraps the ring, so generations exceed 1
            seg = make_segment(rng, length=SEG_LEN if k % 3 else 6, start=SEG_STRIDE * k)
            store.append(dataclasses.replace(seg, episode_id=10_000_000 * k + 1_000_003), priority=float(rng.uniform(0.1, 3.0)))
        _, bin_path = store.save(str(tmp_path))
        segs = [store.segment(i) for i in range(len(store))]
        parts = []
        for s in segs:
            parts += [
                s.obs.reshape(-1),
                s.actions.reshape(-1),
                s.rewards.reshape(-1),
                s.dones.astype(np.float64),
                np.array([float(s.episode_id), float(s.start_index), float(s.length)]),
            ]
        parts.append(store._raw_p[: len(store)].copy())
        parts.append(store._gen[: len(store)].astype(np.float64))
        with open(bin_path, "rb") as f:
            assert f.read() == np.concatenate(parts).astype("<f8").tobytes()
        empty_bin = PrioritizedStore(capacity=4).save(str(tmp_path / "empty"))[1]
        with open(empty_bin, "rb") as f:
            assert f.read() == b""
        assert len(PrioritizedStore.load(str(tmp_path / "empty"))) == 0

    @pytest.mark.parametrize("key, value", [("size", "17"), ("next", "16"), ("next", "-1"), ("size", "-2"), ("next", "5")])
    def test_load_rejects_manifest_outside_capacity(self, tmp_path, key, value):
        rng = np.random.default_rng(24)
        store = PrioritizedStore(capacity=16)
        for _ in range(3):
            store.append(make_segment(rng), priority=1.0)
        man_path, _ = store.save(str(tmp_path))
        with open(man_path) as f:
            lines = [f"{key} = {value}" if ln.partition("=")[0].strip() == key else ln for ln in f.read().splitlines()]
        with open(man_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"manifest {key}"):
            PrioritizedStore.load(str(tmp_path))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30), st.floats(0.0, 1.0))
def test_priority_mix_between_mean_and_max(errors, eta):
    p = segment_priority(errors, eta)
    arr = np.asarray(errors)
    assert arr.mean() - 1e-9 <= p <= arr.max() + 1e-9

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fieldsac import env as envmod
from fieldsac.env import STATE_DIM, PointMassEnv, TargetField, field_at, local_grid, observe
from fieldsac.errors import ConfigError, ContractViolation
from fieldsac.replay import SegmentCutter
from fieldsac.rewards import NUM_TERMS, R_CLP, R_DEP, R_ENTROPY, R_ENV, R_PVB, R_TAB, R_VDP, EnvRewardConfig


def check_reward_signs(r):
    """The sign and range invariants of one step's reward vector."""
    assert r.shape == (NUM_TERMS,) and np.isfinite(r).all()
    assert r[R_CLP] <= 0 and r[R_VDP] <= 0 and r[R_DEP] <= 0, "penalty coordinates must be non-positive"
    assert 0.0 <= r[R_TAB] <= 1.0, "target-achieve bonus must lie in [0, 1]"


def make_field(sink=(3.0, 4.0), v_max=1.4, ramp=0.7):
    return TargetField(np.asarray(sink, dtype=float), v_max, ramp)


class TestFieldAt:
    def test_zero_at_sink(self):
        f = make_field()
        assert np.array_equal(field_at(f, f.sink), np.zeros(2))

    def test_saturates_at_v_max(self):
        f = make_field(sink=(100.0, 0.0))
        v = field_at(f, (0.0, 0.0))
        assert np.linalg.norm(v) == pytest.approx(f.v_max)

    def test_ramp_inside_saturation_radius(self):
        f = make_field(sink=(0.5, 0.0), v_max=1.4, ramp=1.0)
        v = field_at(f, (0.0, 0.0))
        assert np.linalg.norm(v) == pytest.approx(0.5)
        assert v[0] > 0 and v[1] == pytest.approx(0.0)

    def test_always_points_toward_sink(self):
        rng = np.random.default_rng(0)
        f = make_field()
        for _ in range(200):
            x = rng.uniform(-10, 10, 2)
            v = field_at(f, x)
            assert np.dot(v, f.sink - x) >= 0.0


class TestLocalGrid:
    def test_shape_and_center_cell(self):
        f = make_field()
        p = np.array([1.0, -2.0])
        g = local_grid(f, p)
        assert g.shape == (2, 11, 11)
        assert np.allclose(g[:, 5, 5], field_at(f, p))

    def test_matches_field_oracle_cell_by_cell(self):
        f = make_field(sink=(2.0, 1.0))
        p = np.array([0.5, 0.5])
        g = local_grid(f, p)
        for i in range(11):
            for j in range(11):
                q = p + np.array([(i - 5) * 0.5, (j - 5) * 0.5])
                assert np.allclose(g[:, i, j], field_at(f, q))

    def test_translation_invariance(self):
        off = np.array([7.3, -2.1])
        f1 = make_field(sink=(1.0, 2.0))
        f2 = make_field(sink=(1.0 + off[0], 2.0 + off[1]))
        p = np.array([0.4, -0.6])
        assert np.allclose(local_grid(f1, p), local_grid(f2, p + off))

    def test_at_sink_all_cells_point_inward(self):
        f = make_field(sink=(0.0, 0.0))
        g = local_grid(f, f.sink)
        assert np.allclose(g[:, 5, 5], 0.0)
        for i in range(11):
            for j in range(11):
                if i == 5 and j == 5:
                    continue
                q = np.array([(i - 5) * 0.5, (j - 5) * 0.5])
                assert np.dot(g[:, i, j], -q) > 0.0


def reference_obs(p, v, prev_action, sink, v_max, ramp):
    """Teacher and student observations by the per-point formula: the grid
    points of one meshgrid, np.linalg.norm distances, zero where dist == 0."""
    offs = (np.arange(11) - 5) * 0.5
    xx, yy = np.meshgrid(offs, offs, indexing="ij")
    pts = np.stack([p[0] + xx.ravel(), p[1] + yy.ravel()], axis=1)
    d = np.asarray(sink)[None, :] - pts
    dist = np.linalg.norm(d, axis=1)
    mag = np.minimum(v_max, ramp * dist)
    vals = d * (mag / np.where(dist > 0.0, dist, 1.0))[:, None]
    vals[dist == 0.0] = 0.0
    teacher = np.concatenate([0.1 * np.asarray(p), v, prev_action])
    return teacher, np.concatenate([teacher, vals.T.ravel()])


def reference_from_env(e):
    s, f = e.state, e.field
    return reference_obs(s[0:2], s[2:4], s[4:6], f.sink, f.v_max, f.ramp)


def obs(sr, mode):
    """The one observation row of a step result's state."""
    return observe(sr.state[None], mode)[0]


def assert_rebuilt(states, teacher_rows, student_rows):
    assert observe(states, "teacher").tobytes() == np.asarray(teacher_rows).tobytes()
    assert observe(states, "student").tobytes() == np.asarray(student_rows).tobytes()


class TestObserve:
    @settings(max_examples=200, deadline=None)
    @given(
        sink2=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        cell=st.tuples(st.integers(0, 10), st.integers(0, 10)),
        jitter=st.sampled_from([0.0, 1e-170, -1e-9, 0.25, 3.3]),
        v=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        a=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        v_max=st.floats(1.0, 1.8),
        ramp=st.floats(0.5, 1.0),
    )
    # a 1e-170 offset squares to 0, so dist == 0 beside a nonzero difference
    @example(sink2=(0, 0), cell=(5, 5), jitter=1e-170, v=(0.0, 0.0), a=(0.0, 0.0), v_max=1.4, ramp=0.7)
    def test_state_rows_rebuild_the_reference_bytes(self, sink2, cell, jitter, v, a, v_max, ramp):
        # with jitter 0 the grid cell ``cell`` lies exactly on the sink (dist == 0)
        sink = np.array(sink2) * 0.5
        p = sink - (np.array(cell) - 5) * 0.5 + jitter
        state = np.concatenate([p, v, a, sink, (v_max, ramp)])
        teacher, student = reference_obs(p, np.array(v), np.array(a), sink, v_max, ramp)
        assert_rebuilt(state[None], teacher[None], student[None])
        grid = student[6:].reshape(2, 11, 11)
        assert local_grid(TargetField(sink, v_max, ramp), p).tobytes() == grid.tobytes()
        if jitter == 0.0:
            assert np.all(grid[:, cell[0], cell[1]] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), difficulty=st.sampled_from([0, 1, 2, 3]), horizon=st.integers(5, 40),
           act_seed=st.integers(0, 10**6))
    def test_env_rows_and_cut_segments_rebuild_byte_equal(self, seed, difficulty, horizon, act_seed):
        # one cutter takes the env's state rows, one its observations: the
        # rebuilt rows of every segment, padded terminal rows included,
        # equal the observations the env emitted
        e = PointMassEnv(horizon=horizon)
        sr = e.reset(seed, difficulty)
        cutters = {k: SegmentCutter(dim, 2, seed) for k, dim in (("state", STATE_DIM), ("teacher", 6), ("student", 248))}
        for key, c in cutters.items():
            c.begin(sr.state if key == "state" else obs(sr, key))
        rng = np.random.default_rng(act_seed)
        segs = {k: [] for k in cutters}
        while not sr.done:
            ref = reference_from_env(e)
            assert_rebuilt(sr.state[None], ref[0][None], ref[1][None])
            assert obs(sr, "teacher").tobytes() == ref[0].tobytes() and obs(sr, "student").tobytes() == ref[1].tobytes()
            action = rng.uniform(-1.2, 1.2, 2)
            sr = e.step(action)
            for key, c in cutters.items():
                segs[key] += c.push(action, sr.reward, sr.done, sr.state if key == "state" else obs(sr, key))
        assert len(segs["state"]) == len(segs["student"]) >= 1
        for s_seg, t_seg, o_seg in zip(segs["state"], segs["teacher"], segs["student"]):
            assert_rebuilt(s_seg.obs, t_seg.obs, o_seg.obs)

    def test_difficulty3_respawn_mid_episode(self):
        e = PointMassEnv(horizon=5000)
        sr = e.reset(seed=4, difficulty=3)
        states, teacher, student = [sr.state], [obs(sr, "teacher")], [obs(sr, "student")]
        respawn_at = None
        while not e.done and (respawn_at is None or len(states) < respawn_at + 20):
            v_tgt = field_at(e.field, e.state[0:2])
            sr = e.step(np.clip(2.0 * (v_tgt - e.state[2:4]) + 0.25 * v_tgt, -1, 1))
            states.append(sr.state)
            teacher.append(obs(sr, "teacher"))
            student.append(obs(sr, "student"))
            ref = reference_from_env(e)
            assert obs(sr, "student").tobytes() == ref[1].tobytes()
            if respawn_at is None and e._respawned:
                respawn_at = len(states) - 1
        assert respawn_at is not None and not e.done
        states = np.stack(states)
        assert not np.array_equal(states[respawn_at - 1, 6:], states[respawn_at, 6:])  # the sink moved
        assert_rebuilt(states, np.stack(teacher), np.stack(student))

    def test_rejects_other_widths_and_modes(self):
        with pytest.raises(ConfigError, match="state rows"):
            observe(np.zeros((3, 6)), "teacher")
        with pytest.raises(ConfigError, match="mode"):
            observe(np.zeros((3, STATE_DIM)), "grid")
        assert observe(np.zeros((0, STATE_DIM)), "student").shape == (0, 248)


class TestReset:
    def test_same_seed_is_bit_identical(self):
        e1, e2 = PointMassEnv(), PointMassEnv()
        r1 = e1.reset(seed=42, difficulty=2)
        r2 = e2.reset(seed=42, difficulty=2)
        assert np.array_equal(obs(r1, "teacher"), obs(r2, "teacher"))
        assert np.array_equal(obs(r1, "student"), obs(r2, "student"))
        assert np.array_equal(r1.state[6:8], r2.state[6:8])

    def test_difficulty0_places_sink_ahead(self):
        e = PointMassEnv()
        r = e.reset(seed=0, difficulty=0)
        assert np.allclose(r.state[6:8], [5.0, 0.0])
        assert e.field.v_max == pytest.approx(1.4)

    def test_observation_dimensions(self):
        e = PointMassEnv()
        r = e.reset(seed=1, difficulty=1)
        assert obs(r, "teacher").shape == (6,)
        assert obs(r, "student").shape == (248,)
        assert np.array_equal(obs(r, "student")[:6], obs(r, "teacher"))

    def test_unknown_difficulty_rejected(self):
        with pytest.raises(ConfigError):
            PointMassEnv().reset(seed=0, difficulty=7)

    def test_difficulty2_randomizes_direction_and_distance(self):
        sinks = []
        for seed in range(8):
            e = PointMassEnv()
            r = e.reset(seed=seed, difficulty=2)
            d = np.linalg.norm(r.state[6:8])
            assert 3.0 <= d <= 8.0
            sinks.append(r.state[6:8])
        angles = {round(float(np.arctan2(s[1], s[0])), 3) for s in sinks}
        assert len(angles) > 4


class TestStep:
    def test_one_step_dynamics_arithmetic(self):
        e = PointMassEnv()
        e.reset(seed=0, difficulty=0)
        r = e.step((1.0, 0.0))
        assert np.allclose(r.state[2:4], [0.2, 0.0])
        assert np.allclose(r.state[0:2], [0.02, 0.0])

    def test_returned_state_is_the_callers_copy(self):
        # scribbling over every returned row leaves the trajectory as it was
        ref, e = PointMassEnv(), PointMassEnv()
        ref.reset(seed=6, difficulty=3)
        sr = e.reset(seed=6, difficulty=3)
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert not np.shares_memory(sr.state, e.state)
            sr.state[:] = np.nan
            a = rng.uniform(-1, 1, 2)
            want, sr = ref.step(a), e.step(a)
            assert sr.state.tobytes() == want.state.tobytes() and sr.reward.tobytes() == want.reward.tobytes()

    def test_zero_action_from_rest_stays_put(self):
        e = PointMassEnv()
        e.reset(seed=0, difficulty=0)
        r = e.step((0.0, 0.0))
        assert np.allclose(r.state[0:2], [0.0, 0.0])
        assert r.reward[R_PVB] == 0.0

    def test_drag_decays_speed_monotonically(self):
        e = PointMassEnv()
        e.reset(seed=0, difficulty=0)
        for _ in range(20):
            e.step((1.0, 0.3))
        speeds = []
        for _ in range(50):
            r = e.step((0.0, 0.0))
            speeds.append(np.linalg.norm(r.state[2:4]))
        assert all(b < a for a, b in zip(speeds, speeds[1:]))

    def test_reward_wiring_matches_pure_functions(self):
        from fieldsac import rewards as rw

        e = PointMassEnv()
        e.reset(seed=3, difficulty=2)
        a = np.array([0.4, -0.2])
        r = e.step(a)
        v, vt = r.state[2:4], field_at(e.field, r.state[0:2])
        assert r.reward.shape == (NUM_TERMS,) and r.reward.dtype == np.float64
        assert r.reward[R_CLP] == 0.0
        assert r.reward[R_VDP] == pytest.approx(rw.velocity_deviation_penalty(v, vt))
        assert r.reward[R_PVB] == pytest.approx(rw.pelvis_velocity_bonus(v, vt, directional=False))
        assert r.reward[R_DEP] == pytest.approx(rw.dense_effort_penalty(a))
        assert r.reward[R_TAB] == pytest.approx(rw.target_achieve_bonus(vt))
        assert r.reward[R_ENTROPY] == 0.0

    def test_env_reward_emitted_once_per_window(self):
        e = PointMassEnv(reward_cfg=EnvRewardConfig(window=10))
        e.reset(seed=0, difficulty=0)
        r_envs = [e.step((0.3, 0.0)).reward[R_ENV] for _ in range(25)]
        nonzero = [i for i, v in enumerate(r_envs) if v != 0.0]
        assert nonzero == [9, 19]

    def test_parked_on_sink_gets_full_bonus(self):
        e = PointMassEnv()
        e.reset(seed=0, difficulty=0)
        # teleport: place the agent exactly on the sink
        e.state[0:2] = e.field.sink
        e.state[2:4] = 0.0
        r = e.step((0.0, 0.0))
        assert r.reward[R_TAB] == pytest.approx(1.0)

    def test_episode_ends_at_horizon_and_done_is_absorbing(self):
        e = PointMassEnv(horizon=12)
        e.reset(seed=0, difficulty=0)
        steps = 0
        while not e.done:
            r = e.step((0.0, 0.1))
            steps += 1
        assert steps == 12 and r.done
        with pytest.raises(ContractViolation):
            e.step((0.0, 0.0))

    def test_leaving_arena_terminates(self):
        e = PointMassEnv(arena_radius=0.5)
        e.reset(seed=0, difficulty=0)
        steps = 0
        while not e.done:
            e.step((1.0, 0.0))
            steps += 1
            assert steps < 200
        assert np.linalg.norm(e.state[0:2]) > 0.5

    def test_out_of_range_action_clamped_and_counted(self):
        e = PointMassEnv()
        e.reset(seed=0, difficulty=0)
        r = e.step((5.0, 0.0))
        assert e.clamp_count == 1
        assert np.allclose(r.state[2:4], [0.2, 0.0])  # behaves like action 1.0

    def test_determinism_full_trajectory(self):
        def run():
            e = PointMassEnv()
            e.reset(seed=9, difficulty=2)
            rng = np.random.default_rng(5)
            out = []
            for _ in range(300):
                if e.done:
                    break
                r = e.step(rng.uniform(-1, 1, 2))
                out.append(np.concatenate([obs(r, "student"), r.reward, [float(r.done)]]))
            return np.stack(out)

        assert np.array_equal(run(), run())

    def test_reward_vector_invariants_hold_along_trajectory(self):
        e = PointMassEnv()
        e.reset(seed=11, difficulty=3)
        rng = np.random.default_rng(0)
        for _ in range(400):
            if e.done:
                break
            r = e.step(rng.uniform(-1, 1, 2))
            check_reward_signs(r.reward)

    def test_difficulty3_respawns_sink_once_after_holding(self):
        e = PointMassEnv(horizon=5000)
        e.reset(seed=4, difficulty=3)
        first_sink = e.field.sink.copy()
        # drive straight at the sink with a crude proportional controller
        moved = False
        for _ in range(4000):
            if e.done:
                break
            v_tgt = field_at(e.field, e.state[0:2])
            a = np.clip(2.0 * (v_tgt - e.state[2:4]) + 0.25 * v_tgt, -1, 1)
            e.step(a)
            if not np.array_equal(e.field.sink, first_sink):
                moved = True
                break
        assert moved and e._respawned

    def test_trajectory_dump_round_trips(self, tmp_path):
        e = PointMassEnv(record_dir=str(tmp_path), horizon=15)
        e.reset(seed=77, difficulty=0)
        while not e.done:
            e.step((0.5, -0.2))
        path = tmp_path / "episode_77.csv"
        assert path.exists()
        rows = path.read_text().strip().split("\n")
        assert rows[0].startswith("t,px,py")
        assert len(rows) == 16  # header + 15 steps
        last = rows[-1].split(",")
        assert last[-1] == "1"  # done flag

    def test_trajectory_dump_cells_are_plain_numbers(self, tmp_path):
        e = PointMassEnv(record_dir=str(tmp_path), horizon=40)
        e.reset(seed=5, difficulty=2)
        rng = np.random.default_rng(3)
        expected = []
        while not e.done:
            r = e.step(rng.uniform(-1.0, 1.0, 2))
            # t, then position, velocity and the applied action (state[:6]), the terms, done
            expected.append([e.t, *r.state[:6], *r.reward, float(r.done)])
        rows = (tmp_path / "episode_5.csv").read_text().splitlines()
        assert rows[0] == "t,px,py,vx,vy,ax,ay,r0,r1,r2,r3,r4,r5,r6,done"
        assert [[float(cell) for cell in row.split(",")] for row in rows[1:]] == expected


class TestRewardSigns:
    def test_sign_check_rejects_positive_penalties(self):
        for term, value in ((R_CLP, 0.5), (R_TAB, 1.5)):
            r = np.zeros(NUM_TERMS)
            r[term] = value
            with pytest.raises(AssertionError):
                check_reward_signs(r)
        r = np.zeros(NUM_TERMS)
        r[[R_ENV, R_VDP, R_TAB]] = (-3.0, -1.0, 0.3)
        check_reward_signs(r)

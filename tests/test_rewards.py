import numpy as np
import pytest
from hypothesis import given, strategies as st

from fieldsac.errors import ConfigError
from fieldsac.rewards import (
    EnvRewardConfig,
    dense_effort_penalty,
    env_reward,
    env_reward_partial,
    pelvis_velocity_bonus,
    target_achieve_bonus,
    velocity_deviation_penalty,
)


class TestVelocityDeviation:
    def test_matching_velocities(self):
        assert velocity_deviation_penalty((1.2, -0.3), (1.2, -0.3)) == 0.0

    def test_unit_deviation(self):
        assert velocity_deviation_penalty((1, 0), (0, 0)) == -1.0

    def test_three_four_five(self):
        assert velocity_deviation_penalty((3, 4), (0, 0)) == -5.0


class TestPelvisVelocityBonus:
    def test_nondirectional_is_speed(self):
        assert pelvis_velocity_bonus((2, 0), (0, 1), directional=False) == 2.0

    def test_directional_opposite_target(self):
        assert pelvis_velocity_bonus((1, 0), (-1, 0), directional=True) == pytest.approx(-1.0)

    def test_zero_velocity_is_zero_in_both_modes(self):
        assert pelvis_velocity_bonus((0, 0), (1, 0), directional=False) == 0.0
        assert pelvis_velocity_bonus((0, 0), (1, 0), directional=True) == 0.0
        assert pelvis_velocity_bonus((1, 0), (0, 0), directional=True) == 0.0

    def test_directional_projects_on_cosine(self):
        assert pelvis_velocity_bonus((0, 2), (1, 1), directional=True) == pytest.approx(2 * np.cos(np.pi / 4))


class TestDenseEffort:
    def test_zero_action(self):
        assert dense_effort_penalty((0, 0)) == 0.0

    def test_unit_action(self):
        assert dense_effort_penalty((1, 0)) == -1.0

    def test_three_four_five_scaled(self):
        assert dense_effort_penalty((0.6, 0.8)) == pytest.approx(-1.0)


class TestTargetAchieveBonus:
    def test_paper_table_values(self):
        assert target_achieve_bonus((0.8, 0.0)) == 0.0
        assert target_achieve_bonus((0.6, 0.0)) == 0.1
        assert target_achieve_bonus((0.0, 0.0)) == 1.0

    def test_boundaries(self):
        # 0.5 takes the quadratic branch, 0.7 the constant branch
        assert target_achieve_bonus((0.5, 0.0)) == pytest.approx(0.125)
        assert target_achieve_bonus((0.7, 0.0)) == 0.1

    def test_random_magnitudes_match_piecewise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            m = rng.uniform(0, 1.2)
            theta = rng.uniform(0, 2 * np.pi)
            v = (m * np.cos(theta), m * np.sin(theta))
            got = target_achieve_bonus(v)
            if m > 0.7:
                expect = 0.0
            elif m > 0.5:
                expect = 0.1
            else:
                expect = 1.0 - 3.5 * m * m
            assert got == pytest.approx(expect, abs=1e-12)

    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_monotone_nonincreasing_on_quadratic_branch(self, m1, m2):
        lo, hi = sorted((m1, m2))
        assert target_achieve_bonus((lo, 0.0)) >= target_achieve_bonus((hi, 0.0))

    def test_range_is_unit_interval(self):
        rng = np.random.default_rng(2)
        vals = [target_achieve_bonus((rng.uniform(0, 3), 0.0)) for _ in range(500)]
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestEnvReward:
    def test_alive_only(self):
        cfg = EnvRewardConfig(r_alive=0.25, w_step=0, w_vel=0, w_eff=0, window=8)
        data = np.zeros((8, 2))
        assert env_reward(cfg, data, data, data) == pytest.approx(2.0)

    def test_worked_window(self):
        # 10 steps, dt 0.1, zero actions, matched velocities
        cfg = EnvRewardConfig(r_alive=0.1, w_step=1.0, w_vel=1.0, w_eff=1.0, window=10, dt=0.1)
        v = np.tile([1.0, 0.0], (10, 1))
        a = np.zeros((10, 2))
        assert env_reward(cfg, v, v, a) == pytest.approx(2.0)

    def test_w_vel_zero_ignores_deviation(self):
        cfg = EnvRewardConfig(w_vel=0.0)
        v_body = np.tile([2.0, 0.0], (10, 1))
        v_tgt = np.tile([-1.0, 3.0], (10, 1))
        a = np.zeros((10, 2))
        matched = env_reward(cfg, v_tgt, v_tgt, a)
        deviated = env_reward(cfg, v_body, v_tgt, a)
        assert matched == pytest.approx(deviated)

    def test_independent_of_inputs_when_all_weights_zero(self):
        cfg = EnvRewardConfig(w_vel=0.0, w_eff=0.0)
        rng = np.random.default_rng(3)
        base = env_reward(cfg, np.zeros((10, 2)), np.zeros((10, 2)), np.zeros((10, 2)))
        for _ in range(20):
            got = env_reward(cfg, rng.standard_normal((10, 2)), rng.standard_normal((10, 2)), rng.standard_normal((10, 2)))
            assert got == pytest.approx(base)

    def test_effort_and_velocity_costs(self):
        cfg = EnvRewardConfig(r_alive=0.0, w_step=0.0, w_vel=2.0, w_eff=3.0, window=2, dt=0.1)
        v_body = np.array([[1.0, 0.0], [0.0, 0.0]])
        v_tgt = np.zeros((2, 2))
        acts = np.array([[1.0, 0.0], [0.0, 2.0]])
        # c_vel = 1*0.1, c_eff = (1+4)*0.1
        assert env_reward(cfg, v_body, v_tgt, acts) == pytest.approx(-2.0 * 0.1 - 3.0 * 0.5)

    def test_length_mismatch_rejected(self):
        cfg = EnvRewardConfig()
        with pytest.raises(ConfigError):
            env_reward(cfg, np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)))

    def test_partial_window_scales_duration(self):
        cfg = EnvRewardConfig(r_alive=0.1, w_step=1.0, w_vel=0.0, w_eff=0.0, window=10, dt=0.1)
        z = np.zeros((4, 2))
        assert env_reward_partial(cfg, z, z, z) == pytest.approx(0.1 * 4 + 0.4)

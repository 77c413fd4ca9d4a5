import os

import numpy as np
import pytest

from fieldsac import cli
from fieldsac.config import TrainConfig, config_to_text, load_config, parse_config_text
from fieldsac.errors import ConfigError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestParsing:
    def test_file_plus_overrides(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("stage = pretrain\nseed = 7\nbatch = 32  # small desk batch\n\n# comment line\nhidden = 48\n")
        cfg = load_config(str(p), {"seed": "9", "use_rescale": "false"})
        assert cfg.seed == 9
        assert cfg.batch == 32
        assert cfg.hidden == 48
        assert cfg.use_rescale is False

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigError, match="not_a_key"):
            parse_config_text("not_a_key = 3")
        with pytest.raises(ConfigError, match="nor_this"):
            load_config(None, {"nor_this": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("seed = banana")
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_text("single_thread = maybe")

    def test_missing_file_is_actionable(self):
        with pytest.raises(ConfigError, match="no/such/file"):
            load_config("no/such/file")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words")

    def test_round_trip_through_text(self):
        cfg = TrainConfig(stage="finetune", difficulty=2, seed=5, lr_actor=2.5e-4)
        again = load_config(None, parse_config_text(config_to_text(cfg)))
        assert again == cfg


class TestStageForcing:
    def test_pretrain_settings(self):
        cfg = TrainConfig(stage="pretrain")
        assert np.array_equal(cfg.weights, [1, 10, 0, 1, 1, 0, 1])
        assert cfg.directional_pvb is False
        assert cfg.effective_env_w_vel == 0.0
        assert cfg.obs_mode == "teacher"

    def test_finetune_settings(self):
        cfg = TrainConfig(stage="finetune", difficulty=2)
        assert np.array_equal(cfg.weights, [1, 10, 1, 1, 1, 1, 1])
        assert cfg.directional_pvb is True
        assert cfg.effective_env_w_vel == 1.0
        assert cfg.obs_mode == "student"

    def test_invalid_stage_and_ranges(self):
        with pytest.raises(ConfigError):
            TrainConfig(stage="warmup")
        with pytest.raises(ConfigError):
            TrainConfig(difficulty=9)
        with pytest.raises(ConfigError):
            TrainConfig(gamma=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(batch=0)


class TestRejectsConfigsThatCannotTrain:
    def test_anneal_steps_below_one(self):
        # zero used to surface as a ZeroDivisionError in AnnealSchedule.value
        for bad in (0, -3):
            with pytest.raises(ConfigError, match="anneal_steps"):
                TrainConfig(anneal_steps=bad)
        assert TrainConfig(anneal_steps=1).anneal_steps == 1

    def test_capacity_below_learning_threshold(self):
        # the store could never hold one batch, so the run "succeeded" with
        # no learner step at all
        with pytest.raises(ConfigError, match="capacity"):
            TrainConfig(capacity=10, batch=32)
        with pytest.raises(ConfigError, match="capacity"):
            TrainConfig(capacity=100, batch=32, min_store_segments=200)
        assert TrainConfig(capacity=32, batch=32).capacity == 32

    def test_min_store_segments_below_batch(self):
        # the learner used to start at 2 segments and die in sample() with
        # "store holds 2 segments; batch needs 16", which names no key
        for bad in (1, 2, 15):
            with pytest.raises(ConfigError, match="min_store_segments"):
                TrainConfig(batch=16, min_store_segments=bad)
        assert TrainConfig(batch=16, min_store_segments=16).min_segments_to_learn == 16
        assert TrainConfig(batch=16, min_store_segments=0).min_segments_to_learn == 16

    def test_budget_that_cannot_cut_one_batch(self):
        # 100 steps on 4 samplers end by 103 steps, which cut at most 20
        # segments; the stage used to run to its end and then exit 1
        for kw in (dict(batch=21), dict(batch=16, min_store_segments=21), dict(batch=21, num_samplers=1, total_env_steps=104)):
            with pytest.raises(ConfigError, match="total_env_steps.*min_segments_to_learn"):
                TrainConfig(**{"total_env_steps": 100, "num_samplers": 4, **kw})
        assert TrainConfig(total_env_steps=100, num_samplers=4, batch=20).min_segments_to_learn == 20
        assert TrainConfig(total_env_steps=105, num_samplers=1, batch=21).batch == 21

    @pytest.mark.parametrize(
        "key, bad, edge",
        [
            # each of these used to be accepted and then die mid-run or learn nothing
            ("tau", [5.0, 0.0, -0.1, float("nan")], 1.0),
            ("eta", [7.0, -0.1, 1.5], 0.0),
            ("lr_actor", [0.0, -1.0], 1e-9),
            ("lr_critic", [-1.0, 0.0], 1e-9),
            ("lr_alpha", [0.0, -3e-4], 1e-9),
            ("init_alpha", [0.0, -0.2], 1e-9),
            ("rescale_eps", [-1.0, 0.0], 1e-9),
            ("anneal_start", [-0.5, 1.5], 0.0),
            ("anneal_end", [1.01, -0.1], 1.0),
        ],
    )
    def test_out_of_range_rejected_naming_the_key(self, key, bad, edge):
        for value in bad:
            with pytest.raises(ConfigError, match=key):
                load_config(overrides={key: str(value)})
        assert getattr(load_config(overrides={key: str(edge)}), key) == edge

    def test_shipped_configs_stay_valid(self):
        for path in ("configs/desk.txt", "configs/fullscale.txt"):
            load_config(os.path.join(ROOT, path))

    def test_horizon_too_short_to_cut_a_segment(self):
        # an episode of 4 steps cuts no segment; such a stage used to run its
        # whole budget and then exit 1 naming total_env_steps
        for bad in (1, 4):
            with pytest.raises(ConfigError, match="horizon"):
                TrainConfig(horizon=bad)
        assert TrainConfig(horizon=5).horizon == 5

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--anneal_steps", "0"], "anneal_steps"),
            (["--capacity", "10", "--batch", "32"], "capacity"),
            (["--tau", "5"], "tau"),
            (["--eta", "7"], "eta"),
            (["--lr_critic", "-1"], "lr_critic"),
            (["--batch", "16", "--min_store_segments", "2"], "min_store_segments"),
            (["--total_env_steps", "100", "--epoch_env_steps", "100"], "total_env_steps"),
            (["--horizon", "4"], "horizon"),
        ],
    )
    def test_cli_exits_one_naming_the_key(self, tmp_path, capsys, flags, key):
        rc = cli.main(["pretrain", "--out", str(tmp_path / "run"), *flags])
        assert rc == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

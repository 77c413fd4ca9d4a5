import contextlib
import dataclasses
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fieldsac import cli, pipeline
from fieldsac.config import TrainConfig, config_to_text, load_config, parse_config_text
from fieldsac.distill import DistillConfig
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

    def test_replay_larger_than_physical_memory(self):
        # such a capacity used to be accepted and the run failed late, once
        # the store had grown past the machine's memory
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        for n_step in (5, 20):
            most = memory // ((195 + 18 * n_step) * 8)  # slots of sampler-cut records that fit
            assert TrainConfig(capacity=most, n_step=n_step).capacity == most
            with pytest.raises(ConfigError, match=r"capacity \(\d+\) needs"):
                TrainConfig(capacity=most + 1, n_step=n_step)

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
            (["--capacity", "1000000000"], "capacity"),
            (["--replay_ratio", "nan"], "replay_ratio"),
            (["--replay_ratio", "inf"], "replay_ratio"),
            (["--target_entropy", "nan"], "target_entropy"),
            (["--init_alpha", "inf"], "init_alpha"),
            (["--eval_episodes", "0"], "eval_episodes"),
            (["--seed", "-1"], "seed"),
        ],
    )
    def test_cli_exits_one_naming_the_key(self, tmp_path, capsys, flags, key):
        rc = cli.main(["pretrain", "--out", str(tmp_path / "run"), *flags])
        assert rc == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


# The property tests below draw configs from bounded ranges so that each
# run stays small.  Every rate lies in (0, 1].  Large pretrain rates may
# diverge into a numeric fault, whose designed outcome is exit 2 with the
# learner's state saved under faulted/ and no checkpoint/: rates of 0.5
# for the actor, the critics and the temperature, or of 1 for the actor
# and the temperature, faulted on some of these shapes at replay_ratio 16.
# A replay_ratio of 1e300 asks for about 1e300 learner steps.  On top of
# that, each example sets one numeric key to an edge value.
EDGES = (0, -1, float("nan"), float("inf"), float("-inf"))
RATE = st.floats(0.0, 1.0, exclude_min=True)


def numeric_keys(record) -> list[str]:
    return [f.name for f in dataclasses.fields(record) if f.type in ("int", "float")]


def with_edge(drawn: st.SearchStrategy, record) -> st.SearchStrategy:
    edge = st.tuples(st.sampled_from(numeric_keys(record)), st.sampled_from(EDGES))
    return st.builds(lambda values, kv: {**values, kv[0]: kv[1]}, drawn, edge)


def flags(values: dict, hyphens: bool = False) -> list[str]:
    out = []
    for key, value in values.items():
        out += ["--" + (key.replace("_", "-") if hyphens else key), repr(value) if isinstance(value, float) else str(value)]
    return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def assert_trains_or_names_a_key(rc: int, err: str, values: dict, losses, run_dir: str | None = None) -> None:
    """Exit 0 with finite losses, or exit 1 naming one of the keys set.  With
    ``run_dir``, a train stage's output, also exit 2 on a numeric fault that
    saved the learner under faulted/ and wrote no checkpoint/."""
    assert rc in ((0, 1) if run_dir is None else (0, 1, 2)), err
    if rc == 0:
        assert all(math.isfinite(v) for v in losses()), losses()
    elif rc == 1:
        assert err.startswith("error: ") and any(key in err for key in values), err
    else:
        assert err.startswith("numeric fault: "), err
        assert os.path.isfile(os.path.join(run_dir, "faulted", "meta.txt")), err
        assert not os.path.exists(os.path.join(run_dir, "checkpoint")), err


PRETRAIN_CONFIGS = with_edge(
    st.fixed_dictionaries(
        {
            "num_samplers": st.integers(1, 3),
            "hidden": st.integers(2, 8),
            "batch": st.integers(1, 8),
            "capacity": st.integers(1, 200),
            "total_env_steps": st.integers(1, 300),
            "horizon": st.integers(1, 60),
            "n_step": st.integers(1, 8),
            "replay_ratio": st.floats(0.0, 16.0, exclude_min=True),
            "lr_actor": RATE,
            "lr_critic": RATE,
            "lr_alpha": RATE,
        }
    ),
    TrainConfig,
)

DISTILL_CONFIGS = with_edge(
    st.fixed_dictionaries(
        {
            "student_hidden": st.integers(1, 8),
            "batch": st.integers(1, 8),
            "max_steps": st.integers(1, 5),
            "kl_stop": RATE,
            "lr_actor": RATE,
            "lr_critic": RATE,
            "noise_std": st.floats(0.0, 1.0),
            "lr_decay_step": st.integers(0, 5),
            "seed": st.integers(0, 2**32),
            "match_vector": st.booleans(),
        }
    ),
    DistillConfig,
)

SMALL_PRETRAIN = dict(num_samplers=2, hidden=8, batch=8, capacity=200, total_env_steps=300, horizon=60, n_step=3)


@pytest.fixture(scope="module")
def small_teacher(tmp_path_factory):
    """A teacher checkpoint and its replay snapshot from a short pretrain."""
    res = pipeline.train_stage(TrainConfig(**SMALL_PRETRAIN, eval_episodes=1), str(tmp_path_factory.mktemp("teacher")))
    return res.checkpoint_dir, res.replay_dir


class TestEveryAcceptedConfigTrainsOrNamesAKey:
    """ROADMAP aim 3: a config that is accepted trains; one that is not exits
    1 at once and names the key.  Most drawn examples are rejected, so the
    explicit ones include accepted edges that train; the nan, 0 and -3
    examples ended in a traceback or a numeric fault before every key was
    checked."""

    @settings(max_examples=600, deadline=None)
    @given(PRETRAIN_CONFIGS)
    @example({**SMALL_PRETRAIN, "seed": 0})
    @example({**SMALL_PRETRAIN, "target_entropy": -1})
    @example({**SMALL_PRETRAIN, "replay_ratio": float("nan")})
    @example({**SMALL_PRETRAIN, "target_entropy": float("nan")})
    @example({**SMALL_PRETRAIN, "eval_episodes": 0})
    def test_pretrain(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = os.path.join(tmp, "run")
            rc, err = run_cli(["pretrain", "--out", run_dir, *flags(values)])

            def losses():
                last = pipeline.read_metrics(os.path.join(run_dir, "metrics.csv"))[-1]
                return [last["critic_loss"], last["actor_loss"], last["alpha_loss"]]

            assert_trains_or_names_a_key(rc, err, values, losses, run_dir)

    @settings(max_examples=300, deadline=None)
    @given(DISTILL_CONFIGS)
    @example({"student_hidden": 4, "max_steps": 5, "noise_std": 0})
    @example({"student_hidden": 4, "max_steps": 5, "lr_decay_step": 0, "match_vector": True})
    @example({"student_hidden": 4, "max_steps": 2, "kl_stop": float("nan")})
    @example({"student_hidden": 4, "max_steps": 2, "noise_std": float("nan")})
    @example({"student_hidden": -3, "max_steps": 2})
    def test_distill(self, small_teacher, values):
        teacher, replay = small_teacher
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "dist")
            rc, err = run_cli(["distill", "--teacher", teacher, "--replay", replay, "--out", out, *flags(values, hyphens=True)])

            def losses():
                with open(os.path.join(out, "distill_metrics.csv")) as f:
                    return [float(cell) for row in f.read().split()[1:] for cell in row.split(",")[1:]]

            assert_trains_or_names_a_key(rc, err, values, losses)

import os
import shlex
import shutil

import numpy as np
import pytest

from fieldsac import cli, distill, nn, pipeline, sac
from fieldsac.config import TrainConfig, load_config
from fieldsac.env import STATE_DIM, PointMassEnv
from fieldsac.errors import ConfigError, NumericFault
from fieldsac.replay import SEG_LEN, PrioritizedStore

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_cfg(**kw):
    base = dict(
        stage="pretrain",
        seed=1,
        num_samplers=2,
        hidden=16,
        batch=16,
        replay_ratio=4.0,
        publish_every=20,
        capacity=4000,
        total_env_steps=1200,
        epoch_env_steps=600,
        single_thread=True,
        horizon=200,
    )
    base.update(kw)
    return TrainConfig(**base)


def fresh_setup(cfg, seed=0):
    actor, ens = pipeline.build_learner_nets(cfg, np.random.default_rng(seed))
    store = PrioritizedStore(capacity=cfg.capacity, n_tail=cfg.n_step)
    hub = pipeline.PolicySnapshotHub()
    learner = pipeline.Learner(cfg, store, hub, actor, ens)
    samplers = [pipeline.Sampler(i, cfg, store, hub) for i in range(cfg.num_samplers)]
    return store, hub, learner, samplers


@pytest.fixture(scope="module")
def artifact_dirs(tmp_path_factory):
    """A teacher checkpoint and a two-segment replay snapshot, as the CLI reads them."""
    base = tmp_path_factory.mktemp("artifacts")
    cfg = tiny_cfg()
    actor, ens = pipeline.build_learner_nets(cfg, np.random.default_rng(0))
    teacher = pipeline.save_checkpoint(str(base / "teacher"), actor, ens, sac.log_alpha_arena(0.0), cfg)
    store, _, _, samplers = fresh_setup(cfg)
    while len(store) < 2:
        samplers[0].tick()
    store.save(str(base / "replay"))
    return {"teacher": teacher, "replay": str(base / "replay")}


def _artifact_argv(command, dirs, out):
    return {
        "eval": ["eval", "--checkpoint", dirs["teacher"]],
        "finetune": ["finetune", "--student", dirs["teacher"], "--out", out],
        "distill": ["distill", "--teacher", dirs["teacher"], "--replay", dirs["replay"], "--out", out],
    }[command]


class TestSampler:
    def test_full_episode_segment_count(self):
        cfg = tiny_cfg(num_samplers=1, horizon=1000, total_env_steps=1000)
        store, hub, learner, samplers = fresh_setup(cfg)
        s = samplers[0]
        for _ in range(1000):
            s.tick()
        assert s.env.done
        assert store.appended_total == 199

    def test_no_segment_lost_or_duplicated(self, monkeypatch):
        cfg = tiny_cfg(num_samplers=2, total_env_steps=900, horizon=150)
        store, hub, learner, samplers = fresh_setup(cfg)
        emitted = []
        append = store.append

        def recording_append(seg, **kw):
            out = append(seg, **kw)
            emitted.append((seg.episode_id, seg.start_index))
            return out

        monkeypatch.setattr(store, "append", recording_append)
        for _ in range(450):
            for s in samplers:
                s.tick()
        assert len(emitted) == store.appended_total
        assert len(set(emitted)) == len(emitted)
        stored_keys = {(seg.episode_id, seg.start_index) for seg in map(store.segment, range(len(store)))}
        assert stored_keys == set(emitted)

    def test_two_samplers_distinct_trajectories(self):
        cfg = tiny_cfg()
        store, hub, learner, samplers = fresh_setup(cfg)
        for _ in range(60):
            for s in samplers:
                s.tick()
        p0 = samplers[0].env.state[0:2]
        p1 = samplers[1].env.state[0:2]
        assert not np.allclose(p0, p1)

    def test_entropy_coordinate_injected(self):
        cfg = tiny_cfg(num_samplers=1)
        store, hub, learner, samplers = fresh_setup(cfg)
        while len(store) == 0:
            samplers[0].tick()
        seg = store.segment(0)
        # the environment emits zero; the sampler must have overwritten it
        assert np.any(seg.rewards[: seg.length, 6] != 0.0)

    def test_stored_records_fit_fullscale_capacity(self):
        # a sampler stores 15 env state rows of 10 floats per segment: a
        # record of 285 floats (it was 3,855 with 248-float observations)
        cfg = load_config(os.path.join(ROOT, "configs", "fullscale.txt"), overrides={"stage": "finetune", "difficulty": 2})
        assert cfg.n_step == 5
        store = PrioritizedStore(capacity=cfg.capacity, n_tail=cfg.n_step)
        hub = pipeline.PolicySnapshotHub()
        actor, _ = pipeline.build_learner_nets(cfg, np.random.default_rng(0))
        hub.publish(actor, cfg.init_alpha)
        sampler = pipeline.Sampler(0, cfg, store, hub)
        while len(store) < 3:
            sampler.tick()
        seg = store.segment(0)
        assert seg.obs.shape == (SEG_LEN + cfg.n_step, STATE_DIM)
        assert store._rec.shape[1] == 285
        per_slot = store._rec.shape[1] * store._rec.itemsize + store._raw_p.itemsize + store._gen.itemsize
        at_capacity = cfg.capacity * per_slot + store._tree.tree.nbytes
        assert at_capacity < 600e6

    def test_snapshot_version_never_decreases(self):
        cfg = tiny_cfg(num_samplers=1, publish_every=5)
        store, hub, learner, samplers = fresh_setup(cfg)
        s = samplers[0]
        versions = [s.snapshot.version]
        for _ in range(300):
            s.tick()
            while learner.throttle_ok() and len(store) >= cfg.batch:
                learner.step()
            versions.append(s.snapshot.version)
        assert all(b >= a for a, b in zip(versions, versions[1:]))
        assert versions[-1] > versions[0]  # publications actually happened

    def test_snapshots_are_read_only(self):
        cfg = tiny_cfg()
        store, hub, learner, samplers = fresh_setup(cfg)
        snap = hub.current()
        blk = snap.actor.param_blocks()[0]
        with pytest.raises(ValueError):
            blk.w[0, 0] = 1.0

    def test_sampler_params_never_mutated_by_learner(self):
        cfg = tiny_cfg(num_samplers=1, publish_every=10**9)  # no republish
        store, hub, learner, samplers = fresh_setup(cfg)
        s = samplers[0]
        fp_before = distill.network_fingerprint(s.snapshot.actor)
        for _ in range(200):
            s.tick()
        while learner.throttle_ok() and len(store) >= cfg.batch:
            learner.step()
        assert learner.steps > 0
        assert distill.network_fingerprint(s.snapshot.actor) == fp_before

    def test_env_fault_restarts_episode_with_fresh_seed(self):
        cfg = tiny_cfg(num_samplers=1)
        store, hub, learner, samplers = fresh_setup(cfg)
        s = samplers[0]
        for _ in range(3):
            s.tick()
        ep_before = s.episode_index
        s.env.state[0:2] = np.nan  # poison the environment
        s.tick()  # hits the fault path
        assert s.env_faults == 1
        s.tick()  # restarts cleanly
        assert s.episode_index == ep_before + 1
        assert np.isfinite(s._last_obs).all()


class TestLearnerThrottle:
    def test_replay_ratio_honored_within_one_step(self):
        cfg = tiny_cfg(total_env_steps=800)
        store, hub, learner, samplers = fresh_setup(cfg)
        for _ in range(400):
            for s in samplers:
                s.tick()
            while learner.throttle_ok() and len(store) >= cfg.batch:
                learner.step()
                cap = cfg.replay_ratio * store.appended_total / cfg.num_samplers
                assert learner.steps <= cap + 1
        assert learner.steps > 0
        assert learner.max_throttle_excess <= 1.0

    @pytest.mark.parametrize("replay_ratio", [0.5, 4.0, 16.0])
    def test_one_loop_keeps_throttle_excess_and_stale_updates_at_zero(self, tmp_path, replay_ratio):
        # the stage loop steps the learner only while steps < int(replay_ratio
        # * appended / num_samplers), and nothing appends between a batch's
        # sample and its priority update, so both health counters read 0
        # even while the store evicts
        cfg = tiny_cfg(replay_ratio=replay_ratio, capacity=60, total_env_steps=600, eval_episodes=1)
        res = pipeline.train_stage(cfg, str(tmp_path / "run"))
        store = res.learner.store
        assert store.evicted_total > 0 and res.learner_steps > 0
        assert res.learner.max_throttle_excess == 0.0
        assert store.stale_updates == 0

    def test_zero_segments_means_zero_learner_steps(self):
        cfg = tiny_cfg()
        store, hub, learner, samplers = fresh_setup(cfg)
        assert not learner.throttle_ok()
        assert learner.steps == 0

    def test_training_step_is_deterministic(self):
        results = []
        for _ in range(2):
            cfg = tiny_cfg(num_samplers=1)
            store, hub, learner, samplers = fresh_setup(cfg, seed=3)
            while len(store) < cfg.batch:
                samplers[0].tick()
            learner.step()
            results.append(distill.network_fingerprint(learner.actor))
        assert results[0] == results[1]


class TestLearnerLanes:
    """``Learner.step`` with every pass split (``_BOTH_MIN_WORK`` 0), its
    second halves on the worker thread (two lanes) or, with the worker
    held, on the calling thread (one lane)."""

    @staticmethod
    def _three_steps():
        cfg = tiny_cfg(num_samplers=1)
        store, hub, learner, samplers = fresh_setup(cfg, seed=4)
        while len(store) < cfg.batch:
            samplers[0].tick()
        losses = []
        for _ in range(3):
            learner.step()
            losses.append((learner.last_critic_loss, learner.last_actor_loss, learner.last_alpha_loss))
        ens = learner.ensemble
        nets = (learner.actor, ens.q1.net, ens.q2.net, ens.q1_target.net, ens.q2_target.net)
        arrays = [getattr(n.arena, v) for n in nets for v in ("params", "grads", "m", "v")]
        arrays += [store._raw_p, store._tree.tree]
        la = learner.log_alpha
        return losses, (la.params.tobytes(), la.m.tobytes(), la.v.tobytes(), la.step_count), [a.tobytes() for a in arrays]

    def test_three_steps_same_bytes_on_one_or_two_lanes(self, monkeypatch):
        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", 0)
        two = self._three_steps()
        with nn._LANE_OPEN:
            one = self._three_steps()
        assert two == one

    def test_worker_runs_only_nn_private_code(self, monkeypatch):
        import threading

        from fieldsac import policy

        monkeypatch.setattr(nn, "_BOTH_MIN_WORK", 0)
        cfg = tiny_cfg(num_samplers=1)
        store, hub, learner, samplers = fresh_setup(cfg, seed=5)
        while len(store) < cfg.batch:
            samplers[0].tick()
        calls = []
        public = [(sac, n) for n in ("critic_loss", "actor_loss", "n_step_targets", "temperature_loss", "_bootstrap_q")]
        public += [(policy, n) for n in ("head_from_output", "sample", "sample_grads")]
        public += [(nn, n) for n in ("forward", "backward", "adam_step_net", "soft_update_net")]
        private = [(nn, n) for n in ("_run", "_backward")]
        for mod, name in public + private:
            real = getattr(mod, name)

            def recording(*args, _real=real, _name=f"{mod.__name__}.{name}", **kw):
                calls.append((_name, threading.get_ident(), threading.active_count()))
                return _real(*args, **kw)

            monkeypatch.setattr(mod, name, recording)
        before = threading.active_count()
        learner.step()
        assert threading.active_count() == before
        me = threading.get_ident()
        on_worker = {name for name, t, _ in calls if t != me}
        assert on_worker == {"fieldsac.nn._run", "fieldsac.nn._backward"}
        assert all(n <= before + 1 for _, _, n in calls)
        names = [name for name, _, _ in calls]
        assert names.count("fieldsac.sac.critic_loss") == names.count("fieldsac.sac.actor_loss") == 1
        # every pass enters the public functions once
        assert names.count("fieldsac.nn.forward") == 8 and names.count("fieldsac.nn.backward") == 5


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_cfg()
        rng = np.random.default_rng(0)
        actor, ens = pipeline.build_learner_nets(cfg, rng)
        la = sac.log_alpha_arena(-1.3)
        la.m[0], la.v[0], la.step_count = 0.2, 0.01, 7
        d = pipeline.save_checkpoint(str(tmp_path / "ck"), actor, ens, la, cfg, 11, 22)
        bundle = pipeline.load_checkpoint(d)
        assert distill.network_fingerprint(bundle.actor) == distill.network_fingerprint(actor)
        assert distill.network_fingerprint(bundle.ensemble.q2_target.net) == distill.network_fingerprint(ens.q2_target.net)
        back = bundle.log_alpha
        assert back.params.size == 1 and back.step_count == 7
        for name in ("params", "m", "v"):
            assert getattr(back, name).tobytes() == getattr(la, name).tobytes(), name
        assert bundle.learner_steps == 11 and bundle.env_steps == 22
        assert bundle.stage == "pretrain"

    def test_missing_checkpoint_message_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="meta.txt"):
            pipeline.load_checkpoint(str(tmp_path / "nope"))

    def test_save_that_fails_partway_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        actor, ens = pipeline.build_learner_nets(cfg, np.random.default_rng(0))
        d = pipeline.save_checkpoint(str(tmp_path / "ck"), actor, ens, sac.log_alpha_arena(0.0), cfg, 1, 2)
        before = pipeline.checkpoint_fingerprint(d)
        new_actor, new_ens = pipeline.build_learner_nets(cfg, np.random.default_rng(1))
        real, calls = nn.save_network, []

        def third_fails(*args, **kwargs):
            calls.append(args[1])
            if len(calls) == 3:
                raise OSError("No space left on device")
            return real(*args, **kwargs)

        monkeypatch.setattr(nn, "save_network", third_fails)
        with pytest.raises(OSError, match="No space"):
            pipeline.save_checkpoint(d, new_actor, new_ens, sac.log_alpha_arena(1.0), cfg, 3, 4)
        monkeypatch.undo()
        assert len(calls) == 3
        assert pipeline.checkpoint_fingerprint(d) == before
        assert os.listdir(tmp_path) == ["ck"]
        assert pipeline.load_checkpoint(d).learner_steps == 1
        pipeline.save_checkpoint(d, new_actor, new_ens, sac.log_alpha_arena(1.0), cfg, 3, 4)
        assert pipeline.load_checkpoint(d).learner_steps == 3
        assert os.listdir(tmp_path) == ["ck"]


class TestEvaluate:
    def test_oracle_controller_reaches_sink_on_difficulty0(self):
        report = pipeline.evaluate(pipeline.SinkSeeker(), difficulty=0, episodes=5, seed=0, horizon=400)
        assert report.sink_reach_fraction == 1.0

    def test_oracle_controller_reaches_sink_on_difficulty2(self):
        report = pipeline.evaluate(pipeline.SinkSeeker(), difficulty=2, episodes=5, seed=3, horizon=600)
        assert report.sink_reach_fraction == 1.0

    def test_random_policy_reaches_nothing(self):
        cfg = tiny_cfg()
        actor, _ = pipeline.build_learner_nets(cfg, np.random.default_rng(5))
        report = pipeline.evaluate(pipeline.NetPolicy(actor, "teacher"), difficulty=0, episodes=5, seed=0, horizon=300)
        assert report.sink_reach_fraction <= 0.2
        assert np.isfinite(report.mean_env_reward)

    def test_same_checkpoint_same_seed_identical_report(self):
        cfg = tiny_cfg()
        actor, _ = pipeline.build_learner_nets(cfg, np.random.default_rng(6))
        r1 = pipeline.evaluate(pipeline.NetPolicy(actor, "teacher"), difficulty=1, episodes=3, seed=4, horizon=200)
        r2 = pipeline.evaluate(pipeline.NetPolicy(actor, "teacher"), difficulty=1, episodes=3, seed=4, horizon=200)
        assert r1 == r2

    def test_report_has_term_sums(self):
        report = pipeline.evaluate(pipeline.SinkSeeker(), difficulty=0, episodes=2, seed=0, horizon=100)
        assert set(report.term_sums) == {"r_env", "r_clp", "r_vdp", "r_pvb", "r_dep", "r_tab", "r_entropy"}


class TestMetrics:
    def test_csv_round_trips_losslessly(self, tmp_path):
        path = str(tmp_path / "m.csv")
        w = pipeline.MetricsWriter(path)
        row = {k: 0 for k in pipeline.METRICS_HEADER}
        row.update({"epoch": 1, "wall_time_s": 1.25, "critic_loss": 1 / 3, "alpha": 0.2000000000000001})
        w.write(row)
        back = pipeline.read_metrics(path)
        assert back[0]["critic_loss"] == 1 / 3
        assert back[0]["alpha"] == 0.2000000000000001

    def test_rows_ordered_by_learner_step(self, tmp_path):
        cfg = tiny_cfg(total_env_steps=1200, epoch_env_steps=400)
        res = pipeline.train_stage(cfg, str(tmp_path / "run"))
        rows = pipeline.read_metrics(res.metrics_path)
        steps = [r["learner_steps"] for r in rows]
        assert steps == sorted(steps)
        assert [r["epoch"] for r in rows] == sorted({r["epoch"] for r in rows})

    def test_missing_key_rejected(self, tmp_path):
        w = pipeline.MetricsWriter(str(tmp_path / "m.csv"))
        with pytest.raises(ConfigError):
            w.write({"epoch": 1})


class TestTrainStage:
    def test_single_thread_runs_and_saves(self, tmp_path):
        cfg = tiny_cfg()
        res = pipeline.train_stage(cfg, str(tmp_path / "run"))
        assert os.path.exists(os.path.join(res.checkpoint_dir, "meta.txt"))
        assert res.replay_dir is not None  # pretrain saves the replay
        assert os.path.exists(os.path.join(res.replay_dir, "replay.manifest"))
        assert res.learner_steps > 0
        assert res.env_steps >= cfg.total_env_steps
        parts = []
        for name in ("actor.bin", "q1.bin", "q2.bin", "q1_target.bin", "q2_target.bin", "meta.txt"):
            with open(os.path.join(res.checkpoint_dir, name), "rb") as f:
                parts.append(f.read())
        assert pipeline.checkpoint_fingerprint(res.checkpoint_dir) == b"".join(parts)

    def test_finetune_starts_with_empty_store_and_no_replay_dump(self, tmp_path):
        pre = pipeline.train_stage(tiny_cfg(), str(tmp_path / "pre"))
        bundle = pipeline.load_checkpoint(pre.checkpoint_dir)
        # adapt the teacher nets into student-shaped nets for the finetune stage
        student_actor = distill.clone_actor_into_student(bundle.actor, 242)
        q1 = distill.clone_critic_into_student(bundle.ensemble.q1, 6, 242)
        q2 = distill.clone_critic_into_student(bundle.ensemble.q2, 6, 242)
        ens = sac.CriticEnsemble(q1, q2, q1.copy(), q2.copy())
        cfg = tiny_cfg(stage="finetune", difficulty=2, total_env_steps=400, epoch_env_steps=400, horizon=100)
        res = pipeline.train_stage(cfg, str(tmp_path / "fin"), resume_actor=student_actor, resume_ensemble=ens)
        assert res.replay_dir is None

    def test_stop_at_first_eval_before_learning_still_saves(self, tmp_path):
        # the first eval comes after 40 env steps, before `batch` segments exist,
        # and any movement at all meets the stop criterion
        cfg = tiny_cfg(epoch_env_steps=40, stop_at_eval_speed=1e-12, eval_episodes=1)
        res = pipeline.train_stage(cfg, str(tmp_path / "run"))
        assert res.stopped_early and res.learner_steps == 0
        assert res.env_steps < cfg.total_env_steps
        assert os.path.exists(os.path.join(res.checkpoint_dir, "meta.txt"))

    def test_resume_with_wrong_dims_rejected(self, tmp_path):
        cfg = tiny_cfg(stage="finetune", difficulty=2)
        actor, ens = pipeline.build_learner_nets(tiny_cfg(), np.random.default_rng(0))  # teacher-shaped
        with pytest.raises(ConfigError, match="resumed actor"):
            pipeline.train_stage(cfg, str(tmp_path / "bad"), resume_actor=actor, resume_ensemble=ens)

    def test_bit_identical_checkpoints_across_single_thread_runs(self, tmp_path):
        fps = []
        for name in ("a", "b"):
            cfg = tiny_cfg(total_env_steps=600, epoch_env_steps=300)
            res = pipeline.train_stage(cfg, str(tmp_path / name))
            fps.append(pipeline.checkpoint_fingerprint(res.checkpoint_dir))
        assert fps[0] == fps[1]

    def test_single_thread_key_selects_nothing(self, tmp_path):
        fps = []
        for flag in (True, False):
            cfg = tiny_cfg(single_thread=flag, total_env_steps=600, epoch_env_steps=300)
            res = pipeline.train_stage(cfg, str(tmp_path / str(flag)))
            fps.append(pipeline.checkpoint_fingerprint(res.checkpoint_dir))
        assert fps[0] == fps[1]

    def test_sampler_crash_propagates_instead_of_hanging(self, tmp_path, monkeypatch):
        # a sampler thread used to die on this while the learner waited on a
        # condition variable that no one would notify again
        def crashing_step(self, action):
            raise RuntimeError("synthetic env crash")

        monkeypatch.setattr(PointMassEnv, "step", crashing_step)
        with pytest.raises(RuntimeError, match="synthetic env crash"):
            pipeline.train_stage(tiny_cfg(single_thread=False), str(tmp_path / "run"))

    def test_numeric_fault_checkpoints_and_halts(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        calls = {"n": 0}
        real = sac.critic_loss

        def poisoned(*a, **kw):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise NumericFault("synthetic fault: batch ids [(0, 1)]")
            return real(*a, **kw)

        monkeypatch.setattr(sac, "critic_loss", poisoned)
        with pytest.raises(NumericFault):
            pipeline.train_stage(cfg, str(tmp_path / "run"))
        assert os.path.exists(str(tmp_path / "run" / "faulted" / "meta.txt"))


class TestDistillStage:
    def test_full_stage_wiring(self, tmp_path):
        pre = pipeline.train_stage(tiny_cfg(total_env_steps=800, epoch_env_steps=400), str(tmp_path / "pre"))
        dcfg = distill.DistillConfig(field_dim=242, student_hidden=16, batch=32, lr_actor=1e-3, lr_critic=1e-3, max_steps=60, kl_stop=1e-9)
        res = pipeline.run_distill_stage(pre.checkpoint_dir, pre.replay_dir, str(tmp_path / "dist"), dcfg)
        assert res.teacher_unchanged
        bundle = pipeline.load_checkpoint(res.checkpoint_dir)
        assert bundle.actor.in_dim == 248
        assert bundle.ensemble.q1.net.in_dim == 250
        assert bundle.stage == "finetune"
        assert os.path.exists(res.metrics_path)


class TestCli:
    def test_check_subcommand_exit_zero(self):
        assert cli.main(["check"]) == 0

    def test_overflowing_optimiser_exits_two_and_writes_faulted(self, tmp_path, capsys):
        # with all three rates at 1, Adam's g * g left the float range and
        # this run exited 0 with alpha near 4e153 in metrics.csv
        flags = "--num_samplers 1 --hidden 8 --batch 1 --capacity 200 --total_env_steps 300 --horizon 60"
        flags += " --n_step 1 --replay_ratio 16 --lr_actor 1 --lr_critic 1 --lr_alpha 1"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["pretrain", "--out", str(tmp_path / "run"), *flags.split()])
        assert rc == 2
        assert capsys.readouterr().err.startswith("numeric fault: ")
        assert (tmp_path / "run" / "faulted" / "meta.txt").exists()
        assert not (tmp_path / "run" / "checkpoint").exists()

    def test_check_subcommand_exit_three_on_failure(self, monkeypatch):
        from fieldsac import checks

        def broken():
            raise AssertionError("synthetic invariant failure")

        monkeypatch.setattr(checks, "ALL_CHECKS", [("synthetic", broken)])
        assert cli.main(["check"]) == 3

    def test_numeric_fault_exit_two(self, tmp_path, monkeypatch, capsys):
        def exploding(*a, **kw):
            raise NumericFault("synthetic blow-up")

        monkeypatch.setattr(pipeline, "train_stage", exploding)
        rc = cli.main(["pretrain", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "numeric fault" in capsys.readouterr().err

    def test_config_error_exit_one(self, tmp_path, capsys):
        rc = cli.main(["pretrain", "--out", str(tmp_path / "x"), "--config", "does/not/exist.txt"])
        assert rc == 1
        assert "does/not/exist.txt" in capsys.readouterr().err

    def test_stage_without_learner_steps_exit_one(self, tmp_path, capsys):
        # 100 env steps cut at most 20 segments, fewer than desk's batch of 32,
        # so the config is rejected before the stage starts
        desk = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "desk.txt")
        flags = ["--total_env_steps", "100", "--epoch_env_steps", "100", "--eval_episodes", "1", "--horizon", "50"]
        rc = cli.main(["pretrain", "--config", desk, "--out", str(tmp_path / "x"), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert "total_env_steps" in err and "min_segments_to_learn" in err
        assert not (tmp_path / "x" / "checkpoint").exists()

    def test_stage_that_stores_too_few_segments_exits_one_after_the_loop(self, tmp_path, capsys):
        # 103 steps could cut 20 segments, but 4 samplers of about 25 steps
        # each in unfinished 50-step episodes store 12
        desk = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "desk.txt")
        flags = ["--total_env_steps", "100", "--epoch_env_steps", "100", "--eval_episodes", "1", "--horizon", "50", "--batch", "20"]
        rc = cli.main(["pretrain", "--config", desk, "--out", str(tmp_path / "x"), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ended without a learner step" in err and "min_segments_to_learn" in err
        assert not (tmp_path / "x" / "checkpoint").exists()

    def test_distill_on_a_v1_replay_snapshot_exits_one(self, tmp_path, capsys):
        cfg = tiny_cfg()
        actor, ens = pipeline.build_learner_nets(cfg, np.random.default_rng(0))
        teacher = pipeline.save_checkpoint(str(tmp_path / "teacher"), actor, ens, sac.log_alpha_arena(0.0), cfg)
        store, _, _, samplers = fresh_setup(cfg)
        while len(store) < 2:
            samplers[0].tick()
        man_path, _ = store.save(str(tmp_path / "replay"))
        with open(man_path) as f:
            text = f.read()
        with open(man_path, "w") as f:
            f.write(text.replace("fieldsac-replay-v2", "fieldsac-replay-v1"))
        rc = cli.main(["distill", "--teacher", teacher, "--replay", str(tmp_path / "replay"), "--out", str(tmp_path / "dist")])
        assert rc == 1
        assert "fieldsac-replay-v1" in capsys.readouterr().err
        assert not (tmp_path / "dist" / "checkpoint").exists()

    def test_unknown_override_exit_one(self, tmp_path, capsys):
        rc = cli.main(["pretrain", "--out", str(tmp_path / "x"), "--frobnicate", "9"])
        assert rc == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_missing_checkpoint_exit_one(self, tmp_path, capsys):
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "nope")])
        assert rc == 1
        assert "meta.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, missing, name",
        [
            ("eval", "teacher", "meta.txt"),
            ("finetune", "teacher", "meta.txt"),
            ("distill", "teacher", "meta.txt"),
            ("distill", "replay", "replay.manifest"),
        ],
    )
    def test_missing_artifact_exit_one(self, artifact_dirs, tmp_path, capsys, command, missing, name):
        dirs = dict(artifact_dirs, **{missing: str(tmp_path / "nope")})
        rc = cli.main(_artifact_argv(command, dirs, str(tmp_path / "out")))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and os.path.join(dirs[missing], name) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, name, key, value",
        [
            ("eval", "meta.txt", "alpha_t", None),
            ("finetune", "meta.txt", "learner_steps", "zz"),
            ("distill", "meta.txt", "log_alpha", "zz"),
            ("eval", "meta.txt", "log_alpha", ""),
            ("finetune", "meta.txt", "log_alpha", ""),
            ("distill", "meta.txt", "log_alpha", ""),
            ("eval", "actor.manifest", "num_layers", None),
            ("finetune", "q1.manifest", "layer.1", "zz"),
            ("distill", "q2_target.manifest", "with_optimizer", "zz"),
            ("distill", "replay.manifest", "capacity", None),
            ("distill", "replay.manifest", "alpha", "zz"),
            ("eval", "meta.txt", "stage", "banana"),
            ("eval", "meta.txt", "format", "zz"),
        ],
    )
    def test_damaged_manifest_exit_one(self, artifact_dirs, tmp_path, capsys, command, name, key, value):
        """A key that is missing (None), malformed ("zz") or in an empty
        file ("") exits 1 naming the file and the key."""
        dirs = {}
        for role, src in artifact_dirs.items():
            dirs[role] = str(tmp_path / role)
            shutil.copytree(src, dirs[role])
        path = os.path.join(dirs["replay" if name == "replay.manifest" else "teacher"], name)
        with open(path) as f:
            lines = f.read().splitlines()
        if value == "":
            lines = []
        elif value is None:
            lines = [ln for ln in lines if ln.partition("=")[0].strip() != key]
        else:
            lines = [f"{key} = {value}" if ln.partition("=")[0].strip() == key else ln for ln in lines]
        with open(path, "w") as f:
            f.write("".join(ln + "\n" for ln in lines))
        rc = cli.main(_artifact_argv(command, dirs, str(tmp_path / "out")))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err and repr(key) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, key",
        [
            # a traceback, a numeric fault, an argparse usage error (exit 2)
            # or a run that ended with exit 0, before distill read its keys
            # the way pretrain does
            (["--student-hidden", "0"], "student_hidden"),
            (["--student-hidden", "-3"], "student_hidden"),
            (["--lr", "0"], "lr_actor"),
            (["--lr", "-1"], "lr_actor"),
            (["--noise-std", "nan"], "noise_std"),
            (["--kl-stop", "nan"], "kl_stop"),
            (["--lr-decay-step", "-5"], "lr_decay_step"),
            (["--batch", "abc"], "batch"),
            (["--field_dim", "10"], "field_dim"),
        ],
    )
    def test_distill_exits_one_naming_the_key(self, artifact_dirs, tmp_path, capsys, flags, key):
        rc = cli.main([*_artifact_argv("distill", artifact_dirs, str(tmp_path / "out")), "--max-steps", "2", *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", ["README.md", "configs/desk.txt"])
    def test_documented_distill_command_builds_the_same_config(self, monkeypatch, doc):
        """The documented distill command line, with ``--lr`` and hyphenated
        keys, builds the DistillConfig its eight distill flags used to build."""
        with open(os.path.join(ROOT, doc)) as f:
            lines = [ln.lstrip("# ").rstrip() for ln in f]
        start = next(i for i, ln in enumerate(lines) if ln.startswith("fieldsac distill"))
        command = lines[start]
        while command.endswith("\\"):
            start += 1
            command = command[:-1] + lines[start]
        built = []

        def capture(teacher, replay, out, dcfg):
            built.append(dcfg)
            raise ConfigError("captured")

        monkeypatch.setattr(pipeline, "run_distill_stage", capture)
        assert cli.main(shlex.split(command)[1:]) == 1
        assert built == [
            distill.DistillConfig(
                field_dim=242, noise_std=0.1, batch=128, lr_actor=1e-3, lr_critic=1e-3, student_hidden=64,
                max_steps=12000, kl_stop=5e-5, lr_decay_step=6000, match_vector=False, seed=0,
            )
        ]

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--episodes", "0"], "episodes"),
            (["--seed", "-100"], "seed"),
            # argparse usage errors (exit 2) while argparse typed eval's flags
            (["--episodes", "abc"], "--episodes"),
            (["--difficulty", "x"], "--difficulty"),
            (["--seed", "y"], "--seed"),
            # a NotADirectoryError traceback: {tmp}/afile is a regular file
            (["--record-dir", "{tmp}/afile/sub"], "afile/sub"),
        ],
    )
    def test_eval_exits_one_naming_the_bad_input(self, artifact_dirs, capsys, tmp_path, flags, name):
        # an IndexError and a numpy ValueError traceback before evaluate checked them
        (tmp_path / "afile").write_text("")
        flags = [f.format(tmp=tmp_path) for f in flags]
        rc = cli.main([*_artifact_argv("eval", artifact_dirs, None), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_pretrain_eval_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "num_samplers = 2\nhidden = 16\nbatch = 16\nreplay_ratio = 4\ncapacity = 4000\n"
            "total_env_steps = 600\nepoch_env_steps = 300\nsingle_thread = true\nhorizon = 150\n"
        )
        rc = cli.main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "run"), "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "saved checkpoint to" in out and "saved replay snapshot to" in out
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint"), "--difficulty", "0", "--episodes", "2", "--seed", "1"])
        assert rc == 0
        assert "env reward" in capsys.readouterr().out
